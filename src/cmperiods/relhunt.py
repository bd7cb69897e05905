"""Exact detection of F_q[theta]-polynomial relations among computed values.

Over a function field, bounded-height relation finding is a kernel
computation: matching series coefficients of sum c_i(theta) v_i to zero
through the precision window is plain F_p-linear algebra, so no lattice
reduction enters.  Rows are byte-packed and eliminated with C-speed
integer arithmetic.

Certificates are evidence, not proofs: every output carries its bounds
(monomial degree D, coefficient height H, margin M, precision),
machine-readably marked "within bounds", and every returned relation is
re-verified by direct substitution before it is reported.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import CMPeriodsError, InsufficientPrecision

# _kernel_mod_p adds c * base to an entry in one byte lane: up to
# (p - 1)^2 + (p - 1) = p(p - 1), which stays below 256 only for p <= 13
KERNEL_P_MAX = 13


def _align_values(values):
    fld = values[0].field
    e = values[0].e
    for v in values[1:]:
        fld = fld.compositum(v.field)
        e = lcm(e, v.e)
    return [v.lift(fld, e) for v in values], fld, e


def _subfield_basis(field):
    """An F_p-basis of the degree-a subfield F_q inside the field."""
    a = field.a
    if a == 1:
        return [1]
    sub_gen = field.pow(field.gen, (field.size - 1) // (field.q - 1))
    out = [1]
    for _ in range(a - 1):
        out.append(field.mul(out[-1], sub_gen))
    return out


def _kernel_mod_p(columns, nrows, p):
    """Kernel basis of the matrix with the given columns over F_p.

    columns: list of byte strings of length nrows (entries in [0, p)).
    Returns a list of kernel vectors (tuples over F_p).
    """
    ncols = len(columns)
    tbl = bytes(i % p for i in range(256))
    # reduce [A | I] column-style: unknowns = columns
    work = [bytearray(col) for col in columns]
    track = []
    for j in range(ncols):
        t = bytearray(ncols)
        t[j] = 1
        track.append(t)
    pivot_of_col = [None] * ncols
    used_rows = set()
    for j in range(ncols):
        col = work[j]
        piv = None
        for i in range(nrows):
            if col[i] and i not in used_rows:
                piv = i
                break
        if piv is None:
            continue
        pivot_of_col[j] = piv
        used_rows.add(piv)
        inv = pow(col[piv], p - 2, p)
        if inv != 1:
            num = int.from_bytes(col, "little") * inv
            work[j] = bytearray(num.to_bytes(len(col) + 4, "little")[: len(col)].translate(tbl))
            numt = int.from_bytes(track[j], "little") * inv
            track[j] = bytearray(numt.to_bytes(len(track[j]) + 4, "little")[: len(track[j])].translate(tbl))
            col = work[j]
        base = int.from_bytes(col, "little")
        baset = int.from_bytes(track[j], "little")
        for k in range(j + 1, ncols):
            f = work[k][piv]
            if f:
                c = (p - f) % p
                num = int.from_bytes(work[k], "little") + c * base
                work[k] = bytearray(num.to_bytes(len(col) + 8, "little")[: len(col)].translate(tbl))
                numt = int.from_bytes(track[k], "little") + c * baset
                track[k] = bytearray(numt.to_bytes(ncols + 8, "little")[:ncols].translate(tbl))
    kernel = []
    for j in range(ncols):
        if pivot_of_col[j] is None and any(work[j][i] for i in range(nrows)) is False:
            kernel.append(tuple(track[j]))
    return kernel


def _window(values, H, e):
    leads = [v.lead_exp for v in values]
    precs = [v.prec for v in values]
    kmin = min(leads) - H * e
    kmax = min(p - H * e for p in precs)
    return kmin, kmax


def find_linear_relations(values, H, margin=20, enforce=True):
    """Basis of detected F_q[theta]-linear relations among the values.

    Sets up the F_p-linear system matching coefficients of
    sum c_i(theta) v_i through the precision window, with the unknowns
    the F_q-digits of each c_i of degree at most H.  Kernel vectors are
    re-verified by direct substitution before being returned.
    """
    values, fld, e = _align_values(values)
    if fld.p > KERNEL_P_MAX:
        raise CMPeriodsError(f"relation search works over F_p with p <= {KERNEL_P_MAX}, not p = {fld.p}")
    k = len(values)
    kmin, kmax = _window(values, H, e)
    n = fld.n
    nrows = (kmax - kmin) * n
    sub_basis = _subfield_basis(fld)
    ncols = k * (H + 1) * len(sub_basis)
    if enforce and ncols >= nrows - margin:
        raise InsufficientPrecision(
            f"search space {ncols} exceeds precision rows {nrows} - margin {margin}"
        )
    columns = []
    digits = fld.digits
    colmeta = []
    for i, v in enumerate(values):
        for h in range(H + 1):
            for eps in sub_basis:
                col = bytearray(nrows)
                for kk, c in v.coeffs.items():
                    kshift = kk - h * e
                    if kmin <= kshift < kmax:
                        d = digits(fld.mul(eps, c))
                        base = (kshift - kmin) * n
                        for jj, dd in enumerate(d):
                            col[base + jj] = dd
                columns.append(bytes(col))
                colmeta.append((i, h, eps))
    kernel = _kernel_mod_p(columns, nrows, fld.p)
    relations = []
    threshold = Fraction(kmax, e) - margin
    for vec in kernel:
        coeffs = _vec_to_polys(vec, colmeta, k, H, fld)
        resid = _substitute(coeffs, values, fld, e)
        if resid >= threshold:
            relations.append({"coeffs": coeffs, "residual": resid})
    return relations


def _vec_to_polys(vec, colmeta, k, H, fld):
    polys = []
    for i in range(k):
        cs = [0] * (H + 1)
        for idx, (ii, h, eps) in enumerate(colmeta):
            if ii == i and vec[idx]:
                cs[h] = fld.add(cs[h], fld.mul(fld.scalar(vec[idx]), eps))
        polys.append(cs)
    return polys


def _substitute(coeff_polys, values, fld, e):
    acc = None
    for cs, v in zip(coeff_polys, values):
        for h, c in enumerate(cs):
            if c:
                term = v.mono_mul(c, -h * e)
                acc = term if acc is None else acc + term
    if acc is None:
        return Fraction(0)
    return acc.residual_val()


def find_algebraic_relation(value, D, H, margin=20):
    """Minimal-degree polynomial certificate P(value) = 0 at the bounds,
    or None when the search space is exhausted without a verified hit."""
    powers = [value**0]
    for _ in range(D):
        powers.append(powers[-1] * value)
    relations = find_linear_relations(powers, H, margin)
    if not relations:
        return None
    best = None
    for rel in relations:
        deg = max(i for i, cs in enumerate(rel["coeffs"]) if any(cs))
        if best is None or deg < best[0]:
            best = (deg, rel)
    deg, rel = best
    coeffs = rel["coeffs"][: deg + 1]
    # monic-leading preference: normalize the top theta-coefficient of c_deg
    lead_poly = coeffs[deg]
    top = max(h for h, c in enumerate(lead_poly) if c)
    inv = None
    fld = value.field
    inv = fld.inv(lead_poly[top])
    coeffs = [[fld.mul(inv, c) for c in cs] for cs in coeffs]
    return {
        "degree": deg,
        "coeffs": coeffs,
        "residual": rel["residual"],
        "bounds": {"D": D, "H": H, "M": margin},
        "precision": value.prec_val,
        "within_bounds": True,
    }


def verify_certificate(cert, value):
    """Direct-substitution residual of a certificate against a value."""
    fld, e = value.field, value.e
    acc = None
    power = value**0
    for d, cs in enumerate(cert["coeffs"]):
        if d:
            power = power * value
        for h, c in enumerate(cs):
            if c:
                term = power.mono_mul(c, -h * e)
                acc = term if acc is None else acc + term
    return acc.residual_val() if acc is not None else Fraction(0)


def certify_legendre(fiber_symbols, pi, weight, D=4, H=40, margin=20):
    """Per-fiber certification of prod p(xi, Xi) ~ pi^weight.

    fiber_symbols: {fiber label: [symbol values]}.  For each fiber the
    ratio R = prod / pi^weight is fed to the algebraic-relation search;
    PASS means a certificate exists at the stated bounds.
    """
    out = {}
    for fiber, symbols in sorted(fiber_symbols.items()):
        prod = None
        for s in symbols:
            prod = s if prod is None else prod * s
        ratio = prod * (pi**weight).inverse()
        cert = find_algebraic_relation(ratio, D, H, margin)
        out[fiber] = {
            "pass": cert is not None,
            "certificate": cert,
            "ratio_valuation": ratio.val(),
        }
    return out


def relation_query_report(values, D, H, margin):
    """The enforced solvability precondition, machine-readable."""
    vals, fld, e = _align_values(values)
    kmin, kmax = _window(vals, H, e)
    nrows = (kmax - kmin) * fld.n
    ncols = len(vals) * (H + 1) * len(_subfield_basis(fld))
    return {
        "rows": nrows,
        "columns": ncols,
        "margin": margin,
        "solvable": ncols < nrows - margin,
        "bounds": {"D": D, "H": H, "M": margin},
    }
