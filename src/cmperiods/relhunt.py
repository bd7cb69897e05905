"""Exact detection of F_q[theta]-polynomial relations among computed values.

Over a function field, bounded-height relation finding is a kernel
computation: matching series coefficients of sum c_i(theta) v_i to zero
through the precision window is plain F_p-linear algebra, so no lattice
reduction enters.  Columns are byte-packed and eliminated with C-speed
integer arithmetic.

Certificates are evidence, not proofs: every output carries its bounds
(monomial degree D, coefficient height H, margin M, precision),
machine-readably marked "within bounds", and every returned relation is
re-verified by direct substitution before it is reported.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CMPeriodsError, InsufficientPrecision
from .infinity import InfElem, align_all

# _kernel_mod_p adds c * base to an entry in one byte lane: up to
# (p - 1)^2 + (p - 1) = p(p - 1), which stays below 256 only for p <= 13
KERNEL_P_MAX = 13


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


def _system(values, H):
    """The values aligned, with the shape of their relation system at height H.

    Returns (values, field, e, kmin, kmax, basis, nrows, ncols): the
    window kmin <= x < kmax from the lowest lead of any theta^h v_i with
    h <= H up to where all of them are known, the F_p-basis of F_q the
    unknowns run over, and the row and column counts of the F_p-linear
    system.
    """
    values, fld, e = align_all(values)
    kmin = min(v.lead_exp for v in values) - H * e
    kmax = min(v.prec for v in values) - H * e
    basis = _subfield_basis(fld)
    return values, fld, e, kmin, kmax, basis, (kmax - kmin) * fld.n, len(values) * (H + 1) * len(basis)


def _kernel_mod_p(columns, nrows, p):
    """Kernel basis of the matrix with the given columns over F_p.

    columns: list of byte strings of length nrows (entries in [0, p)).
    Each column is eliminated together with its unit vector, [A | I] read
    column by column.  A column is already zero at the pivot rows of the
    columns before it, so its pivot is its first nonzero byte; when that
    byte lies past A, the column reduced to zero and its unit part is a
    kernel vector (a tuple over F_p).
    """
    ncols = len(columns)
    width = nrows + ncols
    tbl = bytes(i % p for i in range(256))
    work = [col + bytes(j) + b"\1" + bytes(ncols - j - 1) for j, col in enumerate(columns)]
    kernel = []
    for j in range(ncols):
        col = work[j]
        piv = width - len(col.lstrip(b"\0"))
        if piv >= nrows:
            kernel.append(tuple(col[nrows:]))
            continue
        inv = pow(col[piv], p - 2, p)
        base = int.from_bytes(col, "little")
        for k in range(j + 1, ncols):
            f = work[k][piv]
            if f:
                num = int.from_bytes(work[k], "little") + (p - f) * inv % p * base
                work[k] = num.to_bytes(width, "little").translate(tbl)
    return kernel


def find_linear_relations(values, H, margin=20):
    """Basis of detected F_q[theta]-linear relations among the values.

    Sets up the F_p-linear system matching coefficients of
    sum c_i(theta) v_i through the precision window, with the unknowns
    the F_q-digits of each c_i of degree at most H.  Kernel vectors are
    re-verified by direct substitution before being returned.
    """
    values, fld, e, kmin, kmax, basis, nrows, ncols = _system(values, H)
    if fld.p > KERNEL_P_MAX:
        raise CMPeriodsError(f"relation search works over F_p with p <= {KERNEL_P_MAX}, not p = {fld.p}")
    if ncols >= nrows - margin:
        raise InsufficientPrecision(
            f"search space {ncols} exceeds precision rows {nrows} - margin {margin}"
        )
    # the column of theta^h eps v_i is the digit string of eps v_i read
    # h*e exponents higher: one string over kmin .. kmax + H*e per (i, eps)
    n = fld.n
    top = kmax + H * e
    columns = []
    for v in values:
        strings = []
        for eps in basis:
            digits = bytearray((top - kmin) * n)
            for x, c in v.coeffs.items():
                if x < top:
                    digits[(x - kmin) * n: (x - kmin + 1) * n] = fld.digits(fld.mul(eps, c))
            strings.append(bytes(digits))
        for h in range(H + 1):
            columns += [s[h * e * n: h * e * n + nrows] for s in strings]
    relations = []
    threshold = Fraction(kmax, e) - margin
    for vec in _kernel_mod_p(columns, nrows, fld.p):
        coeffs = _vec_to_polys(vec, H, fld, basis)
        resid = _substitute(coeffs, values)
        if resid >= threshold:
            relations.append({"coeffs": coeffs, "residual": resid})
    return relations


def _vec_to_polys(vec, H, fld, basis):
    """The polynomials c_i of a kernel vector: digit (i*(H+1) + h)*a + s is
    the coordinate on basis[s] of the theta^h coefficient of c_i."""
    a = len(basis)
    flat = []
    for j in range(0, len(vec), a):
        c = 0
        for d, eps in zip(vec[j: j + a], basis):
            if d:
                c = fld.add(c, fld.mul(fld.scalar(d), eps))
        flat.append(c)
    return [flat[j: j + H + 1] for j in range(0, len(flat), H + 1)]


def _substitute(coeff_polys, values):
    """Residual of sum_i c_i(theta) v_i by direct substitution.

    c_i(theta) is carried to v_i.prec - v_i.lead_exp + 1 exponent units, so
    each product is known to v_i.prec - deg(c_i)*e, the precision of the
    shifted copies of v_i it sums.
    """
    acc = None
    for cs, v in zip(coeff_polys, values):
        if any(cs):
            poly = {-h * v.e: c for h, c in enumerate(cs)}
            term = InfElem(v.field, v.e, poly, v.prec - v.lead_exp + 1, v.var) * v
            acc = term if acc is None else acc + term
    return acc.residual_val() if acc is not None else Fraction(0)


def _powers(value, D):
    out = [value**0]
    for _ in range(D):
        out.append(out[-1] * value)
    return out


def find_algebraic_relation(value, D, H, margin=20):
    """Minimal-degree polynomial certificate P(value) = 0 at the bounds,
    or None when the search space is exhausted without a verified hit."""
    relations = find_linear_relations(_powers(value, D), H, margin)
    if not relations:
        return None

    def degree(rel):
        return max(i for i, cs in enumerate(rel["coeffs"]) if any(cs))

    rel = min(relations, key=degree)
    deg = degree(rel)
    coeffs = rel["coeffs"][: deg + 1]
    # monic-leading preference: normalize the top theta-coefficient of c_deg
    lead_poly = coeffs[deg]
    top = max(h for h, c in enumerate(lead_poly) if c)
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
    return _substitute(cert["coeffs"], _powers(value, len(cert["coeffs"]) - 1))


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
    nrows, ncols = _system(values, H)[6:]
    return {
        "rows": nrows,
        "columns": ncols,
        "margin": margin,
        "solvable": ncols < nrows - margin,
        "bounds": {"D": D, "H": H, "M": margin},
    }
