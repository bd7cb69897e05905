"""Exact detection of F_q[theta]-polynomial relations among computed values.

Over a function field, bounded-height relation finding is a kernel
computation: matching series coefficients of sum c_i(theta) v_i to zero
through the precision window is F_p-linear algebra.  The columns of
theta^h v_i are shifts of one digit string per value, so the kernel
comes from an order basis: a reduction of the F_p[theta^-1]-module of
relations that hold through each window row in turn (Beckermann-Labahn,
SIAM J. Matrix Anal. Appl. 15, 1994), not of a lattice over Z.  Rows are
byte-packed and eliminated with C-speed integer arithmetic.

Certificates are evidence, not proofs: every output carries its bounds
(monomial degree D, coefficient height H, margin M, precision),
machine-readably marked "within bounds", and every returned relation is
re-verified by direct substitution before it is reported.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CMPeriodsError, InsufficientPrecision
from .infinity import InfElem, align_all

# each row update of the order basis and of its echelon form adds c * base
# to an entry in one byte lane: up to (p - 1)^2 + (p - 1) = p(p - 1),
# which stays below 256 only for p <= 13
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


def _axpy(x, c, y, width, tbl):
    """x + c*y over F_p, lane by lane: byte strings of the given width."""
    num = int.from_bytes(x, "little") + c * int.from_bytes(y, "little")
    return num.to_bytes(width, "little").translate(tbl)


def _order_basis(strings, a, H, shift, nrows, p):
    """A basis of the kernel of the relation system, from an order basis.

    String g = i*a + s holds the digits of eps_s v_i from the bottom of
    the window up, shift = e*n bytes per power of theta.  The column of
    theta^h eps_s v_i is the string read h*shift bytes up, and its unit
    lane is (i*(H+1) + h)*a + s.  The window starts H*e exponents below
    the lowest lead, so every string is zero in its first H*shift bytes,
    and y = theta^-1 takes the column of theta^h to that of theta^(h-1)
    by a shift of shift bytes: the system is a Hermite-Pade problem over
    F_p[y].

    Row g starts as theta^H eps_s v_i at degree 0: a byte string, its
    window residual followed by its unit part.  The window rows are met
    from the lowest up.  At row r, the live row of least degree that is
    nonzero there eliminates r from the other rows, and is then
    multiplied by y (residual up shift bytes, unit part down a lanes,
    degree + 1), or dropped at degree H.  Rows of higher degree never act
    on rows of lower degree, so the live rows stay an order basis,
    reduced in the degree, of the relations of degree <= H in y
    (Beckermann-Labahn 1994).  The unit parts of y^t P, for each live row
    P of degree d and t = 0 .. H - d, are a basis of the kernel.
    """
    ncols = len(strings) * (H + 1)
    width = nrows + ncols
    lift = min(shift, nrows)
    tbl = bytes(i % p for i in range(256))

    def low(buf):
        # the first nonzero residual row, nrows when the residual is zero
        return min(width - len(buf.lstrip(b"\0")), nrows)

    rows = []
    for g, s in enumerate(strings):
        col = (g // a * (H + 1) + H) * a + g % a
        buf = s[H * shift: H * shift + nrows] + bytes(col) + b"\1" + bytes(ncols - col - 1)
        rows.append([buf, 0, low(buf)])
    while rows:
        r = min(row[2] for row in rows)
        if r >= nrows:
            break
        hits = [row for row in rows if row[2] == r]
        piv = min(hits, key=lambda row: row[1])
        buf = piv[0]
        inv = pow(buf[r], p - 2, p)
        for row in hits:
            if row is not piv:
                row[0] = _axpy(row[0], (p - row[0][r]) * inv % p, buf, width, tbl)
                row[2] = low(row[0])
        if piv[1] == H:
            rows.remove(piv)
        else:
            piv[0] = bytes(lift) + buf[: nrows - lift] + buf[nrows + a:] + bytes(a)
            piv[1] += 1
            piv[2] = min(r + shift, nrows)
    return [buf[nrows + t * a:] + bytes(t * a) for buf, d, _ in rows for t in range(H - d + 1)]


def _canonical_kernel(generators, p):
    """The reduced echelon basis of the span of the generators, lazily.

    Leads are taken at the highest index: for each lead j, in ascending
    order, the vector with 1 at j and 0 at every other lead and past j.
    That basis is unique, so it does not depend on the generators.  An
    echelon form is built first; each vector is reduced only as it is
    yielded.  The generators must be linearly independent.
    """
    if not generators:
        return
    width = len(generators[0])
    tbl = bytes(i % p for i in range(256))
    echelon = {}
    for vec in generators:
        lead = len(vec.rstrip(b"\0")) - 1
        while lead in echelon:
            vec = _axpy(vec, p - vec[lead], echelon[lead], width, tbl)
            lead = len(vec.rstrip(b"\0")) - 1
        echelon[lead] = _axpy(bytes(width), pow(vec[lead], p - 2, p), vec, width, tbl)
    leads = sorted(echelon)
    for n, j in enumerate(leads):
        vec = echelon[j]
        for lead in reversed(leads[:n]):
            if vec[lead]:
                vec = _axpy(vec, p - vec[lead], echelon[lead], width, tbl)
        yield vec


def _relations(values, H, margin):
    """The verified relations among the values, in canonical kernel order.

    Sets up the F_p-linear system matching coefficients of
    sum c_i(theta) v_i through the precision window, with the unknowns
    the F_q-digits of each c_i of degree at most H.  Kernel vectors are
    re-verified by direct substitution before being yielded.
    """
    values, fld, e, kmin, kmax, basis, nrows, ncols = _system(values, H)
    if fld.p > KERNEL_P_MAX:
        raise CMPeriodsError(f"relation search works over F_p with p <= {KERNEL_P_MAX}, not p = {fld.p}")
    if ncols >= nrows - margin:
        raise InsufficientPrecision(
            f"search space {ncols} exceeds precision rows {nrows} - margin {margin}"
        )
    # the column of theta^h eps v_i is the digit string of eps v_i read
    # h*e exponents higher: one string over kmin .. kmax + H*e per (i, eps);
    # over a prime field (basis [1]) each coefficient is its own digit
    n = fld.n
    top = kmax + H * e
    strings = []
    for v in values:
        for eps in basis:
            digits = bytearray((top - kmin) * n)
            for x, c in v.coeffs.items():
                if x < top:
                    if n == 1:
                        digits[x - kmin] = c
                    else:
                        digits[(x - kmin) * n: (x - kmin + 1) * n] = fld.digits(fld.mul(eps, c))
            strings.append(bytes(digits))
    threshold = Fraction(kmax, e) - margin
    for vec in _canonical_kernel(_order_basis(strings, len(basis), H, e * n, nrows, fld.p), fld.p):
        coeffs = _vec_to_polys(vec, H, fld, basis)
        resid = _substitute(coeffs, values)
        if resid >= threshold:
            yield {"coeffs": coeffs, "residual": resid}


def find_linear_relations(values, H, margin=20):
    """Basis of detected F_q[theta]-linear relations among the values.

    Each relation is a kernel vector of the F_p-linear system of
    coefficients, re-verified by direct substitution.
    """
    return list(_relations(values, H, margin))


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
            term = InfElem(v.field, v.e, poly, v.prec - v.lead_exp + 1) * v
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
    # the first verified relation has the least degree: relations come
    # in canonical order, whose top value index never falls
    rel = next(_relations(_powers(value, D), H, margin), None)
    if rel is None:
        return None
    deg = max(i for i, cs in enumerate(rel["coeffs"]) if any(cs))
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
        ratio = prod / pi**weight
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
