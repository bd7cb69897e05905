"""Exact detection of F_q[theta]-polynomial relations among computed values.

Over a function field, bounded-height relation finding is a kernel
computation: matching series coefficients of sum c_i(theta) v_i to zero
through the precision window is F_p-linear algebra.  The columns of
theta^h v_i are shifts of one digit string per value, so the kernel
comes from an order basis: a reduction of the F_p[theta^-1]-module of
relations that hold through each window row in turn (Beckermann-Labahn,
SIAM J. Matrix Anal. Appl. 15, 1994), not of a lattice over Z.  Each row
is one Python int with a byte lane per entry, kept as an int through the
whole elimination: lanes add mod p by one big-int sum and a guard-bit
correction, so every step runs at C speed.

Certificates are evidence, not proofs: every output carries its bounds
(monomial degree D, coefficient height H, margin M, precision),
machine-readably marked "within bounds", and every returned relation is
re-verified by direct substitution before it is reported.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import CMPeriodsError, InsufficientPrecision
from .infinity import InfElem, align_all

# the byte lanes of _lanes hold any p <= 127; the search stops at 13
# because the reference it is tested against, _kernel_mod_p in
# tests/test_relhunt.py, adds c * base in one byte lane, up to p(p - 1),
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


@lru_cache(maxsize=None)
def _scale_tables(p):
    """The translate tables of i -> c*i mod p, one for each c < p."""
    return [bytes(c * i % p for i in range(256)) for c in range(p)]


def _lanes(p, width):
    """(add, times): x + y and c*y over F_p, lane by lane, on ints with one
    byte lane per entry, at most width lanes, each below p.

    add(x, y): lanes below p sum to at most 2p - 2 with no carry out of the
    lane, and adding 128 - p sets a lane's top bit exactly when its sum
    reaches p; that guard bit, moved to the lane's foot, says where to take
    p off.  Exact for p <= 127.

    times(c, mults), 0 < c < p: mults holds y at 1 and the multiples of y
    built so far.  A missing one is built once and kept there: 2y by one
    add, cheaper than a round trip through bytes and all that p = 3 needs,
    any other by one translate of y's bytes, made once and kept at 0.  So
    a step builds only the multiples it uses, at a cost that does not grow
    with p.
    """
    ones = int.from_bytes(b"\1" * width, "little")
    guard = (128 - p) * ones
    scales = _scale_tables(p)

    def add(x, y):
        s = x + y
        return s - p * (((s + guard) >> 7) & ones)

    def times(c, mults):
        x = mults.get(c)
        if x is None:
            y = mults[1]
            if c == 2:
                x = add(y, y)
            else:
                raw = mults.get(0)
                if raw is None:
                    raw = mults[0] = y.to_bytes(width, "little")
                x = int.from_bytes(raw.translate(scales[c]), "little")
            mults[c] = x
        return x

    return add, times


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

    Row g starts as theta^H eps_s v_i at degree 0: one int read from its
    string once, byte lane r its window residual at row r below nrows and
    its unit part above.  The window rows are met from the lowest up.  At
    row r, the live row of least degree that is nonzero there eliminates
    r from the other rows with the multiples of it that they need, each
    built once per step by _lanes, and is then multiplied by y (residual
    up shift lanes, unit part down a lanes, degree + 1), or dropped at
    degree H.  Rows of higher degree never act on rows of lower degree,
    so the live rows stay an order basis, reduced in the degree, of the
    relations of degree <= H in y (Beckermann-Labahn 1994).  The unit
    parts of y^t P, for each live row P of degree d and t = 0 .. H - d,
    are a basis of the kernel.
    """
    ncols = len(strings) * (H + 1)
    width = nrows + ncols
    add, times = _lanes(p, width)
    lift = 8 * min(shift, nrows)
    keep = (1 << 8 * nrows - lift) - 1  # the residual lanes y keeps

    def low(x):
        # the first nonzero residual row, nrows when the residual is zero
        return min(((x & -x).bit_length() - 1) >> 3, nrows)

    rows = []
    for g, s in enumerate(strings):
        col = (g // a * (H + 1) + H) * a + g % a
        x = int.from_bytes(s[H * shift: H * shift + nrows], "little") | 1 << 8 * (nrows + col)
        rows.append([x, 0, low(x)])
    while rows:
        r = min(row[2] for row in rows)
        if r >= nrows:
            break
        hits = [row for row in rows if row[2] == r]
        piv = min(hits, key=lambda row: row[1])
        x = piv[0]
        if len(hits) > 1:
            inv = pow(x >> 8 * r & 255, p - 2, p)
            mults = {1: x}
            for row in hits:
                if row is not piv:
                    row[0] = add(row[0], times((p - (row[0] >> 8 * r & 255)) * inv % p, mults))
                    row[2] = low(row[0])
        if piv[1] == H:
            rows.remove(piv)
        else:
            piv[0] = (x & keep) << lift | x >> 8 * (nrows + a) << 8 * nrows
            piv[1] += 1
            piv[2] = min(r + shift, nrows)
    return [
        (x >> 8 * (nrows + t * a)).to_bytes(ncols, "little") for x, d, _ in rows for t in range(H - d + 1)
    ]


def _canonical_kernel(generators, p):
    """The reduced echelon basis of the span of the generators, lazily.

    Leads are taken at the highest index: for each lead j, in ascending
    order, the vector with 1 at j and 0 at every other lead and past j.
    That basis is unique, so it does not depend on the generators.  An
    echelon form is built first, in ints of one byte lane per entry that
    add and scale by _lanes, each lead the top lane that bit_length finds;
    each vector is reduced only as it is yielded.  The generators must be
    linearly independent.
    """
    if not generators:
        return
    width = len(generators[0])
    add, times = _lanes(p, width)
    echelon = {}  # lead -> the multiples built of its vector, 1 at the lead
    for vec in generators:
        x = int.from_bytes(vec, "little")
        lead = (x.bit_length() - 1) >> 3
        while lead in echelon:
            x = add(x, times(p - (x >> 8 * lead), echelon[lead]))
            lead = (x.bit_length() - 1) >> 3
        echelon[lead] = {1: times(pow(x >> 8 * lead, p - 2, p), {1: x})}
    # a reduced vector is 0 at every other lead, so taking it off changes
    # no other lead: a vector's coefficients are its own lanes at the leads
    # below its lead, masked out once and met from the top
    reduced = {}
    leads = 0
    for j in sorted(echelon):
        x = echelon[j][1]
        coeffs = x & leads
        while coeffs:
            lead = (coeffs.bit_length() - 1) >> 3
            c = coeffs >> 8 * lead
            x = add(x, times(p - c, reduced[lead]))
            coeffs -= c << 8 * lead
        reduced[j] = {1: x}
        leads |= 255 << 8 * j
        yield x.to_bytes(width, "little")


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
    # h*e exponents higher: one string over kmin .. kmax + H*e per (i, eps)
    n = fld.n
    top = kmax + H * e
    strings = []
    if fld.size <= 256:
        # each value once as a string of element codes; eps scales it by one
        # translate, each digit plane is one more, and the planes interleave
        # by extended-slice assignment
        elems = range(fld.size)
        scales = [bytes(fld.mul(eps, c) for c in elems).ljust(256, b"\0") for eps in basis]
        planes = [bytes(fld.digits(c)[j] for c in elems).ljust(256, b"\0") for j in range(n)]
        for v in values:
            codes = bytearray(top - kmin)
            for x, c in v.coeffs.items():
                if x < top:
                    codes[x - kmin] = c
            for scale in scales:
                scaled = codes.translate(scale)
                digits = bytearray((top - kmin) * n)
                for j, plane in enumerate(planes):
                    digits[j::n] = scaled.translate(plane)
                strings.append(digits)
    else:
        for v in values:
            for eps in basis:
                digits = bytearray((top - kmin) * n)
                for x, c in v.coeffs.items():
                    if x < top:
                        digits[(x - kmin) * n: (x - kmin + 1) * n] = fld.digits(fld.mul(eps, c))
                strings.append(digits)
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
