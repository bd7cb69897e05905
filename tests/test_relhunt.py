import random
from fractions import Fraction

import pytest

from cmperiods.arith import Fq
from cmperiods.errors import CMPeriodsError, InsufficientPrecision
from cmperiods.infinity import InfElem, inf_nth_root
from cmperiods.relhunt import (
    KERNEL_P_MAX,
    _canonical_kernel,
    _lanes,
    _order_basis,
    _powers,
    _subfield_basis,
    _substitute,
    _system,
    _vec_to_polys,
    find_algebraic_relation,
    find_linear_relations,
    relation_query_report,
    verify_certificate,
)
from cmperiods.special import carlitz_period

F3 = Fq.get(3, 1, 1)


def _kernel_mod_p(columns, nrows, p):
    """Reference kernel basis of the matrix with the given columns over F_p.

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


def _reference_relations(values, H, margin=20):
    """find_linear_relations by the reference kernel on [A | I], the columns
    sliced from one digit string per value and basis element."""
    values, fld, e, kmin, kmax, basis, nrows, ncols = _system(values, H)
    if fld.p > KERNEL_P_MAX:
        raise CMPeriodsError(f"relation search works over F_p with p <= {KERNEL_P_MAX}, not p = {fld.p}")
    if ncols >= nrows - margin:
        raise InsufficientPrecision(f"search space {ncols} exceeds precision rows {nrows} - margin {margin}")
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


def rand_series(rng, field, prec=120, lead=-3, e=1):
    coeffs = {}
    for k in range(lead, prec):
        if rng.random() < 0.6:
            c = rng.randrange(field.size)
            if c:
                coeffs[k] = c
    return InfElem(field, e, coeffs, prec)


def test_planted_scaling_relation():
    pi = carlitz_period(3, 140)
    theta_pi = pi.mono_mul(1, -pi.e)
    rels = find_linear_relations([pi, theta_pi], H=4, margin=10)
    assert rels
    found = rels[0]["coeffs"]
    # theta * v1 - v2 = 0 up to scalar
    assert any(found[0][1:]) and any(found[1])


def test_duplicate_detected():
    rng = random.Random(2)
    v = rand_series(rng, F3)
    w = rand_series(rng, F3)
    rels = find_linear_relations([v, v, w], H=3, margin=10)
    assert rels
    rel = rels[0]["coeffs"]
    assert rel[2] == [0, 0, 0, 0]


def test_prime_limit_of_the_byte_kernel():
    # the reference kernel's byte lanes carry past p = 13: the search
    # refuses larger primes instead of answering unchecked
    for p, ok in [(13, True), (31, False)]:
        fld = Fq.get(p, 1, 1)
        rng = random.Random(p)
        v = rand_series(rng, fld)
        w = rand_series(rng, fld)
        if ok:
            assert find_linear_relations([v, v, w], H=3, margin=10)
        else:
            with pytest.raises(CMPeriodsError, match="p <= 13"):
                find_linear_relations([v, v, w], H=3, margin=10)


def _naive_rank(columns, p):
    """Rank over F_p by plain Gaussian elimination on the row-major matrix."""
    rows = [list(r) for r in zip(*columns)]
    rank = 0
    for c in range(len(columns)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] % p:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _random_matrix(rng, p, nrows, ncols):
    columns = []
    for _ in range(ncols):
        kind = rng.random()
        if columns and kind < 0.3:
            # a combination of earlier columns
            picks = [(rng.randrange(p), rng.choice(columns)) for _ in range(3)]
            col = [sum(c * b[i] for c, b in picks) % p for i in range(nrows)]
        elif kind < 0.35:
            col = [0] * nrows
        else:
            col = [rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(nrows)]
        columns.append(bytes(col))
    return columns


def _structured_system(rng, p, k, a, H, shift, nrows):
    """Digit strings of k*a values laid out as find_linear_relations lays
    them out, zero in their first H*shift bytes, with the columns they
    give.  Some strings are planted combinations of shifted earlier ones,
    some repeat or vanish."""
    length = nrows + H * shift
    strings = []
    for g in range(k * a):
        kind = rng.random()
        if strings and kind < 0.3:
            acc = [0] * length
            for _ in range(3):
                c, src, h = rng.randrange(p), rng.choice(strings), rng.randrange(H + 1)
                # the string of theta^h times an earlier value, where known
                for x in range(H * shift, length - h * shift):
                    acc[x] = (acc[x] + c * src[x + h * shift]) % p
            strings.append(bytes(acc))
        elif strings and kind < 0.35:
            strings.append(rng.choice(strings))
        elif kind < 0.4:
            strings.append(bytes(length))
        else:
            tail = [rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(nrows)]
            strings.append(bytes(H * shift) + bytes(tail))
    columns = []
    for i in range(k):
        for h in range(H + 1):
            columns += [s[h * shift: h * shift + nrows] for s in strings[i * a: (i + 1) * a]]
    return strings, columns


def test_kernel_against_naive_elimination():
    # the reference kernel on arbitrary matrices
    rng = random.Random(31)
    for p in (2, 3, 5, 7, 13):
        for _ in range(6):
            nrows = rng.randrange(4, 30)
            columns = _random_matrix(rng, p, nrows, rng.randrange(2, 24))
            kernel = _kernel_mod_p(columns, nrows, p)
            assert len(kernel) == len(columns) - _naive_rank(columns, p)
            for vec in kernel:
                assert all(sum(v * col[i] for v, col in zip(vec, columns)) % p == 0 for i in range(nrows))
            if kernel:
                assert _naive_rank([bytes(v) for v in kernel], p) == len(kernel)
    # the order-basis kernel on structured systems: the same canonical basis
    for p in (2, 3, 5, 7, 13):
        for _ in range(8):
            k, a, H, shift = rng.randrange(1, 4), rng.randrange(1, 3), rng.randrange(0, 5), rng.randrange(1, 4)
            nrows = k * a * (H + 1) + rng.randrange(0, 12)
            strings, columns = _structured_system(rng, p, k, a, H, shift, nrows)
            kernel = [tuple(v) for v in _canonical_kernel(_order_basis(strings, a, H, shift, nrows, p), p)]
            assert len(kernel) == len(columns) - _naive_rank(columns, p)
            for vec in kernel:
                assert all(sum(v * col[i] for v, col in zip(vec, columns)) % p == 0 for i in range(nrows))
            assert kernel == _kernel_mod_p(columns, nrows, p)


def test_lanes_add_and_scale_mod_p_in_every_lane():
    # every pair of lanes below p, packed into one int with a nonzero lane
    # at its top, adds as (x + y) % p with nothing carried between lanes,
    # and every multiple c*y is (c * y) % p lane by lane whichever way it
    # is built; 127 is the largest p the guard bit holds
    for p in (2, 3, 5, 7, 11, 13, 127):
        pairs = [(x, y) for x in range(p) for y in range(p)] + [(p - 1, p - 1)]
        xs, ys = bytes(x for x, _ in pairs), bytes(y for _, y in pairs)
        add, times = _lanes(p, len(pairs))
        total = add(int.from_bytes(xs, "little"), int.from_bytes(ys, "little"))
        assert total.to_bytes(len(pairs), "little") == bytes((x + y) % p for x, y in pairs)
        mults = {1: int.from_bytes(ys, "little")}
        for c in range(p - 1, 0, -1):
            got = times(c, mults).to_bytes(len(pairs), "little")
            assert got == bytes(c * y % p for y in ys) and times(c, mults) is mults[c]


def test_no_relation_for_ramified_element():
    # {1, theta^(1/2)} admit no F_q[theta]-linear relation at height 20
    one = InfElem.const(F3, 1, 200)
    half = inf_nth_root(InfElem.theta(F3, 200), 2)
    rels = find_linear_relations([one, half], H=20, margin=20)
    assert rels == []


def test_algebraic_relation_for_sqrt():
    # g theta^(1/2) satisfies X^2 + theta
    mth = InfElem.theta(F3, 160).scale(F3.neg(1))
    r = inf_nth_root(mth, 2)
    cert = find_algebraic_relation(r, D=3, H=6)
    assert cert is not None and cert["degree"] == 2
    # c_0 = theta, c_1 = 0, c_2 = 1 (monic normalization)
    assert cert["coeffs"][2][0] == 1 and not any(cert["coeffs"][2][1:])
    assert not any(cert["coeffs"][1])
    assert cert["coeffs"][0][1] == 1 and cert["coeffs"][0][0] == 0
    assert verify_certificate(cert, r) >= 100


def test_rational_value_certificate():
    # (theta+1)/theta: certificate theta X - (theta + 1)
    th = InfElem.theta(F3, 120)
    one = InfElem.const(F3, 1, 120)
    v = (th + one) / th
    cert = find_algebraic_relation(v, D=3, H=5)
    assert cert is not None and cert["degree"] == 1


def test_pi_has_no_low_certificate():
    # consistent with transcendence: nothing at D=3, H=12 from N=240
    pi = carlitz_period(3, 240)
    cert = find_algebraic_relation(pi, D=3, H=12)
    assert cert is None


def test_insufficient_precision_guard():
    rng = random.Random(5)
    v = rand_series(rng, F3, prec=30)
    with pytest.raises(InsufficientPrecision):
        find_linear_relations([v, v], H=40, margin=20)
    rep = relation_query_report([v, v], 1, 40, 20)
    assert not rep["solvable"]


def test_planted_relations_randomized():
    # completeness within bounds: planted relations are always found, and
    # every certificate re-verifies by substitution (soundness)
    rng = random.Random(77)
    found = 0
    for trial in range(25):
        k = rng.randrange(2, 4)
        H = rng.randrange(1, 5)
        vals = [rand_series(rng, F3, prec=150) for _ in range(k - 1)]
        coeffs = []
        for _ in range(k - 1):
            cs = [rng.randrange(3) for _ in range(H + 1)]
            if not any(cs):
                cs[0] = 1
            coeffs.append(cs)
        # v_k := sum c_i(theta) v_i, so (c_1, .., c_{k-1}, -1) is a relation
        acc = None
        for cs, v in zip(coeffs, vals):
            for h, c in enumerate(cs):
                if c:
                    term = v.mono_mul(c, -h)
                    acc = term if acc is None else acc + term
        if acc is None or acc.is_zero():
            continue
        vals.append(acc)
        rels = find_linear_relations(vals, H=H, margin=15)
        assert rels, f"trial {trial}: planted relation missed"
        for rel in rels:
            assert rel["residual"] >= Fraction(150 - H - 15)
        found += 1
    assert found >= 20


def test_monotonicity_in_precision():
    # raising precision never removes a verified certificate
    mth = InfElem.theta(F3, 120).scale(F3.neg(1))
    r1 = inf_nth_root(mth, 2)
    cert1 = find_algebraic_relation(r1, D=2, H=3)
    mth2 = InfElem.theta(F3, 260).scale(F3.neg(1))
    r2 = inf_nth_root(mth2, 2)
    cert2 = find_algebraic_relation(r2, D=2, H=3)
    assert cert1 is not None and cert2 is not None
    assert cert1["coeffs"] == cert2["coeffs"]
    assert verify_certificate(cert1, r2) > verify_certificate(cert1, r1)


def _fq_element(rng, fld):
    """A random element of the subfield F_q, zero included."""
    c = 0
    for eps in _subfield_basis(fld):
        c = fld.add(c, fld.mul(fld.scalar(rng.randrange(fld.p)), eps))
    return c


def _equivalence_case(rng, p, a, m, e, H, k):
    """Values for one relation query: random series over F_(q^m), q = p^a,
    ramified by e, sometimes sparse, with a planted relation whose
    coefficients lie in F_q, a repeated value or an all-zero value."""
    fld = Fq.get(p, a, m)
    margin = rng.randrange(5, 16)
    # about as many rows as the search needs, so the guard fires now and then
    prec = (k * (H + 1) * a + margin) // (e * fld.n) + H + rng.randrange(0, 12)
    density = rng.choice([0.6, 0.6, 0.1])

    def value():
        coeffs = {x: rng.randrange(fld.size) for x in range(-3 * e, prec * e) if rng.random() < density}
        return InfElem(fld, e, coeffs, prec * e)

    values = [value() for _ in range(k)]
    kind = rng.random()
    if k > 1 and kind < 0.5:
        acc = None
        for v in values[:-1]:
            deg = rng.randrange(H + 1)
            cs = {-h * e: _fq_element(rng, fld) for h in range(deg + 1)}
            term = InfElem(fld, e, cs, (prec + H + 4) * e) * v
            acc = term if acc is None else acc + term
        values[-1] = acc
    elif k > 1 and kind < 0.65:
        values[-1] = rng.choice(values[:-1])
    elif kind < 0.8:
        values[rng.randrange(k)] = InfElem.zero(fld, prec, e)
    rng.shuffle(values)
    return values, margin


def _outcome(search, values, H, margin):
    try:
        return search(values, H, margin)
    except CMPeriodsError as exc:
        return type(exc)


def test_relations_match_the_reference_kernel_randomized():
    rng = random.Random(1994)
    guarded = 0
    searched = set()  # whether the field of a search that ran had > 256 elements
    for _ in range(140):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        a, m, e = rng.choice([1, 2]), rng.choice([1, 2]), rng.choice([1, 2, 3])
        H, k = rng.choice([0, 1, 3, 8]), rng.randrange(1, 6)
        values, margin = _equivalence_case(rng, p, a, m, e, H, k)
        want = _outcome(_reference_relations, values, H, margin)
        assert _outcome(find_linear_relations, values, H, margin) == want, (p, a, m, e, H, k)
        guarded += want is InsufficientPrecision
        if isinstance(want, list):
            searched.add(Fq.get(p, a, m).size > 256)
    assert 0 < guarded < 70
    # digit strings are built by translate in fields of at most 256
    # elements and coefficient by coefficient past that: both ran
    assert searched == {False, True}
    # past the byte lanes both refuse the same way
    values, margin = _equivalence_case(rng, 17, 1, 1, 1, 3, 3)
    assert _outcome(find_linear_relations, values, 3, margin) is CMPeriodsError
    assert _outcome(_reference_relations, values, 3, margin) is CMPeriodsError


def _least_degree_certificate(value, D, H, margin=20):
    """find_algebraic_relation read off the whole relation list: the least
    degree relation, its top coefficient made monic."""
    relations = find_linear_relations(_powers(value, D), H, margin)
    if not relations:
        return None

    def degree(rel):
        return max(i for i, cs in enumerate(rel["coeffs"]) if any(cs))

    rel = min(relations, key=degree)
    deg = degree(rel)
    coeffs = rel["coeffs"][: deg + 1]
    top = max(h for h, c in enumerate(coeffs[deg]) if c)
    fld = value.field
    inv = fld.inv(coeffs[deg][top])
    return {
        "degree": deg,
        "coeffs": [[fld.mul(inv, c) for c in cs] for cs in coeffs],
        "residual": rel["residual"],
        "bounds": {"D": D, "H": H, "M": margin},
        "precision": value.prec_val,
        "within_bounds": True,
    }


def test_first_verified_relation_is_the_least_degree_certificate():
    # a constant ratio, whose kernel holds many relations of each degree,
    # and sqrt(-theta)
    pi = carlitz_period(4, 160)
    g = pi.field.pow(pi.field.gen, 5)
    ratio = pi.scale(g) * pi.inverse()
    mth = InfElem.theta(F3, 160).scale(F3.neg(1))
    for value, D, H in [(ratio, 4, 12), (inf_nth_root(mth, 2), 3, 6)]:
        cert = find_algebraic_relation(value, D, H)
        assert cert is not None
        assert cert == _least_degree_certificate(value, D, H)
