import random
from fractions import Fraction
from itertools import permutations
from math import gcd, isqrt

import pytest

from cmperiods.arith import Fq, poly_divmod, poly_eval, poly_inv_mod, poly_mul, poly_taylor
from cmperiods.errors import DivisionByApparentZero, NotAPower, PrecisionExhausted
from cmperiods.fixtures import get_fixture
from cmperiods.infinity import (
    _PACK_THRESHOLD,
    InfElem,
    _kronecker_mul,
    inf_arith,
    inf_frobenius,
    inf_nth_root,
    newton_roots,
)

F2 = Fq.get(2, 1, 1)
F3 = Fq.get(3, 1, 1)
F9 = Fq.get(3, 1, 2)
F257 = Fq.get(257, 1, 1)
F4093 = Fq.get(4093, 1, 1)


def rand_elem(rng, field, e=1, prec=40, lead=-6, density=0.5):
    coeffs = {}
    for k in range(lead, prec):
        if rng.random() < density:
            c = rng.randrange(1, field.size)
            coeffs[k] = c
    return InfElem(field, e, coeffs, prec)


def test_theta_product_difference_of_squares():
    # (theta + 1)(theta - 1) = theta^2 - 1 at N=50, q=3
    th = InfElem.theta(F3, 50)
    one = InfElem.const(F3, 1, 50)
    prod = inf_arith(th + one, th - one, "mul")
    expect = th * th - one
    assert (prod - expect).is_zero()
    assert prod.coeffs == {-2: 1, 0: 2}


def test_geometric_series_inverse():
    # 1/(1 - theta^-1) at N=5
    one = InfElem.const(F3, 1, 5)
    x = InfElem(F3, 1, {1: 1}, 5)
    inv = inf_arith(one, one - x, "div")
    assert inv.coeffs == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    assert inv.prec == 5


def test_ramified_square():
    # (g*theta^(1/2))^2 = -theta with g^2 = -1 in F_9; oracle is the direct
    # multiplication of the element with itself.
    g = next(x for x in F9.elements() if F9.mul(x, x) == F9.neg(1))
    a = InfElem(F9, 2, {-1: g}, 80)
    sq = a * a
    minus_theta = InfElem.theta(F9, 40, e=2).scale(F9.neg(1))
    assert (sq - minus_theta).is_zero()


def test_division_by_apparent_zero():
    z = InfElem.zero(F3, 30)
    one = InfElem.const(F3, 1, 30)
    with pytest.raises(DivisionByApparentZero):
        inf_arith(one, z, "div")


def test_frobenius_examples():
    th = InfElem.theta(F3, 20)
    cubed = inf_frobenius(th, 1)
    assert cubed.coeffs == {-3: 1}
    c = InfElem.const(F3, 2, 20)
    assert inf_frobenius(c, 5).coeffs == {0: 2}
    # (g*theta^(1/2))^3 = g^3 theta^(3/2) = -g theta^(3/2); oracle:
    # coefficient Frobenius + exponent scaling
    g = next(x for x in F9.elements() if F9.mul(x, x) == F9.neg(1))
    a = InfElem(F9, 2, {-1: g}, 60)
    tw = inf_frobenius(a, 1)
    assert tw.coeffs == {-3: F9.neg(g)}
    # inverse twist round-trips
    back = inf_frobenius(tw, -1)
    assert (back - a).is_zero()


def test_frobenius_not_a_power():
    a = InfElem(F3, 1, {-1: 1, 0: 1}, 30)  # theta + 1
    with pytest.raises(NotAPower):
        inf_frobenius(a, -1)


def test_frobenius_additive_exact():
    rng = random.Random(5)
    for _ in range(10):
        a = rand_elem(rng, F9, e=2)
        b = rand_elem(rng, F9, e=2)
        lhs = inf_frobenius(a + b, 1)
        rhs = inf_frobenius(a, 1) + inf_frobenius(b, 1)
        assert lhs.coeffs == rhs.coeffs


def test_valuation_rules():
    rng = random.Random(13)
    for _ in range(30):
        a = rand_elem(rng, F3, prec=30, lead=rng.randrange(-8, 2))
        b = rand_elem(rng, F3, prec=30, lead=rng.randrange(-8, 2))
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).val() == a.val() + b.val()
        s = a + b
        if not s.is_zero():
            assert s.val() >= min(a.val(), b.val())
            if a.val() != b.val():
                assert s.val() == min(a.val(), b.val())


def test_nth_root_examples():
    # theta^2, n=2 -> theta
    sq = InfElem(F3, 1, {-2: 1}, 40)
    r = inf_nth_root(sq, 2)
    assert (r - InfElem.theta(F3, 20).lift(r.field, r.e)).is_zero()
    # char 2: -theta = theta, n=1
    th2 = InfElem.theta(F2, 30)
    assert inf_nth_root(th2.scale(1), 1).coeffs == {-1: 1}
    # (-theta)^(1/2) over F_3 lands in F_9 with leading g, g^2 = -1,
    # verified by squaring
    mth = InfElem.theta(F3, 60).scale(F3.neg(1))
    r = inf_nth_root(mth, 2)
    assert r.e == 2 and r.field.size == 9
    g = r.lead_coeff()
    assert r.field.mul(g, g) == r.field.neg(1)
    assert (r * r - mth.lift(r.field, r.e)).is_zero()


def test_nth_root_canonical_choice_is_deterministic():
    mth = InfElem.theta(F3, 60).scale(F3.neg(1))
    r1 = inf_nth_root(mth, 2)
    r2 = inf_nth_root(mth, 2)
    assert r1.coeffs == r2.coeffs
    # canonical = smaller dlog among the two leading coefficients
    g = r1.lead_coeff()
    assert r1.field.dlog(g) <= r1.field.dlog(r1.field.neg(g))


def test_nth_root_residual_high():
    # r^n - a vanishes at the precision the arithmetic can see; for n prime
    # to p that precision is essentially the input precision
    rng = random.Random(3)
    for n in (2, 3, 4, 6):
        a = rand_elem(rng, F3, prec=60, lead=-4)
        if a.is_zero():
            continue
        r = inf_nth_root(a, n)
        diff = r**n - a.lift(r.field, r.e)
        assert diff.is_zero()
        if n % 3:
            assert diff.residual_val() >= Fraction(3, 4) * a.prec_val


def test_p_power_root():
    # cube root in char 3 forces ramification by p
    th = InfElem.theta(F3, 27)
    r = inf_nth_root(th, 3)
    assert (r**3 - th.lift(r.field, r.e)).is_zero()


def test_packed_mul_matches_naive():
    rng = random.Random(31)
    # F_4093 at 400 units needs 64-bit slots; the others fit 8, 16 or 32.
    # Fields past 4096 elements go through the same kernel.
    big = [Fq.get(3, 1, 8), Fq.get(2, 1, 13), Fq.get(5, 1, 6), Fq.get(4093, 1, 2)]
    cases = [(F3, 1, 120), (F9, 2, 120), (F2, 1, 120), (F257, 1, 120), (F4093, 1, 120), (F4093, 1, 400)]
    cases += [(field, 1, 80) for field in big]
    for field, e, top in cases:
        a = rand_elem(rng, field, e=e, prec=top, lead=-10, density=0.9)
        b = rand_elem(rng, field, e=e, prec=top, lead=-7, density=0.9)
        prec = min(a.prec + b.lead_exp, b.prec + a.lead_exp)
        (packed,) = _kronecker_mul([a], [b], 1)
        assert packed.prec == prec
        naive = {}
        for k1, c1 in a.coeffs.items():
            for k2, c2 in b.coeffs.items():
                k = k1 + k2
                if k >= prec:
                    continue
                s = field.add(naive.get(k, 0), field.mul(c1, c2))
                if s:
                    naive[k] = s
                else:
                    naive.pop(k, None)
        assert packed.coeffs == naive
        assert (a * b).coeffs == naive


def test_kronecker_mul_raises_past_64_bit_slots():
    # at p <= 2^16 a slot past 64 bits means over 2^33 slots; the kernel
    # raises before it allocates any, and never declines a product
    from cmperiods.tate import TateSeries

    fld = Fq.get(65521, 1, 1)
    far = 1 << 40
    a = InfElem(fld, 1, {0: 1, 1: 2, far: 3}, far + 1)
    with pytest.raises(OverflowError):
        _kronecker_mul([a], [a], 1)
    with pytest.raises(OverflowError):
        TateSeries([a]) * TateSeries([a])
    # an InfElem product of so few digits takes the dict loop
    assert (a * a).coeffs == {0: 1, 1: 4, 2: 4, far: 6}


def test_newton_roots_quadratic_ramified():
    # y^2 + theta over F_3: the two square roots of -theta; oracle is
    # substitution
    th = InfElem.theta(F3, 60)
    one = InfElem.const(F3, 1, 60)
    f = [th, InfElem.zero(F3, 60), one]
    roots = newton_roots(f)
    assert sorted(m for _, m in roots) == [1, 1]
    for r, _ in roots:
        fr = r * r + th.lift(r.field, r.e)
        assert fr.is_zero() or fr.val() >= Fraction(40)
    r0, r1 = roots[0][0], roots[1][0]
    assert (r0 + r1).is_zero()


def test_newton_roots_split_rational():
    # y^2 - theta^2 -> {theta, -theta}
    th = InfElem.theta(F3, 50)
    one = InfElem.const(F3, 1, 50)
    f = [-(th * th), InfElem.zero(F3, 50), one]
    roots = newton_roots(f)
    vals = sorted((r.lead_exp, r.lead_coeff()) for r, _ in roots)
    assert vals == [(-1, 1), (-1, 2)]


def test_newton_roots_carlitz_torsion_equation():
    # y^(q-1) + theta at q=3: X^2 = -theta
    th = InfElem.theta(F3, 60)
    one = InfElem.const(F3, 1, 60)
    roots = newton_roots([th, InfElem.zero(F3, 60), one])
    assert len(roots) == 2
    for r, m in roots:
        assert m == 1
        assert (r * r + th.lift(r.field, r.e)).is_zero()


def test_newton_roots_multiplicity_and_product():
    # (y - theta)^2 * (y + 1): multiplicities via exact coefficients
    th = InfElem.theta(F3, 50)
    one = InfElem.const(F3, 1, 50)
    # expand (y^2 - 2 theta y + theta^2)(y + 1)
    c0 = th * th
    f = [c0, (th * th) - th.scale(2), one - th.scale(2), one]
    roots = newton_roots(f)
    bymult = sorted((m, r.lead_exp) for r, m in roots)
    assert bymult == [(1, 0), (2, -1)]
    # product of (y - r)^mult reconstructs f to precision
    prod = [InfElem.const(F3, 1, 50).lift(roots[0][0].field, roots[0][0].e)]
    for r, m in roots:
        for _ in range(m):
            r2 = r.lift(prod[0].field.compositum(r.field), prod[0].e)
            new = [InfElem.zero(r2.field, r2.prec // r2.e, r2.e)] * (len(prod) + 1)
            new = [c for c in new]
            for i, c in enumerate(prod):
                new[i + 1] = new[i + 1] + c
                new[i] = new[i] - c * r2
            prod = new
    for got, want in zip(prod, f):
        d = got - want.lift(got.field, got.e)
        assert d.is_zero() or d.val() >= 35


def test_newton_roots_inseparable_power():
    # f(y) = y^3 - theta over F_3 (derivative vanishes identically)
    th = InfElem.theta(F3, 27)
    one = InfElem.const(F3, 1, 27)
    z = InfElem.zero(F3, 27)
    roots = newton_roots([-th, z, z, one])
    assert len(roots) == 1
    r, m = roots[0]
    assert m == 3
    assert (r**3 - th.lift(r.field, r.e)).is_zero()


def test_poly_toolkit_over_series():
    def P(*cs):
        return [InfElem.from_poly(F3, c, 30) for c in cs]

    # (y^2 + 1)(y^2 + theta) by y^2 + 1: the y^3 term of the running
    # remainder cancels, and the quotient keeps y^2 + 0*y + theta in place
    g, h, lin = P([1], [0], [1]), P([0, 1], [0], [1]), P([0, 1], [1])
    f = poly_mul(g, h)
    quot, rem = poly_divmod(f, g)
    assert rem == [] and [c.coeffs for c in quot] == [{-1: 1}, {}, {0: 1}]
    a, z = InfElem.theta(F3, 30), InfElem.const(F3, 2, 30)
    assert (poly_eval(poly_taylor(f, a), z) - poly_eval(f, a + z)).is_zero()
    one = poly_divmod(poly_mul(poly_inv_mod(lin, g), lin), g)[1]
    assert len(one) == 1 and (one[0] - InfElem.const(F3, 1, 30)).is_zero()


def test_json_round_trip_bit_exact():
    rng = random.Random(17)
    a = rand_elem(rng, F9, e=2, prec=25, lead=-5)
    obj = a.to_json()
    b = InfElem.from_json(obj)
    assert b.field is a.field
    assert b.coeffs == a.coeffs and b.prec == a.prec and b.e == a.e
    assert b.to_json() == obj
    # values are read over F_q((1/theta)) only: a series tagged with
    # another variable is refused where it is read
    assert obj["var"] == "theta"
    with pytest.raises(ValueError):
        InfElem.from_json(dict(obj, var="t"))


def test_from_json_drops_zero_digits_and_digits_past_precision():
    # a payload is outside input: InfElem(...) filters it, so a zero digit
    # vector and an exponent >= prec_N leave no coefficient behind
    obj = InfElem(F9, 2, {-3: 4, 0: 1, 5: 7}, 12).to_json()
    obj["coeffs"] = [[-3, [1, 1]], [-1, [0, 0]], [0, [1, 0]], [5, [1, 2]], [12, [2, 0]], [40, [0, 1]]]
    a = InfElem.from_json(obj)
    assert a.field is F9 and a.e == 2 and a.prec == 12
    assert a.coeffs == {-3: 4, 0: 1, 5: 7}
    assert all(a.coeffs.values()) and max(a.coeffs) < a.prec
    assert a.to_json()["coeffs"] == [[-3, [1, 1]], [0, [1, 0]], [5, [1, 2]]]
    obj["coeffs"] = [[0, [0, 0]], [12, [1, 0]]]
    z = InfElem.from_json(obj)
    assert z.coeffs == {} and z.prec == 12 and z.to_json()["leading_exponent"] is None


# -- InfElem's coefficient loops against per-coefficient references ---------

F4 = Fq.get(2, 1, 2)
F5_6 = Fq.get(5, 1, 6)  # 15625 elements: past TABLE_MAX, so no log tables
F16_Q4 = Fq.get(2, 2, 2)  # q = 4: the q^n-power is not the p^n-power
LOOP_FIELDS = [F2, F3, F4, F9, F257, F4093, F5_6, F16_Q4]
LOOP_IDS = ["F2", "F3", "F4", "F9", "F257", "F4093", "F5^6", "F16-q4"]


def _ref_lift(x, field, e):
    phi = x.field.embed_into(field)
    s = e // x.e
    return {k * s: phi(c) for k, c in x.coeffs.items()}, x.prec * s


def _ref_sum(a, b):
    field = a.field.compositum(b.field)
    e = a.e * b.e // gcd(a.e, b.e)
    (ca, pa), (cb, pb) = _ref_lift(a, field, e), _ref_lift(b, field, e)
    prec = min(pa, pb)
    out = {}
    for k in set(ca) | set(cb):
        s = field.add(ca.get(k, 0), cb.get(k, 0))
        if s and k < prec:
            out[k] = s
    return field, e, out, prec


def _ref_product(a, b):
    f = a.field
    la = min(a.coeffs, default=a.prec)
    lb = min(b.coeffs, default=b.prec)
    prec = min(a.prec + lb, b.prec + la)
    out = {}
    for k1, c1 in a.coeffs.items():
        for k2, c2 in b.coeffs.items():
            if k1 + k2 < prec:
                out[k1 + k2] = f.add(out.get(k1 + k2, 0), f.mul(c1, c2))
    return f, a.e, {k: c for k, c in out.items() if c}, prec


def _same(x, ref):
    field, e, coeffs, prec = ref
    assert x.field is field and x.e == e and x.prec == prec
    assert x.coeffs == coeffs
    # the invariant every result keeps: no zero, no key at or past prec
    assert all(0 < c < field.size for c in x.coeffs.values())
    assert all(k < x.prec for k in x.coeffs)


def _loop_operands(rng, field, e):
    """Pairs over one field and e: sparse and dense, mixed precisions, and
    sums that cancel exactly, down to the top exponent both keep."""
    for _ in range(6):
        pa, pb = rng.randrange(5, 70), rng.randrange(5, 70)
        a = rand_elem(rng, field, e, pa, rng.randrange(-8, 3), rng.choice([0.2, 0.9]))
        b = rand_elem(rng, field, e, pb, rng.randrange(-8, 3), rng.choice([0.2, 0.9]))
        yield a, b
        # b cancels a on every exponent below min(pa, pb) but k, and at the
        # top kept exponent min(pa, pb) - 1 too
        top = min(pa, pb) - 1
        a.coeffs[top] = rng.randrange(1, field.size)
        k = rng.randrange(-8, top)
        cancel = {x: field.neg(c) for x, c in a.coeffs.items() if x != k}
        yield a, InfElem(field, e, cancel, rng.choice([top + 1, top + 9]))
        yield a, -a
    # dense pairs past the Kronecker threshold
    a = rand_elem(rng, field, e, 70, -4, 1.0)
    b = rand_elem(rng, field, e, 66, -2, 1.0)
    assert len(a.coeffs) * len(b.coeffs) > 3000
    yield a, b


@pytest.mark.parametrize("field", LOOP_FIELDS, ids=LOOP_IDS)
def test_coefficient_loops_match_per_coefficient_references(field):
    rng = random.Random(field.size)
    f = field
    for e in (1, 2):
        for a, b in _loop_operands(rng, f, e):
            _same(a + b, _ref_sum(a, b))
            _same(b + a, _ref_sum(a, b))
            _same(a - b, _ref_sum(a, InfElem(f, e, {k: f.neg(c) for k, c in b.coeffs.items()}, b.prec)))
            _same(-a, (f, e, {k: f.neg(c) for k, c in a.coeffs.items()}, a.prec))
            c = rng.randrange(f.size)
            _same(a.scale(c), (f, e, {k: f.mul(c, v) for k, v in a.coeffs.items() if c}, a.prec))
            for c in (0, 1, rng.randrange(1, f.size)):
                shift = rng.randrange(-9, 9)
                want = {k + shift: f.mul(c, v) for k, v in a.coeffs.items() if c}
                _same(a.mono_mul(c, shift), (f, e, want, a.prec + shift))
            for n in (1, 2):
                s = f.q**n
                _same(a.frobenius(n), (f, e, {k * s: f.frob_q(c, n) for k, c in a.coeffs.items()}, a.prec * s))
                # exponents divisible by q^n, with a precision that is not
                x = InfElem(f, e, {k * s: c for k, c in a.coeffs.items()}, a.prec * s - 1)
                want = {k: f.frob_q(c, -n) for k, c in a.coeffs.items()}
                _same(x.frobenius(-n), (f, e, want, -(-x.prec // s)))
            _same(a * b, _ref_product(a, b))
            (packed,) = _kronecker_mul([a], [b], 1)
            _same(packed, _ref_product(a, b))


@pytest.mark.parametrize("field", [F2, F3, F9, F4093, F5_6], ids=["F2", "F3", "F9", "F4093", "F5^6"])
@pytest.mark.parametrize("e", [1, 2])
def test_products_either_side_of_the_pack_threshold(field, e):
    # dense m x k operands with m*k at the threshold (the dict loop) and
    # just past it (the kernel); m = 1 is the one-term path on both sides
    rng = random.Random(field.size + e)
    side = isqrt(_PACK_THRESHOLD)
    shapes = [(1, _PACK_THRESHOLD), (1, _PACK_THRESHOLD + 1), (2, _PACK_THRESHOLD // 2),
              (2, _PACK_THRESHOLD // 2 + 1), (side, side), (side + 1, side + 1)]
    assert [m * k > _PACK_THRESHOLD for m, k in shapes] == [False, True] * 3

    def dense(n, slack):
        lead = rng.randrange(-6, 6)
        return InfElem(field, e, {lead + i: rng.randrange(1, field.size) for i in range(n)}, lead + n + slack)

    for m, k in shapes:
        a, b = dense(m, rng.randrange(0, 9)), dense(k, rng.randrange(2, 9))
        assert len(a.coeffs) * len(b.coeffs) == m * k
        _same(a * b, _ref_product(a, b))
        _same(b * a, _ref_product(a, b))
        # a known one digit past its terms: its precision, not the other
        # operand's length, ends the product after m + 1 digits
        a = dense(m, 1)
        assert a.prec + b.lead_exp < b.prec + a.lead_exp
        _same(a * b, _ref_product(a, b))
        _same(b * a, _ref_product(a, b))


@pytest.mark.parametrize(
    "small, big, e1, e2",
    [(F2, F4, 1, 2), (F3, F9, 2, 3), (F9, F9, 1, 4), (F3, F3.compositum(Fq.get(3, 1, 3)), 3, 1), (F4093, F4093, 2, 1)],
)
def test_sums_align_unlike_fields_and_ramification(small, big, e1, e2):
    rng = random.Random(small.size + big.size + e1 + e2)
    for _ in range(8):
        a = rand_elem(rng, small, e1, rng.randrange(5, 60), rng.randrange(-6, 2))
        b = rand_elem(rng, big, e2, rng.randrange(5, 60), rng.randrange(-6, 2))
        _same(a + b, _ref_sum(a, b))
        _same(b + a, _ref_sum(a, b))
        # a lifted copy of -a cancels a exactly
        field, e, _, _ = _ref_sum(a, b)
        coeffs, prec = _ref_lift(-a, field, e)
        _same(a + InfElem(field, e, coeffs, prec), (field, e, {}, prec))


@pytest.mark.parametrize("field, e", [(F3, 1), (F9, 1), (F4, 2), (F4093, 3)], ids=["F3", "F9", "F4-e2", "F4093-e3"])
def test_helpers_own_the_identity_shortcut(field, e):
    # callers pass the field they already have, the same e and n = 1
    # straight to these helpers, with no guard of their own
    rng = random.Random(field.size + e)
    phi = field.embed_into(field)
    assert all(phi(x) == x for x in rng.sample(range(field.size), min(field.size, 50)))
    assert field.compositum(field) is field
    x = rand_elem(rng, field, e)
    assert x.lift(x.field, x.e) is x
    assert x.nth_root(1) is x


# -- the Newton kernels at doubling precision against naive references ------

NEWTON_FIELDS = [F2, F3, F9, F257, F4093]
NEWTON_IDS = ["F2", "F3", "F9", "F257", "F4093"]
# 1, 2, 3 and both sides of the doubling steps 16 and 64
RELPRECS = [1, 2, 3, 15, 16, 17, 63, 64, 65]


def _battery(field, e, seed):
    """Sparse and dense elements at every relative precision in RELPRECS."""
    rng = random.Random(seed)
    for rel in RELPRECS:
        for density in (0.1, 0.9):
            lead = rng.randrange(-5, 6)
            coeffs = {k: rng.randrange(1, field.size) for k in range(lead + 1, lead + rel) if rng.random() < density}
            coeffs[lead] = rng.randrange(1, field.size)
            yield InfElem(field, e, coeffs, lead + rel)


def _schoolbook_inverse(x):
    """1/x digit by digit: y_0 = 1/c and y_k = -(1/c) sum_{j=1..k} x_{L+j} y_{k-j}."""
    f = x.field
    L = x.lead_exp
    cinv = f.inv(x.coeffs[L])
    y = [cinv]
    for k in range(1, x.prec - L):
        acc = 0
        for j in range(1, k + 1):
            acc = f.add(acc, f.mul(x.coeffs.get(L + j, 0), y[k - j]))
        y.append(f.neg(f.mul(cinv, acc)))
    return InfElem(f, x.e, {k - L: c for k, c in enumerate(y)}, x.prec - 2 * L)


def _short_battery(field, e, seed):
    """Elements of one, two and three terms that the inverse starts from,
    with leads of both signs: the second term at s = 1, past half the
    relative precision, or at s >= relprec (dropped, one term left), and a
    third term just past s."""
    rng = random.Random(seed)
    for rel in RELPRECS:
        for lead in (-rng.randrange(1, 6), 0, rng.randrange(1, 6)):
            c, d, g = (rng.randrange(1, field.size) for _ in range(3))
            yield InfElem(field, e, {lead: c}, lead + rel)
            for s in {1, rel // 2 + 1, rel, rel + 3}:
                yield InfElem(field, e, {lead: c, lead + s: d}, lead + rel)
                yield InfElem(field, e, {lead: c, lead + s: d, lead + s + 1: g}, lead + rel)


@pytest.mark.parametrize("field", NEWTON_FIELDS, ids=NEWTON_IDS)
@pytest.mark.parametrize("e", [1, 2, 4])
def test_inverse_matches_schoolbook(field, e):
    seed = field.size + e
    for x in [*_battery(field, e, seed), *_short_battery(field, e, seed)]:
        inv = x.inverse()
        want = _schoolbook_inverse(x)
        assert inv.prec == want.prec == x.prec - 2 * x.lead_exp
        assert inv.coeffs == want.coeffs
        one = x * inv
        assert one.coeffs == {0: 1} and one.prec == x.prec - x.lead_exp


def _same_elem(x, y):
    assert (x.field, x.e, x.prec, x.coeffs) == (y.field, y.e, y.prec, y.coeffs)


@pytest.mark.parametrize("field", NEWTON_FIELDS, ids=NEWTON_IDS)
@pytest.mark.parametrize("e", [1, 2, 4])
def test_quotient_cuts_the_divisor_to_what_it_keeps(field, e):
    # a / b inverts b only as far as the quotient keeps it; b known far
    # past a, or not, or the monomial theta known to a finite precision
    # (a t-module's first coefficient) gives a * b.inverse() digit for digit
    rng = random.Random(5 * field.size + e)
    dens = list(_battery(field, e, seed=7 * field.size + e))
    for a in _battery(field, e, seed=field.size + 3 * e):
        b = rng.choice(dens)
        _same_elem(a / b, a * b.inverse())
        far = rand_elem(rng, field, e, prec=a.prec + 80, lead=rng.randrange(-4, 4), density=0.7)
        _same_elem(a / far, a * far.inverse())
        theta = InfElem.theta(field, rng.randrange(1, 60), e)
        _same_elem(a / theta, a * theta.inverse())
        # 1 - u^s known to a's relative precision, as de_rham_pairing
        # divides by it: the quotient is a's geometric sum at a.prec
        s = rng.randrange(1, 20)
        geometric = InfElem(field, e, {0: 1, s: field.neg(1)}, a.prec - a.lead_exp)
        quotient = a / geometric
        _same_elem(quotient, a * geometric.inverse())
        assert quotient.prec == a.prec
        assert (quotient - quotient.mono_mul(1, s)).coeffs == a.coeffs
    zero = InfElem(field, e, {}, 12)
    _same_elem(zero / b, zero * b.inverse())
    _same_elem(zero / theta, zero * theta.inverse())


@pytest.mark.parametrize("field", NEWTON_FIELDS, ids=NEWTON_IDS)
def test_one_and_two_term_inverses_make_no_product(field, monkeypatch):
    # the inverse starts from the exact inverse of the first two terms,
    # which is the whole inverse of theta and of 1 - u^s
    calls = []
    product = InfElem.__mul__

    def counting(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(InfElem, "__mul__", counting)
    for prec in (1, 2, 17, 300):
        for e in (1, 3):
            InfElem.theta(field, prec, e).inverse()
            for s in (1, 5, prec * e):
                InfElem(field, e, {0: 1, s: field.neg(1)}, prec * e).inverse()
    assert not calls


@pytest.mark.parametrize("small, big, e1, e2", [(F2, F4, 1, 2), (F3, F9, 4, 1), (F9, F9, 2, 4)])
def test_quotient_cut_across_unlike_fields_and_ramification(small, big, e1, e2):
    rng = random.Random(small.size + big.size + e1 + e2)
    for _ in range(8):
        a = rand_elem(rng, small, e1, rng.randrange(5, 30), rng.randrange(-6, 2))
        b = rand_elem(rng, big, e2, rng.randrange(60, 140), rng.randrange(-6, 2))
        _same_elem(a / b, a * b.inverse())
        _same_elem(b / a, b * a.inverse())


@pytest.mark.parametrize("field", NEWTON_FIELDS, ids=NEWTON_IDS)
@pytest.mark.parametrize("e", [1, 2, 4])
def test_nth_root_power_gives_back(field, e):
    rng = random.Random(3 * field.size + e)
    for n in (2, 3, 5):
        for x in _battery(field, e, seed=field.size * n + e):
            # an n-th power as lead coefficient keeps the root in the field
            L = x.lead_exp
            x.coeffs[L] = field.pow(rng.randrange(1, field.size), n)
            y = x.nth_root(n)
            assert y.field is field
            want = x.lift(field, y.e)
            diff = y**n - want
            assert diff.is_zero()
            if n % field.p:
                # the root's precision rule d(x^(1/n)) = dx / (n x^((n-1)/n)) is exact
                assert diff.prec == want.prec


@pytest.mark.parametrize(
    "name, q",
    [("carlitz", 2), ("carlitz", 3), ("carlitz", 4), ("kummer-t:3", None), ("const-ext:2", None)],
)
def test_torsion_roots_stable_under_more_precision(name, q):
    # a root read at prec N carries the same digits, below its own
    # precision, as the same root read at prec N + 20
    N = 40
    lo = get_fixture(name, q=q, N=N).tmodule.t_torsion()
    hi = get_fixture(name, q=q, N=N + 20).tmodule.t_torsion()
    assert len(lo) == len(hi)
    for a, b in zip(lo, hi):
        assert a.field is b.field and a.e == b.e
        assert a.prec <= b.prec
        assert a.coeffs == {k: c for k, c in b.coeffs.items() if k < a.prec}


@pytest.mark.parametrize("P", [60, 80])
def test_root_with_zero_upper_digits_claims_no_more_than_it_knows(P):
    # f = u^5 (y - a)(y - b) over F_3 with a = 1 + u^20 + u^57, b = 1/u and
    # every coefficient known to u^P.  At P = 60 the doubling passes end on
    # y = 1 + u^20, where f(y) already vanishes at precision; but
    # val f'(a) = 4, so f pins a down only to u^(P - 4), and a claim above
    # u^57 would hide the 1 there.
    a = InfElem(F3, 1, {0: 1, 20: 1, 57: 1}, 200)
    b = InfElem(F3, 1, {-1: 1}, 200)
    u5 = InfElem(F3, 1, {5: 1}, 200)
    f = [(u5 * a * b).truncate(P), (-(u5 * (a + b))).truncate(P), u5.truncate(P)]
    roots = sorted((r for r, _ in newton_roots(f)), key=lambda r: r.lead_exp)
    hi = [(u5 * a * b).truncate(P + 20), (-(u5 * (a + b))).truncate(P + 20), u5.truncate(P + 20)]
    roots_hi = sorted((r for r, _ in newton_roots(hi)), key=lambda r: r.lead_exp)
    for r, r_hi, exact in zip(roots, roots_hi, [b, a]):
        assert r.prec <= P - 4
        assert r.coeffs == {k: c for k, c in exact.coeffs.items() if k < r.prec}
        assert r.coeffs == {k: c for k, c in r_hi.coeffs.items() if k < r.prec}


# Root finding against known roots.  A polynomial is built as the exact
# product of (y - r) over known roots and every coefficient is cut to u^P.
# newton_roots must then either return roots that each agree with a
# distinct true root below their claims, or raise PrecisionExhausted.


def _from_roots(roots, P):
    one = InfElem.const(roots[0].field, 1, 4 * P, roots[0].e)
    f = [one]
    for r in roots:
        f = poly_mul(f, [-r, one])
    return [c.truncate(P) for c in f]


def _u(field, digits, e=1):
    return InfElem(field, e, dict(digits), 400)


def _matches(found, truth):
    """True when the found roots, repeated by multiplicity, agree with a
    permutation of the true roots below their claims, and no claim lies
    at or below its true root's lead."""
    flat = [r for r, m in found for _ in range(m)]
    if len(flat) != len(truth):
        return False
    for perm in permutations(truth):
        pairs = [InfElem.align(r, t) for r, t in zip(flat, perm)]
        if all((r - t).is_zero() and r.prec > t.lead_exp for r, t in pairs):
            return True
    return False


@pytest.mark.parametrize("P, claim", [(40, 35), (45, 40), (60, 55)])
def test_shift_hit_claims_what_the_polygon_derives(P, claim):
    # (y - a)(y - b) over F_3 with a = 1 + u^35 and b = 1 + u^5.  At P 40
    # the shift by 1 leaves f(1) = u^40 zero at precision, so 1 is a root
    # as far as (40 - val(-u^5 - u^35))/1 = 35, not to u^40: the true root
    # a differs from 1 at u^35, and b is lifted on the unstripped
    # polynomial, which knows b no further either.  At P 45 and 60 both
    # roots are simple on the polygon.
    a, b = _u(F3, {0: 1, 35: 1}), _u(F3, {0: 1, 5: 1})
    found = newton_roots(_from_roots([a, b], P))
    assert [m for _, m in found] == [1, 1]
    assert [r.prec for r, _ in found] == [claim, claim]
    assert _matches(found, [a, b])


def test_roots_agreeing_through_u19():
    # a and b agree through u^19 and differ at u^20: the discriminant
    # (a - b)^2 is u^40, zero at P 40, where no root can be told apart;
    # at P 41 the polygon separates them, each known to 41 - 20.
    common = {0: 1, 3: 2, 8: 1, 14: 1}
    a, b = _u(F3, {**common, 20: 1, 26: 2}), _u(F3, {**common, 20: 2, 31: 1})
    with pytest.raises(PrecisionExhausted):
        newton_roots(_from_roots([a, b], 40))
    found = newton_roots(_from_roots([a, b], 41))
    assert [(r.prec, m) for r, m in found] == [(21, 1), (21, 1)]
    assert _matches(found, [a, b])


def test_exact_double_root_is_not_guessed():
    # (y - a)^2 with a of 7 terms, four past u^20: at P 40 its coefficients
    # are those of (y - a - d)(y - a + d) for every d of valuation 20 or
    # more, so neither a nor the multiplicity 2 is determined
    a = _u(F3, {0: 2, 4: 1, 9: 2, 15: 1, 22: 1, 28: 2, 35: 1})
    with pytest.raises(PrecisionExhausted):
        newton_roots(_from_roots([a, a], 40))


def test_multiplicity_found_through_a_second_shift():
    # (y - theta - 1)^2 (y - 1) over F_3: the double root is shifted by
    # theta, then by 1, where the shift hits it exactly
    th, one = _u(F3, {-1: 1}), _u(F3, {0: 1})
    found = newton_roots(_from_roots([th + one, th + one, one], 60))
    assert sorted((r.lead_exp, m) for r, m in found) == [(-1, 2), (0, 1)]
    assert _matches(found, [th + one, th + one, one])


def test_hit_after_a_second_shift_is_claimed_past_the_root_lead():
    # (y - a)^2 (y - b) over F_3 at e = 2 and P 40, with a = u^-3 + 2u^17 +
    # u^59: the double root is shifted by u^-3, then by 2u^17, where the
    # shift hits it.  The polygon claims a to u^17, past its lead u^-3
    # though not past the second shift's own term; that is a claim.
    a = _u(F3, {-3: 1, 17: 2, 59: 1}, e=2)
    b = _u(F3, {-4: 2, 2: 1, 21: 2, 47: 1, 52: 2}, e=2)
    found = newton_roots(_from_roots([a, b, a], 40))
    assert [(r.coeffs, r.prec, m) for r, m in found] == [({-3: 1}, 17, 2), ({-4: 2, 2: 1, 21: 2}, 36, 1)]
    assert _matches(found, [a, b, a])


def test_roots_that_read_as_zero_claim_the_polygon_bound():
    # y^3 - r^3 with val r = 19/2 over F_9: at P 30 every coefficient but
    # the top one is zero, so 0 is a triple root, known to u^(30/3)
    r = _u(F9, {19: 8, 31: 1, 37: 7, 38: 6}, e=2)
    found = newton_roots(_from_roots([r, r, r], 30))
    assert [(z.coeffs, z.prec, z.e, m) for z, m in found] == [({}, 10, 2, 3)]


def _random_roots(rng, field, e, P):
    """2 to 4 roots: fresh ones of lead between -2 and 2, repeats of an
    earlier one, and cluster members that agree with an earlier one up to
    a random cut and continue with fresh digits."""
    def digits(lead):
        exps = {lead} | set(rng.sample(range(lead + 1, 2 * P), rng.randint(0, 5)))
        return {k: rng.randrange(1, field.size) for k in exps}

    roots = []
    for _ in range(rng.randint(2, 4)):
        kind = rng.random()
        if roots and kind < 0.2:
            roots.append(dict(rng.choice(roots)))
        elif roots and kind < 0.5:
            base = rng.choice(roots)
            cut = rng.randrange(min(base) + 1, P + 10)
            roots.append({**{k: c for k, c in base.items() if k < cut}, **digits(cut)})
        else:
            roots.append(digits(rng.randrange(-2 * e, 2 * e)))
    return [InfElem(field, e, d, 4 * P) for d in roots]


def test_random_products_of_known_roots():
    rng = random.Random(25)
    outcomes = {True: 0, None: 0}
    for _ in range(100):
        field, e, P = rng.choice([F2, F3, F9]), rng.choice([1, 1, 2]), rng.choice([30, 40, 60])
        truth = _random_roots(rng, field, e, P)
        try:
            found = newton_roots(_from_roots(truth, P))
        except PrecisionExhausted:
            outcomes[None] += 1
            continue
        assert _matches(found, truth), [t.coeffs for t in truth]
        outcomes[True] += 1
    assert outcomes[True] >= 50 and outcomes[None] >= 20
