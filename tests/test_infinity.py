import random
from fractions import Fraction

import pytest

from cmperiods.arith import Fq, poly_divmod, poly_eval, poly_gcd, poly_inv_mod, poly_mul, poly_taylor
from cmperiods.errors import DivisionByApparentZero, NotAPower
from cmperiods.fixtures import get_fixture
from cmperiods.infinity import (
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


def rand_elem(rng, field, e=1, prec=40, lead=-6, density=0.5, var="theta"):
    coeffs = {}
    for k in range(lead, prec):
        if rng.random() < density:
            c = rng.randrange(1, field.size)
            coeffs[k] = c
    return InfElem(field, e, coeffs, prec, var)


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
    # F_4093 at 400 units needs 64-bit slots; the others fit 8, 16 or 32
    cases = [(F3, 1, 120), (F9, 2, 120), (F2, 1, 120), (F257, 1, 120), (F4093, 1, 120), (F4093, 1, 400)]
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
    assert len(poly_gcd(f, poly_mul(g, lin))) == 3
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


@pytest.mark.parametrize("field", NEWTON_FIELDS, ids=NEWTON_IDS)
@pytest.mark.parametrize("e", [1, 2, 4])
def test_inverse_matches_schoolbook(field, e):
    for x in _battery(field, e, seed=field.size + e):
        inv = x.inverse()
        want = _schoolbook_inverse(x)
        assert inv.prec == want.prec == x.prec - 2 * x.lead_exp
        assert inv.coeffs == want.coeffs
        one = x * inv
        assert one.coeffs == {0: 1} and one.prec == x.prec - x.lead_exp


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
