import random
from fractions import Fraction

import pytest

from cmperiods.arith import FPoly, Fq
from cmperiods.errors import NoDecay, PoleArgument
from cmperiods.infinity import InfElem
from cmperiods.special import carlitz_period, geometric_gamma, omega_series
from cmperiods.tate import Decay, TateMatrix, TateSeries, check_difference_eq, det, tate_twist

F3 = Fq.get(3, 1, 1)


def tmat_theta_poly(field, coeffs, T, prec):
    """TateMatrix entry (t - theta)-style polynomials from InfElem lists."""
    return TateSeries.poly([InfElem.from_poly(field, c, prec) if isinstance(c, list) else c for c in coeffs], T)


def test_inverse_of_3x3_series_matrix():
    # t^0 part [[th, 1, 0], [1, th, 1], [0, 1, th]] has determinant
    # th^3 + th, a unit; both products with the inverse are the identity at
    # the precision each coefficient records, which stays within 2 of N
    N, T = 40, 6

    def s(*polys):
        return TateSeries.poly([InfElem.from_poly(F3, c, N) for c in polys], T)

    M = TateMatrix([
        [s([0, 1], [1]), s([1], [0], [2]), s([0], [0, 1])],
        [s([1], [2, 0, 1]), s([0, 1]), s([1], [1])],
        [s([0], [1]), s([1], [0, 1]), s([0, 1], [0], [1])],
    ])
    assert M.det()[0].coeffs == {-3: 1, -1: 1}
    Mi = M.inverse()
    for P in (M @ Mi, Mi @ M):
        for i, row in enumerate(P.rows):
            for j, entry in enumerate(row):
                for k, c in enumerate(entry.coeffs):
                    delta = InfElem.const(F3, 1 if i == j and k == 0 else 0, N)
                    assert (c - delta).is_zero()
                    assert c.prec_val >= N - 2
    # the same Laplace expansion over plain integers
    assert det([[2, 0, 1], [1, 3, 2], [1, 1, 1]]) == 0
    assert det([[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 5, 6], [0, 0, 7, 8]]) == (-2) * (-2)


def test_twist_simple():
    # theta*t -> theta^3*t at q=3
    th = InfElem.theta(F3, 40)
    z = InfElem.zero(F3, 40)
    f = TateSeries.poly([z, th], 4)
    tw = tate_twist(f, 1)
    assert tw.coeffs[1].coeffs == {-3: 1}
    # constants are fixed
    c = TateSeries.poly([InfElem.const(F3, 2, 40)], 4)
    assert tate_twist(c, 5).coeffs[0].coeffs == {0: 2}


def test_twist_round_trip_and_multiplicative():
    import random

    rng = random.Random(9)
    prec = 30
    mk = lambda: TateSeries(
        [
            InfElem(F3, 1, {k: rng.randrange(3) for k in range(-2, 5)}, prec * 3)
            for _ in range(5)
        ]
    )
    f, g = mk(), mk()
    assert all(
        (a - b).is_zero()
        for a, b in zip(tate_twist(tate_twist(f, 1), -1).coeffs, f.coeffs)
    )
    lhs = tate_twist(f * g, 1)
    rhs = tate_twist(f, 1) * tate_twist(g, 1)
    assert all((a - b).is_zero() for a, b in zip(lhs.coeffs, rhs.coeffs))


def test_eval_theta_geometric():
    # f = sum theta^(-2i) t^i at t=theta: sum theta^(-i) = 1/(1-theta^(-1))
    T = 30
    prec = 70
    coeffs = [InfElem(F3, 1, {2 * i: 1}, prec) for i in range(T)]
    f = TateSeries(coeffs, Decay("linear", 0, 2))
    val = f.eval_theta()
    one = InfElem.const(F3, 1, 25)
    x = InfElem(F3, 1, {1: 1}, 25)
    expect = one / (one - x)
    assert ((val - expect)).residual_val() >= 25


@pytest.mark.parametrize(
    "p, n, e, B, span",
    [
        (3, 1, 1, 2, 60),
        (3, 2, 2, 2, 90),
        (2, 1, 3, 5, 40),
        (5, 1, 1, 3, 25),
        (2, 2, 2, 2, 60),  # F_4: the XOR branch
        (3, 6, 1, 2, 40),  # F_{3^6}: no addition table, Fq.add
        (4099, 1, 2, 2, 40),  # a prime field past the log tables
    ],
)
def test_eval_theta_matches_pairwise_sums(p, n, e, B, span):
    # the reference adds one shifted coefficient at a time through Fq.add
    # and lets the filtering constructor drop the zeros and the keys at or
    # past the precision; coefficients of mixed precision, one of them
    # zero, planted sums that cancel, the tail bound above and below the
    # smallest shifted precision
    F = Fq.get(p, n, 1)
    rng = random.Random(p * 100 + e)
    T = 14
    dicts, precs = [], []
    for i in range(T):
        lo = B * i * e
        precs.append(lo + rng.randrange(span * e // 2, span * e))
        dicts.append({} if i == 5 else {k: rng.randrange(F.size) for k in range(lo, precs[-1]) if rng.random() < 0.6})
    # make the whole shifted sum at some keys j cancel in its last term
    for j in rng.sample(range(span * e // 2), 12):
        terms = [i for i in range(T) if j + e * i in dicts[i]]
        if len(terms) < 2:
            continue
        rest = 0
        for i in terms[:-1]:
            rest = F.add(rest, dicts[i][j + e * i])
        dicts[terms[-1]][j + e * terms[-1]] = F.neg(rest)
    coeffs = [InfElem(F, e, d, prec) for d, prec in zip(dicts, precs)]
    for A in (0, -8, 30):
        f = TateSeries(coeffs, Decay("linear", A, B))
        prec = min(min(c.prec - e * i for i, c in enumerate(f.coeffs)), int(f.decay.tail_min(T) * e))
        out = {}
        for i, c in enumerate(f.coeffs):
            for k, v in c.coeffs.items():
                out[k - e * i] = F.add(out.get(k - e * i, 0), v)
        assert any(not v for v in out.values())
        ref = InfElem(F, e, out, prec)
        got = f.eval_theta()
        assert got.to_json() == ref.to_json()
        assert all(got.coeffs.values()) and all(k < prec for k in got.coeffs)


def test_eval_theta_requires_decay():
    f = TateSeries([InfElem.const(F3, 1, 20)] * 4)
    with pytest.raises(NoDecay):
        f.eval_theta()


def test_mixed_decay_product_reproduction():
    # linear(0, 1) with a_i = u^i times qpow(0, 1, q = 3) with b_j = u^(3^j):
    # c_0 = a_0 b_0 has valuation 1, below the A = 0 + 0 + 1*3 once declared.
    # A product with a qpow factor carries no descriptor, so it is never
    # evaluated against a bound it does not meet
    lin = TateSeries([InfElem(F3, 1, {i: 1}, 60) for i in range(5)], Decay("linear", 0, 1))
    qp = TateSeries([InfElem(F3, 1, {3**j: 1}, 200) for j in range(5)], Decay("qpow", 0, 1, 3))
    for prod in (lin * qp, qp * lin, qp * qp):
        assert prod.decay is None
        with pytest.raises(NoDecay):
            prod.eval_theta()
    assert (lin * qp)[0].val() == 1
    # a negative qpow slope bounds no product either
    shrinking = TateSeries(qp.coeffs, Decay("qpow", 0, -1, 3))
    assert (lin * shrinking).decay is None
    with pytest.raises(NoDecay):
        (lin * shrinking).eval_theta()
    # two linear factors keep a descriptor, and the product meets it
    prod = lin * lin
    assert (prod.decay.kind, prod.decay.A, prod.decay.B) == ("linear", 0, 1)
    assert prod.check_decay()


def _scanned_tail_min(decay, i0, weight):
    """The earlier bounded scan for the tail minimum, kept as reference."""
    best, i, rising = None, i0, 0
    while rising < 3 and i < i0 + 4096:
        v = decay.bound(i) - weight * i
        if best is None or v < best:
            best, rising = v, 0
        else:
            rising += 1
        i += 1
    return best


def test_tail_min_matches_the_scan():
    for q in (2, 3, 4, 5):
        for A in (-3, 0, Fraction(5, 2)):
            for B in (Fraction(-1, 2), 0, Fraction(1, 8), Fraction(2, 3), 1, Fraction(3, 2), 4):
                for i0 in (0, 1, 5, 12):
                    for weight in (1, 2, Fraction(1, 2)):
                        for decay in (Decay("linear", A, B), *(Decay("qpow", A, B, q, s) for s in (1, 2, 3))):
                            if B <= (weight if decay.kind == "linear" else 0):
                                with pytest.raises(NoDecay):
                                    decay.tail_min(i0, weight)
                            else:
                                assert decay.tail_min(i0, weight) == _scanned_tail_min(decay, i0, weight)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3])
def test_omega_powers_respect_their_decay(q, n):
    # Omega^n declares Omega's descriptor times n with step n: the t^k
    # coefficient takes its factors of t from the smallest i, n at a time
    power = omega_series(q, 8, 60, n)
    assert power.check_decay()
    assert power.decay.step == n


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N, T", [(60, 12), (300, 24)])
def test_omega_power_against_series_products(q, n, N, T):
    # the product formula against Omega * Omega (* Omega) formed by plain
    # series products: same digits below both precisions, and no index
    # states less precision than the product does
    om = omega_series(q, T, N)
    ref = om
    for _ in range(n - 1):
        ref = ref * om
    power = omega_series(q, T, N, n)
    assert power.check_decay()
    assert power.T == ref.T
    for k, (a, b) in enumerate(zip(power.coeffs, ref.coeffs)):
        assert (a - b).is_zero(), k
        assert a.prec >= b.prec, k


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3])
def test_omega_power_functional_equation(q, n):
    # (Omega^n)^(-1) = (t - theta)^n Omega^n, at the threshold `omega` uses
    N, T = 60, 12
    power = omega_series(q, T, N, n)
    one = InfElem.const(power.field, 1, N * q, power.e)
    theta = InfElem.theta(power.field, N * q, power.e)
    t_minus_theta = TateSeries.poly([-theta, one], T)
    phi = t_minus_theta
    for _ in range(n - 1):
        phi = phi * t_minus_theta
    rep = check_difference_eq(TateMatrix([[phi]]), TateMatrix([[power]]), threshold=N - 10)
    assert rep["pass"], rep["min_residual"]


def test_eval_ring_morphism():
    T = 24
    prec = 60
    a = TateSeries([InfElem(F3, 1, {2 * i: 1}, prec) for i in range(T)], Decay("linear", 0, 2))
    b = TateSeries(
        [InfElem(F3, 1, {3 * i: 2}, prec) for i in range(T)], Decay("linear", 0, 3)
    )
    lhs = (a * b).eval_theta()
    rhs = a.eval_theta() * b.eval_theta()
    assert (lhs - rhs).residual_val() >= 18


def test_omega_functional_equation_q2_q3():
    for qq in (2, 3):
        om = omega_series(qq, 32, 120)
        assert om.check_decay()
        one = InfElem.const(om.field, 1, 150 * qq, om.e)
        tpoly = TateSeries.poly(
            [InfElem.theta(om.field, 150 * qq, om.e).scale(om.field.neg(1)), one], om.T
        )
        phi = TateMatrix([[tpoly]])
        psi = TateMatrix([[om]])
        rep = check_difference_eq(phi, psi, threshold=110)
        assert rep["pass"], rep["min_residual"]


def test_omega_constant_term_and_planted_defect():
    om = omega_series(3, 16, 80)
    # constant term = (-theta)^(-q/(q-1)) = canonical root^(-q)
    c0 = om.coeffs[0]
    assert c0.val() == Fraction(3, 2)
    # planted defect: Omega + 1 must fail loudly
    one_series = TateSeries.poly([InfElem.const(om.field, 1, 80, om.e)], om.T)
    bad = om + one_series
    tpoly = TateSeries.poly(
        [InfElem.theta(om.field, 240, om.e).scale(om.field.neg(1)),
         InfElem.const(om.field, 1, 240, om.e)], om.T
    )
    rep = check_difference_eq(TateMatrix([[tpoly]]), TateMatrix([[bad]]), threshold=70)
    assert not rep["pass"]
    assert rep["min_residual"] <= 1


def test_omega_eval_valuation():
    om = omega_series(3, 24, 100)
    v = om.eval_theta().val()
    assert v == Fraction(3, 2)  # q/(q-1) at q=3


def test_carlitz_period_dual_formula():
    for qq in (2, 3, 4):
        pi, rep = carlitz_period(qq, 120, with_report=True)
        assert rep["residual"] >= 110
        assert pi.val() == Fraction(-qq, qq - 1)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("N", [60, 300])
def test_carlitz_period_inverts_only_the_kept_digits(q, N):
    # Omega(theta) is cut to what pi keeps before it is inverted; pi has
    # every digit and the precision of the uncut inverse
    pi, rep = carlitz_period(q, N, with_report=True)
    want = rep["omega_at_theta"].inverse().with_prec_val(N)
    assert (pi.field, pi.e, pi.prec, pi.coeffs) == (want.field, want.e, want.prec, want.coeffs)


def test_gamma_small_argument():
    # x = theta^-8 at q=3: val(x*Gamma(x) - 1) >= 8
    x = InfElem(F3, 1, {8: 1}, 40)
    val, rep = geometric_gamma(x, 30)
    prod = x * val
    one = InfElem.const(F3, 1, 30)
    assert (prod - one).residual_val() >= 8


def test_gamma_pole_char2():
    F2 = Fq.get(2, 1, 1)
    one = FPoly.const(F2, 1)
    with pytest.raises(PoleArgument):
        geometric_gamma((one, one), 20)


def test_gamma_pole_rejects_negative_monic():
    # x = -theta is in -A_+ for q=3
    minus_theta = FPoly(F3, (0, F3.neg(1)))
    with pytest.raises(PoleArgument):
        geometric_gamma((minus_theta, FPoly.const(F3, 1)), 20)


def test_gamma_pole_test_reads_ramified_exponents():
    # x = theta^(3/2) - theta is no polynomial in theta, so not in -A_+:
    # Gamma(x) = x^-1 (1 + x)^-1 prod over a = theta + c of (1 + x/a)^-1
    # has valuation 3/2 + 3/2 + 3 * 1/2
    x = InfElem(F3, 2, {-3: 1, -2: 2}, 80)
    val, _ = geometric_gamma(x, 40)
    assert val.val() == Fraction(9, 2)
    # -theta stays a pole, unramified and written with e = 2
    for e in (1, 2):
        with pytest.raises(PoleArgument):
            geometric_gamma(InfElem(F3, e, {-e: F3.neg(1)}, 80), 40)


def test_gamma_blocked_vs_direct_enumeration():
    # oracle: direct product over all monic a with deg <= 2 compared with
    # the blocked recursion cut at the same degree (tail factors agree far
    # beyond the comparison window)
    N = 26
    x = InfElem(F3, 1, {7: 1}, N + 30)  # theta^-7
    one = InfElem.const(F3, 1, N + 30)
    direct = one
    for d in range(0, 3):
        for low in range(3**d):
            digits = []
            v = low
            for _ in range(d):
                digits.append(v % 3)
                v //= 3
            coeffs = digits + [1]
            a = InfElem.from_poly(F3, coeffs, N + 30)
            direct = direct * (one + x * a.inverse())
    direct = (x * direct).inverse()
    val, rep = geometric_gamma(x, N)
    # blocks cover degrees 0..blocks; degree >= 3 factors have val >= 7+3*3
    assert (val - direct).residual_val() >= 14


# -- packed series product against the schoolbook loop ----------------------

F9 = Fq.get(3, 2, 1)
F2 = Fq.get(2, 1, 1)
F257 = Fq.get(257, 1, 1)
F4093 = Fq.get(4093, 1, 1)
# fields past 4096 elements carry no log tables; the kernel packs their digits all the same
BIG_FIELDS = [Fq.get(3, 1, 8), Fq.get(2, 1, 13), Fq.get(5, 1, 6), Fq.get(4093, 1, 2)]
PACKED_FIELDS = [F2, F3, F9, F257, F4093] + BIG_FIELDS
PACKED_IDS = ["F2", "F3", "F9", "F257", "F4093", "F3^8", "F2^13", "F5^6", "F4093^2"]


def _schoolbook(a, b):
    """The schoolbook t-series product, one InfElem product per index pair:
    the reference for the Kronecker kernel that TateSeries.__mul__ calls."""
    out = []
    for k in range(min(a.T, b.T)):
        acc = None
        for i in range(k + 1):
            t = a[i] * b[k - i]
            acc = t if acc is None else acc + t
        out.append(acc)
    return out


def _rand_elem(rng, fld, e, lo, hi, prec):
    """Random element with leading exponent lo and digits below hi."""
    coeffs = {k: rng.randrange(1, fld.size) for k in range(lo + 1, hi) if rng.random() < 0.7}
    coeffs[lo] = rng.randrange(1, fld.size)
    return InfElem(fld, e, coeffs, prec)


def _assert_same(got, want):
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert g.field is w.field and g.e == w.e, f"index {k}: field or ramification differs"
        assert g.prec == w.prec, f"index {k}: prec {g.prec} != {w.prec}"
        assert g.coeffs == w.coeffs, f"index {k}: coefficients differ"


@pytest.mark.parametrize("fld", PACKED_FIELDS, ids=PACKED_IDS)
@pytest.mark.parametrize("e", [1, 4])
@pytest.mark.parametrize("twist", [0, 2])
def test_packed_product_matches_schoolbook(fld, e, twist):
    import random

    from cmperiods.infinity import _kronecker_mul

    rng = random.Random(31 * fld.size + 7 * e + twist)
    T = 7
    # leads rise with the t-index and precisions differ per index, as in an
    # AGF column; twist 2 scales exponents and precision by q^2 like a
    # tau^2 column, so most of its digits cannot reach a kept output digit
    a = TateSeries(
        [_rand_elem(rng, fld, e, -e + 3 * i, 4 * e + 3 * i, 9 * e + 4 * i).frobenius(twist) for i in range(T)]
    )
    b = TateSeries([_rand_elem(rng, fld, e, -2 * e + i, 3 * e + i, 8 * e + 5 * i) for i in range(T)])
    packed = _kronecker_mul(a.coeffs, b.coeffs, T)
    _assert_same(packed, _schoolbook(a, b))
    _assert_same((a * b).coeffs, _schoolbook(a, b))
    _assert_same((b * a).coeffs, _schoolbook(b, a))


def _on_class(rng, fld, e, lead, step, count, prec):
    """Random element on lead + step*Z, with count candidate exponents."""
    coeffs = {lead + step * j: rng.randrange(1, fld.size) for j in range(1, count) if rng.random() < 0.7}
    coeffs[lead] = rng.randrange(1, fld.size)
    return InfElem(fld, e, coeffs, prec)


STRIDED_FIELDS = [F3, F4093, F9, Fq.get(5, 1, 6)]
STRIDED_IDS = ["F3", "F4093", "F9", "F5^6"]


@pytest.mark.parametrize("fld", STRIDED_FIELDS, ids=STRIDED_IDS)
@pytest.mark.parametrize("e", [2, 3, 4])
@pytest.mark.parametrize("T", [1, 6])
@pytest.mark.parametrize("shape", ["class", "twist", "monomial", "mixed"])
def test_packed_strided_product_matches_schoolbook(fld, e, T, shape):
    from cmperiods.infinity import _kronecker_mul

    rng = random.Random(f"{fld.size}-{e}-{T}-{shape}")
    # each operand lies on one nonzero residue class mod e, with leads that
    # move by whole multiples of e along the t-index and precisions on no
    # class in particular, so the output cut falls between two slots
    ra, rb = rng.randrange(1, e), rng.randrange(1, e)

    def on_class(r, i):
        lead = r + e * (rng.randrange(-3, 2) + i)
        return _on_class(rng, fld, e, lead, e, 9, lead + e * rng.randrange(4, 12) + rng.randrange(e))

    a = TateSeries([on_class(ra, i) for i in range(T)])
    b = TateSeries([on_class(rb, i) for i in range(T)])
    if shape == "twist":
        # a tau-twist puts both operands on one class mod q*e
        a, b = a.twist(1), b.twist(1)
    elif shape == "monomial":
        # a single digit in all of a: the stride is b's alone
        z = [InfElem(fld, e, {}, 7 * e + i) for i in range(T)]
        z[T // 2] = InfElem(fld, e, {ra - e: rng.randrange(1, fld.size)}, 5 * e)
        a = TateSeries(z)
    elif shape == "mixed":
        # a dense operand forces one slot per unit on a strided one
        a = TateSeries([_rand_elem(rng, fld, e, -e + i, 3 * e + i, 6 * e + 2 * i) for i in range(T)])
    for x, y in [(a, b), (b, a), (a, a)]:
        packed = _kronecker_mul(x.coeffs, y.coeffs, T)
        _assert_same(packed, _schoolbook(x, y))


def _cancelling_pair(fld, step, far):
    """Elements whose product has a zero coefficient at step whose slot sum
    is a nonzero digit vector, and far-apart digits that widen the slots.

    x * x^(n-1) and -(x^n mod modulus) * 1 meet at exponent step: their
    digits add up to the modulus, which reduces to 0 in the field."""
    n, p = fld.n, fld.p
    c1, d2 = p, p ** (n - 1)
    c2 = fld.neg(fld.mul(c1, d2))
    a = InfElem(fld, 1, {0: c1, step: c2, far * step: 1}, (far + 3) * step)
    b = InfElem(fld, 1, {0: 1, step: d2, far * step: c1}, (far + 2) * step)
    return a, b


F4 = Fq.get(2, 1, 2)
F16 = Fq.get(2, 1, 4)
# (field, slot width, far): far sets the strided span, and with it the
# bound (p-1)^2 * n * span that picks 16, 32 or 64 bits per digit
EXT_CASES = [
    (F4, "H", 130),
    (F9, "H", 40),
    (F9, "I", 8200),
    (F16, "H", 70),
    (Fq.get(3, 1, 8), "H", 10),
    (Fq.get(3, 1, 8), "I", 2050),
    (Fq.get(5, 1, 6), "H", 5),
    (Fq.get(5, 1, 6), "I", 700),
    (Fq.get(4093, 1, 2), "I", 2),
    (Fq.get(4093, 1, 2), "Q", 130),
]
EXT_IDS = [f"{fld!r}-{w}" for fld, w, _ in EXT_CASES]


@pytest.mark.parametrize("fld, width, far", EXT_CASES, ids=EXT_IDS)
@pytest.mark.parametrize("step", [1, 3])
def test_packed_extension_digits(fld, width, far, step):
    from array import array

    from cmperiods.infinity import _kronecker_mul

    a, b = _cancelling_pair(fld, step, far)
    bound = (fld.p - 1) ** 2 * fld.n * (far + 1)
    lo = 1 << (8 * array(width).itemsize // 2)
    assert lo <= bound < lo * lo, "the case sits at its slot width"
    want = a * b
    assert step not in want.coeffs
    (got,) = _kronecker_mul([a], [b], 1)
    assert got.prec == want.prec and got.coeffs == want.coeffs
    assert all(got.coeffs.values())
    # the same digits along a t-series, shifted per index
    sa = TateSeries([a, a.mono_mul(1, step), InfElem(fld, 1, {}, 50)])
    sb = TateSeries([b.mono_mul(1, 2 * step), b, b])
    packed = _kronecker_mul(sa.coeffs, sb.coeffs, 3)
    _assert_same(packed, _schoolbook(sa, sb))
    assert all(all(c.coeffs.values()) for c in packed)


@pytest.mark.parametrize("fld", PACKED_FIELDS, ids=PACKED_IDS)
def test_packed_product_trims_whole_coefficients(fld):
    import random

    from cmperiods.infinity import _kronecker_mul

    rng = random.Random(fld.size)
    T = 6
    # b carries 8 units, so no output keeps an exponent above 8: every digit
    # of a[1..] (exponents 60..69) is trimmed and those coefficients vanish
    a = TateSeries(
        [_rand_elem(rng, fld, 1, 0, 6, 200)] + [_rand_elem(rng, fld, 1, 60, 70, 200) for _ in range(T - 1)]
    )
    b = TateSeries([_rand_elem(rng, fld, 1, 0, 6, 8) for _ in range(T)])
    _assert_same(_kronecker_mul(a.coeffs, b.coeffs, T), _schoolbook(a, b))
    # a zero c_0 known only to u^-50 leaves no output digit at all: both
    # operands trim to nothing, and index k keeps its own precision -50 + k
    z = InfElem(fld, 1, {}, -50)
    c = TateSeries([z] + [_rand_elem(rng, fld, 1, 0, 6, 40) for _ in range(T - 1)])
    d = TateSeries([_rand_elem(rng, fld, 1, i, 6 + i, 40 + 3 * i) for i in range(T)])
    got = _kronecker_mul(d.coeffs, c.coeffs, T)
    want = _schoolbook(d, c)
    _assert_same(got, want)
    assert all(x.is_zero() for x in got)
    assert [x.prec for x in got] == [-50 + k for k in range(T)]


def test_product_of_unlike_ramification():
    # the kernel needs one field and ramification index, so a product
    # aligns both operands first; every shape a product meets in build_psi
    # goes through it: unlike e, unlike constant fields, a sparse Phi-like
    # operand, a constant and an all-zero one
    rng = random.Random(554)
    F3_2 = Fq.get(3, 1, 2)
    T = 6

    def dense(fld, e):
        return TateSeries([_rand_elem(rng, fld, e, -e + i, 4 * e + i, 9 * e + 2 * i) for i in range(T)])

    theta = InfElem.theta(F3, 12)
    one = InfElem.const(F3, 1, 12)
    cases = [
        (
            TateSeries([InfElem(F3, 1, {0: 1, 1: 2}, 20) for _ in range(T)]),
            TateSeries([InfElem(F3, 2, {0: 1, 1: 1}, 40) for _ in range(T)]),
        ),
        (dense(F3, 1), dense(F3_2, 4)),
        (TateSeries.poly([-theta, one], T), dense(F3, 1)),
        (TateSeries.poly([InfElem.const(F3, 2, 10)], T), dense(F3, 2)),
        (TateSeries([InfElem(F3_2, 1, {}, 15 + i) for i in range(T)]), dense(F3_2, 4)),
    ]
    for a, b in cases:
        _assert_same((a * b).coeffs, _schoolbook(a, b))
        _assert_same((b * a).coeffs, _schoolbook(b, a))
