import random
from fractions import Fraction
from math import lcm

import pytest

from cmperiods.arith import Fq
from cmperiods.errors import NoDecay
from cmperiods.fixtures import get_fixture
from cmperiods.infinity import InfElem
from cmperiods.relhunt import find_linear_relations
from cmperiods.special import carlitz_period, omega_series
from cmperiods.tate import Decay, TateMatrix, TateSeries, check_difference_eq
from cmperiods.tmodule import TModule, agf, build_psi, de_rham_pairing, quasi_period_matrix, skew_mul

F3 = Fq.get(3, 1, 1)


def carlitz(q=3, N=120):
    fld = Fq.get(*_split(q), 1)
    return TModule([InfElem.theta(fld, N), InfElem.const(fld, 1, N)], name="carlitz")


def _split(q):
    p = 2
    while q % p:
        p += 1
    a = 0
    while p**a < q:
        a += 1
    return p, a


def test_exp_coeffs_match_carlitz_closed_form():
    # oracle: E_i = 1/D_i with D_0 = 1, D_i = (theta^(q^i) - theta) D_{i-1}^q
    q, N = 3, 160
    tm = carlitz(q, N)
    es = tm.exp_coeffs(4)
    fld = tm.field
    theta = InfElem.theta(fld, N)
    D = InfElem.const(fld, 1, N)
    assert es[0].coeffs == {0: 1}
    for i in range(1, 5):
        D = (theta.frobenius(i) - theta) * (D.frobenius(1))
        diff = es[i] - D.inverse()
        assert diff.is_zero()


def test_exp_functional_equation_generic():
    # substitute exp into exp(theta z) = rho_t(exp z) coefficientwise
    fx = get_fixture("kummer-t:3", q=3, N=100)
    tm = fx.tmodule
    es = tm.exp_coeffs(3)
    fld, e = es[1].field, es[1].e
    theta = InfElem.theta(fld, 100, e)
    q = 3
    for i in range(1, 4):
        lhs = es[i] * theta.frobenius(i)
        rhs = theta * es[i]
        for j in range(1, min(i, tm.rank) + 1):
            rhs = rhs + tm.coeffs[j] * es[i - j].frobenius(j)
        assert (lhs - rhs).is_zero()
    # kummer E_1 = w (theta - 1) / (theta^3 - theta)
    w = tm.coeffs[1] * (theta - InfElem.const(fld, 1, 100, e)).inverse()
    expect = tm.coeffs[1] * (theta.frobenius(1) - theta).inverse()
    assert (es[1] - expect).is_zero()


def test_log_coeffs_closed_form():
    # oracle: L_i = 1/((theta - theta^q)(theta - theta^(q^2))...(theta - theta^(q^i)))
    q, N = 3, 200
    tm = carlitz(q, N)
    ls = tm.log_coeffs(3)
    fld = tm.field
    theta = InfElem.theta(fld, N)
    acc = InfElem.const(fld, 1, N)
    assert ls[0].coeffs == {0: 1}
    for i in range(1, 4):
        acc = acc * (theta - theta.frobenius(i))
        assert (ls[i] - acc.inverse()).is_zero()


def test_exp_log_identity_on_coefficients():
    # exp(log(z)) = z: composition coefficients vanish exactly
    tm = carlitz(3, 150)
    es = tm.exp_coeffs(4)
    ls = tm.log_coeffs(4)
    for k in range(1, 5):
        acc = None
        for i in range(0, k + 1):
            term = es[i] * ls[k - i].frobenius(i)
            acc = term if acc is None else acc + term
        assert not acc.coeffs  # exact cancellation of recorded digits


def test_exp_log_roundtrip_random_points():
    tm = carlitz(3, 100)
    rng = random.Random(4)
    for _ in range(5):
        x = InfElem(F3, 1, {k: rng.randrange(3) for k in range(2, 12)}, 100)
        if x.is_zero():
            continue
        lg = tm.log_eval(x)
        back = tm.exp_eval(lg)
        assert (back - x).is_zero()


def test_torsion_carlitz():
    tm = carlitz(3, 100)
    tor = tm.t_torsion()
    assert len(tor) == 3
    zero = [x for x in tor if x.is_zero()]
    assert len(zero) == 1
    for x in tor:
        if x.is_zero():
            continue
        # X^(q-1) = -theta
        sq = x * x
        mth = InfElem.theta(x.field, 60, x.e).scale(x.field.neg(1))
        assert (sq - mth).is_zero()


def test_torsion_chain_level_two():
    tm = carlitz(3, 80)
    chains = tm.torsion_points(2)
    assert len(chains) == 9
    for ch in chains:
        img = tm.apply(ch[1])
        diff = img - ch[0] if not ch[0].is_zero() else img
        assert diff.is_zero() or diff.residual_val() >= 40


def test_torsion_count_kummer():
    fx = get_fixture("kummer-t:3", q=3, N=80)
    assert len(fx.tmodule.t_torsion()) == 9


def test_carlitz_period_ratio_and_valuation():
    q, N = 3, 140
    tm = carlitz(q, N)
    lat = tm.period_lattice()
    assert len(lat) == 1
    lam = lat.vectors[0]
    assert lam.val() == Fraction(-q, q - 1)
    pi = carlitz_period(q, N)
    ratio = lam / pi
    c = ratio.lead_coeff()
    assert ratio.field.in_base_q(c)
    assert (ratio - InfElem.const(ratio.field, c, int(ratio.prec_val), ratio.e)).is_zero()


def test_exp_of_pi_is_zero():
    for q in (2, 3):
        tm = carlitz(q, 150)
        pi = carlitz_period(q, 150)
        img = tm.exp_eval(pi)
        assert img.is_zero() or img.residual_val() >= 135


def test_kummer_lattice_cm_stability():
    # multiplication by the CM generator maps the lattice into its
    # F_q[theta]-span: solve the 2x2 integral matrix through relhunt
    fx = get_fixture("kummer-t:3", q=3, N=140)
    tm = fx.tmodule
    lat = tm.period_lattice()
    w = tm.cm_action[0]
    for lam in lat.vectors:
        target = w * lam
        rels = find_linear_relations([target, lat.vectors[0], lat.vectors[1]], H=3, margin=15)
        good = [r for r in rels if any(r["coeffs"][0])]
        assert good, "CM multiple not in the lattice span"


def test_agf_telescoping_carlitz():
    # <tau | G_lam> = (t - theta) <1 | G_lam> for lattice vectors
    q, N, T = 3, 120, 18
    tm = carlitz(q, N)
    lam = tm.period_lattice().vectors[0]
    g0 = agf(tm, lam, 0, T)
    g1 = agf(tm, lam, 1, T)
    fld, e = g0.field, g0.e
    theta = InfElem.theta(fld, N, e)
    for n in range(T - 1):
        # coefficient n of (t - theta) G0 is G0[n-1] - theta G0[n]
        expect = (g0.coeffs[n - 1] if n else InfElem.zero(fld, N, e)) - theta * g0.coeffs[n]
        assert (g1.coeffs[n] - expect).is_zero()


def test_quasi_period_telescoping_value():
    # [delta_tau, pi] = -pi
    q, N = 3, 160
    tm = carlitz(q, N)
    pi = carlitz_period(q, N)
    qp = de_rham_pairing(tm, 1, pi)
    assert (qp + pi).residual_val() >= N - 15


def test_de_rham_zero_and_bilinearity():
    q, N = 3, 120
    tm = carlitz(q, N)
    pi = carlitz_period(q, N)
    z = InfElem.zero(pi.field, N, pi.e)
    assert de_rham_pairing(tm, 1, z).is_zero()
    # [delta, theta lam] = theta [delta, lam]
    theta = InfElem.theta(pi.field, N, pi.e)
    lhs = de_rham_pairing(tm, 1, theta * pi)
    rhs = theta * de_rham_pairing(tm, 1, pi)
    assert (lhs - rhs).residual_val() >= 100


def test_kummer_quasi_period_matrix_nondegenerate():
    fx = get_fixture("kummer-t:3", q=3, N=140)
    tm = fx.tmodule
    lat = tm.period_lattice()
    qp = quasi_period_matrix(tm, lat)
    det = qp[0][0] * qp[1][1] - qp[0][1] * qp[1][0]
    assert det.val() is not None  # finite valuation = non-degenerate


def test_build_psi_carlitz_is_omega_multiple():
    q, N, T = 3, 120, 20
    fx = get_fixture("carlitz", q=q, N=N)
    tm = fx.tmodule
    lat = tm.period_lattice()
    bundle = build_psi(tm, lat, fx.motive, T=T, prec=N, threshold=N - 20)
    om = omega_series(q, T, N)
    entry = bundle.psi.rows[0][0]
    # quotient entry / omega is a constant in F_q^x
    c = (entry.coeffs[0] / om.coeffs[0]).lead_coeff()
    assert entry.field.in_base_q(c)
    const = InfElem.const(om.field, c, N, om.e)
    assert all((a - b * const).is_zero() for a, b in zip(entry.coeffs, om.coeffs))


def test_build_psi_const_ext():
    fx = get_fixture("const-ext:2", q=3, N=120)
    tm = fx.tmodule
    lat = tm.period_lattice()
    bundle = build_psi(tm, lat, fx.motive, T=20, prec=120, threshold=95)
    assert bundle.report["pass"]


@pytest.mark.parametrize("name, N, T", [("carlitz", 120, 20), ("const-ext:2", 60, 12), ("kummer-t:3", 60, 12)])
def test_build_psi_budget_keeps_the_report(name, N, T):
    # Psi inverted from the full twisted columns is the reference: Psi
    # built as the twist of psi_minus, with no precision budget, must give
    # the same report and agree with it digit for digit wherever both are
    # known
    fx = get_fixture(name, q=3, N=N)
    tm = fx.tmodule
    lat = tm.period_lattice()
    bundle = build_psi(tm, lat, fx.motive, T=T, prec=N, basis_change=fx.basis_change_tate(T, N))
    C = TateMatrix([[-agf(tm, lam, i + 1, T) for lam in lat.vectors] for i in range(tm.rank)])
    full = C.transpose().inverse()
    if fx.basis_change is not None:
        full = TateMatrix([[c.realize_tate(T, N) for c in row] for row in fx.basis_change[0]]) @ full
    phi = fx.motive.phi_tate(T, N)
    assert check_difference_eq(phi, full, psi_minus=bundle.psi_minus) == bundle.report
    for got, ref in zip(bundle.psi.rows, full.rows):
        for g, f in zip(got, ref):
            assert all((x - y).is_zero() for x, y in zip(g.coeffs, f.coeffs))


@pytest.mark.parametrize("name, size", [("carlitz", 9), ("kummer-t:3", 9), ("const-ext:2", 81)])
def test_t_legendre_identity(name, size):
    # det(C_minus^T) (t - theta) Omega is a nonzero constant in t: its t^0
    # coefficient is one constant digit and every t^i, i >= 1, vanishes at
    # its precision; over F_3 the constant is -1
    N, T = 60, 12
    fx = get_fixture(name, q=3, N=N)
    tm = fx.tmodule
    lat = tm.period_lattice()
    ct_minus = TateMatrix([[-agf(tm, lam, i, T) for i in range(tm.rank)] for lam in lat.vectors])
    om = omega_series(3, T, N)
    theta = InfElem.theta(om.field, N, om.e)
    one = InfElem.const(om.field, 1, N, om.e)
    prod = ct_minus.det() * TateSeries.poly([-theta, one], T) * om
    assert prod.field.size == size
    assert all(c.is_zero() for c in prod.coeffs[1:])
    c0 = prod.coeffs[0]
    assert list(c0.coeffs) == [0]
    if size == 9:
        assert c0.coeffs[0] == prod.field.scalar(2)


def test_cm_action_must_commute():
    fld = Fq.get(3, 1, 1)
    theta = InfElem.theta(fld, 60)
    one = InfElem.const(fld, 1, 60)
    with pytest.raises(ValueError):
        TModule([theta, one], cm_action=[theta])  # theta does not commute with tau


def test_agf_vectors_are_sigma_fixed():
    # the lattice vectors' AGF coordinate columns C on the dual basis
    # satisfy Phi_rho^T C^(-1) = C: exactly the sigma-fixedness of the
    # Betti cycles they represent
    from cmperiods.fixtures import drinfeld_phi

    q, N, T = 3, 120, 16
    fx = get_fixture("kummer-t:3", q=q, N=N)
    tm = fx.tmodule
    lat = tm.period_lattice()
    r = tm.rank
    fam = {j: [agf(tm, lam, j, T) for lam in lat.vectors] for j in range(r + 1)}
    C = TateMatrix([[-fam[i + 1][jj] for jj in range(r)] for i in range(r)])
    C_minus = TateMatrix([[-fam[i][jj] for jj in range(r)] for i in range(r)])
    ring = fx.motive.ring
    w = ring.w()
    theta = ring.theta()
    phi_rho = drinfeld_phi(ring, [theta, w * (theta - ring.scalar(1)), -ring.one()])
    phi_t = TateMatrix([[c.realize_tate(T, N) for c in row] for row in phi_rho])
    lhs = phi_t.transpose() @ C_minus
    for i in range(r):
        for j in range(r):
            diff = lhs.rows[i][j] - C.rows[i][j]
            for c in diff.coeffs[: T - 1]:
                assert c.is_zero() or c.residual_val() >= N - 20


def _agf_per_j(tm, lam, j, T):
    """The earlier per-j AGF, kept as reference: the exponentials
    exp(lam theta^(-n-1)), their q^j-th powers, and a decay scan with
    slope q^j."""
    fld = tm.field.compositum(lam.field)
    e = lcm(tm.e, lam.e)
    theta_inv = InfElem.theta(fld, tm.coeffs[0].prec // tm.e, e).inverse()
    z = lam.lift(fld, e) * theta_inv
    coeffs = []
    for _ in range(T):
        coeffs.append(tm.exp_eval(z).frobenius(j))
        z = z * theta_inv
    B = tm.q**j
    A = B * (lam.val() + 1)
    for n, c in enumerate(coeffs):
        A = min(A, c.residual_val() - B * n)
    return TateSeries(coeffs, Decay("linear", A, B))


def _kummer5_module(N):
    """The rank-4 module rho_t = -(rho_y)^4, rho_y = w + tau, of kummer-t:5
    (w^4 = -theta), with a few nonzero points of mixed valuation: its
    lattice search over 5^4 torsion points is too slow for this suite."""
    ring = get_fixture("kummer-t:5", N=N).motive.ring
    w, one = ring.w().realize(N), ring.one().realize(N)
    rho = [w, one]
    for _ in range(3):
        rho = skew_mul(rho, [w, one], 5)
    tm = TModule([-c for c in rho], cm_action=[w, one])
    rng = random.Random(5)
    noise = InfElem(w.field, w.e, {k: rng.randrange(w.field.size) for k in range(-8, 4 * N)}, 4 * N)
    return tm, [w, w * w * w + one, noise]


@pytest.mark.parametrize(
    "name, q",
    [
        ("carlitz", 2), ("carlitz", 3), ("carlitz", 4), ("kummer-t:3", 3), ("const-ext:2", 3), ("const-ext:2", 4),
        ("const-ext:3", 2), ("kummer-t:5", 5),
    ],
)
def test_agf_twists_match_the_per_j_reference(name, q):
    # every tau^j column is the j-th twist of the one tau^0 series, and
    # the tau^0 series, built from one product E_i lam^(q^i) per i, is the
    # per-n exponential digit for digit
    N, T = 60, 12
    if name == "kummer-t:5":
        tm, lams = _kummer5_module(N)
    else:
        tm = get_fixture(name, q=q, N=N).tmodule
        lams = tm.period_lattice().vectors
    for lam in lams:
        for j in range(tm.rank + 1):
            assert agf(tm, lam, j, T).to_json() == _agf_per_j(tm, lam, j, T).to_json()


def _sum_shifted(series):
    """The earlier evaluation at theta, kept as reference: one sum of two
    InfElems per shifted coefficient, truncated to the tail bound."""
    e = series.e
    acc = None
    for i, c in enumerate(series.coeffs):
        term = c.mono_mul(1, -e * i)
        acc = term if acc is None else acc + term
    return acc.truncate(int(series.decay.tail_min(series.T) * e))


@pytest.mark.parametrize(
    "name, q, N",
    [("carlitz", 2, 200), ("carlitz", 3, 200), ("carlitz", 4, 200), ("kummer-t:3", 3, 60), ("const-ext:3", 2, 60)],
    ids=["2", "3", "4", "kummer-t:3", "const-ext:3"],
)
def test_de_rham_pairing_matches_the_per_n_reference(name, q, N):
    # [delta_j, lam] from the partial-fraction sum has the digits of the
    # per-n series at T = prec/(q^j - 1) + 8 summed at theta, and states at
    # least that sum's precision: the sum has no truncation in t
    if name == "carlitz":
        tm, lams = carlitz(q, N), [carlitz_period(q, N)]
    else:
        tm = get_fixture(name, q=q, N=N).tmodule
        lams = tm.period_lattice().vectors
    for lam in lams:
        for j in (1, 2):
            T = int(lam.prec_val // (q**j - 1)) + 8
            want = _sum_shifted(_agf_per_j(tm, lam, j, T))
            got = de_rham_pairing(tm, j, lam)
            assert got.prec >= want.prec
            assert got.truncate(want.prec).to_json() == want.to_json()
            # and a reference long enough to reach the sum's precision
            # has every digit the sum states
            while want.prec < got.prec:
                T *= 2
                want = _sum_shifted(_agf_per_j(tm, lam, j, T))
            assert want.truncate(got.prec).to_json() == got.to_json()
        with pytest.raises(NoDecay):
            de_rham_pairing(tm, 0, lam)
    zero = InfElem.zero(lam.field, N, lam.e)
    assert de_rham_pairing(tm, 1, zero).to_json() == zero.to_json()
    G = agf(tm, zero, 1, 8)
    assert all(c.is_zero() and c.prec == zero.prec * q for c in G.coeffs)
