import itertools

import pytest

from cmperiods.cmtypes import CMDivisor, THETA_POINT
from cmperiods.errors import ModelMismatch
from cmperiods.fixtures import get_fixture
from cmperiods.shtuka import (
    CoordElem,
    WPoly,
    build_motive,
    eigendifferentials,
    extended_symbol,
    hodge_pink_weights,
    period_symbols,
    sigma_ideal_check,
    solve_shtuka,
    t_minus_theta,
    tensor_motives,
)
from cmperiods.special import carlitz_period


def test_solve_shtuka_carlitz():
    fx = get_fixture("carlitz-tensor:3", q=3, N=60)
    h = fx.motive.pair.data
    # h = (t - theta)^3 in the coordinate ring (E = 1, y eliminated)
    ring = fx.motive.ring
    tt = t_minus_theta(ring)
    expect = tt * tt * tt
    got = h.ypows[0]
    # in the rational model w realizes theta, so compare realized Tate rows
    gt = got.realize_tate(4, 40)
    et = expect.realize_tate(4, 40)
    assert all((a - b).is_zero() for a, b in zip(gt.coeffs, et.coeffs))
    assert fx.motive.pair.ledger["matches_reduction"]


def test_solve_shtuka_kummer_ledger():
    fx = get_fixture("kummer-t:3", q=3, N=80)
    led = fx.motive.pair.ledger
    assert led["matches_reduction"]
    assert sum(led["zeros"].values()) == 1
    assert led["poles"] == {"inf0": 1}


def test_build_motive_kummer_matches_hand_expansion():
    # oracle: sigma(1) = y - w, sigma(y) = (y - w) y = -t - w y
    fx = get_fixture("kummer-t:3", q=3, N=80)
    ring = fx.motive.ring
    w = ring.w()
    one, zero = ring.one(), ring.zero()
    tpoly = WPoly(ring, [zero, one])
    expect = [
        [WPoly.const(ring, -w), WPoly.const(ring, one)],
        [-tpoly, WPoly.const(ring, -w)],
    ]
    for row, erow in zip(fx.motive.phi, expect):
        for a, b in zip(row, erow):
            assert (a - b).is_zero()


@pytest.mark.parametrize("name", ["carlitz", "kummer-t:3", "const-ext:2"])
def test_motive_lives_on_one_ring(name):
    # one WRing per model: the shtuka function, Phi and the basis change
    # share it, so their entries compare by value without re-homing
    motive = get_fixture(name, q=3, N=60).motive
    assert all(c.ring is motive.ring for row in motive.phi for c in row)


def test_det_phi_invariant_all_fixtures():
    for name in ["carlitz", "carlitz-tensor:2", "carlitz-tensor:3", "kummer-t:3", "kummer-t:5", "const-ext:2"]:
        fx = get_fixture(name, q=3, N=60)
        inv = fx.motive.check_invariants()
        assert inv["ok"]
        assert inv["exponent"] == fx.xi.degree()
        assert fx.motive.rank == fx.model.degree


def test_sigma_ideal_pass_and_planted_defect():
    fx = get_fixture("kummer-t:3", q=3, N=80)
    assert sigma_ideal_check(fx.motive)["pass"]
    # plant a defect: multiply h by the conjugate linear factor (y + w)
    ring = fx.motive.ring
    w = ring.w()
    bad_factor = CoordElem(
        ring,
        [WPoly.const(ring, w), WPoly.const(ring, ring.one())],
        fx.motive.pair.data.u_t,
    )
    fx.motive.pair.data = fx.motive.pair.data * bad_factor
    assert not sigma_ideal_check(fx.motive)["pass"]


def test_tensor_carlitz_powers_add():
    a = get_fixture("carlitz-tensor:2", q=3, N=60).motive
    b = get_fixture("carlitz", q=3, N=60).motive
    with pytest.raises(ModelMismatch):
        tensor_motives(a, get_fixture("kummer-t:3", q=3, N=60).motive)
    t = tensor_motives(a, build_motive(a.model, solve_shtuka(a.model, CMDivisor({THETA_POINT: 1}), 60), CMDivisor({THETA_POINT: 1}), 60))
    assert t.xi.degree() == 3
    assert hodge_pink_weights(t) == [-3]


def test_tensor_kummer_conjugate_points():
    fx = get_fixture("kummer-t:3", q=3, N=80)
    model = fx.model
    pts = model.points(80)
    other = next(p for p in pts if CMDivisor({p.label: 1}) != fx.xi)
    xi2 = CMDivisor({other.label: 1})
    pair2 = solve_shtuka(model, xi2, 80)
    m2 = build_motive(model, pair2, xi2, 80)
    t = tensor_motives(fx.motive, m2, 80)
    inv = t.check_invariants()
    assert inv["ok"] and inv["exponent"] == 2
    assert sigma_ideal_check(t)["pass"]
    assert hodge_pink_weights(t) == [-1, -1]


def test_hodge_pink_weights_examples():
    assert hodge_pink_weights(get_fixture("carlitz-tensor:3", q=3, N=50).motive) == [-3]
    assert hodge_pink_weights(get_fixture("kummer-t:3", q=3, N=50).motive) == [-1, 0]
    assert hodge_pink_weights(get_fixture("kummer-t:5", q=5, N=50).motive) == [-1, 0, 0, 0]
    assert hodge_pink_weights(get_fixture("const-ext:2", q=3, N=50).motive) == [-1, 0]


def _determinantal_weights(motive):
    """Independent oracle: (t-theta)-adic valuations of the elementary
    divisors through gcds of k x k minors."""
    ring = motive.ring
    phi = motive.phi
    n = len(phi)
    tt = t_minus_theta(ring)

    def tval(p):
        v = 0
        cur = p
        while not cur.is_zero():
            q, r = cur.divmod(tt)
            if not r.is_zero():
                break
            v += 1
            cur = q
        return v

    def minors(k):
        out = []
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[phi[i][j] for j in cols] for i in rows]
                out.append(_wdet(sub, ring))
        return out

    def _wdet(mat, ring):
        if len(mat) == 1:
            return mat[0][0]
        acc = WPoly(ring, [])
        for j in range(len(mat)):
            sub = [[row[k] for k in range(len(mat)) if k != j] for row in mat[1:]]
            term = mat[0][j] * _wdet(sub, ring)
            acc = acc - term if j % 2 else acc + term
        return acc

    prev_v = 0
    weights = []
    for k in range(1, n + 1):
        vs = [tval(m) for m in minors(k) if not m.is_zero()]
        vk = min(vs)
        weights.append(-(vk - prev_v))
        prev_v = vk
    return sorted(weights)


def test_smith_weights_match_determinantal_oracle():
    for name, q in [("kummer-t:3", 3), ("carlitz-tensor:2", 3), ("const-ext:2", 3), ("kummer-t:5", 5)]:
        m = get_fixture(name, q=q, N=50).motive
        assert hodge_pink_weights(m) == _determinantal_weights(m)


def test_eigendifferentials_kummer():
    fx = get_fixture("kummer-t:3", q=3, N=100)
    omegas = eigendifferentials(fx.motive, prec=100)
    pts = {p.label: p for p in fx.model.points(100)}
    # omega(y m) = nu(y) omega(m): rows against the realized y-action
    ymat = [[c.realize_at_theta(100) for c in row] for row in fx.motive.y_action]
    for label, row in omegas.items():
        nu = pts[label].value
        for j in range(2):
            # omega applied to y * basis_j, coordinates from the y-action row
            lhs = None
            for k in range(2):
                t = ymat[j][k] * row[k]
                lhs = t if lhs is None else lhs + t
            rhs = row[j] * nu
            assert (lhs - rhs).is_zero()
    # normalization: value 1 on the first basis element
    for row in omegas.values():
        assert row[0].coeffs == {0: 1}
    # the r functionals form an invertible matrix (Vandermonde)
    rows = list(omegas.values())
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    assert det.val() is not None


def test_period_symbols_tensor_powers():
    # p(xi_theta, n xi_theta) = pi^n up to an exact F_q^x unit
    q, N = 3, 120
    pi = carlitz_period(q, N)
    for n in (1, 2, 3):
        fx = get_fixture(f"carlitz-tensor:{n}" if n > 1 else "carlitz", q=q, N=N)
        psi = fx.psi(T=24, N=N)
        syms = period_symbols(fx.motive, psi, prec=N)
        (val,) = syms["values"].values()
        ratio = val * (pi**n).inverse()
        assert not ratio.is_zero()
        c = ratio.lead_coeff()
        assert ratio.field.in_base_q(c)
        diff = ratio - type(val).const(ratio.field, c, int(ratio.prec_val), ratio.e)
        assert diff.is_zero()


def test_tensor_symbols_hold_their_stated_precision():
    # at T 8 the symbol of Omega^2 over F_2 stated 196 digits while its
    # first digit disagreeing with T 64 sat at u^48; what it states now
    # must agree with the long truncation
    fx = get_fixture("carlitz-tensor:2", q=2, N=200)
    (short,) = period_symbols(fx.motive, fx.psi(T=8, N=200), prec=200)["values"].values()
    (long,) = period_symbols(fx.motive, fx.psi(T=64, N=200), prec=200)["values"].values()
    assert short.prec_val < long.prec_val
    assert (short - long).residual_val() >= short.prec_val


def test_extended_symbol_bookkeeping():
    from fractions import Fraction

    fx = get_fixture("kummer-t:3", q=3, N=60)
    pts = fx.model.points(60)
    rep = extended_symbol(fx.model, pts[0].label, pts[1].label)
    assert rep["pi_exponent"] == Fraction(1, 2)
    assert rep["base_exponent"] == Fraction(1, 2)
    # Phi_2^0 = c*xi_2 - (full fiber): degree zero
    assert sum(rep["base_divisor"].values()) == 0


def test_t_minus_theta_power_inside_sigma_ideal():
    # (t - theta)^(max m_xi) M lies inside sigma M: the shtuka generator
    # divides (t - theta)^max in the coordinate ring
    from cmperiods.shtuka import t_minus_theta

    for name, q in [("kummer-t:3", 3), ("carlitz-tensor:2", 3), ("kummer-t:5", 5)]:
        fx = get_fixture(name, q=q, N=60)
        motive = fx.motive
        ring = motive.ring
        h_y = motive.pair.data.to_ypoly()
        mmax = max(motive.sigma_exponents.values())
        # rewrite (t - theta)^mmax in y through t = (y^E - u0)/u1
        from cmperiods.shtuka import CoordElem, WPoly

        tt = t_minus_theta(ring)
        pw = CoordElem(ring, [tt], motive.pair.data.u_t)
        acc = CoordElem(
            ring,
            [WPoly.const(ring, ring.one())],
            motive.pair.data.u_t,
        )
        for _ in range(mmax):
            acc = acc * pw
        target = acc.to_ypoly()
        q_, r_ = target.divmod(h_y)
        assert r_.is_zero(), name


def test_symbol_additivity_certified():
    # p(xi, Xi1) p(xi, Xi2) / p(xi, Xi1 + Xi2) is certified algebraic on
    # the shipped closed-form family
    from cmperiods.relhunt import find_algebraic_relation

    q, N = 3, 160
    vals = {}
    for n in (1, 2, 3):
        name = "carlitz" if n == 1 else f"carlitz-tensor:{n}"
        fx = get_fixture(name, q=q, N=N)
        syms = period_symbols(fx.motive, fx.psi(T=20, N=N), prec=N)
        (vals[n],) = syms["values"].values()
    ratio = vals[1] * vals[2] / vals[3]
    cert = find_algebraic_relation(ratio, D=2, H=6)
    assert cert is not None and cert["degree"] == 1
