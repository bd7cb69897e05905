import itertools
import json
import sys
from pathlib import Path

import pytest

from cmperiods.cmtypes import CMDivisor, THETA_POINT
from cmperiods.errors import ModelMismatch, UnsupportedGenus
from cmperiods.fixtures import get_fixture
from cmperiods.shtuka import (
    WPoly,
    _fold,
    _model_wring,
    _unfold,
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
    # h = (t - theta)^3 in the coordinate ring (E = 1, y eliminated)
    ring = fx.motive.ring
    tt = t_minus_theta(ring)
    expect = tt * tt * tt
    (got,) = fx.motive.pair.ypows()
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
    # plant a defect in Phi's rows: multiply h by the conjugate linear
    # factor (y + w), so that row j is y^j h (y + w)
    ring, u_t = _model_wring(fx.model)
    bad = _unfold(fx.motive.phi[0], u_t) * WPoly(ring, [ring.w(), ring.one()], var="y")
    fx.motive.phi = [
        _fold(bad * WPoly(ring, [ring.zero()] * j + [ring.one()], var="y"), u_t, ring.E)
        for j in range(ring.E)
    ]
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


def test_const_ext_cross_component_tensor_is_refused():
    # xi1 + xi0 spans both components of const-ext:2, which solve_shtuka
    # refuses; the tensor of the two one-point motives is that divisor
    fx = get_fixture("const-ext:2", q=3, N=60)
    (label,) = fx.xi.support()
    other = next(p.label for p in fx.model.points(60) if p.label != label)
    xi2 = CMDivisor({other: 1})
    m2 = build_motive(fx.model, solve_shtuka(fx.model, xi2, 60), xi2, 60)
    with pytest.raises(UnsupportedGenus):
        solve_shtuka(fx.model, fx.xi + xi2, 60)
    with pytest.raises(UnsupportedGenus):
        tensor_motives(fx.motive, m2, 60)


@pytest.mark.parametrize(
    "name,q,label",
    [("kummer-t:3", 3, "xi1"), ("kummer-t:3", 3, "xi0"), ("const-ext:2", 3, "xi1"), ("carlitz", 3, "xi_theta")],
)
def test_tensor_ledger_is_the_summed_divisors(name, q, label):
    # the ledger, reduction included, is that of the summed divisor, not
    # the first factor's
    fx = get_fixture(name, q=q, N=60)
    xi2 = CMDivisor({label: 1})
    m2 = build_motive(fx.model, solve_shtuka(fx.model, xi2, 60), xi2, 60)
    t = tensor_motives(fx.motive, m2, 60)
    assert t.pair.ledger == solve_shtuka(fx.model, fx.xi + xi2, 60).ledger
    assert sum(t.pair.ledger["reduction"].values()) == 2
    assert t.pair.ledger["matches_reduction"]


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
    for name, q in [("kummer-t:3", 3), ("carlitz-tensor:2", 3), ("kummer-t:5", 5)]:
        fx = get_fixture(name, q=q, N=60)
        motive = fx.motive
        ring, u_t = _model_wring(fx.model)
        h_y = _unfold(motive.phi[0], u_t)
        mmax = max(motive.sigma_exponents.values())
        # rewrite (t - theta)^mmax in y through t = (y^E - u0)/u1
        tt = t_minus_theta(ring)
        acc = WPoly.const(ring, ring.one())
        for _ in range(mmax):
            acc = acc * tt
        target = _unfold([acc] + [WPoly(ring, [])] * (ring.E - 1), u_t)
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


# ---------------------------------------------------------------------------
# motives against recorded ones: Phi, the y-action, the shtuka pair, the
# sigma-ideal check, the weights and the eigen-differentials, as text.
# Regenerate with `PYTHONPATH=src python tests/test_shtuka.py` only for a
# change that alters them on purpose, and say so in CHANGES.md.

MOTIVE_GOLDEN = Path(__file__).parent / "golden" / "motives.json"

MOTIVE_CASES = [
    ("carlitz", 2),
    ("carlitz", 3),
    ("carlitz-tensor:2", 3),
    ("carlitz-tensor:3", 4),
    ("kummer-t:3", 3),
    ("kummer-t:5", 5),
    ("const-ext:2", 3),
    ("const-ext:2", 4),
    ("const-ext:3", 2),
    ("const-ext:3", 3),
]


def _motive_record(motive, prec):
    return {
        "phi": [[repr(c) for c in row] for row in motive.phi],
        "y_action": [[repr(c) for c in row] for row in motive.y_action],
        "shtuka": motive.pair.to_json(),
        "sigma_ideal": sigma_ideal_check(motive, prec),
        "weights": hodge_pink_weights(motive),
        "eigendifferentials": {
            label: [v.to_json() for v in row]
            for label, row in eigendifferentials(motive, prec).items()
        },
    }


# the fixture's motive tensored with the motive of one more point; the
# tensor's ledger is left out (see test_tensor_ledger_is_the_summed_divisors)
TENSOR_CASES = [
    ("carlitz-tensor:2", 3, "xi_theta"),
    ("kummer-t:3", 3, "xi0"),
    ("kummer-t:3", 3, "xi1"),
    ("kummer-t:5", 5, "xi2"),
    ("const-ext:2", 3, "xi1"),
    ("const-ext:3", 2, "xi0"),
]


def _motive_data(name, q, prec=60):
    return _motive_record(get_fixture(name, q=q, N=prec).motive, prec)


def _tensor_data(name, q, label, prec=60):
    fx = get_fixture(name, q=q, N=prec)
    xi = CMDivisor({label: 1})
    other = build_motive(fx.model, solve_shtuka(fx.model, xi, prec), xi, prec)
    rec = _motive_record(tensor_motives(fx.motive, other, prec), prec)
    del rec["shtuka"]["ledger"]
    return rec


def _golden_key(name, q, label=None):
    return f"{name} q{q}" + (f" (x) {label}" if label else "")


@pytest.fixture(scope="module")
def motive_golden():
    return json.loads(MOTIVE_GOLDEN.read_text())


@pytest.mark.parametrize("name,q", MOTIVE_CASES)
def test_motive_matches_golden(name, q, motive_golden):
    got = json.dumps(_motive_data(name, q), indent=1, sort_keys=True)
    want = json.dumps(motive_golden[_golden_key(name, q)], indent=1, sort_keys=True)
    assert got == want


@pytest.mark.parametrize("name,q,label", TENSOR_CASES)
def test_tensor_motive_matches_golden(name, q, label, motive_golden):
    got = json.dumps(_tensor_data(name, q, label), indent=1, sort_keys=True)
    want = json.dumps(motive_golden[_golden_key(name, q, label)], indent=1, sort_keys=True)
    assert got == want


if __name__ == "__main__":
    data = {_golden_key(n, q): _motive_data(n, q) for n, q in MOTIVE_CASES}
    data.update({_golden_key(n, q, lb): _tensor_data(n, q, lb) for n, q, lb in TENSOR_CASES})
    MOTIVE_GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
