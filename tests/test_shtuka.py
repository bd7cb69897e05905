import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from cmperiods import shtuka
from cmperiods.arith import Fq
from cmperiods.cmtypes import CMDivisor, THETA_POINT
from cmperiods.errors import ModelMismatch, UnsupportedGenus
from cmperiods.fixtures import get_fixture
from cmperiods.infinity import InfElem
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
from cmperiods.tate import adj_inverse


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
    bad = _unfold(fx.motive.phi[0], u_t) * WPoly(ring, [ring.w(), ring.one()])
    fx.motive.phi = [
        _fold(bad * WPoly(ring, [ring.zero()] * j + [ring.one()]), u_t, ring.E)
        for j in range(ring.E)
    ]
    assert not sigma_ideal_check(fx.motive)["pass"]


def test_tensor_carlitz_powers_add():
    a = get_fixture("carlitz-tensor:2", q=3, N=60).motive
    b = get_fixture("carlitz", q=3, N=60).motive
    with pytest.raises(ModelMismatch):
        tensor_motives(a, get_fixture("kummer-t:3", q=3, N=60).motive)
    t = tensor_motives(a, build_motive(a.model, solve_shtuka(a.model, CMDivisor({THETA_POINT: 1})), CMDivisor({THETA_POINT: 1})))
    assert t.xi.degree() == 3
    assert hodge_pink_weights(t) == [-3]


def test_tensor_kummer_conjugate_points():
    fx = get_fixture("kummer-t:3", q=3, N=80)
    model = fx.model
    pts = model.points(80)
    other = next(p for p in pts if CMDivisor({p.label: 1}) != fx.xi)
    xi2 = CMDivisor({other.label: 1})
    pair2 = solve_shtuka(model, xi2)
    m2 = build_motive(model, pair2, xi2)
    t = tensor_motives(fx.motive, m2)
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
    m2 = build_motive(fx.model, solve_shtuka(fx.model, xi2), xi2)
    with pytest.raises(UnsupportedGenus):
        solve_shtuka(fx.model, fx.xi + xi2)
    with pytest.raises(UnsupportedGenus):
        tensor_motives(fx.motive, m2)


@pytest.mark.parametrize(
    "name,q,label",
    [("kummer-t:3", 3, "xi1"), ("kummer-t:3", 3, "xi0"), ("const-ext:2", 3, "xi1"), ("carlitz", 3, "xi_theta")],
)
def test_tensor_ledger_is_the_summed_divisors(name, q, label):
    # the ledger, reduction included, is that of the summed divisor, not
    # the first factor's
    fx = get_fixture(name, q=q, N=60)
    xi2 = CMDivisor({label: 1})
    m2 = build_motive(fx.model, solve_shtuka(fx.model, xi2), xi2)
    t = tensor_motives(fx.motive, m2)
    assert t.pair.ledger == solve_shtuka(fx.model, fx.xi + xi2).ledger
    assert sum(t.pair.ledger["reduction"].values()) == 2
    assert t.pair.ledger["matches_reduction"]


def test_hodge_pink_weights_examples():
    assert hodge_pink_weights(get_fixture("carlitz-tensor:3", q=3, N=50).motive) == [-3]
    assert hodge_pink_weights(get_fixture("kummer-t:3", q=3, N=50).motive) == [-1, 0]
    assert hodge_pink_weights(get_fixture("kummer-t:5", q=5, N=50).motive) == [-1, 0, 0, 0]
    assert hodge_pink_weights(get_fixture("const-ext:2", q=3, N=50).motive) == [-1, 0]


# Hodge-Pink weights recorded with the Smith reduction over W[t] that
# preceded the determinantal-divisor scan: every fixture at its CLI q, and
# motives of further divisors (None is the fixture's own).  In rows with
# no weight 0, such as xi0 + xi1 on kummer-t:3 and all four points on
# kummer-t:5, every entry of Phi is divisible by t - theta, so no minor
# ends a scan early and each k < rank scans every minor
WEIGHT_TABLE = [
    ("carlitz", 3, None, [-1]),
    ("carlitz-tensor:2", 3, None, [-2]),
    ("carlitz-tensor:3", 4, None, [-3]),
    ("kummer-t:3", 3, None, [-1, 0]),
    ("kummer-t:5", 5, None, [-1, 0, 0, 0]),
    ("const-ext:2", 3, None, [-1, 0]),
    ("const-ext:2", 4, None, [-1, 0]),
    ("const-ext:3", 2, None, [-1, 0, 0]),
    ("kummer-t:3", 3, {"xi0": 2}, [-2, 0]),
    ("kummer-t:3", 3, {"xi0": 3}, [-3, 0]),
    ("kummer-t:3", 3, {"xi0": 1, "xi1": 1}, [-1, -1]),
    ("kummer-t:3", 3, {"xi0": 2, "xi1": 1}, [-2, -1]),
    ("kummer-t:5", 5, {"xi0": 2}, [-2, 0, 0, 0]),
    ("kummer-t:5", 5, {"xi0": 1, "xi1": 1}, [-1, -1, 0, 0]),
    ("kummer-t:5", 5, {"xi0": 1, "xi2": 1}, [-1, -1, 0, 0]),
    ("kummer-t:5", 5, {"xi0": 1, "xi1": 1, "xi2": 1, "xi3": 1}, [-1, -1, -1, -1]),
    ("const-ext:3", 2, {"xi0": 2}, [-2, 0, 0]),
]


def test_hodge_pink_weights_match_the_recorded_table():
    for name, q, mults, want in WEIGHT_TABLE:
        fx = get_fixture(name, q=q, N=50)
        xi = fx.xi if mults is None else CMDivisor(mults)
        motive = fx.motive if mults is None else build_motive(fx.model, solve_shtuka(fx.model, xi), xi)
        got = hodge_pink_weights(motive)
        assert got == want, (name, q, mults)
        # det Phi = c (t - theta)^(deg Xi): the exponents add up to it
        assert sum(got) == -xi.degree()


def test_hodge_pink_weights_scan_past_a_minor_above_the_least():
    # T = t - theta.  The first minor of each size (T, then T^2) sits above
    # the least valuation of its size (0, then 1), so the weights need the
    # scan to go on past it; the Smith reduction also gave [-2, -1, 0]
    ring = get_fixture("kummer-t:3", q=3, N=50).motive.ring
    T = t_minus_theta(ring)
    one, zero = WPoly.const(ring, ring.one()), WPoly(ring, [])
    phi = [[T, one, zero], [zero, T, zero], [zero, zero, T]]
    assert hodge_pink_weights(SimpleNamespace(phi=phi, ring=ring, rank=3)) == [-2, -1, 0]


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


def _same_elem(x, y):
    assert (x.field, x.e, x.prec, x.coeffs) == (y.field, y.e, y.prec, y.coeffs)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_symbols_match_the_uncut_inverse(q, n):
    # det Psi(theta) is cut before it is inverted; every symbol keeps the
    # digits and precision of the full adjugate inverse
    N = 300
    fx = get_fixture(f"carlitz-tensor:{n}" if n > 1 else "carlitz", q=q, N=N)
    psi = fx.psi(T=24, N=N)
    got = period_symbols(fx.motive, psi, prec=N)["values"]
    inv = adj_inverse(psi.eval_theta())
    for label, row in eigendifferentials(fx.motive, N).items():
        want = inv[0][0] * row[0]
        for j in range(1, fx.motive.rank):
            want = want + inv[0][j] * row[j]
        _same_elem(got[label], want)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_cramer_symbols_keep_every_product(size, monkeypatch):
    # entries over F_9 at e = 2 with unlike precisions, differentials over
    # F_3 at e = 1 and 3 and one with a zero entry: the symbol by Cramer's
    # rule has the digits of the full adjugate row times the differential,
    # at no lower a precision
    rng = random.Random(size)
    F3, F9 = Fq.get(3, 1, 1), Fq.get(3, 1, 2)

    def elem(fld, e, lead, span, density=0.7):
        coeffs = {k: rng.randrange(1, fld.size) for k in range(lead, lead + span) if rng.random() < density}
        coeffs[lead] = 1
        return InfElem(fld, e, coeffs, lead + span)

    motive = SimpleNamespace(basis=[], ring=SimpleNamespace(convention=lambda: {}))
    for _ in range(4):
        # a dominant diagonal keeps det nonzero
        rows = [[elem(F9, 2, -6 if i == j else rng.randrange(0, 4), rng.randrange(10, 90)) for j in range(size)]
                for i in range(size)]
        diffs = [[elem(F3, e, rng.randrange(-3, 3), rng.randrange(1, 70)) for _ in range(size)] for e in (1, 3)]
        diffs.append([InfElem(F3, 1, {}, 30)] + [elem(F3, 1, 0, 200) for _ in range(size - 1)])
        monkeypatch.setattr(shtuka, "eigendifferentials", lambda motive, prec: dict(enumerate(diffs)))
        got = period_symbols(motive, SimpleNamespace(eval_theta=lambda: rows))["values"]
        full = adj_inverse(rows)[0]
        for label, d in enumerate(diffs):
            want = full[0] * d[0]
            for j in range(1, size):
                want = want + full[j] * d[j]
            assert got[label].prec_val >= want.prec_val
            assert (got[label] - want).residual_val() >= want.prec_val


def test_tensor_symbols_hold_their_stated_precision():
    # at T 8 the symbol of Omega^2 over F_2 stated 196 digits while its
    # first digit disagreeing with T 64 sat at u^48; what it states now
    # must agree with the long truncation
    fx = get_fixture("carlitz-tensor:2", q=2, N=200)
    (short,) = period_symbols(fx.motive, fx.psi(T=8, N=200), prec=200)["values"].values()
    (long,) = period_symbols(fx.motive, fx.psi(T=64, N=200), prec=200)["values"].values()
    assert short.prec_val < long.prec_val
    assert (short - long).residual_val() >= short.prec_val


@pytest.mark.parametrize("q, N, T", [(3, 200, 8), (2, 60, 12), (4, 200, 8)])
def test_short_truncation_tensor_cube_states_true_digits(q, N, T):
    # Omega^3 as a square times Omega stated no digit here (q 3 raised
    # DivisionByApparentZero, q 2 stated -2, q 4 stated 0); the step-3
    # descriptor of the product formula bounds the tail at these T
    fx = get_fixture("carlitz-tensor:3", q=q, N=N)
    (short,) = period_symbols(fx.motive, fx.psi(T=T, N=N), prec=N)["values"].values()
    (long,) = period_symbols(fx.motive, fx.psi(T=64, N=N), prec=N)["values"].values()
    assert short.prec_val > 0
    assert (short - long).residual_val() >= short.prec_val
    pi = carlitz_period(q, N)
    ratio = short * (pi**3).inverse()
    c = ratio.lead_coeff()
    assert ratio.field.in_base_q(c)
    assert ratio.prec_val > 0
    diff = ratio - type(short).const(ratio.field, c, int(ratio.prec_val), ratio.e)
    assert diff.is_zero()


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
        "sigma_ideal": sigma_ideal_check(motive),
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
    other = build_motive(fx.model, solve_shtuka(fx.model, xi), xi)
    rec = _motive_record(tensor_motives(fx.motive, other), prec)
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
