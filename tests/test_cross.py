"""Cross-module identities tying gamma, the exponential, and relhunt together."""

import pytest

from cmperiods.arith import Fq
from cmperiods.cmtypes import CMDivisor, CMFieldModel
from cmperiods.errors import GaloisDataInsufficient, RamifiedAboveTheta, UnsupportedGenus
from cmperiods.fixtures import get_fixture
from cmperiods.infinity import InfElem
from cmperiods.relhunt import find_algebraic_relation
from cmperiods.special import carlitz_period, carlitz_tensor_motive, geometric_gamma, omega_series
from cmperiods.tate import tate_twist
from cmperiods.tmodule import TModule


def test_omega_inverse_twist_coefficientwise():
    # Omega^(-1) = (t - theta) Omega, checked coefficient by coefficient
    q = 3
    om = omega_series(q, 20, 100)
    tw = tate_twist(om, -1)
    theta = InfElem.theta(om.field, 90, om.e)
    for i in range(om.T - 1):
        prev = om.coeffs[i - 1] if i else InfElem.zero(om.field, 90, om.e)
        expect = prev - theta * om.coeffs[i]
        assert (tw.coeffs[i] - expect).is_zero()


def test_gamma_reflection_certified():
    # prod over eps in F_q^x of Gamma(eps x), times e_C(pi x) / pi, is an
    # exact algebraic value; relhunt certifies it within the default bounds
    q, Nv = 3, 120
    F3 = Fq.get(3, 1, 1)
    x = InfElem(F3, 1, {1: 1}, Nv + 30)  # x = 1/theta
    prod = None
    for eps in (1, 2):
        val, _ = geometric_gamma(x.scale(eps), Nv)
        prod = val if prod is None else prod * val
    pi = carlitz_period(q, Nv)
    tm = TModule([InfElem.theta(F3, Nv), InfElem.const(F3, 1, Nv)])
    torsion_value = tm.exp_eval(pi * x)
    ratio = prod * torsion_value / pi
    cert = find_algebraic_relation(ratio, D=4, H=40, margin=20)
    assert cert is not None
    # the certified value is -x^(2-q) = -theta for x = 1/theta at q = 3
    theta = InfElem.theta(F3, 60)
    assert (ratio + theta).is_zero()


def test_carlitz_tensor_motive_surface():
    fx = carlitz_tensor_motive(2, q=3, N=60)
    assert fx.motive.rank == 1
    assert fx.xi.degree() == 2
    psi = fx.psi(12, 60)
    assert psi.rows[0][0].T == 12


def test_unsupported_coefficient_ring_rejected():
    # y^4 = -t over F_3: the twists are not F_q-rational
    model = CMFieldModel("monogenic", 3, E=4, u_coeffs=[0, 2], name="bad-kummer")
    with pytest.raises(GaloisDataInsufficient):
        model.points(60)


def test_ramified_above_theta_rejected():
    from cmperiods.cmtypes import inflate, THETA_POINT

    # E divisible by p: t = -y^3 ramifies over theta in char 3
    model = CMFieldModel("monogenic", 3, E=3, u_coeffs=[0, 2], name="ram")
    with pytest.raises(RamifiedAboveTheta):
        inflate(CMDivisor({THETA_POINT: 1}), model)


@pytest.mark.parametrize("u_coeffs", [[0, 2], [1, 1]], ids=["-t", "1+t"])
def test_inseparable_points_rejected(u_coeffs):
    # y^3 = u(t) in char 3: newton_roots finds one root of multiplicity 3
    # through the y^p branch, and the points refuse it
    model = CMFieldModel("monogenic", 3, E=3, u_coeffs=u_coeffs, name="ram")
    with pytest.raises(RamifiedAboveTheta):
        model.points(60)


def test_const_ext_multi_component_build_rejected():
    from cmperiods.shtuka import solve_shtuka

    fx = get_fixture("const-ext:2", q=3, N=60)
    pts = fx.model.points(60)
    both = CMDivisor({p.label: 1 for p in pts})
    with pytest.raises(UnsupportedGenus):
        solve_shtuka(fx.model, both)
