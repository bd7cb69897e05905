import pytest

from cmperiods.cmtypes import (
    THETA_POINT,
    CMDivisor,
    CMFieldModel,
    CMPoint,
    all_cm_types,
    cm_weight,
    decompose_cm_type,
    galois_orbit,
    galois_rank,
    inflate,
    nondegenerate_xi0,
    rank_ik0,
    reduction_at_infinity,
    restrict,
    validate_cm_field,
)
from cmperiods.fixtures import get_fixture
from cmperiods.infinity import InfElem
from cmperiods.shtuka import sigma_ideal_check


def kummer(q):
    # y^(q-1) = -t: the degree-(q-1) Carlitz-cyclotomic model for f = t
    return CMFieldModel("monogenic", q, E=q - 1, u_coeffs=[0, q - 1 if q > 2 else 1], name=f"kummer-t:{q}")


K3 = kummer(3)
K5 = kummer(5)
RAT = CMFieldModel("rational", 3, name="rational")
CE2 = CMFieldModel("constant-ext", 3, ell=2, name="const-ext:2")


def test_validate_kummer_pass():
    rep = validate_cm_field(K3)
    assert rep["pass"]
    assert rep["places_above_infinity"] == 1
    # totally ramified: e = q-1 at the unique place
    assert rep["place_data"][0]["size"] == 2


def test_validate_const_ext_pass():
    rep = validate_cm_field(CE2)
    assert rep["pass"]
    assert rep["places_above_infinity"] == 1


def test_validate_non_cm_field_fails():
    # y^3 = t^2(t+1) over F_2: infinity splits into two places
    bad = CMFieldModel("monogenic", 2, E=3, u_coeffs=[0, 0, 1, 1], name="cube")
    rep = validate_cm_field(bad)
    assert not rep["pass"]
    assert rep["places_above_infinity"] == 2


def test_jk_points_rational():
    pts = RAT.points()
    assert len(pts) == 1 and pts[0].label == THETA_POINT
    assert pts[0].value.coeffs == {-1: 1}


def test_jk_points_kummer():
    pts = K3.points()
    assert len(pts) == 2
    v0, v1 = pts[0].value, pts[1].value
    # the two roots are g*theta^(1/2) with g^2 = -1, negatives of each other
    assert (v0 + v1).is_zero()
    g = v0.lead_coeff()
    assert v0.field.mul(g, g) == v0.field.neg(1)
    sq = v0 * v0
    minus_theta = InfElem.theta(v0.field, 60, v0.e).scale(v0.field.neg(1))
    assert (sq - minus_theta).is_zero()
    # epsilon decorations are the mu_2 scalars
    assert sorted(p.epsilon for p in pts) == [1, 2]
    # deterministic labels
    again = kummer(3).points()
    assert [p.label for p in again] == [p.label for p in pts]
    assert all((a.value - b.value).is_zero() for a, b in zip(again, pts))


def test_jk_points_const_ext():
    pts = CE2.points()
    assert len(pts) == 2
    assert sorted(p.component for p in pts) == [0, 1]
    K = pts[0].value.field
    a, b = pts[0].value.lead_coeff(), pts[1].value.lead_coeff()
    assert K.frob_q(a, 1) == b  # conjugate embeddings


def test_jk_points_const_ext_over_prime_power_q():
    # q = 4: the F_2-modulus of F_16 has four roots, of which the points
    # are the two Frob_4-conjugates of the generator
    pts = CMFieldModel("constant-ext", 4, ell=2, name="const-ext:2").points(60)
    assert sorted(p.component for p in pts) == [0, 1]
    K = pts[0].value.field
    by_comp = {p.component: p.value.lead_coeff() for p in pts}
    assert K.frob_q(by_comp[1], 1) == by_comp[0] != by_comp[1]


def test_cm_weight_examples():
    pts = K3.points()
    d = CMDivisor({pts[0].label: 1})
    info = cm_weight(d, pts)
    assert info["weight"] == 1 and info["cm_type"]
    # rational: n * xi_theta has weight n
    rpts = RAT.points()
    info2 = cm_weight(CMDivisor({THETA_POINT: 4}), rpts)
    assert info2["weight"] == 4 and info2["generalized_cm_type"] and not info2["cm_type"]


def test_cm_weight_not_in_ik0_with_two_fibers():
    # synthetic d = 2 point set: fiber sums differ
    z = InfElem.theta(K3.base, 20)
    pts = [
        CMPoint("a0", z, "f0"),
        CMPoint("a1", z, "f0"),
        CMPoint("b0", z, "f1"),
        CMPoint("b1", z, "f1"),
    ]
    info = cm_weight(CMDivisor({"a0": 1, "a1": 1}), pts)
    assert not info["in_ik0"] and info["weight"] is None
    ok = cm_weight(CMDivisor({"a0": 1, "b1": 1}), pts)
    assert ok["cm_type"]


def test_decompose_examples():
    pts = K3.points()
    l0, l1 = pts[0].label, pts[1].label
    assert decompose_cm_type(CMDivisor({l0: 2}), pts) == [
        CMDivisor({l0: 1}),
        CMDivisor({l0: 1}),
    ]
    # N_K over one fiber with c = 2: [xi0, xi1]
    assert decompose_cm_type(CMDivisor({l0: 1, l1: 1}), pts) == [
        CMDivisor({l0: 1}),
        CMDivisor({l1: 1}),
    ]
    assert decompose_cm_type(CMDivisor({l0: 1, l1: 2}), pts) == [
        CMDivisor({l0: 1}),
        CMDivisor({l1: 1}),
        CMDivisor({l1: 1}),
    ]


def test_inflate_restrict():
    pts = K3.points()
    l0, l1 = pts[0].label, pts[1].label
    up = inflate(CMDivisor({THETA_POINT: 1}), K3)
    assert up == CMDivisor({l0: 1, l1: 1})
    down = restrict(up, K3)
    assert down == CMDivisor({THETA_POINT: 2})
    assert restrict(CMDivisor({l0: 1}), K3) == CMDivisor({THETA_POINT: 1})
    # restrict . inflate = multiplication by [K:F_q(t)] on random divisors
    d = CMDivisor({THETA_POINT: 3})
    assert restrict(inflate(d, K3), K3) == d.scale(2)


def test_reduction_at_infinity():
    # rational: n*xi_theta -> n*infinity
    red = reduction_at_infinity(CMDivisor({THETA_POINT: 3}), RAT)
    assert list(red.values()) == [3]
    # kummer: both points share the totally ramified place
    pts = K3.points()
    red1 = reduction_at_infinity(CMDivisor({pts[0].label: 1}), K3)
    assert list(red1.values()) == [1]
    red2 = reduction_at_infinity(
        CMDivisor({pts[0].label: 1, pts[1].label: 1}), K3
    )
    assert sum(red2.values()) == 2  # degree of Xi - I_Xi is zero
    # const-ext: the two components reduce to conjugate residue data
    cpts = CE2.points()
    redc = reduction_at_infinity(CMDivisor({p.label: 1 for p in cpts}), CE2)
    assert len(redc) == 2 and all(v == 1 for v in redc.values())


def test_degree_zero_invariant():
    for model, div in [
        (RAT, CMDivisor({THETA_POINT: 5})),
        (K3, CMDivisor({K3.points()[0].label: 2, K3.points()[1].label: 1})),
        (CE2, CMDivisor({CE2.points()[0].label: 1})),
    ]:
        red = reduction_at_infinity(div, model)
        assert div.degree() == sum(red.values())


def test_galois_rank_examples():
    pts = K3.points()
    assert galois_rank(CMDivisor({pts[0].label: 1}), K3) == 2
    assert rank_ik0(K3)["rank"] == 2  # 1 + (1/2)*2
    assert galois_rank(CMDivisor({THETA_POINT: 1}), RAT) == 1
    assert rank_ik0(RAT)["rank"] == 1
    # Carlitz cyclotomic f = t at q = 5: rank = 1 + (q-2)/(q-1) * #(A/f)^x = 4
    assert rank_ik0(K5)["rank"] == 4
    assert rank_ik0(CE2)["rank"] == 2


def test_galois_orbit_stability():
    # adjoining further orbit elements never changes the rank
    pts = K5.points()
    div = CMDivisor({pts[0].label: 4})
    orbit = galois_orbit(div, K5)
    labels = [p.label for p in pts]
    rows = [d.vector(labels) for d in orbit]
    from cmperiods.cmtypes import _int_matrix_rank

    r1 = _int_matrix_rank(rows)
    assert r1 == galois_rank(div, K5)
    for extra in orbit:
        rows2 = rows + [extra.vector(labels)]
        assert _int_matrix_rank(rows2) == r1


def test_nondegenerate_xi0():
    pts = K3.points()
    out = nondegenerate_xi0(K3, pts[0].label)
    assert out["divisor"] == CMDivisor({pts[0].label: 2})
    assert out["orbit_rank"] == 2 and out["non_degenerate"]
    rout = nondegenerate_xi0(RAT, THETA_POINT)
    assert rout["divisor"] == CMDivisor({THETA_POINT: 1})
    assert rout["non_degenerate"]
    p5 = K5.points()
    out5 = nondegenerate_xi0(K5, p5[0].label)
    assert out5["divisor"] == CMDivisor({p5[0].label: 4})
    assert out5["orbit_rank"] == 4 and out5["non_degenerate"]


def test_fiber_partition():
    for model in (K3, K5, CE2):
        fibers = model.fibers()
        total = sum(len(v) for v in fibers.values())
        assert total == model.degree
        for labels in fibers.values():
            assert len(labels) == model.cm_degree


def test_all_cm_types_count():
    assert len(all_cm_types(K3)) == 2
    assert len(all_cm_types(K5)) == 4


def test_model_json_round_trip():
    for model in (K3, CE2, RAT):
        again = CMFieldModel.from_json(model.to_json())
        assert again.to_json() == model.to_json()
        assert [p.label for p in again.points()] == [p.label for p in model.points()]


FIXTURE_MODELS = [
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


@pytest.mark.parametrize("name,q", FIXTURE_MODELS)
def test_point_labels_do_not_depend_on_precision(name, q):
    # the exact layer reads only labels, fibers, components and epsilons,
    # which is why it takes no precision: they agree at every precision
    model = get_fixture(name, q=q, N=40).model
    seen = {
        prec: [(p.label, p.fiber, p.component, p.epsilon) for p in model.points(prec)]
        for prec in (40, 60, 120, 200)
    }
    assert {40, 60, 120, 200} <= set(model._points)
    assert all(labels == seen[40] for labels in seen.values()), seen
    assert model.fibers() == {"xi_theta+": sorted(label for label, *_ in seen[40])}


def test_exact_layer_searches_the_points_once(monkeypatch):
    # after the fixture is built at prec 200, the exact layer reuses its
    # points: no second root search at some other precision
    computed = []
    original = CMFieldModel.points

    def recording(self, *args, **kwargs):
        known = set(self._points)
        out = original(self, *args, **kwargs)
        computed.extend(sorted(set(self._points) - known))
        return out

    monkeypatch.setattr(CMFieldModel, "points", recording)
    fx = get_fixture("kummer-t:5", q=5, N=200)
    assert computed == [200]
    assert sigma_ideal_check(fx.motive)["pass"]
    assert computed == [200]
    assert nondegenerate_xi0(fx.model, "xi0")["non_degenerate"]
    assert computed == [200]
    # a model with no points yet still gets them, at 120
    fresh = kummer(3)
    assert [p.label for p in fresh.points()] == ["xi0", "xi1"]
    assert computed == [200, 120]
