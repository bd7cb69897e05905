import random
from fractions import Fraction

import pytest

from cmperiods.arith import Fq
from cmperiods.errors import CMPeriodsError, InsufficientPrecision
from cmperiods.infinity import InfElem, inf_nth_root
from cmperiods.relhunt import (
    find_algebraic_relation,
    find_linear_relations,
    relation_query_report,
    verify_certificate,
)
from cmperiods.special import carlitz_period

F3 = Fq.get(3, 1, 1)


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
    # byte lanes carry past p = 13: the search refuses larger primes
    # instead of missing the relation
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
