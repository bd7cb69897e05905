"""A seeded relhunt battery against a recorded one, byte for byte.

The battery makes find_linear_relations queries over F_2, F_3 and F_9
(2 to 5 values, height 1 to 40, planted relations and unrelated
controls, ramified and mixed-field values), and certifies pi-tilde
ratios with find_algebraic_relation, verify_certificate and
certify_legendre.  Every relation, residual, certificate and query shape
must equal `golden/relhunt_battery.json`.  A change that alters them on
purpose regenerates the file with

    PYTHONPATH=src python tests/test_relhunt_golden.py

and says so in CHANGES.md.
"""

import json
import random
import sys
from pathlib import Path

from cmperiods.arith import Fq
from cmperiods.errors import CMPeriodsError
from cmperiods.infinity import InfElem, inf_nth_root
from cmperiods.relhunt import (
    certify_legendre,
    find_algebraic_relation,
    find_linear_relations,
    relation_query_report,
    verify_certificate,
)
from cmperiods.special import carlitz_period

GOLDEN = Path(__file__).parent / "golden" / "relhunt_battery.json"
MARGIN = 20


def _random_value(rng, fld, prec, e=1):
    """A dense series over fld with exponents -3e .. prec*e - 1."""
    digits = rng.choices(range(fld.size), k=(prec + 3) * e)
    return InfElem(fld, e, {k - 3 * e: c for k, c in enumerate(digits) if c}, prec * e)


def _planted(rng, fld, k, H, deg, prec, e=1):
    """k - 1 random values and sum c_i(theta) v_i, with deg c_1 = deg."""
    values = [_random_value(rng, fld, prec, e) for _ in range(k - 1)]
    acc = None
    for i, v in enumerate(values):
        cs = rng.choices(range(fld.size), k=deg + 1)
        if i == 0:
            cs[deg] = rng.randrange(1, fld.size)
        poly = InfElem(fld, e, {-h * e: c for h, c in enumerate(cs) if c}, (prec + H + 4) * e)
        term = poly * v
        acc = term if acc is None else acc + term
    return values + [acc]


def _queries(seed=2024):
    """(label, values, H): planted and controls over F_2, F_3, F_9."""
    rng = random.Random(seed)
    fields = [Fq.get(2, 1, 1), Fq.get(3, 1, 1), Fq.get(3, 2, 1)]
    out = []
    for i in range(36):
        fld = fields[i % 3]
        k = 2 + (i // 3) % 4
        H = 1 + (i * 11) % 40
        prec = k * (H + 1) + 30
        if i % 4 == 3:
            values = [_random_value(rng, fld, prec) for _ in range(k)]
            out.append((f"control {fld} k={k} H={H}", values, H))
        else:
            # every other planted relation sits two below the height, so
            # the kernel holds its theta-multiples too
            deg = H if i % 2 else max(H - 2, 0)
            out.append((f"planted {fld} k={k} H={H} deg={deg}", _planted(rng, fld, k, H, deg, prec), H))
    # ramified values: theta^h steps by e = 2 exponents
    for fld in fields[1:]:
        out.append((f"planted e=2 {fld}", _planted(rng, fld, 3, 6, 4, 60, e=2), 6))
    # mixed fields: q = 3 with constants in F_3 and in F_9
    f3, f3m2 = fields[1], Fq.get(3, 1, 2)
    v = _random_value(rng, f3, 80)
    w = _random_value(rng, f3m2, 80)
    out.append(("mixed constants F_3 and F_9", [v, w, v.mono_mul(2, -2) + w], 5))
    # the window does not hold the search space
    out.append(("insufficient", [_random_value(rng, f3, 30)] * 2, 40))
    return out


def _relations(rels):
    return [{"coeffs": r["coeffs"], "residual": str(r["residual"])} for r in rels]


def _certificate(cert):
    if cert is None:
        return None
    return {**cert, "residual": str(cert["residual"]), "precision": str(cert["precision"])}


def battery():
    out = {"linear": {}, "algebraic": {}}
    for label, values, H in _queries():
        entry = {"report": relation_query_report(values, 1, H, MARGIN)}
        try:
            entry["relations"] = _relations(find_linear_relations(values, H, MARGIN))
        except CMPeriodsError as exc:
            entry["error"] = type(exc).__name__
        out["linear"][label] = entry
    for q in (2, 3, 4):
        pi = carlitz_period(q, 160)
        fld, e = pi.field, pi.e
        theta = InfElem.theta(fld, 160, e)
        one = InfElem.const(fld, 1, 160, e)
        root = inf_nth_root(-theta, 2) if q % 2 else theta
        ratios = {
            "(theta+1) pi / pi": (pi * (theta + one)) / pi,
            "pi^2 sqrt(-theta) / pi^2": (pi * pi * root) / (pi * pi),
            "pi^(q-1)": pi ** (q - 1),
            "pi": pi,
        }
        for name, ratio in ratios.items():
            cert = find_algebraic_relation(ratio, 3, 12, MARGIN)
            entry = {"certificate": _certificate(cert)}
            if cert is not None:
                entry["self_residual"] = str(verify_certificate(cert, ratio))
                entry["pi_residual"] = str(verify_certificate(cert, pi))
            out["algebraic"][f"q={q} {name}"] = entry
        fibers = {"paired": [pi * (theta + one), pi * root], "lone": [pi * root]}
        certs = certify_legendre(fibers, pi, 2, D=2, H=8, margin=MARGIN)
        out["algebraic"][f"q={q} legendre"] = {
            fiber: {**c, "certificate": _certificate(c["certificate"]), "ratio_valuation": str(c["ratio_valuation"])}
            for fiber, c in certs.items()
        }
    return out


def test_battery_matches_golden():
    got = json.dumps(battery(), indent=1, sort_keys=True)
    want = json.dumps(json.loads(GOLDEN.read_text()), indent=1, sort_keys=True)
    assert got == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(battery(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
