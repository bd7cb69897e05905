"""The benchmark's workloads: inputs made from a seed, job lists, output checks.

A workload is a list of jobs.  A job is a call into the program plus a check
of what it returned; the closed-loop client in worker.py runs them one after
another.  A job that raises, or whose check fails, counts as failed.

Calls into the program go through the module objects (``relhunt.x`` rather
than ``from relhunt import x``) so that the traced run sees the wrapped
functions that tracing.py installs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from cmperiods import arith, fixtures, infinity, relhunt, shtuka, special, tmodule
from params import PARAMS


class Job:
    """One call into the program.  ``run`` returns the output; ``check``
    returns True when the output is correct and may record ledger values.
    The time ``run`` takes is the job's latency."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def make_inputs(workload, seed, size="full"):
    """Everything the job list needs, built before the first job runs."""
    params = PARAMS[workload][size]
    if workload == "relhunt-planted":
        return {"params": params, "queries": _planted_queries(params, seed)}
    return {"params": params}


def job_list(workload, inputs, ledger):
    """Fresh jobs for one pass over the workload.  ``ledger`` collects the
    precision figures the checks read off the outputs."""
    build = {
        "kummer-legendre": _kummer_jobs,
        "carlitz-certify": _carlitz_jobs,
        "relhunt-planted": _relhunt_jobs,
    }[workload]
    return build(inputs, ledger)


def _note_min(ledger, key, value):
    value = float(value)
    ledger[key] = value if key not in ledger else min(ledger[key], value)


def _relation_threshold(values, H, M):
    """The residual a relation among ``values`` must reach at bounds H, M:
    the top of the coefficient window, less the margin (valuation units)."""
    e = values[0].e
    return Fraction(min(v.prec for v in values), e) - H - M


def _certificate_holds(cert, ratio, D, H, M):
    """Re-check a certificate by substitution against its own value."""
    if cert is None:
        return False
    powers = [ratio**d for d in range(D + 1)]
    return relhunt.verify_certificate(cert, ratio) >= _relation_threshold(powers, H, M)


def _fiber_ratio(symbols, pi, weight):
    prod = None
    for s in symbols:
        prod = s if prod is None else prod * s
    return prod * (pi**weight).inverse()


def _certs_hold(fibers, certs, pi, weight, D, H, M):
    if sorted(certs) != sorted(fibers):
        return False
    for fiber, symbols in fibers.items():
        c = certs[fiber]
        if not c["pass"]:
            return False
        if not _certificate_holds(c["certificate"], _fiber_ratio(symbols, pi, weight), D, H, M):
            return False
    return True


# ---------------------------------------------------------------------------
# kummer-legendre: the acceptance pipeline (criteria 8-9) as one job


def _kummer_jobs(inputs, ledger):
    p = inputs["params"]
    prec, T, D, H, M = p["prec"], p["T"], p["D"], p["H"], p["M"]

    def run():
        fx = fixtures.get_fixture(f"kummer-t:{p['q']}", N=prec)
        lat = fx.tmodule.period_lattice()
        U = fx.basis_change_tate(T, prec)
        bundle = tmodule.build_psi(fx.tmodule, lat, fx.motive, T=T, prec=prec, basis_change=U)
        syms = shtuka.period_symbols(fx.motive, bundle.psi, prec=prec, psi_inv_theta=bundle.psi_inv_theta)
        pi = special.carlitz_period(p["q"], prec)
        pts = {pt.label: pt for pt in fx.model.points(prec)}
        fibers = {}
        for label, v in syms["values"].items():
            fibers.setdefault(pts[label].fiber, []).append(v)
        certs = relhunt.certify_legendre(fibers, pi, 1, D=D, H=H, margin=M)
        return bundle.report, fibers, pi, certs

    def check(out):
        report, fibers, pi, certs = out
        _note_min(ledger, "psi_residual", report["min_residual"])
        for symbols in fibers.values():
            for s in symbols:
                _note_min(ledger, "symbol_prec", s.prec_val)
        return report["min_residual"] >= prec - 20 and _certs_hold(fibers, certs, pi, 1, D, H, M)

    return [Job("kummer-t:3 pipeline", run, check)]


# ---------------------------------------------------------------------------
# carlitz-certify: rank-1 jobs for each q, rebuilding pi and Omega each time


def _carlitz_module(fld, prec):
    theta = infinity.InfElem.theta(fld, prec)
    return tmodule.TModule([theta, infinity.InfElem.const(fld, 1, prec)])


def _field_of_q(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    a = 0
    while p**a < q:
        a += 1
    return arith.Fq.get(p, a, 1)


def _carlitz_jobs(inputs, ledger):
    p = inputs["params"]
    N, T, D, H, M = p["prec"], p["T"], p["D"], p["H"], p["M"]
    jobs = []
    for q in p["qs"]:
        state = {}

        def run_pi(q=q, state=state):
            state["pi"], report = special.carlitz_period(q, N, with_report=True)
            state["module"] = _carlitz_module(_field_of_q(q), N)
            return report

        def check_pi(report):
            # the dual product formula agrees (criterion 2)
            return report["residual"] >= N - 10

        def run_exp(state=state):
            return state["module"].exp_eval(state["pi"])

        def check_exp(img):
            return img.residual_val() >= N - 15

        def run_qp(state=state):
            return tmodule.de_rham_pairing(state["module"], 1, state["pi"])

        def check_qp(qp, state=state):
            return (qp + state["pi"]).residual_val() >= N - 15

        jobs += [
            Job(f"q={q} carlitz_period", run_pi, check_pi),
            Job(f"q={q} exp_eval(pi)", run_exp, check_exp),
            Job(f"q={q} de_rham_pairing", run_qp, check_qp),
        ]
        for n in p["tensors"]:

            def run_tensor(q=q, n=n, state=state):
                name = "carlitz" if n == 1 else f"carlitz-tensor:{n}"
                fx = fixtures.get_fixture(name, q=q, N=N)
                syms = shtuka.period_symbols(fx.motive, fx.psi(T=T, N=N), prec=N)
                fibers = {"xi_theta+": list(syms["values"].values())}
                return fibers, relhunt.certify_legendre(fibers, state["pi"], n, D=D, H=H, margin=M)

            def check_tensor(out, n=n, state=state):
                fibers, certs = out
                for s in fibers["xi_theta+"]:
                    _note_min(ledger, "symbol_prec", s.prec_val)
                return _certs_hold(fibers, certs, state["pi"], n, D, H, M)

            jobs.append(Job(f"q={q} tensor:{n} certify_legendre", run_tensor, check_tensor))

        def run_control(state=state):
            return relhunt.find_algebraic_relation(state["pi"], D, H, M)

        jobs.append(Job(f"q={q} negative control", run_control, lambda cert: cert is None))
    return jobs


# ---------------------------------------------------------------------------
# relhunt-planted: seeded find_linear_relations queries


def _random_value(rng, fld, prec):
    """A dense series over fld with exponents -3 .. prec-1."""
    digits = rng.choices(range(fld.size), k=prec + 3)
    return infinity.InfElem(fld, 1, {k - 3: c for k, c in enumerate(digits) if c}, prec)


def _query_shapes(p):
    """The fixed mix of (field, k, H, planted) every seed runs.

    Each block of 12 queries holds every (field, planted or control) pair
    once, k moves up one per block, and H steps through its range by a
    stride coprime to the range's length.  So every seed does the same
    amount of work; only the values, coefficients and order change."""
    fields = [arith.Fq.get(pp, a, 1) for pp, a in p["fields"]]
    k_lo, k_hi = p["k"]
    h_lo, h_hi = p["H"]
    n_h = h_hi - h_lo + 1
    shapes = []
    for i in range(p["queries"]):
        shapes.append((
            fields[i % len(fields)],
            k_lo + (i // 12) % (k_hi - k_lo + 1),
            h_lo + (i * 7) % n_h,
            i % 4 != 3,
        ))
    return shapes


def _planted_queries(p, seed):
    """3 in 4 queries carry a relation sum c_i(theta) v_i - v_k = 0 with
    deg c_i <= H (c_1 of degree exactly H, so the relation space within the
    bounds is the F_q-line through it); the rest are unrelated controls.
    The seed draws the values, the coefficients and the order."""
    rng = random.Random(seed)
    shapes = _query_shapes(p)
    rng.shuffle(shapes)
    prec = p["prec"]
    out = []
    for fld, k, H, planted in shapes:
        values = [_random_value(rng, fld, prec) for _ in range(k - 1 if planted else k)]
        relation = None
        if planted:
            polys = [rng.choices(range(fld.size), k=H + 1) for _ in range(k - 1)]
            polys[0][H] = rng.randrange(1, fld.size)
            acc = None
            for cs, v in zip(polys, values):
                term = infinity.InfElem.from_poly(fld, cs, prec + H + 4) * v
                acc = term if acc is None else acc + term
            values.append(acc)
            relation = polys + [[fld.neg(1)] + [0] * H]
        out.append({"field": fld, "H": H, "values": values, "relation": relation})
    return out


def _is_multiple(coeffs, relation, fld):
    """Whether coeffs = c * relation for a nonzero constant c."""
    i, h = next((i, h) for i, cs in enumerate(relation) for h, c in enumerate(cs) if c)
    c = fld.div(coeffs[i][h], relation[i][h])
    if not c:
        return False
    return all(
        a == fld.mul(c, b) for cs, rs in zip(coeffs, relation) for a, b in zip(cs, rs)
    )


def _substitution_residual(coeffs, values):
    acc = None
    for cs, v in zip(coeffs, values):
        for h, c in enumerate(cs):
            if c:
                term = v.mono_mul(c, -h * v.e)
                acc = term if acc is None else acc + term
    return acc.residual_val() if acc is not None else Fraction(0)


def _relhunt_jobs(inputs, ledger):
    M = inputs["params"]["M"]
    jobs = []
    for i, qy in enumerate(inputs["queries"]):

        def run(qy=qy):
            return relhunt.find_linear_relations(qy["values"], H=qy["H"], margin=M)

        def check(rels, qy=qy):
            if qy["relation"] is None:
                return rels == []
            threshold = _relation_threshold(qy["values"], qy["H"], M)
            sound = all(
                _substitution_residual(r["coeffs"], qy["values"]) >= threshold for r in rels
            )
            found = any(_is_multiple(r["coeffs"], qy["relation"], qy["field"]) for r in rels)
            return sound and found

        jobs.append(Job(f"query {i}", run, check))
    return jobs
