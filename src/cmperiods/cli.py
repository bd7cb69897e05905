"""Command-line pipeline: model -> motive -> t-module -> periods -> certificates.

Every report echoes the full configuration (q, precision, truncation,
bounds, moduli, canonical-root conventions, basis orders) so that the
payload is reproducible byte for byte; wall-clock timing lives outside
the payload.  Flags are long-form only and there is no environment
variable configuration.

Exit codes: 2 usage, 3 precision failure, 4 certification failure under
--require-pass, 5 model load or validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .arith import FPoly, Fq, q_split
from .cmtypes import (
    CMDivisor,
    CMFieldModel,
    cm_weight,
    galois_rank,
    nondegenerate_xi0,
    rank_ik0,
    validate_cm_field,
)
from .errors import (
    CMPeriodsError,
    InsufficientPrecision,
    PoleArgument,
    PrecisionExhausted,
)
from .fixtures import FIXTURE_NAMES, get_fixture
from .infinity import InfElem
from .relhunt import certify_legendre, find_algebraic_relation, find_linear_relations
from .shtuka import hodge_pink_weights, period_symbols, sigma_ideal_check
from .special import carlitz_period, geometric_gamma, omega_series
from .tate import TateMatrix, TateSeries, check_difference_eq, det
from .tmodule import agf, build_psi, quasi_period_matrix

DEFAULT_PREC = 200
DEFAULT_TRUNC = 64
DEFAULT_DEG = 4
DEFAULT_HEIGHT = 40
DEFAULT_MARGIN = 20


def _jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, InfElem):
        return x.to_json()
    if isinstance(x, CMDivisor):
        return x.to_json()
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, bool) or x is None or isinstance(x, (int, str, float)):
        return x
    return repr(x)


def make_report(command, config, payload, certificates=None):
    return {
        "command": command,
        "configuration": _jsonable(config),
        "payload": _jsonable(payload),
        "certificates": _jsonable(certificates or []),
    }


def emit(report, args, t0):
    report["timing_ms"] = int((time.time() - t0) * 1000)
    if args.json or args.out:
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = _humanize(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _humanize(report):
    lines = [f"== {report['command']} =="]
    for k, v in sorted(report["configuration"].items()):
        lines.append(f"  {k}: {v}")
    lines.append("-- results --")
    lines.append(json.dumps(report["payload"], indent=2, sort_keys=True))
    if report["certificates"]:
        lines.append("-- certificates --")
        lines.append(json.dumps(report["certificates"], indent=2, sort_keys=True))
    lines.append(f"(timing: {report['timing_ms']} ms)")
    return "\n".join(lines)


class UsageError(Exception):
    """Input that the parser cannot judge alone: exit 2."""


class ModelLoadFailure(Exception):
    """A --model file that is not a model: exit 5."""


def prime_power(text):
    """Type of --q: the int q, refused (exit 2) unless a prime power."""
    q = int(text)
    q_split(q)
    return q


def positive(text):
    """Type of --prec, --trunc and --deg: an int of at least 1, refused
    (exit 2) otherwise."""
    n = int(text)
    if n < 1:
        raise ValueError(n)
    return n


def non_negative(text):
    """Type of --height, --margin and --tag: an int of at least 0,
    refused (exit 2) otherwise."""
    n = int(text)
    if n < 0:
        raise ValueError(n)
    return n


def _field_conventions(q):
    p, a = q_split(q)
    fld = Fq.get(p, a, 1)
    return {
        "q": q,
        "p": p,
        "prime_field_modulus": list(fld.modulus),
        "canonical_root": "least discrete-log leading coefficient w.r.t. the recorded generator",
        "fundamental_period": "1/Omega(theta) with the canonical (q-1)-st root of -theta (fixed up to F_q^x by convention; flagged)",
    }


def _load_model(args):
    if args.model:
        with open(args.model) as fh:
            try:
                return CMFieldModel.from_json(json.load(fh))
            except (KeyError, TypeError, ValueError) as ex:
                raise ModelLoadFailure(f"{args.model}: {ex!r}") from None
    return get_fixture(args.example, q=args.q, N=args.prec).model


def _parse_poly(field, text):
    """Tiny parser for polynomials in theta: 'theta^2+2*theta+1' etc."""
    text = text.replace("-", "+-").replace(" ", "")
    coeffs = {}
    for term in text.split("+"):
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        try:
            if "theta" in term:
                head, _, tail = term.partition("theta")
                c = int(head.rstrip("*")) if head.rstrip("*") else 1
                if tail and not tail.startswith("^"):
                    raise ValueError(f"{tail!r} after theta")
                d = int(tail[1:]) if tail else 1
            else:
                c, d = int(term), 0
        except ValueError:
            raise UsageError(f"--x: cannot read the term {term!r}") from None
        c %= field.p ** field.a
        if neg:
            c = field.neg(c)
        coeffs[d] = field.add(coeffs.get(d, 0), c)
    top = max(coeffs) if coeffs else 0
    return FPoly(field, [coeffs.get(i, 0) for i in range(top + 1)])


def _parse_gamma_arg(q, text):
    fld = Fq.get(*q_split(q), 1)
    if "/" in text:
        num, den = text.split("/", 1)
        den = den.strip("()")
        num = num.strip("()")
    else:
        num, den = text, "1"
    den = _parse_poly(fld, den)
    if den.is_zero():
        raise UsageError(f"--x: {text!r} has a zero denominator")
    return _parse_poly(fld, num), den


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_pitilde(args, t0):
    pi, rep = carlitz_period(args.q, args.prec, with_report=True)
    payload = {
        "pi": pi,
        "valuation": pi.val(),
        "dual_formula_residual": rep["residual"],
        "note": "representative fixed by the canonical-root convention; compare values via relhunt, never by equality",
    }
    config = _field_conventions(args.q)
    config["prec"] = args.prec
    emit(make_report("pitilde", config, payload), args, t0)
    return 0


def cmd_omega(args, t0):
    om = omega_series(args.q, args.trunc, args.prec)
    one = InfElem.const(om.field, 1, args.prec * args.q, om.e)
    theta = InfElem.theta(om.field, args.prec * args.q, om.e)
    phi = TateMatrix([[TateSeries.poly([-theta, one], om.T)]])
    rep = check_difference_eq(phi, TateMatrix([[om]]), threshold=args.prec - 10)
    payload = {
        "coefficients": [c for c in om.coeffs[: min(om.T, 8)]],
        "truncation": om.T,
        "decay": om.decay.to_json(),
        "functional_equation_residual": rep["min_residual"],
        "pass": rep["pass"],
    }
    config = _field_conventions(args.q)
    config.update({"prec": args.prec, "trunc": args.trunc})
    emit(make_report("omega", config, payload), args, t0)
    return 0 if rep["pass"] else 3


def cmd_gamma(args, t0):
    num, den = _parse_gamma_arg(args.q, args.x)
    value, rep = geometric_gamma((num, den), args.prec)
    payload = {"value": value, "argument": args.x, "report": rep}
    config = _field_conventions(args.q)
    config["prec"] = args.prec
    emit(make_report("gamma", config, payload), args, t0)
    return 0


def cmd_cm(args, t0):
    model = _load_model(args)
    config = _field_conventions(model.q)
    config["model"] = model.to_json()
    config["prec"] = args.prec
    if args.action == "validate":
        rep = validate_cm_field(model, prec=min(args.prec, 120))
        emit(make_report("cm validate", config, rep), args, t0)
        return 0 if rep["pass"] else 5
    if args.action == "points":
        pts = model.points(args.prec)
        payload = {
            "count": len(pts),
            "points": [
                {
                    "label": p.label,
                    "fiber": p.fiber,
                    "component": p.component,
                    "epsilon": p.epsilon,
                    "value": p.value,
                }
                for p in pts
            ],
        }
        emit(make_report("cm points", config, payload), args, t0)
        return 0
    if args.action == "rank":
        rep = rank_ik0(model)
        payload = {"rank_ik0": rep, "degree": model.degree, "cm_degree": model.cm_degree}
        if args.xi:
            div = _parse_divisor(args.xi, model)
            payload["xi"] = div
            payload["rank_orbit"] = galois_rank(div, model)
        emit(make_report("cm rank", config, payload), args, t0)
        return 0
    if args.action == "xi0":
        label = args.xi0 or model.points(args.prec)[0].label
        _known_points([label], model, "--xi0")
        rep = nondegenerate_xi0(model, label)
        emit(make_report("cm xi0", config, rep), args, t0)
        return 0 if rep["non_degenerate"] else 4
    raise SystemExit(2)


def _known_points(labels, model, flag):
    known = [pt.label for pt in model.points()]
    for label in labels:
        if label not in known:
            raise UsageError(f"{flag}: no point {label!r}; the points are {', '.join(known)}")


def _parse_divisor(text, model):
    out = {}
    for part in text.split(","):
        if ":" in part:
            k, _, v = part.partition(":")
            try:
                out[k.strip()] = int(v)
            except ValueError:
                raise UsageError(f"--xi: {part!r} is not label:multiplicity") from None
        else:
            out[part.strip()] = out.get(part.strip(), 0) + 1
    _known_points(out, model, "--xi")
    return CMDivisor(out)


def cmd_shtuka(args, t0):
    fx = get_fixture(args.example, q=args.q, N=args.prec)
    motive = fx.motive
    config = _field_conventions(fx.model.q)
    config.update({"prec": args.prec, "model": fx.model.to_json(), "basis": motive.basis})
    if args.action == "build":
        payload = {
            "motive": motive.to_json(),
            "shtuka": fx.motive.pair.to_json(),
            "tmodule": fx.tmodule_json(),
        }
        emit(make_report("shtuka build", config, payload), args, t0)
        return 0
    if args.action == "check":
        inv = motive.check_invariants()
        sic = sigma_ideal_check(motive)
        weights = hodge_pink_weights(motive)
        payload = {
            "det_invariant": {"ok": inv["ok"], "exponent": inv.get("exponent")},
            "sigma_ideal": sic,
            "hodge_pink_weights": weights,
            "sigma_exponents": motive.sigma_exponents,
        }
        ok = inv["ok"] and sic["pass"]
        emit(make_report("shtuka check", config, payload), args, t0)
        return 0 if ok else 4
    raise SystemExit(2)


def _lattice(args):
    fx = get_fixture(args.example, q=args.q, N=args.prec)
    if fx.tmodule is None:
        raise PrecisionExhausted(f"fixture {args.example} carries no t-module")
    return fx, fx.tmodule.period_lattice()


def _symbols(args):
    """(fixture, lattice, bundle, period symbols): Psi is built on the
    period lattice when the fixture carries a t-module, else it is the
    closed-form Omega^n, and lattice and bundle are None."""
    fx = get_fixture(args.example, q=args.q, N=args.prec)
    if fx.tmodule is None:
        if fx.psi_power is None:
            raise PrecisionExhausted(f"fixture {args.example} has no analytic pairing")
        return fx, None, None, period_symbols(fx.motive, fx.psi(args.trunc, args.prec), prec=args.prec)
    lat = fx.tmodule.period_lattice()
    U = fx.basis_change_tate(args.trunc, args.prec)
    bundle = build_psi(fx.tmodule, lat, fx.motive, T=args.trunc, prec=args.prec, basis_change=U)
    syms = period_symbols(fx.motive, bundle.psi, prec=args.prec, psi_inv_theta=bundle.psi_inv_theta)
    return fx, lat, bundle, syms


def cmd_periods(args, t0):
    fx, lat, bundle, syms = _symbols(args)
    config = _field_conventions(fx.model.q)
    config.update({"prec": args.prec, "trunc": args.trunc, "model": fx.model.to_json()})
    payload = {}
    if lat is not None:
        payload["lattice"] = [v for v in lat.vectors]
        payload["lattice_valuations"] = [v.val() for v in lat.vectors]
        payload["exp_residuals"] = [fx.tmodule.exp_eval(v).residual_val() for v in lat.vectors]
        payload["difference_equation_residual"] = bundle.report["min_residual"]
    payload["period_symbols"] = syms["values"]
    payload["conventions"] = syms["conventions"]
    emit(make_report("periods", config, payload), args, t0)
    return 0


def cmd_agf(args, t0):
    fx, lat = _lattice(args)
    config = _field_conventions(fx.model.q)
    config.update({"prec": args.prec, "trunc": args.trunc, "tag": args.tag, "vector": args.vector})
    if not 0 <= args.vector < len(lat.vectors):
        raise UsageError(f"--vector: the lattice has vectors 0 to {len(lat.vectors) - 1}")
    lam = lat.vectors[args.vector]
    series = agf(fx.tmodule, lam, args.tag, args.trunc)
    payload = {
        "coefficients": series.coeffs[: min(args.trunc, 8)],
        "decay": series.decay.to_json(),
        "lattice_vector_valuation": lam.val(),
    }
    emit(make_report("agf", config, payload), args, t0)
    return 0


def cmd_qp(args, t0):
    fx, lat = _lattice(args)
    config = _field_conventions(fx.model.q)
    config["prec"] = args.prec
    mat = quasi_period_matrix(fx.tmodule, lat)
    payload = {
        "matrix_valuations": [[x.residual_val() for x in row] for row in mat],
        "determinant_valuation": det(mat).val(),
        "matrix": [[x for x in row] for row in mat],
    }
    emit(make_report("qp", config, payload), args, t0)
    return 0


def cmd_legendre(args, t0):
    fx, _, _, syms = _symbols(args)
    config = _field_conventions(fx.model.q)
    config.update(
        {"prec": args.prec, "trunc": args.trunc, "deg": args.deg, "height": args.height, "margin": args.margin}
    )
    pts = {p.label: p for p in fx.model.points(args.prec)}
    fibers = {}
    for label, value in syms["values"].items():
        fibers.setdefault(pts[label].fiber, []).append(value)
    pi = carlitz_period(fx.model.q, args.prec)
    info = cm_weight(fx.xi, list(pts.values()))
    certs = certify_legendre(fibers, pi, info["weight"], D=args.deg, H=args.height, margin=args.margin)
    all_pass = all(c["pass"] for c in certs.values())
    payload = {
        "weight": info["weight"],
        "fibers": {f: {"pass": c["pass"], "ratio_valuation": c["ratio_valuation"]} for f, c in certs.items()},
        "within_bounds": True,
    }
    cert_list = [
        {"fiber": f, **(c["certificate"] or {"found": False})} for f, c in certs.items()
    ]
    emit(make_report("legendre", config, payload, certificates=cert_list), args, t0)
    if args.require_pass and not all_pass:
        return 4
    return 0


def cmd_relhunt(args, t0):
    try:
        with open(args.values) as fh:
            data = json.load(fh)
        values = [InfElem.from_json(obj) for obj in data]
    except ValueError as ex:
        print(f"invalid values file: {ex}", file=sys.stderr)
        return 2
    config = {"deg": args.deg, "height": args.height, "margin": args.margin, "values": len(values)}
    certs = []
    if len(values) == 1:
        cert = find_algebraic_relation(values[0], args.deg, args.height, args.margin)
        certs = [cert] if cert else []
        payload = {"found": cert is not None, "within_bounds": True}
    else:
        rels = find_linear_relations(values, args.height, args.margin)
        certs = [
            {"coeffs": r["coeffs"], "residual": r["residual"], "bounds": {"H": args.height, "M": args.margin}}
            for r in rels
        ]
        payload = {"found": bool(rels), "count": len(rels), "within_bounds": True}
    emit(make_report("relhunt", config, payload, certificates=certs), args, t0)
    if args.require_pass and not payload["found"]:
        return 4
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cmperiods",
        description="Explicit function-field CM objects at controlled precision",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trunc=False, example=False):
        p.add_argument("--q", type=prime_power, default=3)
        p.add_argument("--prec", type=positive, default=DEFAULT_PREC)
        if trunc:
            p.add_argument("--trunc", type=positive, default=DEFAULT_TRUNC)
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", default=None)
        if example:
            p.add_argument("--example", choices=FIXTURE_NAMES, required=True)

    p = sub.add_parser("pitilde", help="Carlitz period with dual-formula cross-check")
    common(p)
    p.set_defaults(fn=cmd_pitilde)

    p = sub.add_parser("omega", help="period generating series and its functional equation")
    common(p, trunc=True)
    p.set_defaults(fn=cmd_omega)

    p = sub.add_parser("gamma", help="geometric gamma value")
    common(p)
    p.add_argument("--x", required=True)
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("cm", help="CM-field model operations")
    p.add_argument("action", choices=["validate", "points", "rank", "xi0"])
    common(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--example", choices=FIXTURE_NAMES)
    source.add_argument("--model")
    p.add_argument("--xi", default=None)
    p.add_argument("--xi0", default=None)
    p.set_defaults(fn=cmd_cm)

    p = sub.add_parser("shtuka", help="build or check a motive fixture")
    p.add_argument("action", choices=["build", "check"])
    common(p, example=True)
    p.set_defaults(fn=cmd_shtuka)

    p = sub.add_parser("periods", help="period lattice and period symbols")
    common(p, trunc=True, example=True)
    p.set_defaults(fn=cmd_periods)

    p = sub.add_parser("agf", help="Anderson generating function coefficients")
    common(p, trunc=True, example=True)
    p.add_argument("--tag", type=non_negative, default=1)
    p.add_argument("--vector", type=int, default=0)
    p.set_defaults(fn=cmd_agf)

    p = sub.add_parser("qp", help="quasi-period matrix")
    common(p, example=True)
    p.set_defaults(fn=cmd_qp)

    p = sub.add_parser("legendre", help="certify the per-fiber period-symbol product")
    common(p, trunc=True, example=True)
    p.add_argument("--deg", type=positive, default=DEFAULT_DEG)
    p.add_argument("--height", type=non_negative, default=DEFAULT_HEIGHT)
    p.add_argument("--margin", type=non_negative, default=DEFAULT_MARGIN)
    p.add_argument("--require-pass", action="store_true")
    p.set_defaults(fn=cmd_legendre)

    p = sub.add_parser("relhunt", help="bounded-height relation detection")
    p.add_argument("--values", required=True)
    p.add_argument("--deg", type=positive, default=DEFAULT_DEG)
    p.add_argument("--height", type=non_negative, default=DEFAULT_HEIGHT)
    p.add_argument("--margin", type=non_negative, default=DEFAULT_MARGIN)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--require-pass", action="store_true")
    p.set_defaults(fn=cmd_relhunt)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    t0 = time.time()
    try:
        return args.fn(args, t0)
    except (PrecisionExhausted, InsufficientPrecision) as ex:
        print(f"precision failure: {ex}", file=sys.stderr)
        return 3
    except (PoleArgument, UsageError) as ex:
        print(f"invalid argument: {ex}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ModelLoadFailure) as ex:
        print(f"model load failure: {ex}", file=sys.stderr)
        return 5
    except CMPeriodsError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
