import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmperiods
from cmperiods.cli import main
from cmperiods.infinity import InfElem


def run_cli(args):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2


def test_pitilde_json_payload(tmp_path):
    out = tmp_path / "pi.json"
    code = main(["pitilde", "--q", "2", "--prec", "80", "--json", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["command"] == "pitilde"
    assert "dual_formula_residual" in rep["payload"]
    assert rep["configuration"]["q"] == 2
    assert "canonical_root" in rep["configuration"]


def test_payload_bytes_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["cm", "rank", "--example", "kummer-t:3", "--prec", "60", "--json", "--out", str(a)])
    main(["cm", "rank", "--example", "kummer-t:3", "--prec", "60", "--json", "--out", str(b)])
    pa = json.dumps(json.loads(a.read_text())["payload"], sort_keys=True)
    pb = json.dumps(json.loads(b.read_text())["payload"], sort_keys=True)
    assert pa == pb


def test_cm_validate_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"kind": "monogenic", "q": 2, "E": 3, "u_coeffs": [0, 0, 1, 1], "name": "cube"})
    )
    code = main(["cm", "validate", "--model", str(bad), "--prec", "60"])
    assert code == 5


def test_model_file_round_trip(tmp_path):
    code, _ = run_cli(["cm", "points", "--model", "fixtures/kummer-t-3.json", "--prec", "60", "--json", "--out", str(tmp_path / "p.json")]), None
    rep = json.loads((tmp_path / "p.json").read_text())
    assert rep["payload"]["count"] == 2


def _relhunt_values(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return ["relhunt", "--values", str(path), "--deg", "1", "--height", "2", "--margin", "5"]


def test_relhunt_refuses_a_series_outside_theta(tmp_path, capsys):
    # relhunt reads its values over F_q((1/theta)); a file that mixes in a
    # series tagged "t" is refused when it is read, as a usage error
    from cmperiods.arith import Fq
    from cmperiods.infinity import InfElem

    fld = Fq.get(3, 1, 1)
    v = InfElem(fld, 1, {k: 1 + k % 2 for k in range(-2, 40)}, 40)
    ok = json.dumps([v.to_json(), v.mono_mul(2, -1).to_json()])
    code, _ = run_cli(_relhunt_values(tmp_path, "ok.json", ok))
    assert code == 0
    mixed = json.dumps([v.to_json(), dict(v.to_json(), var="t")])
    capsys.readouterr()
    code, out = run_cli(_relhunt_values(tmp_path, "mixed.json", mixed))
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not in theta" in err


@pytest.mark.parametrize(
    "text", ["[{\"q\": 3,", "not json at all", ""], ids=["truncated", "text", "empty"]
)
def test_relhunt_values_file_that_is_not_json_is_a_usage_error(tmp_path, capsys, text):
    code, out = run_cli(_relhunt_values(tmp_path, "bad.json", text))
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("invalid values file:") and err.count("\n") == 1


def test_gamma_pole_exit_code():
    assert main(["gamma", "--q", "2", "--x", "1", "--prec", "40"]) == 2


def test_q_not_a_prime_power_is_a_usage_error(capsys):
    assert main(["gamma", "--q", "6", "--x", "1/(theta+1)", "--prec", "40"]) == 2
    assert main(["pitilde", "--q", "6", "--prec", "40"]) == 2
    assert "--q" in capsys.readouterr().err


def test_shtuka_build_emits_fixture(tmp_path):
    out = tmp_path / "motive.json"
    code = main(["shtuka", "build", "--example", "kummer-t:3", "--prec", "60", "--json", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["payload"]["motive"]["rank"] == 2
    assert rep["payload"]["motive"]["basis"] == ["y^0", "y^1"]
    assert rep["payload"]["shtuka"]["ledger"]["matches_reduction"]


def test_console_script_installed():
    # the subprocess imports the package from where this process found it,
    # which is src/ in a plain checkout
    src = str(Path(cmperiods.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-m", "cmperiods.cli", "cm", "rank", "--example", "carlitz", "--prec", "50", "--json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["payload"]["rank_ik0"]["rank"] == 1


def test_periods_closed_form_fixture(tmp_path):
    out = tmp_path / "p.json"
    code = main(["periods", "--example", "carlitz-tensor:2", "--prec", "100",
                 "--trunc", "20", "--json", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert "period_symbols" in rep["payload"]


def test_symbol_without_a_known_digit_is_a_precision_failure():
    # at T 2 the tail bound of Omega^3 over F_2 sits below its value at
    # theta, so the symbol has no known digit: exit 3, not a symbol
    code, out = run_cli(["periods", "--example", "carlitz-tensor:3", "--q", "2", "--prec", "60", "--trunc", "2"])
    assert code == 3 and out == ""


def test_short_truncation_symbol_states_digits_of_the_long_one():
    # at T 8 Omega^3 over F_2 states a few digits (it exited 3 while its
    # decay bound sat 2nq/(q-1) too low); they are the digits of T 64
    def symbol(trunc):
        args = ["periods", "--example", "carlitz-tensor:3", "--q", "2", "--prec", "60", "--trunc", trunc, "--json"]
        code, out = run_cli(args)
        assert code == 0
        (value,) = json.loads(out)["payload"]["period_symbols"].values()
        return InfElem.from_json(value)

    short, long = symbol("8"), symbol("64")
    assert 0 < short.prec_val < long.prec_val
    assert (short - long).residual_val() >= short.prec_val


def test_legendre_require_pass(tmp_path):
    out = tmp_path / "l.json"
    code = main(["legendre", "--example", "carlitz-tensor:2", "--prec", "120",
                 "--trunc", "20", "--deg", "2", "--height", "6",
                 "--require-pass", "--json", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert all(f["pass"] for f in rep["payload"]["fibers"].values())


def test_example_is_required(capsys):
    for cmd in (["periods"], ["agf"], ["qp"], ["legendre"], ["shtuka", "build"]):
        assert main(cmd + ["--prec", "40"]) == 2
    assert "--example" in capsys.readouterr().err
    # cm takes exactly one of --example and --model
    assert main(["cm", "rank"]) == 2
    assert main(["cm", "rank", "--example", "carlitz", "--model", "fixtures/kummer-t-3.json"]) == 2


def test_flags_only_where_read():
    # --model is read by cm alone, --trunc only by the truncating commands
    assert main(["periods", "--example", "carlitz", "--model", "fixtures/kummer-t-3.json"]) == 2
    assert main(["pitilde", "--q", "2", "--trunc", "20"]) == 2
    assert main(["shtuka", "check", "--example", "carlitz", "--trunc", "20"]) == 2
    assert main(["qp", "--example", "carlitz", "--trunc", "20"]) == 2


@pytest.mark.parametrize(
    "args, flag",
    [
        (["cm", "rank", "--example", "kummer-t:3", "--xi", "xi0:a"], "--xi"),
        (["cm", "rank", "--example", "kummer-t:3", "--xi", "nope"], "--xi"),
        (["cm", "xi0", "--example", "kummer-t:3", "--xi0", "zz"], "--xi0"),
        (["gamma", "--x", "theta^", "--prec", "40"], "--x"),
        (["gamma", "--x", "1/0", "--prec", "40"], "--x"),
        (["gamma", "--q", "3", "--x", "1/(thetafoo+1)", "--prec", "20"], "--x"),
        (["gamma", "--q", "3", "--x", "thetaxyz", "--prec", "20"], "--x"),
        (["gamma", "--q", "3", "--x", "2theta3", "--prec", "20"], "--x"),
        (["agf", "--example", "kummer-t:3", "--prec", "60", "--trunc", "8", "--vector", "5"], "--vector"),
        (["agf", "--example", "kummer-t:3", "--prec", "60", "--trunc", "8", "--vector", "-1"], "--vector"),
        (["periods", "--example", "carlitz", "--prec", "40", "--trunc", "0"], "--trunc"),
        (["omega", "--prec", "40", "--trunc", "0"], "--trunc"),
        (["legendre", "--example", "carlitz", "--prec", "60", "--trunc", "8", "--deg", "0"], "--deg"),
        (["relhunt", "--values", "values.json", "--height", "-1"], "--height"),
        (["legendre", "--example", "carlitz", "--prec", "60", "--trunc", "8", "--height", "-2"], "--height"),
        (["legendre", "--example", "carlitz", "--prec", "60", "--trunc", "8", "--margin", "-1"], "--margin"),
        (["periods", "--example", "carlitz", "--prec", "-3"], "--prec"),
        (["qp", "--example", "carlitz", "--prec", "-3"], "--prec"),
        (["pitilde", "--prec", "-5"], "--prec"),
        (["agf", "--example", "carlitz", "--prec", "60", "--trunc", "8", "--tag", "-1"], "--tag"),
    ],
    ids=["xi-multiplicity", "xi-label", "xi0-label", "x-exponent", "x-over-zero", "x-thetafoo", "x-thetaxyz",
         "x-2theta3", "vector-past-rank",
         "vector-negative", "periods-trunc-0", "omega-trunc-0", "legendre-deg-0", "relhunt-height-negative",
         "legendre-height-negative", "legendre-margin-negative", "periods-prec-negative", "qp-prec-negative",
         "pitilde-prec-negative", "agf-tag-negative"],
)
def test_bad_input_is_a_usage_error(capsys, args, flag):
    # the message names the flag; input that only a computed object can
    # judge (labels, lattice size) is refused in one line, flag types by
    # the parser's usage message
    code, out = run_cli(args)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert "Traceback" not in err and flag in err.splitlines()[-1]
    if flag not in ("--trunc", "--prec", "--deg", "--height", "--margin", "--tag"):
        assert err.startswith("invalid argument:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        json.dumps({"kind": "monogenic", "q": 3, "u_coeffs": [0, 2]}),
        json.dumps({"kind": "weird", "q": 3}),
        json.dumps({"E": 2, "kind": "monogenic", "q": 6, "u_coeffs": [0, 2]}),
    ],
    ids=["not-json", "monogenic-without-E", "unknown-kind", "q-not-a-prime-power"],
)
def test_malformed_model_file_is_a_load_failure(tmp_path, capsys, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    code, out = run_cli(["cm", "validate", "--model", str(path)])
    err = capsys.readouterr().err
    assert code == 5 and out == ""
    assert err.startswith("model load failure:") and err.count("\n") == 1


def test_const_ext_3_is_a_cli_example(tmp_path):
    # a rank-3 pipeline: the lattice, Psi, the symbols and a Legendre certificate
    out = tmp_path / "leg.json"
    args = ["--example", "const-ext:3", "--q", "2", "--prec", "60", "--json", "--out", str(out)]
    assert main(["legendre", *args, "--trunc", "12", "--height", "10", "--require-pass"]) == 0
    assert json.loads(out.read_text())["payload"]["within_bounds"]
    assert main(["cm", "rank", *args]) == 0
    assert json.loads(out.read_text())["payload"]["rank_ik0"]["rank"] == 3


def _report(tmp_path, args):
    out = tmp_path / "out.json"
    code = main([*args, "--json", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_agf_payload(tmp_path):
    code, rep = _report(tmp_path, ["agf", "--example", "carlitz", "--prec", "60", "--trunc", "12"])
    assert code == 0
    decay = rep["payload"]["decay"]
    assert decay["kind"] == "linear" and decay["A"] == [-3, 2] and decay["B"] == [3, 1]


@pytest.mark.parametrize(
    "example, q, xi, rank",
    [("kummer-t:3", "3", "xi0", 2), ("kummer-t:5", "5", "xi0:2,xi1", 4)],
    ids=["kummer-t:3", "kummer-t:5"],
)
def test_cm_rank_of_a_divisor(tmp_path, example, q, xi, rank):
    # --xi goes through _parse_divisor, with and without multiplicities
    code, rep = _report(tmp_path, ["cm", "rank", "--example", example, "--q", q, "--xi", xi])
    assert code == 0
    assert rep["payload"]["rank_orbit"] == rank


@pytest.mark.parametrize("ell", [2, 3])
def test_cm_xi0_constant_extension(tmp_path, ell):
    # the constant-extension branch of automorphism_maps
    code, rep = _report(tmp_path, ["cm", "xi0", "--example", f"const-ext:{ell}"])
    assert code == 0
    assert rep["payload"]["orbit_rank"] == rep["payload"]["ik0_rank"] == ell


def _single_value(tmp_path, value, *extra):
    path = tmp_path / "value.json"
    path.write_text(json.dumps([value.to_json()]))
    return _report(tmp_path, ["relhunt", "--values", str(path), *extra])


def test_relhunt_single_value_runs_the_algebraic_search(tmp_path):
    from cmperiods.arith import Fq
    from cmperiods.infinity import InfElem
    from cmperiods.special import carlitz_period

    fld = Fq.get(3, 1, 1)
    theta = InfElem.theta(fld, 300)
    one, two = InfElem.const(fld, 1, 300), InfElem.const(fld, 2, 300)
    for value, degree in [((theta + one) * (theta + two).inverse(), 1), ((theta + one).nth_root(2), 2)]:
        code, rep = _single_value(tmp_path, value, "--require-pass")
        assert code == 0 and rep["payload"]["found"]
        assert rep["certificates"][0]["degree"] == degree
    code, rep = _single_value(tmp_path, carlitz_period(3, 200), "--require-pass")
    assert code == 4 and not rep["payload"]["found"]


@pytest.mark.xfail(
    strict=True,
    reason="the margin rule counts every row of the window, but pi's powers at e 2 over F_9 "
    "fall into 4 blocks (2 classes mod e times 2 digits); pi^0, pi^2, pi^4 share a block "
    "of about 121 rows against their 123 unknowns",
)
def test_relhunt_pi_at_prec_120_certifies_nothing(tmp_path):
    # pi is transcendental, so no relation of degree 4 and height 40 holds
    from cmperiods.infinity import InfElem

    code, out = run_cli(["pitilde", "--q", "3", "--prec", "120", "--json"])
    assert code == 0
    pi = InfElem.from_json(json.loads(out)["payload"]["pi"])
    code, rep = _single_value(tmp_path, pi, "--deg", "4", "--height", "40", "--margin", "20")
    assert code == 0
    assert not rep["payload"]["found"]
