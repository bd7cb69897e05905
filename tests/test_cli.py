import json
import os
import subprocess
import sys
from pathlib import Path

import cmperiods
from cmperiods.cli import main


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
    # at T 8 the tail bound of Omega^3 over F_2 sits below its value at
    # theta, so the symbol has no known digit: exit 3, not a symbol
    code, out = run_cli(["periods", "--example", "carlitz-tensor:3", "--q", "2", "--prec", "60", "--trunc", "8"])
    assert code == 3 and out == ""


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


def test_const_ext_3_is_a_cli_example(tmp_path):
    # a rank-3 pipeline: the lattice, Psi, the symbols and a Legendre certificate
    out = tmp_path / "leg.json"
    args = ["--example", "const-ext:3", "--q", "2", "--prec", "60", "--json", "--out", str(out)]
    assert main(["legendre", *args, "--trunc", "12", "--height", "10", "--require-pass"]) == 0
    assert json.loads(out.read_text())["payload"]["within_bounds"]
    assert main(["cm", "rank", *args]) == 0
    assert json.loads(out.read_text())["payload"]["rank_ik0"]["rank"] == 3
