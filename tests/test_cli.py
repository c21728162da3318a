import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import enkit
from enkit.cli import main

SRC = str(Path(enkit.__file__).resolve().parents[1])

IDENTITY_REP = "REP r=2\nx1 - x2\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(path, text):
    path.write_text(text, encoding="ascii")


def run_cli(flags, *argv):
    """Run the CLI in a fresh interpreter started with `flags` (e.g. -O)."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-m", "enkit.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def assert_input_error(result):
    assert result.returncode == 2, result.stdout + result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


def tamper(path, old, new, out):
    text = path.read_text()
    assert old in text
    write(out, text.replace(old, new))


def test_reduce_writes_ens_and_cert(workdir, capsys):
    assert main(["reduce", "--ring", "n", "--mode", "full",
                 "--cap", "1000000", "x1 = x2", "--out", "full"]) == 0
    ens = (workdir / "full.ens").read_text()
    assert ens.startswith("ENSYS 1\nn 625\n")
    cert = (workdir / "full.cert").read_text()
    assert cert.startswith("CERT 1\nmode full_N\np 2\nn 625\n")
    assert cert.rstrip().endswith("ANCHOR N 3 4 5")


def test_reduce_is_deterministic(workdir):
    main(["reduce", "--ring", "z", "--mode", "compact",
          "x1^2 - 3*x2 + 1 = 0", "--out", "a"])
    main(["reduce", "--ring", "z", "--mode", "compact",
          "x1^2 - 3*x2 + 1 = 0", "--out", "b"])
    assert (workdir / "a.ens").read_bytes() == (workdir / "b.ens").read_bytes()
    assert (workdir / "a.cert").read_bytes() == (workdir / "b.cert").read_bytes()


def test_reduce_family_too_large_exits_3(workdir):
    code = main(["reduce", "--ring", "z", "--mode", "full",
                 "x1^9*x2^9 = 5", "--out", "huge"])
    assert code == 3
    assert not (workdir / "huge.ens").exists()
    assert not (workdir / "huge.cert").exists()


def test_reduce_rejects_zero_polynomial(workdir):
    assert main(["reduce", "--ring", "z", "x1 = x1", "--out", "z"]) == 2
    assert not (workdir / "z.ens").exists()


def test_info_equation(workdir, capsys):
    assert main(["info", "--equation", "x1 = x2"]) == 0
    out = capsys.readouterr().out
    assert "card full_Z = 625" in out
    assert "card halved_Z = 81" in out
    assert "card full_N = 625 (delta = 4)" in out
    assert "n compact_Z = 3" in out


def test_info_rep(workdir, capsys):
    write(workdir / "identity.rep", IDENTITY_REP)
    assert main(["info", "--rep", "identity.rep", "--ring", "n"]) == 0
    out = capsys.readouterr().out
    assert "s = 3" in out
    assert "w(f) = 10" in out


def test_fn_system_below_threshold(workdir, capsys):
    write(workdir / "identity.rep", IDENTITY_REP)
    code = main(["fn-system", "--rep", "identity.rep", "--ring", "n",
                 "--n", "9", "--out", "sys"])
    assert code == 2
    assert "below threshold 10" in capsys.readouterr().err
    assert not (workdir / "sys.ens").exists()


def test_fn_system_and_verify_pin(workdir, capsys):
    write(workdir / "identity.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "identity.rep", "--ring", "n",
                 "--n", "12", "--out", "sys"]) == 0
    for suffix in (".ens", ".cert", ".layout"):
        assert (workdir / f"sys{suffix}").exists()
    code = main(["verify-pin", "--system", "sys.ens", "--cert", "sys.cert",
                 "--layout", "sys.layout", "--expected", "12", "--ring", "n",
                 "--witness", "12,12", "--report", "pin.json"])
    assert code == 0
    report = json.loads((workdir / "pin.json").read_text())
    assert report["passed"] is True
    assert report["witness_ok"] is True
    # wrong expectation: verification failure, exit 1
    code = main(["verify-pin", "--system", "sys.ens", "--cert", "sys.cert",
                 "--layout", "sys.layout", "--expected", "13", "--ring", "n"])
    assert code == 1


def test_verify_equiv_pass_and_fail(workdir, capsys):
    assert main(["reduce", "--ring", "z", "x1 = x2", "--out", "cz"]) == 0
    code = main(["verify-equiv", "--equation", "x1 = x2", "--system",
                 "cz.ens", "--cert", "cz.cert", "--ring", "z",
                 "--box=-3..3", "--report", "eq.json"])
    assert code == 0
    report = json.loads((workdir / "eq.json").read_text())
    assert report["base_roots"] == 7 and report["passed"] is True
    # the reduction of a different equation must fail for this one
    code = main(["verify-equiv", "--equation", "x1 = x2 + 1", "--system",
                 "cz.ens", "--cert", "cz.cert", "--ring", "z",
                 "--box=-3..3"])
    assert code == 1


def test_solve_output(workdir, capsys):
    assert main(["reduce", "--ring", "n", "x1*x2 = 6", "--out", "m"]) == 0
    assert main(["solve", "--system", "m.ens", "--ring", "n",
                 "--radius", "6"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("SOLUTION")]
    assert len(lines) == 4
    assert all(ln.split()[1:3] in (["1", "6"], ["2", "3"], ["3", "2"],
                                   ["6", "1"]) for ln in lines)


def test_reports_have_no_timings(workdir):
    main(["reduce", "--ring", "z", "x1 = x2", "--out", "cz"])
    for _ in range(2):
        main(["verify-equiv", "--equation", "x1 = x2", "--system", "cz.ens",
              "--cert", "cz.cert", "--ring", "z", "--box=-2..2",
              "--report", "r.json"])
        assert b"time" not in (workdir / "r.json").read_bytes()


def test_fn_system_integer_ring(workdir):
    write(workdir / "const5.rep", "REP r=2\nx1 - 5\n")
    assert main(["info", "--rep", "const5.rep", "--ring", "z"]) == 0
    assert main(["fn-system", "--rep", "const5.rep", "--ring", "z",
                 "--n", "300", "--out", "zc"]) == 0
    code = main(["verify-pin", "--system", "zc.ens", "--cert", "zc.cert",
                 "--layout", "zc.layout", "--expected", "5", "--ring", "z",
                 "--radius", "1"])
    assert code == 0


def test_verify_pin_bare_system_runs(workdir):
    # no cert/layout: generic propagation + search only
    write(workdir / "identity.rep", IDENTITY_REP)
    main(["fn-system", "--rep", "identity.rep", "--ring", "n", "--n", "10",
          "--out", "bare"])
    assert main(["verify-pin", "--system", "bare.ens", "--expected", "10",
                 "--ring", "n"]) == 0
    # asking for a witness without the certificate is a usage error
    assert main(["verify-pin", "--system", "bare.ens", "--expected", "10",
                 "--ring", "n", "--witness", "10,10"]) == 2


def test_verify_equiv_parallel_jobs(workdir):
    main(["reduce", "--ring", "z", "x1 = x2", "--out", "cz"])
    assert main(["verify-equiv", "--equation", "x1 = x2", "--system",
                 "cz.ens", "--cert", "cz.cert", "--ring", "z",
                 "--box=-2..2", "--jobs", "2"]) == 0


def test_env_overrides(workdir, monkeypatch):
    monkeypatch.setenv("ENKIT_CAP", "10")
    code = main(["reduce", "--ring", "n", "--mode", "full", "x1 = x2",
                 "--out", "capped"])
    assert code == 3


def test_usage_error_exit_code(workdir):
    with pytest.raises(SystemExit) as err:
        main(["reduce", "--ring", "q", "x1 = x2"])
    assert err.value.code == 2


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_verify_pin_rejects_certificate_whose_lift_fails(workdir, flags):
    write(workdir / "id.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "id.rep", "--ring", "z", "--n", "300",
                 "--out", "zs"]) == 0
    cert = (workdir / "zs.cert").read_text()
    anchor = cert.splitlines()[-1]
    tamper(workdir / "zs.cert", anchor, "ANCHOR q 20", workdir / "bad.cert")
    result = run_cli(flags, "verify-pin", "--system", "zs.ens",
                     "--cert", "bad.cert", "--layout", "zs.layout",
                     "--expected", "300", "--ring", "z", "--radius", "1")
    assert_input_error(result)
    assert "does not solve the system" in result.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_certificate_validated_against_system(workdir, flags):
    assert main(["reduce", "--ring", "z", "x1 = x2", "--out", "cz"]) == 0
    equiv = ["verify-equiv", "--equation", "x1 = x2", "--system", "cz.ens",
             "--ring", "z", "--box=-2..2", "--cert"]
    assert run_cli(flags, *equiv, "cz.cert").returncode == 0
    for old, new, message in [
            ("\n3 ", "\n99 ", "index 99"),        # used to crash the lift
            ("\nn 3\n", "\nn 7\n", "n 7"),        # used to PASS
            ("\n3 x1 - x2\n", "\n", "index 3"),
            ("ANCHOR q 3", "ANCHOR q 9", "index 9")]:
        tamper(workdir / "cz.cert", old, new, workdir / "bad.cert")
        result = run_cli(flags, *equiv, "bad.cert")
        assert_input_error(result)
        assert message in result.stderr
    # fn-system certificates carry the layout's s as their n
    write(workdir / "id.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "id.rep", "--ring", "n", "--n", "12",
                 "--out", "sys"]) == 0
    tamper(workdir / "sys.cert", "\nn 3\n", "\nn 12\n", workdir / "s.cert")
    result = run_cli(flags, "verify-pin", "--system", "sys.ens",
                     "--cert", "s.cert", "--layout", "sys.layout",
                     "--expected", "12", "--ring", "n")
    assert_input_error(result)
