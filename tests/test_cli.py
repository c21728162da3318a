import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import enkit
from enkit import cli
from enkit.cli import main
from enkit.eqio import parse_equation
from enkit.pipeline import master_witness, parse_layout
from enkit.reductions import build_reduction
from enkit.system import EnSystem, One, serialize

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


def test_reduce_pair_cap_names_the_quadratic_identity_set(workdir, capsys):
    assert main(["reduce", "--ring", "z", "--mode", "full", "x1*x2 = 2",
                 "--out", "wide"]) == 3
    assert capsys.readouterr().err == (
        "error: full-family construction (emitted identity set grows "
        "quadratically) cardinality 6561 exceeds limit 2000\n")


@pytest.mark.parametrize("command", [
    ["reduce", "x1^3000000 = 2", "--ring", "z"],
    ["reduce", "x1^3000000 = 2", "--ring", "n"],
    ["fn-system", "--rep", "huge.rep", "--ring", "n", "--n", "100"],
], ids=["compact_Z", "compact_N", "fn-system"])
def test_compact_chain_over_cap_exits_3_at_once(workdir, capsys, command):
    write(workdir / "huge.rep", "REP r=2\nx1 - x2^3000000\n")
    started = time.monotonic()
    assert main(command + ["--out", "huge"]) == 3
    assert time.monotonic() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: compact chain variable bound ")
    assert captured.err.endswith(" exceeds limit 1000000\n")
    assert list(workdir.glob("huge.*")) == [workdir / "huge.rep"]


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


@pytest.mark.parametrize("equation", ["x1 = 1", "x1 = 2", "2*x1 = 3",
                                      "x1^2 = x1", "x1 = x2"])
def test_info_cards_match_built_systems(workdir, capsys, equation):
    assert main(["info", "--equation", equation]) == 0
    lines = capsys.readouterr().out.splitlines()
    cards = dict(line[len("card "):].split(" = ", 1) for line in lines
                 if line.startswith("card "))
    d = parse_equation(equation).normalized
    for mode in ("full_Z", "halved_Z", "full_N"):
        built, cert = build_reduction(d, mode)
        if mode == "full_N":
            # the family spans [0, delta]: its largest coefficient is delta
            delta = max(poly.max_abs_coeff() for poly in cert.defs.values())
            assert cards[mode] == f"{built.n} (delta = {delta})"
        else:
            assert cards[mode] == str(built.n)


def test_info_rep(workdir, capsys):
    write(workdir / "identity.rep", IDENTITY_REP)
    assert main(["info", "--rep", "identity.rep", "--ring", "n"]) == 0
    out = capsys.readouterr().out
    assert "s = 3" in out
    assert "w(f) = 10" in out


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
def test_info_value_too_large_to_print(workdir, capsys):
    # card full_Z = 5^200001 has far more digits than Python will print
    assert main(["info", "--equation", "x1^200000 = 2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: card full_Z is too large to print "
                            f"(more than {sys.get_int_max_str_digits()} "
                            "digits)\n")


@pytest.mark.parametrize("command", [
    ["fn-system", "--n", "5000", "--out", "big"],
    ["info"],
], ids=["fn-system", "info"])
def test_z_master_too_wide_for_a_certificate(workdir, capsys, command):
    # 5r master variables: r = 201 needs 1005, past eqio.MAX_VARIABLE
    write(workdir / "wide.rep", "REP r=201\nx1 - x2\n")
    assert main(command + ["--rep", "wide.rep", "--ring", "z"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: r = 201 needs 1005 master variables over "
                            "Z; certificates hold at most 1000 (r <= 200)\n")
    assert sorted(p.name for p in workdir.iterdir()) == ["wide.rep"]


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


def test_verify_pin_rejects_scaffold_with_mul_for_add(workdir, capsys):
    write(workdir / "id.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "id.rep", "--ring", "n", "--n", "40",
                 "--out", "sys"]) == 0
    labels = {label: index for index, label in
              parse_layout((workdir / "sys.layout").read_text())[3].items()}
    t1, t2 = labels["t1"], labels["t2"]
    # With t1 * t1 = t2 the t-chain is 1, 1, 2, ... and the system pins
    # x1 = x2 = 38; the layout's scaffold no longer matches.
    tamper(workdir / "sys.ens", f"\nADD {t1} {t1} {t2}\n",
           f"\nMUL {t1} {t1} {t2}\n", workdir / "bad.ens")
    capsys.readouterr()
    assert main(["verify-pin", "--system", "bad.ens", "--cert", "sys.cert",
                 "--layout", "sys.layout", "--expected", "40", "--ring", "n",
                 "--witness", "40,40"]) == 2
    assert "does not match the layout's scaffold" in capsys.readouterr().err


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


def test_solve_tells_add_from_mul(workdir, capsys):
    # x1 = 1 and x1 + x1 = x2 force x2 = 2, which x1 * x1 = x2 refutes
    write(workdir / "mix.ens", "ENSYS 1\nn 2\nONE 1\nADD 1 1 2\nMUL 1 1 2\n")
    assert main(["solve", "--system", "mix.ens", "--ring", "z",
                 "--radius", "3"]) == 0
    assert capsys.readouterr().out == "count 0\n"


@pytest.mark.parametrize("command", [
    ["solve", "--system", "sq.ens"],
    ["verify-pin", "--system", "sq.ens", "--expected", "2"],
], ids=["solve", "verify-pin"])
def test_negative_radius_is_an_input_error(workdir, capsys, command):
    assert main(["reduce", "--ring", "z", "x1^2 = 4", "--out", "sq"]) == 0
    capsys.readouterr()
    assert main(command + ["--ring", "z", "--radius", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: radius must be non-negative, got -1\n"


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
    pin = ["verify-pin", "--system", "zc.ens", "--cert", "zc.cert",
           "--layout", "zc.layout", "--expected", "5", "--ring", "z",
           "--radius", "1"]
    witness = ",".join(map(str, master_witness((5, 300), 2)))
    assert main(pin + ["--witness", witness]) == 0
    # x1 = 5 lies outside the radius-1 box: nothing was checked
    assert main(pin) == 1


def test_verify_pin_without_solutions_or_witness_fails(workdir, capsys):
    write(workdir / "square.rep", "REP r=2\nx1 - x2*x2\n")
    assert main(["fn-system", "--rep", "square.rep", "--ring", "z",
                 "--n", "2000", "--out", "sq"]) == 0
    pin = ["verify-pin", "--system", "sq.ens", "--cert", "sq.cert",
           "--layout", "sq.layout", "--expected", "4000000", "--ring", "z",
           "--radius", "1", "--report", "pin.json"]
    capsys.readouterr()
    assert main(pin) == 1
    assert capsys.readouterr().out == "solutions 0 offending 0\nFAIL\n"
    assert json.loads((workdir / "pin.json").read_text())["passed"] is False
    witness = ",".join(map(str, master_witness((4000000, 2000), 2)))
    assert main(pin + ["--witness", witness]) == 0
    assert capsys.readouterr().out == "solutions 0 offending 0\nPASS\n"


def test_verify_pin_z_identity_at_radius_2(workdir, capsys, monkeypatch):
    # 9 free base variables: 5^9 box points, split into groups of 5 and 4
    monkeypatch.delenv("ENKIT_POINT_LIMIT", raising=False)
    write(workdir / "identity.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "identity.rep", "--ring", "z",
                 "--n", "268", "--out", "id"]) == 0
    pin = ["verify-pin", "--system", "id.ens", "--cert", "id.cert",
           "--layout", "id.layout", "--expected", "268", "--ring", "z"]
    capsys.readouterr()
    assert main(pin + ["--radius", "2"]) == 1
    assert capsys.readouterr().out == "solutions 0 offending 0\nFAIL\n"
    witness = master_witness((268, 268), 2)
    assert witness[:2] == (268, 268)
    assert main(pin + ["--radius", "2",
                       "--witness", ",".join(map(str, witness))]) == 0
    assert capsys.readouterr().out == "solutions 0 offending 0\nPASS\n"
    # the point limit still counts the whole box, not the group boxes
    assert main(pin + ["--radius", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: box holds 387420489 points, "
                            "limit is 100000000\n")


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


@pytest.mark.parametrize("command, code, out", [
    (["solve"], 0, "SOLUTION 1" + " 0" * 1299 + "\ncount 1\n"),
    (["verify-pin", "--expected", "1"], 1, "solutions 1 offending 0\nFAIL\n"),
], ids=["solve", "verify-pin"])
def test_search_deeper_than_recursion_limit(workdir, command, code, out):
    # 1299 variables left to branch on, one level each
    write(workdir / "wide.ens", serialize(EnSystem(1300, [One(1)])))
    result = run_cli([], *command, "--system", "wide.ens", "--ring", "n",
                     "--radius", "0")
    assert (result.returncode, result.stdout, result.stderr) == (code, out, "")


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


def test_parser_built_once_and_environment_read_per_call(workdir,
                                                         monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: calls.append(1) or build())
    cli._parser.cache_clear()
    reduce = ["reduce", "--ring", "n", "--mode", "full", "x1 = x2",
              "--out", "capped"]
    monkeypatch.setenv("ENKIT_CAP", "10")
    assert main(reduce) == 3
    monkeypatch.delenv("ENKIT_CAP")
    assert main(reduce) == 0
    monkeypatch.setenv("ENKIT_CAP", "ten")
    assert main(reduce) == 2
    assert calls == [1]
    cli._parser.cache_clear()


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
