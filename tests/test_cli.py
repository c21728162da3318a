import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import enkit
from enkit import cli, oracle, pipeline
from enkit.cli import main
from enkit.eqio import parse_equation
from enkit.pipeline import master_witness, parse_layout
from enkit.reductions import build_reduction
from enkit.system import Add, EnSystem, One, serialize

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


@pytest.mark.parametrize("ring, mode", [("z", "full"), ("z", "halved"),
                                        ("n", "full"), ("z", "compact")])
def test_reduce_and_verify_exit_codes(workdir, capsys, ring, mode):
    assert main(["reduce", "--ring", ring, "--mode", mode, "x1 = x2",
                 "--out", "sys"]) == 0
    verify = ["verify-equiv", "--ring", ring, "--system", "sys.ens",
              "--cert", "sys.cert", "--box=0..1", "--report", "r.json"]
    assert main([*verify, "--equation", "x1 = x2 + 1"]) == 1
    assert main([*verify, "--equation", "x1 = x2"]) == 0
    write(workdir / "id.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "id.rep", "--ring", ring,
                 "--n", "300", "--out", "fn"]) == 0
    witness = (300, 300) if ring == "n" else master_witness((300, 300), 2)
    assert main(["verify-pin", "--system", "fn.ens", "--cert", "fn.cert",
                 "--layout", "fn.layout", "--expected", "300", "--ring",
                 ring, "--radius", "1",
                 "--witness", ",".join(map(str, witness))]) == 0


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


def test_reduce_pair_cap_refuses_before_any_member_is_built(workdir, capsys):
    # 531,441 members, under the default --cap: building them takes
    # seconds, refusing them by their count does not.
    start = time.perf_counter()
    assert main(["reduce", "x1^2*x2*x3 = 1", "--ring", "z",
                 "--mode", "halved"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: full-family construction (emitted identity set grows "
        "quadratically) cardinality 531441 exceeds limit 2000\n")


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


@pytest.mark.parametrize("command, digits", [
    (["reduce", "x1 = 10^5000", "--ring", "z", "--out", "big"], 5001),
    (["reduce", "x1 = 10^5000", "--ring", "n", "--out", "big"], 5001),
    (["fn-system", "--rep", "wide.rep", "--ring", "z", "--n", "45000",
      "--out", "big"], 4401),
    (["info", "--rep", "wide.rep", "--ring", "z"], 4401),
], ids=["compact_Z", "compact_N", "fn-system", "info"])
def test_compact_chain_past_printing_exits_3_before_building(
        workdir, capsys, command, digits):
    # No definition in a compact chain has a coefficient wider than D's
    # widest, so the certificate can be written exactly when that one can;
    # the master polynomial squares 10^2200.
    write(workdir / "wide.rep", "REP r=2\nx1 - 10^2200*x2\n")
    started = time.monotonic()
    assert main(command) == 3
    assert time.monotonic() - started < 2
    assert capsys.readouterr() == ("", "error: compact chain coefficient "
                                   f"digit count {digits} exceeds limit "
                                   "4300\n")
    assert list(workdir.glob("big*")) == []


@pytest.mark.parametrize("command, card", [
    (["reduce", "x1^2147483647 = 1", "--ring", "z", "--mode", "full",
      "--out", "big"], "5^2147483648"),
    (["reduce", "x1^2147483647 = 1", "--ring", "n", "--mode", "full",
      "--out", "big"], "5^2147483648"),
    (["reduce", "x1^2147483647 = 1", "--ring", "z", "--mode", "halved",
      "--out", "big"], "3^2147483648"),
    (["reduce", "x1^40*x2^40*x3^40 = 1", "--ring", "n", "--mode", "full",
      "--out", "big"], "5^68921"),
    (["fn-system", "--rep", "id.rep", "--n", "30", "--ring", "z", "--mode",
      "full", "--out", "big"], "9^3515625"),
    (["info", "--rep", "id.rep", "--ring", "z", "--mode", "full"],
     "9^3515625"),
    (["reduce", "x1 = 10^5000", "--ring", "z", "--mode", "full", "--out",
      "big"], "over 10^4300"),
], ids=["full_Z", "full_N", "halved_Z", "past-print", "fn-system", "info",
        "wide"])
def test_family_past_printing_is_refused_by_its_exponent(workdir, command,
                                                         card):
    # The power 5^(2^31) would take minutes and gigabytes to compute, and
    # past 4300 digits its message could not be written.
    write(workdir / "id.rep", IDENTITY_REP)
    started = time.monotonic()
    result = run_cli_limited(*command, timeout=2)
    assert time.monotonic() - started < 2
    assert (result.returncode, result.stdout, result.stderr) == (
        3, "", f"error: family cardinality {card} exceeds limit 1000000\n")
    assert list(workdir.glob("big*")) == []


def test_info_card_past_printing_is_decided_by_its_exponent(workdir):
    started = time.monotonic()
    result = run_cli_limited("info", "--equation", "x1^2147483647 = 1",
                             timeout=2)
    assert time.monotonic() - started < 2
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: card full_Z is too large to print (more than 4300 "
               "digits)\n")


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
    d = parse_equation(equation)
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



@pytest.mark.parametrize("old, new", [
    ("\n1 x1\n", "\n1 x9\n"),            # tampered label
    ("\n1 x1\n", "\n"),                  # missing label
])
def test_verify_pin_checks_layout_labels(workdir, capsys, old, new):
    write(workdir / "id.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "id.rep", "--ring", "n", "--n", "12",
                 "--out", "sys"]) == 0
    tamper(workdir / "sys.layout", old, new, workdir / "bad.layout")
    capsys.readouterr()
    assert main(["verify-pin", "--system", "sys.ens", "--cert", "sys.cert",
                 "--layout", "bad.layout", "--expected", "12", "--ring", "n",
                 "--witness", "12,12"]) == 2
    assert ("layout label of index 1 does not match the scaffold"
            in capsys.readouterr().err)


@pytest.mark.parametrize("suffix, old, new, message", [
    pytest.param(".layout", "\n2 x2\n", "\n2 x2\n1 x9\n",
                 "duplicate layout label of index 1", id="layout-label"),
    pytest.param(".layout", "\nn 12\n", "\nn 5\nn 12\n",
                 "duplicate layout line 'n 12'", id="layout-header"),
    pytest.param(".ens", "# name 1 x1\n", "# name 1 x1\n# name 1 x9\n",
                 "line 4: duplicate name of index 1", id="ens-name"),
    pytest.param(".cert", "\n3 0\n", "\n3 0\n3 1\n",
                 "certificate defines index 3 twice", id="cert-definition"),
])
def test_verify_pin_refuses_duplicate_lines(workdir, capsys, suffix, old, new,
                                            message):
    # A second line for the same key or index is refused, naming it.
    write(workdir / "id.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "id.rep", "--ring", "n", "--n", "12",
                 "--out", "sys"]) == 0
    tamper(workdir / f"sys{suffix}", old, new, workdir / f"bad{suffix}")
    files = {kind: ("bad" if kind == suffix else "sys") + kind
             for kind in (".ens", ".cert", ".layout")}
    capsys.readouterr()
    assert main(["verify-pin", "--system", files[".ens"], "--cert",
                 files[".cert"], "--layout", files[".layout"], "--expected",
                 "12", "--ring", "n", "--witness", "12,12"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("old, new, message", [
    ("\nn 13\n", "\nn 1000000000000\n",
     "layout and system disagree on n"),
    ("\ns 3\n", "\ns 1000000000000\n", "n below threshold 2000000000004"),
], ids=["n", "s"])
def test_verify_pin_checks_layout_header_before_building(
        workdir, capsys, monkeypatch, old, new, message):
    # A layout header asking for a huge scaffold is refused, and no
    # scaffold is built for any n but the system's.
    write(workdir / "id.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "id.rep", "--ring", "n", "--n", "13",
                 "--out", "sys"]) == 0
    tamper(workdir / "sys.layout", old, new, workdir / "bad.layout")
    built = []
    of = pipeline.Scaffold.of
    monkeypatch.setattr(pipeline.Scaffold, "of", staticmethod(
        lambda n, s: built.append(n) or of(n, s)))
    capsys.readouterr()
    assert main(["verify-pin", "--system", "sys.ens", "--layout",
                 "bad.layout", "--expected", "13", "--ring", "n"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert set(built) <= {13}


@pytest.mark.parametrize("old, new", [
    ("# name 1 x1\n", "# name 1 evil\n"),   # tampered name
    ("# name 1 x1\n", ""),                  # missing name
])
def test_verify_pin_checks_ens_names(workdir, capsys, old, new):
    write(workdir / "id.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "id.rep", "--ring", "n", "--n", "12",
                 "--out", "sys"]) == 0
    tamper(workdir / "sys.ens", old, new, workdir / "bad.ens")
    capsys.readouterr()
    assert main(["verify-pin", "--system", "bad.ens", "--cert", "sys.cert",
                 "--layout", "sys.layout", "--expected", "12", "--ring", "n",
                 "--witness", "12,12"]) == 2
    assert (".ens name of index 1 does not match the scaffold"
            in capsys.readouterr().err)


@pytest.mark.parametrize("ring, n", [("n", 41), ("z", 300)])
def test_verify_pin_neither_rebuilds_nor_compares_equations(
        workdir, capsys, monkeypatch, ring, n):
    # The scaffold check compares the canonical lines of the rows with the
    # rendered scaffold, so with assemble made to raise the bytes are the
    # same.
    write(workdir / "id.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "id.rep", "--ring", ring,
                 "--n", str(n), "--out", "sys"]) == 0
    witness = (n, n) if ring == "n" else master_witness((n, n), 2)
    argv = ["verify-pin", "--system", "sys.ens", "--cert", "sys.cert",
            "--layout", "sys.layout", "--expected", str(n), "--ring", ring,
            "--radius", "1", "--witness", ",".join(map(str, witness)),
            "--report", "pin.json"]
    results = []
    for patched in (False, True):
        if patched:
            def refuse(*args):
                raise AssertionError("verify-pin rebuilt the system")
            monkeypatch.setattr(pipeline, "assemble", refuse)
        capsys.readouterr()
        results.append((main(argv), capsys.readouterr().out,
                        (workdir / "pin.json").read_bytes()))
    assert results[0] == results[1]
    assert results[0][0] == 0 and results[0][1].endswith("PASS\n")


@pytest.mark.parametrize("ring", ["n", "z"])
def test_verify_pin_report_does_not_depend_on_equation_order(workdir, capsys,
                                                            ring):
    write(workdir / "id.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "id.rep", "--ring", ring,
                 "--n", "2000", "--out", "sys"]) == 0
    lines = (workdir / "sys.ens").read_text().splitlines(keepends=True)
    body = [line for line in lines if line.startswith(("ONE", "ADD", "MUL"))]
    head = lines[:len(lines) - len(body)]
    write(workdir / "rev.ens", "".join(head + body[::-1]))
    witness = (2000, 2000) if ring == "n" else master_witness((2000, 2000), 2)
    results = []
    for name in ("sys", "rev"):
        capsys.readouterr()
        code = main(["verify-pin", "--system", f"{name}.ens", "--cert",
                     "sys.cert", "--layout", "sys.layout", "--expected",
                     "2000", "--ring", ring, "--radius", "1", "--witness",
                     ",".join(map(str, witness)), "--report",
                     f"{name}.json"])
        results.append((code, capsys.readouterr().out,
                        (workdir / f"{name}.json").read_text()))
    assert results[0] == results[1]
    assert results[0][0] == 0


def test_python_dash_m_enkit(workdir):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "enkit", "--help"],
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: enkit ")

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


def test_verify_equiv_refuses_a_box_without_points(workdir, capsys):
    # Over N the box -3..-1 is empty, and an empty check proves nothing.
    assert main(["reduce", "x1 = 2", "--ring", "z", "--out", "c1"]) == 0
    capsys.readouterr()
    assert_exit_2(capsys, ["verify-equiv", "--equation", "x1 = 2",
                           "--system", "c1.ens", "--cert", "c1.cert",
                           "--ring", "n", "--box=-3..-1"],
                  "box holds no point in N")


@pytest.mark.parametrize("built, asked, old, new, message", [
    ("n", "z", None, None, "--ring z contradicts the certificate's mode "
                           "compact_N"),
    ("z", "n", None, None, "--ring n contradicts the certificate's mode "
                           "compact_Z"),
    ("z", "z", "ANCHOR q 6", "ANCHOR N 6 6 6",
     "bad ANCHOR line 'ANCHOR N 6 6 6'"),
    ("z", "z", "mode compact_Z", "mode full_N", "bad ANCHOR line 'ANCHOR q 6'"),
], ids=["ring-n-as-z", "ring-z-as-n", "anchor-tag", "mode"])
def test_verify_equiv_refuses_before_the_box(workdir, capsys, monkeypatch,
                                             built, asked, old, new, message):
    # Without these refusals each of these passes the box 0..3: it holds
    # no root of x1 - 5, so nothing reads the certificate.
    assert main(["reduce", "x1 - 5 = 0", "--ring", built, "--out", "c"]) == 0
    if old is not None:
        tamper(workdir / "c.cert", old, new, workdir / "c.cert")
    capsys.readouterr()

    def walk(*args, **kwargs):
        raise AssertionError("a box point was read")

    monkeypatch.setattr(oracle, "check_equivalence", walk)
    assert main(["verify-equiv", "--equation", "x1 - 5 = 0", "--system",
                 "c.ens", "--cert", "c.cert", "--ring", asked,
                 "--box=0..3", "--report", "r.json"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (workdir / "r.json").exists()


@pytest.mark.parametrize("ring, source, claim, old, new, box, failure", [
    ("z", "x1 - 5 = 0", "x1 - 5 = 0", "6 x1 - 5", "6 x1 - 4", "-3..3",
     "anchor x1 - 4 is not a multiple of D = x1 - 5"),
    ("n", "x1 - 2 = 0", "x1 - 3 = 0", None, None, "0..1",
     "anchor x1 - 2 is not a multiple of D = x1 - 3"),
    ("n", "x1 = 5", "x1 = 5", "2 0", "2 1", "0..4", "zero node x2 is 1, not 0"),
], ids=["anchor-def", "other-equation", "zero-node"])
def test_verify_equiv_checks_the_anchor_against_d(workdir, capsys, ring,
                                                  source, claim, old, new,
                                                  box, failure):
    # No box holds a root of the claim, so no point reads the anchor's
    # definitions: the anchor check alone fails each, and the box is still
    # walked in full.
    assert main(["reduce", source, "--ring", ring, "--out", "c"]) == 0
    if old is not None:
        tamper(workdir / "c.cert", f"\n{old}\n", f"\n{new}\n",
               workdir / "c.cert")
    capsys.readouterr()
    assert main(["verify-equiv", "--equation", claim, "--system", "c.ens",
                 "--cert", "c.cert", "--ring", ring, f"--box={box}",
                 "--report", "r.json"]) == 1
    assert capsys.readouterr().out == "roots 0 solutions 0 spurious 0\nFAIL\n"
    report = json.loads((workdir / "r.json").read_text())
    lo, hi = map(int, box.split(".."))
    assert report["failures"] == [failure]
    assert report["base_points"] == report["refuted_by_propagation"] == (
        hi - lo + 1)


@pytest.mark.parametrize("ring, mode", [("z", "full"), ("z", "halved"),
                                        ("z", "compact"), ("n", "full"),
                                        ("n", "compact")])
def test_verify_equiv_takes_any_multiple_of_d(workdir, capsys, ring, mode):
    # The anchor is D up to a nonzero factor: 2*D for full_Z, and up to
    # sign over N.
    assert main(["reduce", "x1 = 5", "--ring", ring, "--mode", mode,
                 "--out", "c"]) == 0
    for claim in ("x1 = 5", "5 = x1", "2*x1 = 10"):
        assert main(["verify-equiv", "--equation", claim, "--system",
                     "c.ens", "--cert", "c.cert", "--ring", ring,
                     "--box=0..6"]) == 0


@pytest.mark.parametrize("argv, message", [
    (["verify-equiv", "--equation", "x1 = x2", "--system", "c.ens", "--cert",
      "c.cert", "--ring", "z", "--box=-1..1,0..1,0..1", "--report", "r.json"],
     "box spec has 3 ranges, need 2"),
    (["verify-equiv", "--equation", "x1 = x2", "--system", "c.ens", "--cert",
      "c.cert", "--ring", "z", "--box=-1:1", "--report", "r.json"],
     "bad range '-1:1' (expected lo..hi)"),
    (["reduce", "x1 = 1", "--ring", "n", "--mode", "halved", "--out", "h"],
     "--mode halved is only defined over the integers"),
    (["info"], "info needs --rep or --equation"),
    (["info", "--equation", "x1 + x2 = x2 + x1"],
     "equation normalizes to 0 = 0"),
    (["verify-equiv", "--equation", "x1 = x2", "--system", "c.ens", "--cert",
      "c.cert", "--ring", "z", "--box=3..1", "--report", "r.json"],
     "empty interval [3, 1]"),
    (["reduce", "(x1 + 1 = 2", "--ring", "z", "--out", "p"],
     "expected ')' at offset 8"),
], ids=["box-ranges", "box-range", "halved-over-n", "info-input",
        "info-zero", "box-empty", "unclosed"])
def test_usage_errors_exit_2_and_write_nothing(workdir, capsys, argv,
                                               message):
    assert main(["reduce", "x1 = x2", "--ring", "z", "--out", "c"]) == 0
    capsys.readouterr()
    before = sorted(workdir.iterdir())
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize("n, step, digits", [
    (15001, "ADD", 4516),  # x_k = 2^(k - 1), up to 2^15000
    (16, "MUL", 4933),  # x_k = 2^(2^(k - 2)) for k >= 2, up to 2^16384
], ids=["doubling", "squaring"])
def test_solve_refuses_a_value_past_printing(workdir, capsys, n, step,
                                             digits):
    lines = ["ENSYS 1", f"n {n}", "ONE 1", "ADD 1 1 2"]
    lines += [f"{step} {k} {k} {k + 1}" for k in range(2, n)]
    write(workdir / "wide.ens", "\n".join(lines) + "\n")
    assert main(["solve", "--system", "wide.ens", "--ring", "n",
                 "--radius", "0"]) == 3
    assert capsys.readouterr() == ("", "error: solution value digit count "
                                   f"{digits} exceeds limit 4300\n")


def test_solve_output(workdir, capsys):
    assert main(["reduce", "--ring", "n", "x1*x2 = 6", "--out", "m"]) == 0
    assert main(["solve", "--system", "m.ens", "--ring", "n",
                 "--radius", "6"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("SOLUTION")]
    assert len(lines) == 4
    assert all(ln.split()[1:3] in (["1", "6"], ["2", "3"], ["3", "2"],
                                   ["6", "1"]) for ln in lines)


def test_solve_prints_an_empty_solution_without_a_trailing_space(
        workdir, capsys):
    write(workdir / "empty.ens", "ENSYS 1\nn 0\n")
    assert main(["solve", "--system", "empty.ens", "--ring", "z"]) == 0
    assert capsys.readouterr() == ("SOLUTION\ncount 1\n", "")


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


@pytest.mark.parametrize("text", ["ENSYS 1\nn 0\n", "ENSYS 1\nn 1\nONE 1\n"],
                         ids=["n0", "n1"])
def test_verify_pin_refuses_a_system_without_x2(workdir, capsys, text):
    # n = 0 used to end in an internal error (exit 4), and n = 1 in FAIL.
    write(workdir / "small.ens", text)
    n = text.split()[3]
    assert_exit_2(capsys, ["verify-pin", "--system", "small.ens",
                           "--expected", "0", "--ring", "n"],
                  f"pinning needs x1 and x2, but n = {n}")


@pytest.mark.parametrize("system, layout", [
    ("sys.ens", []), ("sys.ens", ["--layout", "sys.layout"]),
    ("conflict.ens", [])], ids=["bare", "layout", "conflict"])
def test_verify_pin_witness_needs_cert_before_any_search(
        workdir, capsys, monkeypatch, system, layout):
    write(workdir / "id.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "id.rep", "--ring", "n", "--n", "12",
                 "--out", "sys"]) == 0
    # Propagation conflicts on x1 = 1 and x1 + x1 = x1.
    write(workdir / "conflict.ens",
          serialize(EnSystem(2, [One(1), Add(1, 1, 1)])))

    def refuse(*args, **kwargs):
        raise AssertionError("verify-pin searched")

    monkeypatch.setattr(cli.oracle, "verify_pinning", refuse)
    pin = ["verify-pin", "--system", system, *layout, "--expected", "12",
           "--ring", "n"]
    capsys.readouterr()
    assert_exit_2(capsys, pin + ["--witness", "12,x"], "bad witness '12,x'")
    assert main(pin + ["--witness", "12,12"]) == 2
    assert capsys.readouterr() == (
        "", "error: witness checking needs --cert and --layout\n")


@pytest.mark.parametrize("ring, n", [("n", 20), ("z", 300)])
def test_verify_pin_flag_subsets_end_in_a_verdict_or_usage_error(
        workdir, capsys, ring, n):
    write(workdir / "c5.rep", "REP r=2\nx1 - 5\n")
    assert main(["fn-system", "--rep", "c5.rep", "--ring", ring,
                 "--n", str(n), "--out", "sys"]) == 0
    witness = master_witness((5, n), 2) if ring == "z" else (5, n)
    flags = [["--cert", "sys.cert"], ["--layout", "sys.layout"],
             ["--witness", ",".join(map(str, witness))]]
    for asked in ("n", "z"):
        for mask in range(8):
            argv = ["verify-pin", "--system", "sys.ens", "--expected", "5",
                    "--ring", asked, "--radius", "1"]
            for bit, flag in enumerate(flags):
                if mask >> bit & 1:
                    argv += flag
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, code, err)
            assert "internal error" not in err, (argv, err)


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


@pytest.mark.parametrize("equation, code", [("x1 = x2", 0),
                                            ("x1 = x2 + 1", 1)])
def test_verify_equiv_ignores_jobs(workdir, capsys, monkeypatch, equation,
                                   code):
    import concurrent.futures
    import concurrent.futures.process

    def refuse(*args, **kwargs):
        raise AssertionError("verification started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                        refuse)
    assert main(["reduce", "--ring", "z", "x1 = x2", "--out", "cz"]) == 0
    capsys.readouterr()
    seen = []
    for jobs in ("1", "4"):
        got = main(["verify-equiv", "--equation", equation, "--system",
                    "cz.ens", "--cert", "cz.cert", "--ring", "z",
                    "--box=-3..3", "--jobs", jobs, "--report", "eq.json"])
        seen.append((got, capsys.readouterr().out,
                     (workdir / "eq.json").read_bytes()))
    assert seen[0][0] == code
    assert seen[0] == seen[1]


def assert_exit_2(capsys, argv, *needles):
    assert main(argv) == 2
    captured = capsys.readouterr()
    error = captured.err.splitlines()[-1]
    assert captured.out == "" and error.startswith("error: "), captured
    for needle in needles:
        assert needle in error, error


@pytest.mark.parametrize("depth", [300, 10_000])
def test_deep_parentheses_exit_2(workdir, capsys, depth):
    nested = "(" * depth + "x1" + ")" * depth
    assert_exit_2(capsys, ["info", "--equation", f"{nested} = 1"],
                  "nested deeper than 100 at offset 100")
    write(workdir / "deep.rep", f"REP r=2\n{nested} - x2\n")
    assert_exit_2(capsys, ["info", "--rep", "deep.rep"],
                  "nested deeper than 100")


def test_deep_parentheses_in_a_subprocess(workdir):
    nested = "(" * 300 + "x1" + ")" * 300
    result = run_cli([], "info", "--equation", f"{nested} = 1")
    assert_input_error(result)
    assert "nested deeper than 100" in result.stderr


def test_integers_are_ascii_digits(workdir, capsys, monkeypatch):
    assert_exit_2(capsys, ["info", "--equation", "x\u0661 = \u0663"],
                  "'x\u0661'")
    assert main(["reduce", "--ring", "z", "x1 = x2", "--out", "cz"]) == 0
    capsys.readouterr()
    equiv = ["verify-equiv", "--equation", "x1 = x2", "--system", "cz.ens",
             "--ring", "z"]
    assert_exit_2(capsys, equiv + ["--cert", "cz.cert",
                                   "--box=\u0661..\u0663"],
                  "bad range '\u0661..\u0663'")
    assert_exit_2(capsys, equiv + ["--cert", "cz.cert", "--box=-1..+2"],
                  "bad range '-1..+2'")
    anchor = (workdir / "cz.cert").read_text().splitlines()[-1]
    for bad in ("ANCHOR ", "ANCHOR q +3"):
        tamper(workdir / "cz.cert", anchor, bad, workdir / "bad.cert")
        assert_exit_2(capsys, equiv + ["--cert", "bad.cert", "--box=-1..1"],
                      f"bad ANCHOR line {bad!r}")
    with pytest.raises(SystemExit) as err:
        main(equiv + ["--cert", "cz.cert", "--point-limit", "\u0661\u0660"])
    assert err.value.code == 2
    assert "invalid integer value" in capsys.readouterr().err
    monkeypatch.setenv("ENKIT_POINT_LIMIT", "1_0")
    assert_exit_2(capsys, equiv + ["--cert", "cz.cert"], "bad integer '1_0'")


def test_witness_values_are_ascii_digits(workdir, capsys):
    write(workdir / "id.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "id.rep", "--ring", "n", "--n", "12",
                 "--out", "sys"]) == 0
    capsys.readouterr()
    assert_exit_2(capsys, ["verify-pin", "--system", "sys.ens", "--cert",
                           "sys.cert", "--layout", "sys.layout", "--expected",
                           "12", "--ring", "n", "--witness", "12,\u0661\u0662"],
                  "bad witness '12,\u0661\u0662'")


@pytest.mark.parametrize("flags", [[], ["--cert", "sys.cert", "--layout",
                                        "sys.layout"]], ids=["bare", "cert"])
def test_empty_witness_is_malformed(workdir, capsys, flags):
    write(workdir / "id.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "id.rep", "--ring", "n", "--n", "12",
                 "--out", "sys"]) == 0
    capsys.readouterr()
    assert main(["verify-pin", "--system", "sys.ens", *flags, "--expected",
                 "12", "--ring", "n", "--witness="]) == 2
    assert capsys.readouterr() == ("", "error: bad witness ''\n")


def test_witness_length_is_checked_before_any_search(workdir, capsys,
                                                     monkeypatch):
    write(workdir / "id.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "id.rep", "--ring", "n", "--n", "12",
                 "--out", "sys"]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("verify-pin propagated or searched")

    # Every entry into propagation: a start, a resumed row, a derivation.
    monkeypatch.setattr(oracle._Propagator, "start", refuse)
    monkeypatch.setattr(oracle._Propagator, "resume", refuse)
    monkeypatch.setattr(oracle.Schedule, "derive", refuse)
    monkeypatch.setattr(oracle.Schedule, "from_row", refuse)
    monkeypatch.setattr(oracle, "_search", refuse)
    monkeypatch.setattr(oracle, "enumerate_roots", refuse)
    capsys.readouterr()
    assert main(["verify-pin", "--system", "sys.ens", "--cert", "sys.cert",
                 "--layout", "sys.layout", "--expected", "12", "--ring", "n",
                 "--witness=12"]) == 2
    assert capsys.readouterr() == (
        "", "error: base point of length 1 for p = 2\n")


def test_failed_commit_leaves_no_partial_outputs(workdir, capsys):
    # The last move fails: the target is a directory.
    (workdir / "c.cert").mkdir()
    assert_exit_2(capsys, ["reduce", "--ring", "z", "x1 = x2", "--out", "c"],
                  "c.cert")
    assert sorted(p.name for p in workdir.iterdir()) == ["c.cert"]
    (workdir / "c.cert").rmdir()
    # A temp file cannot be written: nothing is moved at all.
    (workdir / "c.cert.tmp").mkdir()
    assert_exit_2(capsys, ["reduce", "--ring", "z", "x1 = x2", "--out", "c"],
                  "c.cert.tmp")
    assert sorted(p.name for p in workdir.iterdir()) == ["c.cert.tmp"]
    (workdir / "c.cert.tmp").rmdir()
    # A target that was there before the call is not removed.
    write(workdir / "c.ens", "old\n")
    (workdir / "c.cert").mkdir()
    assert_exit_2(capsys, ["reduce", "--ring", "z", "x1 = x2", "--out", "c"])
    assert sorted(p.name for p in workdir.iterdir()) == ["c.cert", "c.ens"]


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


HUGE = 10**11


def run_cli_limited(*argv, address_space=10**9, timeout=None):
    """Run the CLI in a fresh interpreter whose address space is capped, so
    that building anything of a declared size 10^11 fails at once, and
    which is stopped after `timeout` seconds."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if not k.startswith("ENKIT_")}
    return subprocess.run([sys.executable, "-m", "enkit.cli", *argv],
                          capture_output=True, text=True, preexec_fn=limit,
                          env=dict(env, PYTHONPATH=path), timeout=timeout)


def test_declared_size_over_the_cap_exits_3(workdir, capsys):
    write(workdir / "huge.ens", f"ENSYS 1\nn {HUGE}\nONE 1\n")
    write(workdir / "huge.cert",
          f"CERT 1\nmode compact_Z\np 1\nn {HUGE}\nANCHOR q 1\n")
    write(workdir / "huge.layout", f"LAYOUT 1\nn {HUGE}\ns 5\nmode N\n")
    message = f"error: system variable count {HUGE} exceeds limit 1000000\n"
    for argv in (["verify-equiv", "--equation", "x1 = 1", "--system",
                  "huge.ens", "--cert", "huge.cert", "--ring", "z",
                  "--box=-1..1"],
                 ["verify-pin", "--system", "huge.ens", "--layout",
                  "huge.layout", "--expected", "1", "--ring", "n"]):
        result = run_cli_limited(*argv)
        assert (result.returncode, result.stdout, result.stderr) == \
            (3, "", message)
    # The reader builds nothing of the declared size beyond one numeral per
    # four characters of text, blank lines or not: 10^7 of them buy no
    # table for n = 2 * 10^7 or 3 * 10^7, and for the largest n they buy
    # one for, the table fits under the limit.  Each exits by count.
    largest = 2_500_006
    for padded in (3 * 10**7, 2 * 10**7, largest):
        text = f"ENSYS 1\nn {padded}\n" + "\n" * 10**7 + "ONE 1\n"
        assert (4 * padded <= len(text)) == (padded == largest)
        assert len(text) < 4 * (largest + 1)
        write(workdir / "padded.ens", text)
        result = run_cli_limited("solve", "--system", "padded.ens",
                                 "--ring", "n")
        assert (result.returncode, result.stdout, result.stderr) == \
            (3, "", f"error: system variable count {padded} exceeds limit "
                    "1000000\n")
    assert main(["solve", "--system", "huge.ens", "--ring", "n"]) == 3
    assert capsys.readouterr().err == message
    # the same limit as the constructions: flag or environment variable
    write(workdir / "small.ens", "ENSYS 1\nn 3\nADD 1 2 3\n")
    assert main(["solve", "--system", "small.ens", "--ring", "n",
                 "--radius", "0", "--cap", "2"]) == 3
    assert "system variable count 3 exceeds limit 2" in capsys.readouterr().err
    assert main(["solve", "--system", "small.ens", "--ring", "n",
                 "--radius", "0", "--cap", "3"]) == 0


def test_certificate_coverage_checked_without_sets(workdir):
    # Under the cap, a certificate with one definition for n = 10^11 is
    # refused by count, not by building the set of its indices.
    write(workdir / "huge.ens", f"ENSYS 1\nn {HUGE}\nONE 1\n")
    write(workdir / "huge.cert",
          f"CERT 1\nmode compact_Z\np 1\nn {HUGE}\nANCHOR q 1\n")
    result = run_cli_limited("verify-equiv", "--equation", "x1 = 1",
                             "--system", "huge.ens", "--cert", "huge.cert",
                             "--ring", "z", "--box=-1..1", "--cap", str(HUGE))
    assert_input_error(result)
    assert "certificate has no definition for index 2" in result.stderr


@pytest.mark.parametrize("value", [
    "nan", "inf", "1e400", "١", "-1", "+1", "1_0", ".5", "5.", "1.5.0", "",
    pytest.param("9" * 400 + ".0", id="400-digits")])
def test_time_budget_is_ascii_digits_and_finite(workdir, capsys,
                                                monkeypatch, value):
    write(workdir / "free.ens", "ENSYS 1\nn 3\nADD 1 2 3\n")
    solve = ["solve", "--system", "free.ens", "--ring", "n", "--radius", "2"]
    with pytest.raises(SystemExit) as err:
        main(solve + [f"--time-budget={value}"])
    assert err.value.code == 2
    assert "invalid seconds value" in capsys.readouterr().err
    if value:  # an empty variable means "unset"
        monkeypatch.setenv("ENKIT_TIME_BUDGET", value)
        assert_exit_2(capsys, solve, "seconds value")


@pytest.mark.parametrize("value, code", [("0", 3), ("0.0", 3), ("60", 0),
                                         ("2.5", 0)])
def test_time_budget_accepts_digits(workdir, capsys, monkeypatch, value,
                                    code):
    write(workdir / "free.ens", "ENSYS 1\nn 3\nADD 1 2 3\n")
    solve = ["solve", "--system", "free.ens", "--ring", "n", "--radius", "2"]
    assert main(solve + ["--time-budget", value]) == code
    monkeypatch.setenv("ENKIT_TIME_BUDGET", value)
    assert main(solve) == code


@pytest.mark.parametrize("built, asked", [("z", "n"), ("n", "z")])
def test_verify_pin_ring_must_match_the_layout_mode(workdir, capsys, built,
                                                    asked):
    write(workdir / "c5.rep", "REP r=2\nx1 - 5\n")
    n = 300 if built == "z" else 20
    assert main(["fn-system", "--rep", "c5.rep", "--ring", built,
                 "--n", str(n), "--out", "sys"]) == 0
    witness = master_witness((5, n), 2) if built == "z" else (5, n)
    pin = ["verify-pin", "--system", "sys.ens", "--cert", "sys.cert",
           "--layout", "sys.layout", "--expected", "5", "--radius", "1",
           "--witness", ",".join(map(str, witness))]
    capsys.readouterr()
    assert main(pin + ["--ring", built]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")
    mode = built.upper()
    assert_exit_2(capsys, pin + ["--ring", asked],
                  f"--ring {asked} contradicts the layout's mode {mode}")


def test_verify_pin_refuses_a_certificate_with_p_above_n(workdir, capsys):
    write(workdir / "id.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "id.rep", "--ring", "n", "--n", "12",
                 "--out", "sys"]) == 0
    write(workdir / "bad.cert",
          f"CERT 1\nmode compact_N\np {HUGE}\nn 3\nANCHOR N 3 1 2\n")
    capsys.readouterr()
    assert_exit_2(capsys, ["verify-pin", "--system", "sys.ens", "--cert",
                           "bad.cert", "--layout", "sys.layout",
                           "--expected", "12", "--ring", "n"],
                  f"certificate has p {HUGE}, more than its n 3")


def _refusal_inputs(workdir):
    write(workdir / "id.rep", IDENTITY_REP)
    write(workdir / "sq.rep", "REP r=2\nx1 - x2*x2\n")
    for rep, ring, n in (("id", "n", 12), ("sq", "n", 12), ("id", "z", 268)):
        assert main(["fn-system", "--rep", f"{rep}.rep", "--ring", ring,
                     "--n", str(n), "--out", f"{rep}{ring}"]) == 0
    write(workdir / "bad.ens", "ENSYS 1\nn 12\nBOGUS 1\n")
    write(workdir / "bad.cert", "CERT 1\nmode compact_N\np two\n")
    tamper(workdir / "idn.layout", "\nmode N\n", "\nmode Z\n",
           workdir / "z.layout")


@pytest.mark.parametrize("files, more, code, message", [
    (("bad", "idn", "missing"), [], 2, "line 3: unknown directive 'BOGUS'"),
    (("idn", "idn", "idn"), ["--cap", "11"], 3,
     "system variable count 12 exceeds limit 11"),
    (("idn", "bad", "idn"), [], 2, "certificate header has no 'n' line"),
    (("idn", "sqn", "idn"), [], 2,
     "certificate has n 4, the system has 3 variables"),
    (("idn", "idn", "z"), [], 2, "--ring n contradicts the layout's mode Z"),
    (("idz", "idz", "idz"), [], 2,
     "--ring n contradicts the layout's mode Z"),
], ids=["malformed-ens-missing-layout", "over-cap", "unparsable-cert",
        "cert-of-another-s", "layout-of-another-mode", "ring-contradicts"])
def test_verify_pin_refusals_around_rendered_pairs(workdir, capsys, files,
                                                   more, code, message):
    # The .ens, .cert and .layout named by prefix; the refusal, its
    # precedence and its exit code do not depend on how the pair is read.
    _refusal_inputs(workdir)
    ens, cert, layout = files
    capsys.readouterr()
    assert main(["verify-pin", "--system", f"{ens}.ens", "--cert",
                 f"{cert}.cert", "--layout", f"{layout}.layout",
                 "--expected", "12", "--ring", "n", *more]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The cyclic collector as the caller leaves it: enabled or disabled."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def raise_from_builder(monkeypatch, exc):
    """Make `reduce` fail inside its builder, noting the collector state."""
    seen = []

    def broken(*args, **kwargs):
        seen.append(gc.isenabled())
        raise exc

    monkeypatch.setattr(cli.reductions, "build_reduction", broken)
    return seen


@pytest.mark.parametrize("exc", [RuntimeError("boom"),
                                 RecursionError("too deep")])
def test_internal_error_exits_4_in_one_line(workdir, capsys, monkeypatch,
                                            exc):
    seen = raise_from_builder(monkeypatch, exc)
    assert main(["reduce", "--ring", "z", "x1 = x2", "--out", "r"]) == \
        cli.EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: internal error: {type(exc).__name__}: {exc}\n"
    assert seen == [False]  # the command runs with the collector paused
    assert not (workdir / "r.ens").exists()


def test_out_of_memory_is_a_resource_limit(workdir, capsys, monkeypatch):
    raise_from_builder(monkeypatch, MemoryError())
    assert main(["reduce", "--ring", "z", "x1 = x2", "--out", "r"]) == 3
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert not (workdir / "r.ens").exists()


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_interrupt_and_exit_pass_through(workdir, monkeypatch, exc):
    raise_from_builder(monkeypatch, exc)
    with pytest.raises(exc):
        main(["reduce", "--ring", "z", "x1 = x2", "--out", "r"])


REDUCE_Z = ["reduce", "--ring", "z", "x1 = x2", "--out", "cz"]
EXIT_CASES = {
    "0": (REDUCE_Z, 0),
    "1": (["verify-equiv", "--equation", "x1 = x2 + 1", "--system", "cz.ens",
           "--cert", "cz.cert", "--ring", "z", "--box=-3..3"], 1),
    "2": (["reduce", "--ring", "z", "x1 = ", "--out", "bad"], 2),
    "3": (["reduce", "--ring", "z", "--mode", "full", "x1^9*x2^9 = 5",
           "--out", "huge"], 3),
    "argparse": (["reduce", "--ring", "q", "x1 = x2"], "exit 2"),
    "4": (["reduce", "--ring", "n", "x1 = 1", "--out", "r"], 4),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_collector_state_restored_after_main(workdir, capsys, monkeypatch,
                                             collector, case):
    assert main(REDUCE_Z) == 0
    argv, expected = EXIT_CASES[case]
    if expected == 4:
        raise_from_builder(monkeypatch, RuntimeError("boom"))
    try:
        code = main(argv)
    except SystemExit as exit_:
        code = f"exit {exit_.code}"
    assert code == expected
    assert gc.isenabled() is collector


def _pin_inputs(workdir):
    write(workdir / "id.rep", IDENTITY_REP)
    assert main(["fn-system", "--rep", "id.rep", "--ring", "n", "--n", "12",
                 "--out", "pin"]) == 0


def _full_inputs(workdir):
    assert main(["reduce", "--ring", "z", "--mode", "full", "x1 = x2",
                 "--out", "full"]) == 0


def _solve_inputs(workdir):
    assert main(["reduce", "--ring", "n", "x1*x2 = 6", "--out", "m"]) == 0


EQUIV = ["verify-equiv", "--system", "full.ens", "--cert", "full.cert",
         "--ring", "z", "--box=-2..2", "--equation"]
COMMANDS = {
    "reduce-full": (None, ["reduce", "--ring", "z", "--mode", "full",
                           "x1*x2 = 1", "--out", "rf"], 0),
    "verify-equiv-pass": (_full_inputs, EQUIV + ["x1 = x2"], 0),
    "verify-equiv-fail": (_full_inputs, EQUIV + ["x1 = x2 + 1"], 1),
    "solve": (_solve_inputs, ["solve", "--system", "m.ens", "--ring", "n",
                              "--radius", "6"], 0),
    "fn-system": (None, ["fn-system", "--rep", "id.rep", "--ring", "n",
                         "--n", "12", "--out", "fn"], 0),
    "verify-pin": (_pin_inputs, ["verify-pin", "--system", "pin.ens",
                                 "--cert", "pin.cert", "--layout",
                                 "pin.layout", "--expected", "12", "--ring",
                                 "n", "--witness", "12,12"], 0),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_commands_leave_no_cyclic_garbage(workdir, capsys, command):
    # Pausing the collector for a whole command frees nothing later only
    # if the command makes no reference cycles.
    make_inputs, argv, code = COMMANDS[command]
    write(workdir / "id.rep", IDENTITY_REP)
    if make_inputs:
        make_inputs(workdir)
    assert main(argv) == code  # warm-up: the first call makes one-time objects
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == code
        assert gc.collect() == 0
    finally:
        (gc.enable if was else gc.disable)()


def _compact_inputs(workdir):
    for ring in ("z", "n"):
        assert main(["reduce", "--ring", ring, "x1^2 - x2 = 3",
                     "--out", f"c{ring}"]) == 0
    assert main(["reduce", "--ring", "z", "x1^2 = 4", "--out", "sq4"]) == 0


def _incomplete_inputs(workdir):
    # Neither schedule is complete, so the box check propagates: in inc,
    # x3 is reachable only by dividing x2 = x1^2 by x1; in sq, x2 * x2 = x1
    # leaves x2 to the search.
    write(workdir / "inc.ens",
          "ENSYS 1\nn 5\nMUL 1 1 2\nMUL 1 3 2\nONE 4\nADD 4 5 2\nADD 5 5 5\n")
    write(workdir / "inc.cert", "CERT 1\nmode compact_Z\np 1\nn 5\n"
          "2 x1^2\n3 x1\n4 1\n5 x1^2 - 1\nANCHOR q 5\n")
    write(workdir / "sq.ens", "ENSYS 1\nn 2\nMUL 2 2 1\n")
    write(workdir / "sq.cert",
          "CERT 1\nmode compact_Z\np 1\nn 2\n2 0\nANCHOR q 1\n")


def _tampered_inputs(workdir):
    _compact_inputs(workdir)
    tamper(workdir / "cz.cert", "\n3 x1^2\n", "\n3 x1^2 + 1\n",
           workdir / "bad.cert")


def _fn_inputs(workdir):
    write(workdir / "sq.rep", "REP r=2\nx1 - x2*x2\n")
    for rep, ring, n in (("id", "n", 12), ("sq", "n", 17), ("id", "z", 268)):
        assert main(["fn-system", "--rep", f"{rep}.rep", "--ring", ring,
                     "--n", str(n), "--out", f"{rep}{ring}{n}"]) == 0


def _pin(prefix, ring, expected, *more):
    return ["verify-pin", "--system", f"{prefix}.ens", "--cert",
            f"{prefix}.cert", "--layout", f"{prefix}.layout", "--expected",
            str(expected), "--ring", ring, *more]


def _equiv(equation, prefix, ring, box, cert=None):
    return ["verify-equiv", "--equation", equation, "--system",
            f"{prefix}.ens", "--cert", f"{cert or prefix}.cert", "--ring",
            ring, f"--box={box}"]


Z268_WITNESS = ",".join(map(str, master_witness((268, 268), 2)))
# name -> (inputs, argv, exit code)
REPORT_CASES = {
    "equiv-compact-z": (_compact_inputs,
                        _equiv("x1^2 - x2 = 3", "cz", "z", "-4..4"), 0),
    "equiv-compact-n": (_compact_inputs,
                        _equiv("x1^2 - x2 = 3", "cn", "n", "0..8"), 0),
    "equiv-full-z": (_full_inputs, _equiv("x1 = x2", "full", "z", "-2..2"),
                     0),
    "equiv-incomplete": (_incomplete_inputs,
                         _equiv("x1^2 = 1", "inc", "z", "-3..3"), 0),
    "equiv-stuck": (_incomplete_inputs, _equiv("x1 = 0", "sq", "z", "-4..4"),
                    1),
    "equiv-tampered-def": (_tampered_inputs, _equiv(
        "x1^2 - x2 = 3", "cz", "z", "-4..4", cert="bad"), 1),
    "pin-n-12": (_fn_inputs, _pin("idn12", "n", 12, "--witness", "12,12"),
                 0),
    "pin-n-17": (_fn_inputs, _pin("sqn17", "n", 289, "--witness", "289,17"),
                 0),
    "pin-z-268": (_fn_inputs, _pin("idz268", "z", 268, "--radius", "1",
                                   "--witness", Z268_WITNESS), 0),
    "pin-wrong-expected": (_fn_inputs, _pin("sqn17", "n", 288, "--witness",
                                            "289,17"), 1),
    "pin-bare-search": (_compact_inputs, [
        "verify-pin", "--system", "sq4.ens", "--expected", "2", "--ring",
        "z", "--radius", "3"], 1),
    "solve-compact-n": (_solve_inputs, ["solve", "--system", "m.ens",
                                        "--ring", "n", "--radius", "6"], 0),
    "solve-compact-z": (_compact_inputs, ["solve", "--system", "cz.ens",
                                          "--ring", "z", "--radius", "4"], 0),
}
# sha256 of each case's stdout followed by its --report JSON, if any
REPORT_DIGESTS = {
    "equiv-compact-n":
        "8bfd03e14fabfefed1766d18720d8b9a707c4633973cd9049d5113958bd95319",
    "equiv-compact-z":
        "0b3586808b9f4bf04c6ad81e82c2ccfcc8c0dd53214706b6f1f49b76ffe22bf0",
    "equiv-full-z":
        "a46c9a12b6519dd769d8bfcd3a82cc5068451090251f25449a41dd52ad2512f9",
    "equiv-incomplete":
        "5bf870a7e2140f0eb66497ee8b77173f68c36946406d44484a35cdc90dd6991a",
    "equiv-stuck":
        "7e157f35dee7cf380ebc6e177f86ff867470025cd24219a2e75f4941b39f875a",
    "equiv-tampered-def":
        "4f340e61b29b1ce976340c9c5d12e9dbdd337cb5d0a5cdc8505ac9ee0ea0b61c",
    "pin-bare-search":
        "23acc7e19ed578b159ebed8b5f8ef6ee1c3f3c90570bd1e7d129fa9af0c216ea",
    "pin-n-12":
        "dbf34fdd543f9a37288f0617b3a957941a83ea079acead76524e2d6bfc13f9a7",
    "pin-n-17":
        "c7ff5a8c86bd74a4109fef31fd56c74aff08477c9c758d28ff75fceb9ee38532",
    "pin-wrong-expected":
        "671007320c52e5b6c25bf421bdc7ab68905fcf793141be1ec1517516ea3cc227",
    "pin-z-268":
        "5e1cf53e2c430b810cabe8d33341acbdf9a79b44c29b182d659591f186d95915",
    "solve-compact-n":
        "d871c4d3ccbe832a685363113eb4c3f30d35476584e317f45c428b3ac86ff9cb",
    "solve-compact-z":
        "ead316610d50ef30a5660fa27a0bf508c9256a4f0cbde057df7406a1f18b2d76",
}


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_reports_byte_identical(workdir, capsys, monkeypatch, case):
    for name, _, _ in cli._DEFAULTS.values():
        monkeypatch.delenv(name, raising=False)
    make_inputs, argv, code = REPORT_CASES[case]
    write(workdir / "id.rep", IDENTITY_REP)
    make_inputs(workdir)
    capsys.readouterr()
    if argv[0] != "solve":
        argv = argv + ["--report", "report.json"]
    assert main(argv) == code
    text = capsys.readouterr().out
    if argv[0] != "solve":
        text += (workdir / "report.json").read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[case]
