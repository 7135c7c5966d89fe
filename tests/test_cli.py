"""Runner reports and the command-line interface."""

from pathlib import Path

import pytest

from plectic import runner
from plectic.cli import main
from plectic.padic import INF
from plectic.runner import run
from plectic.scenario import load_scenario, parse_scenario

GOLDEN = Path(__file__).resolve().parent.parent / "scenarios"
T1 = str(GOLDEN / "t1-split.kv")

FAST = ("grpalg", "symalg", "gz", "sign")


def test_run_fast_suites_pass_on_golden():
    sc = load_scenario(GOLDEN / "t1-split.kv")
    report = run(sc, suites=FAST, floor=30)
    assert report.ok
    assert all(c.margin >= 30 for c in report.checks)


def test_margins_clamp_to_the_working_precision(monkeypatch):
    def probe(sc, report, rng):
        report.add("probe.exact", INF)
        report.add("probe.beyond", sc.precision + 7)
        report.add("probe.diverged", -INF)

    sc = load_scenario(GOLDEN / "t1-split.kv")
    monkeypatch.setitem(runner.SUITE_FUNCS, "sign", probe)
    kv = run(sc, suites=("sign",), floor=30).render_kv()
    assert kv == ("probe.exact=pass margin=%d\n"
                  "probe.beyond=pass margin=%d\n"
                  "probe.diverged=fail margin=-1\n"
                  "summary=fail checks=3\n" % (sc.precision, sc.precision))


def test_kv_report_format_and_determinism():
    sc = load_scenario(GOLDEN / "t1-split.kv")
    first = run(sc, suites=FAST, floor=30, seed=7).render_kv()
    second = run(sc, suites=FAST, floor=30, seed=7).render_kv()
    assert first == second
    lines = first.strip().splitlines()
    assert lines[-1].startswith("summary=pass checks=")
    for line in lines[:-1]:
        head, margin = line.split(" margin=")
        name, verdict = head.split("=")
        assert verdict == "pass"
        int(margin)


def test_sign_suite_fails_loudly_on_contradiction():
    sc = parse_scenario(
        "tate_period = 1e1\neps = -1\nQ_S = 1e0\nsuites = sign\n")
    report = run(sc, floor=30)
    assert not report.ok
    assert "fail" in report.render_kv()


def test_floor_moves_the_verdict():
    sc = load_scenario(GOLDEN / "t1-split.kv")
    report = run(sc, suites=("gz",), floor=10 ** 5)
    assert not report.ok


def test_cli_passes_on_golden(capsys):
    rc = main(["verify", T1, "--suite", "gz", "--suite", "sign",
               "--format", "kv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.endswith("summary=pass checks=2\n")


def test_cli_exit_one_on_failure(tmp_path, capsys):
    bad = tmp_path / "bad.kv"
    bad.write_text("tate_period = 1e1\neps = -1\nQ_S = 1e0\nsuites = sign\n")
    assert main(["verify", str(bad), "--format", "kv"]) == 1
    assert "sign.consistency=fail" in capsys.readouterr().out


def test_cli_exit_two_on_errors(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "missing.kv")]) == 2
    broken = tmp_path / "broken.kv"
    broken.write_text("tate_period = oops\n")
    assert main(["verify", str(broken)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key,value", [
    ("p", "abc"),
    ("t", "x"),
    ("k_eta.1", "1/0"),
    ("tate_period", "1e5"),  # valuation 5 is divisible by p = 5
    ("tau", "x; 1"),
    ("trunc_degree", "0"),
])
def test_cli_exit_two_on_malformed_values(tmp_path, capsys, key, value):
    text = (GOLDEN / "t1-split.kv").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith(key + " ")]
    bad = tmp_path / "bad.kv"
    bad.write_text("\n".join(lines + ["%s = %s" % (key, value)]) + "\n")
    assert main(["verify", str(bad), "--suite", "sign"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("extra", [["--precision", "20"], ["--floor", "50"]])
def test_cli_exit_two_on_floor_above_precision(capsys, extra):
    assert main(["verify", T1, "--suite", "sign"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the working precision" in captured.err


def test_cli_report_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "report.kv"
    rc = main(["verify", T1, "--suite", "sign", "--format", "kv",
               "--report", str(out_path)])
    assert rc == 0
    assert out_path.read_text() == capsys.readouterr().out


def test_cli_precision_override(tmp_path, capsys):
    rc = main(["verify", T1, "--suite", "gz", "--precision", "30",
               "--format", "kv"])
    out = capsys.readouterr().out
    assert rc == 0
    # margins are capped by the working precision
    margin = int(out.splitlines()[0].split("margin=")[1])
    assert margin <= 30


def test_cli_seed_reproducibility(capsys):
    main(["verify", T1, "--suite", "symalg", "--seed", "3", "--format", "kv"])
    first = capsys.readouterr().out
    main(["verify", T1, "--suite", "symalg", "--seed", "3", "--format", "kv"])
    assert capsys.readouterr().out == first
