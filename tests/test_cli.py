"""Runner reports and the command-line interface."""

import contextlib
import io
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from plectic import grpalg, plectic_ops as po, runner, scenario
from plectic.cli import main
from plectic.errors import ValidationError
from plectic.padic import PadicScalar
from plectic.runner import run
from plectic.scenario import MAX_P, SUITES, load_scenario, parse_scenario
from plectic.tate import CurvePoint
from plectic.units import UnitCompletion

GOLDEN = Path(__file__).resolve().parent.parent / "scenarios"
T1 = str(GOLDEN / "t1-split.kv")
T2 = str(GOLDEN / "t2-split.kv")

FAST = ("grpalg", "symalg", "gz", "sign")


def test_run_fast_suites_pass_on_golden():
    sc = load_scenario(GOLDEN / "t1-split.kv")
    report = run(sc, suites=FAST, floor=30)
    assert report.ok
    assert all(c.margin >= 30 for c in report.checks)


def test_margins_clamp_to_the_working_precision(monkeypatch):
    def probe(sc, report, rng):
        beyond = PadicScalar.one(sc.p, sc.precision + 7)
        pole = PadicScalar(sc.p, -5, 1, sc.precision)
        point = CurvePoint(pole, pole)
        report.add("probe.exact", [])  # no pair can disagree: INF
        report.add("probe.beyond", [(beyond, beyond)])
        report.add("probe.pole", [(pole, PadicScalar.zero(sc.p))])  # -5
        report.add("probe.diverged", [(point, CurvePoint.infinity())])  # -INF
        report.add("probe.true", True)
        report.add("probe.false", False)

    sc = load_scenario(GOLDEN / "t1-split.kv")
    monkeypatch.setitem(runner.SUITE_FUNCS, "sign", probe)
    kv = run(sc, suites=("sign",), floor=30).render_kv()
    assert kv == ("probe.exact=pass margin=%d\n"
                  "probe.beyond=pass margin=%d\n"
                  "probe.pole=fail margin=-1\n"
                  "probe.diverged=fail margin=-1\n"
                  "probe.true=pass margin=%d\n"
                  "probe.false=fail margin=-1\n"
                  "summary=fail checks=6\n"
                  % (sc.precision, sc.precision, sc.precision))


def test_a_diverged_check_reports_minus_one(tmp_path, capsys):
    # Q_S = p^-300 puts the gz leading terms 260 digits below the floor
    text = (GOLDEN / "t2-split.kv").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("Q_S ")]
    bad = tmp_path / "pole.kv"
    bad.write_text("\n".join(lines + ["Q_S = 1e-300"]) + "\n")
    assert main(["verify", str(bad), "--suite", "gz", "--format", "kv"]) == 1
    assert capsys.readouterr().out == ("gz.leading_term=fail margin=-1\n"
                                       "summary=fail checks=1\n")


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
    # units.minus_generator reports 39 digits at precision 40
    sc = load_scenario(GOLDEN / "t1-split.kv")
    assert run(sc, suites=("units",), floor=39).ok
    assert not run(sc, suites=("units",), floor=40).ok


def test_run_refuses_a_floor_above_the_precision():
    # margins are capped at the precision, so no check could pass
    sc = load_scenario(GOLDEN / "t1-split.kv")
    with pytest.raises(ValidationError, match="^floor 41 exceeds the working "
                       "precision 40$"):
        run(sc, suites=("gz",), floor=41)


def test_run_refuses_a_negative_floor():
    # a diverged check reports margin -1, which a floor of -1 would pass
    text = (GOLDEN / "t2-split.kv").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("Q_S ")]
    sc = parse_scenario("\n".join(lines + ["Q_S = 1e-300"]))
    with pytest.raises(ValidationError, match="^floor -1 is negative$"):
        run(sc, suites=("gz",), floor=-1)


def test_t1_tate_and_units_at_640_digits_match_the_pinned_report(capsys):
    # tests/data/t1-split-640-tate.kv is the report of the Lambert-series
    # uniformization and the one-digit-a-pass Teichmuller lift, at seed 0
    pinned = Path(__file__).resolve().parent / "data" / "t1-split-640-tate.kv"
    assert main(["verify", T1, "--precision", "640", "--suite", "tate", "--suite",
                 "units", "--format", "kv", "--seed", "0"]) == 0
    assert capsys.readouterr().out == pinned.read_text()


def test_the_vanishing_scenario_matches_the_pinned_report(capsys):
    # eps = -1 forces Q_S = 0, and u_eta.1 in Q_p makes prod Q_eta zero to
    # 38 digits: Q_S = root * prod Q_eta holds for any root to those 38
    vanishing = str(GOLDEN / "t2-vanishing.kv")
    pinned = Path(__file__).resolve().parent / "data" / "t2-vanishing.kv"
    assert main(["verify", vanishing, "--format", "kv", "--seed", "0"]) == 0
    assert capsys.readouterr().out == pinned.read_text()
    assert main(["verify", vanishing, "--suite", "factorization",
                 "--suite", "algebraicity"]) == 0
    note = "(vacuous: Q_S and prod Q_eta vanish to 38 digits)"
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[0] for ln in lines if ln.endswith(note)] == \
        ["factorization.sqrt", "algebraicity.plectic_point"]


@pytest.mark.parametrize("line,failed", [
    # a nonzero invariant contradicts eps = -1, and prod Q_eta is zero
    ("Q_S = 1e0", ["sign.consistency", "factorization.identity",
                   "algebraicity.identity"]),
    # Q_S = 0 with every Q_eta nonzero breaks the nonvanishing equivalence
    ("u_eta.1 = 1e0 + 1e1 w", ["factorization.identity"]),
])
def test_leaving_the_vanishing_side_exits_one(tmp_path, capsys, line, failed):
    key = line.split("=")[0]
    text = "".join(ln + "\n" for ln in
                   (GOLDEN / "t2-vanishing.kv").read_text().splitlines()
                   if not ln.startswith(key))
    scenario = tmp_path / "edited.kv"
    scenario.write_text(text + line + "\n")
    assert main(["verify", str(scenario), "--suite", "sign", "--suite",
                 "factorization", "--suite", "algebraicity",
                 "--format", "kv"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [ln.split("=")[0] for ln in out if "=fail" in ln] == failed + ["summary"]


def test_cli_human_report_lists_the_kv_checks_in_order(capsys):
    args = ["verify", T1, "--suite", "gz", "--suite", "sign"]
    assert main(args + ["--format", "kv"]) == 0
    kv = capsys.readouterr().out.splitlines()[:-1]
    assert main(args) == 0  # --format human is the default
    human = capsys.readouterr().out.splitlines()
    assert human[0] == "scenario t1-split (floor 30 digits)"
    assert len(human) == len(kv) + 2
    for line, check in zip(human[1:-1], kv):
        head, margin = check.split(" margin=")
        name, verdict = head.split("=")
        assert line.split()[:3] == [name, verdict.upper(), "margin=" + margin]
    assert human[-2].endswith("  (consistent)")
    assert human[-2].split()[0] == "sign.consistency"
    assert re.fullmatch(r"%d/%d checks passed in \d+\.\d\ds" % (len(kv), len(kv)),
                        human[-1])


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
    assert capsys.readouterr().out.splitlines() == [
        "sign.consistency=fail margin=-1", "summary=fail checks=1"]
    assert main(["verify", str(bad)]) == 1
    assert "  (inconsistent: nonzero invariant with eps*eps_S*(-1)^r = -1)\n" \
        in capsys.readouterr().out


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
    ("tau", "x; 1"),  # the twists are fixed by t: an unknown key
    ("char_table", "1 1; 1 -1"),  # so is the table, even the canonical one
    ("trunc_degree", "0"),  # the group shape is fixed by t: an unknown key
    ("trunc_degree", "1"),
    ("trunc_degree", "100"),
    ("free_rank", "100"),
    ("u_eta.1", "1e0 +- 1e1 w"),  # one sign, not a run of them
    ("precison", "12"),  # a misspelt key is not silently ignored
    ("k_eta.3", "1"),  # r = 2: no third unit to normalize
    # an int key is ASCII decimal: int() would read the next three as 40
    ("precision", "4_0"),
    ("precision", "\u0664\u0660"),  # Arabic-Indic digits
    ("precision", "\uff14\uff10"),  # fullwidth digits
    ("eps", "1.0"),
    ("seed", "0x28"),
    ("seed", "++1"),
])
def test_cli_exit_two_on_malformed_values(tmp_path, capsys, key, value):
    text = (GOLDEN / "t1-split.kv").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith(key + " ")]
    bad = tmp_path / "bad.kv"
    bad.write_text("\n".join(lines + ["%s = %s" % (key, value)]) + "\n")
    assert main(["verify", str(bad), "--suite", "sign"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag", ["--precision", "--seed", "--floor"])
@pytest.mark.parametrize("value", [
    "4_0", "\u0664\u0660", "\uff14\uff10",  # int() reads each as 40
    "1.0", "0x28", "++1", "", "9" * 5000, "1_" * 2500])
def test_cli_int_flags_follow_the_int_key_grammar(capsys, flag, value):
    # an int flag is read as an int key is: a bad value is a usage error,
    # exit 2 with no traceback, its line quoting the value as a key's does
    with pytest.raises(SystemExit) as exc:
        main(["verify", T1, "--suite", "sign", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument %s" % flag in err and "Traceback" not in err
    assert len(err.splitlines()[-1].encode()) < 200


LONG_KEY = "x" * 5000


@pytest.mark.parametrize("lines", [
    ["Q_S = %se0" % ("1" * 5000)],  # one 5000-digit digit group: digit >= p
    ["Q_S = 1.%sx" % ("1" * 5000)],  # a bad p-adic literal
    ["u_eta.1 = 1e0 %s1e1 w" % ("+ " * 2500)],  # a bad extension literal
    ["C_chi = 1.%s" % ("5" * 5000)],  # not a rational
    ["seed = %s" % ("1_" * 2500)],  # not an ASCII decimal int
    ["seed = %s" % ("9" * 5000)],  # past int()'s limit on the digits it reads
    ["%s = 1" % LONG_KEY],  # an unknown key
    ["%s = 1" % LONG_KEY] * 2,  # a duplicate key
    ["suites = units %s" % LONG_KEY],  # an unknown suite
], ids=["digit", "padic", "quad", "rational", "int", "int-limit",
        "unknown-key", "duplicate-key", "unknown-suite"])
def test_cli_error_lines_quote_a_bounded_part_of_the_value(tmp_path, capsys,
                                                          lines):
    keys = {line.split(" = ")[0] for line in lines}
    text = (GOLDEN / "t1-split.kv").read_text()
    kept = [ln for ln in text.splitlines() if ln.split(" = ")[0] not in keys]
    bad = tmp_path / "bad.kv"
    bad.write_text("\n".join(kept + lines) + "\n")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'..." in err
    assert len(err.encode()) < 200


def test_verify_parses_once_through_the_one_argument_parse_scenario(
        monkeypatch, capsys):
    # bench/child.py times the set-up by swapping in a one-argument
    # `parse_scenario`: `--precision` must reach it in the text
    texts = []
    parse = scenario.parse_scenario

    def recorder(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(scenario, "parse_scenario", recorder)
    assert main(["verify", T1, "--suite", "sign", "--precision", "60"]) == 0
    assert len(texts) == 1 and parse(texts[0]).precision == 60
    capsys.readouterr()


@pytest.mark.parametrize("key", ["precisions", "precision_digits"])
def test_cli_precision_override_keeps_keys_that_only_start_with_precision(
        tmp_path, capsys, key):
    # --precision replaces the `precision` key alone; a misspelt key next
    # to it is still an unusable input
    bad = tmp_path / "bad.kv"
    bad.write_text((GOLDEN / "t1-split.kv").read_text() + "%s = 12\n" % key)
    assert main(["verify", str(bad), "--suite", "sign",
                 "--precision", "40"]) == 2
    assert capsys.readouterr().err == "error: unknown key %r\n" % key


@pytest.mark.parametrize("flag", [[], ["--precision", "12"]])
@pytest.mark.parametrize("line", ["precision", "precision = 20\nprecision = 30"],
                         ids=["no-equals", "repeated"])
def test_cli_precision_override_keeps_the_line_grammar(tmp_path, capsys, flag,
                                                       line):
    # the override applies after the line grammar: a `precision` line with
    # no `=`, or a repeated key, is unusable with the flag as without it
    bad = tmp_path / "bad.kv"
    bad.write_text((GOLDEN / "t1-split.kv").read_text() + line + "\n")
    assert main(["verify", str(bad), "--suite", "sign", "--floor", "10"]
                + flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line ")


@pytest.mark.parametrize("target", ["missing/dir/x.kv", "."])
def test_cli_exit_two_on_an_unwritable_report(tmp_path, capsys, target):
    # the report file is written before stdout, so a failed write prints
    # nothing but the error
    assert main(["verify", T1, "--suite", "sign", "--format", "kv",
                 "--report", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_exit_two_on_a_scenario_that_is_not_utf8(tmp_path, capsys):
    binary = tmp_path / "binary.kv"
    binary.write_bytes(b"tate_period = 1e1\nname = \xff\n")
    assert main(["verify", str(binary), "--suite", "sign"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 'utf-8' codec")


def test_cli_exit_two_on_a_negative_floor(tmp_path, capsys):
    # a diverged check reports margin -1, which a floor of -1 would pass
    text = (GOLDEN / "t2-split.kv").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("Q_S ")]
    bad = tmp_path / "pole.kv"
    bad.write_text("\n".join(lines + ["Q_S = 1e-300"]) + "\n")
    assert main(["verify", str(bad), "--suite", "gz", "--format", "kv",
                 "--floor", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: floor -1 is negative\n"


@pytest.mark.parametrize("extra", [["--precision", "20"], ["--floor", "50"],
                                   ["--floor", "41"]])
def test_cli_exit_two_on_floor_above_precision(capsys, extra):
    assert main(["verify", T1, "--suite", "sign"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the working precision" in captured.err


@pytest.mark.parametrize("key,value,error", [
    ("reduction_sign", "0", "reduction_sign must be +1 or -1"),
    ("eps", "2", "eps must be +1 or -1"),
])
def test_cli_exit_two_on_a_sign_other_than_plus_or_minus_one(
        tmp_path, capsys, key, value, error):
    # the scenario validates both signs with its other keys
    text = (GOLDEN / "t1-split.kv").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith(key + " ")]
    bad = tmp_path / "bad.kv"
    bad.write_text("\n".join(lines + ["%s = %s" % (key, value)]) + "\n")
    assert main(["verify", str(bad), "--suite", "sign"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % error


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


@pytest.mark.parametrize("base", ["t1-split.kv", "t2-split.kv"])
@pytest.mark.parametrize("floor", ["0", "5"])
def test_sqrt_rejects_holds_at_the_minimum_precision(capsys, base, floor):
    # the certification floor comes from the precision: at 0 a tensor off
    # by a unit passed, and so the check failed
    assert main(["verify", str(GOLDEN / base), "--suite", "symalg", "--precision", "10",
                 "--floor", floor, "--format", "kv"]) == 0
    assert "symalg.sqrt_rejects=pass margin=10\n" in capsys.readouterr().out


def test_cli_seed_reproducibility(capsys):
    main(["verify", T1, "--suite", "symalg", "--seed", "3", "--format", "kv"])
    first = capsys.readouterr().out
    main(["verify", T1, "--suite", "symalg", "--seed", "3", "--format", "kv"])
    assert capsys.readouterr().out == first


def _verify_in_child(args):
    """`plectic verify` in a child process, so that a hang fails the test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(GOLDEN.parent / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "plectic.cli", "verify"] + args,
                          env=env, capture_output=True, text=True, timeout=60)


def test_cli_exit_two_on_precision_above_the_cap():
    # p^precision would hang the first scalar constructor; the cap stops
    # the run at validation
    proc = _verify_in_child([T1, "--suite", "sign", "--precision", "1000000000"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: precision must be between")


def test_cli_exit_two_on_a_period_that_vanishes_at_the_working_precision(tmp_path):
    scenario = tmp_path / "q-zero.kv"
    scenario.write_text(
        Path(T1).read_text().replace("tate_period = 1e1", "tate_period = 1e40"))
    proc = _verify_in_child([str(scenario)])
    assert proc.returncode == 2
    assert proc.stderr == "error: tate_period is zero to the working precision 40\n"
    assert proc.stdout == ""


def test_t3_split_passes_every_suite():
    # r = 8 end to end: all eight suites, including grpalg and algebraicity
    proc = _verify_in_child([str(GOLDEN / "t3-split.kv"), "--format", "kv"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("summary=pass checks=29\n")


IOTA_CHECKS = ("grpalg.involution", "grpalg.diagram_sign", "gz.leading_term")


def _iota_failures(sc, seed=None):
    report = run(sc, suites=("grpalg", "gz"), floor=30, seed=seed)
    return {c.name for c in report.checks if c.name in IOTA_CHECKS
            and not c.passed}


_DUAL_KEY = grpalg.GroupAlgebraElem._dual_key

MUTANTS = {
    # t^k -> t^k (1+t)^(-k): no (-1)^k
    "sign": ("_dual_row", lambda k, n: grpalg._binomials(-k, n)),
    # C(k, m) in place of C(-k, m)
    "row": ("_dual_row", lambda k, n: [b if k % 2 == 0 else -b
                                       for b in grpalg._binomials(k, n)]),
    # the involution's factors without the negation on Q
    "q_negation": ("_dual_key", lambda self, key, images: (
        key[0], _DUAL_KEY(self, key, images)[1])),
}

IOTA_MUTANTS = [
    ("sign", {"grpalg.involution", "grpalg.diagram_sign"}),
    ("row", {"grpalg.involution"}),
    ("q_negation", {"grpalg.diagram_sign"}),
]


def _assert_mutant_caught(monkeypatch, path, seeds, mutant, caught):
    sc = load_scenario(path)
    if mutant == "q_negation":
        # on Q = (Z/2)^t negation is the identity, so this mutant is the
        # involution itself there; it shows once Q has an element of order 3
        shape = sc.shape
        sc.shape = grpalg.GroupShape((3,) + shape.divisors, shape.s,
                                     shape.degree, shape.p, shape.prec)
    assert [_iota_failures(sc, seed) for seed in seeds] == [set()] * len(seeds)
    attr, fn = MUTANTS[mutant]
    monkeypatch.setattr(grpalg if attr == "_dual_row"
                        else grpalg.GroupAlgebraElem, attr, fn)
    assert [_iota_failures(sc, seed) for seed in seeds] == [caught] * len(seeds)
    if mutant == "q_negation":
        assert _iota_failures(load_scenario(path)) == set()


@pytest.mark.parametrize("mutant,caught", IOTA_MUTANTS)
def test_an_involution_mutant_fails_a_check(monkeypatch, mutant, caught):
    # the checks read the involution only to the degree they compare, and
    # still see each of its three parts break; r is even in every scenario,
    # so gz.leading_term alone cannot see the sign
    _assert_mutant_caught(monkeypatch, T2, [None], mutant, caught)


@pytest.mark.parametrize("mutant,caught", IOTA_MUTANTS)
def test_an_involution_mutant_fails_a_check_on_t3_at_every_seed(
        monkeypatch, mutant, caught):
    # at s = 8 the diagram-sign draws still compare non-empty pieces, so
    # each mutant is caught at every seed
    _assert_mutant_caught(monkeypatch, str(GOLDEN / "t3-split.kv"), range(11),
                          mutant, caught)


def _failed(report):
    return {c.name for c in report.checks if not c.passed}


def test_a_sigma_mutant_fails_eigenspace_ranks(monkeypatch):
    # sigma as the identity is an involution of trace 3, not 1
    sc = load_scenario(T2)
    assert "units.eigenspace_ranks" not in _failed(run(sc, suites=("units",)))
    monkeypatch.setattr(UnitCompletion, "sigma", lambda self, c: c)
    assert "units.eigenspace_ranks" in _failed(run(sc, suites=("units",)))


def test_a_mu_mutant_fails_mu_injective(monkeypatch):
    # a mu that reads the first factor twice sends e_i (x) e_j and
    # e_i (x) e_k to one monomial
    sc = load_scenario(T2)
    assert run(sc, suites=("symalg",)).ok
    mu = runner.mu
    monkeypatch.setattr(runner, "mu", lambda ranks, terms: mu(
        ranks, [(c, [vecs[0], vecs[0]]) for c, vecs in terms]))
    assert "symalg.mu_injective" in _failed(run(sc, suites=("symalg",)))


def test_a_char_table_det_mutant_fails_norm_det(monkeypatch):
    # C_G with its sign flipped is no longer det H
    sc = load_scenario(T2)
    assert run(sc, suites=("algebraicity",)).ok
    c_g = po.char_table_det
    monkeypatch.setattr(po, "char_table_det", lambda t: -c_g(t))
    assert _failed(run(sc, suites=("algebraicity",))) == {"algebraicity.norm_det"}


def test_t3_grpalg_and_gz_fit_a_forty_thousand_step_work_limit(monkeypatch):
    # the largest expansion at seed 0, iota(xy) and iota(x) iota(y) to
    # degree 18, forms 10,252 monomials
    monkeypatch.setattr(grpalg, "WORK_LIMIT", 40_000)
    report = run(load_scenario(str(GOLDEN / "t3-split.kv")),
                 suites=("grpalg", "gz"), floor=30, seed=0)
    assert report.ok and len(report.checks) == 5


def test_cli_exit_two_past_the_grpalg_work_limit(monkeypatch, capsys):
    # the product x*y, 16 pairs of 4 * 11 factor entries each (704), is
    # refused before it runs
    monkeypatch.setattr(grpalg, "WORK_LIMIT", 641)
    assert main(["verify", T2, "--suite", "grpalg"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: .* work limit\n", captured.err)
    assert "Traceback" not in captured.err


def test_cli_exit_two_on_a_prime_past_the_cap(tmp_path):
    # trial division to sqrt(p) ~ 1e9 would take minutes; 2^31 - 1 is used
    scenario = tmp_path / "huge-p.kv"
    scenario.write_text("p = 1000000000000000003\ntate_period = 1e1\n")
    proc = _verify_in_child([str(scenario), "--suite", "sign"])
    assert proc.returncode == 2
    assert proc.stderr == "error: p must be a prime between 5 and %d\n" % MAX_P
    scenario.write_text("p = %d\ntate_period = 1e1\n" % (2 ** 31 - 1))
    proc = _verify_in_child([str(scenario), "--suite", "sign"])
    assert proc.returncode == 0, proc.stderr


def test_a_single_factor_scenario_finishes(tmp_path):
    # t = 0 has free rank 1, so no exponent of sum 3 or 4 exists; the
    # diagram-sign check used to draw for one forever
    scenario = tmp_path / "t0.kv"
    scenario.write_text("t = 0\ntate_period = 1e1\n")
    proc = _verify_in_child([str(scenario), "--format", "kv"])
    assert proc.returncode == 0, proc.stderr
    assert "grpalg.diagram_sign=pass" in proc.stdout
    assert proc.stdout.endswith("summary=pass checks=22\n")


def test_cli_exit_two_on_family_suites_without_a_family(tmp_path, capsys):
    bare = tmp_path / "bare.kv"
    bare.write_text("tate_period = 1e1\n")
    assert main(["verify", str(bare), "--suite", "factorization"]) == 2
    assert capsys.readouterr().err.startswith("error: factorization/algebraicity need")


@pytest.mark.parametrize("seed", [7, 11, 41])
def test_tate_homomorphism_passes_near_the_origin(capsys, seed):
    # at these seeds phi(uv) lands at v(x) = -4; the affine on-curve
    # equation certified only 26 digits there
    rc = main(["verify", T2, "--suite", "tate", "--seed", str(seed),
               "--format", "kv"])
    out = capsys.readouterr().out
    assert "tate.homomorphism=pass" in out
    assert rc == 0



STEPS = ["algebraicity.char_det=pass margin=40",
         "algebraicity.norm_det=pass margin=40",
         "algebraicity.plectic_point=pass margin=40"]


@pytest.mark.parametrize("line,checks", [
    ("C_chi = 2", ["factorization.square=fail margin=-1",
                   "factorization.sqrt=fail margin=0",
                   "factorization.c_chi_square=fail margin=-1"] + STEPS),
    ("u_eta.2 = 1.1e0 + 2.0.0.1e1 w", ["factorization.square=fail margin=1",
                                       "factorization.sqrt=fail margin=3",
                                       "factorization.c_chi_square=pass margin=40"]
     + STEPS),
    ("u_eta.1 = 1e0 + 1e39 w", ["factorization.square=fail margin=-1",
                                "factorization.sqrt=fail margin=-1",
                                "factorization.c_chi_square=pass margin=40"]
     + STEPS[:2] + ["algebraicity.plectic_point=fail margin=4"]),
    ("Q_S = 0e0", ["factorization.identity=fail margin=-1"] + STEPS),
])
def test_a_failing_identity_reports_its_margins(tmp_path, capsys, line, checks):
    # the report alone applies the floor, so a failing identity prints its
    # own checks; only Q_S = 0, which has no margin, prints an identity line
    key = line.split("=")[0]
    text = "".join(ln + "\n" for ln in Path(T2).read_text().splitlines()
                   if not ln.startswith(key))
    scenario = tmp_path / "failing.kv"
    scenario.write_text(text + line + "\n")
    assert main(["verify", str(scenario), "--suite", "factorization",
                 "--suite", "algebraicity", "--format", "kv"]) == 1
    assert capsys.readouterr().out == "".join(ln + "\n" for ln in checks) \
        + "summary=fail checks=%d\n" % len(checks)


# a fuzz example takes well under a second; one past this limit hangs
EXAMPLE_LIMIT_S = 5


class ExampleHung(BaseException):
    """An example past EXAMPLE_LIMIT_S.  Not an Exception, so neither
    `main`'s error handling nor hypothesis's shrinking (which would rerun
    the hang) catches it: the test fails at once and names the example."""


@contextlib.contextmanager
def wall_clock_limit(example):
    def expire(signum, frame):
        raise ExampleHung("ran past %d s: %s" % (EXAMPLE_LIMIT_S, example))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, EXAMPLE_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


_FUZZ_KEYS = ("name", "p", "t", "reduction_sign", "eps", "seed", "tate_period",
              "char_table", "tau", "u_eta.1", "u_eta.2", "u_eta.3", "k_eta.1",
              "k_eta.2", "C_chi", "Q_S", "suites", "free_rank", "trunc_degree",
              "precison")
_FUZZ_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["7", "1009", "2147483647", "x", "1/0", "-2/3", "1e1",
                     "2.1e0", "3e-1", "0e0", "1e0 + 1e1 w", "1e1 w",
                     "1 1; 1 -1", "1 0; 0 1", "0; 1", "01; 10", "sign gz",
                     "grpalg units", "algebraicity"]),
    st.text("0123456789.e-+w/; ", min_size=1, max_size=12)
    .map(str.strip).filter(bool))


@settings(max_examples=60, deadline=None)
@example(base="t1-split.kv", edits=[("p", "2147483647")], precision=10)
# past int()'s 4300 digits: a valuation, then one digit group
@example(base="t1-split.kv", edits=[("Q_S", "1e" + "9" * 5000)], precision=10)
@example(base="t1-split.kv", edits=[("Q_S", "1" * 5000 + "e0")], precision=10)
# 40,000 digits, a 10^80000 denominator and a valuation past the bound,
# which took seconds to parse
@example(base="t1-split.kv", edits=[("Q_S", ".".join(["1"] * 40000) + "e0")],
         precision=10)
@example(base="t1-split.kv", edits=[("C_chi", "1e-80000")], precision=10)
@example(base="t1-split.kv", edits=[("Q_S", "1e-4000000")], precision=10)
# a C_chi whose value is 1 behind 5000 zeros, and a digit outside ASCII
@example(base="t1-split.kv", edits=[("C_chi", "0" * 5000 + "1")], precision=10)
@example(base="t1-split.kv", edits=[("Q_S", "\u0660\u0660\u0663e0")],
         precision=10)
@given(base=st.sampled_from(["t1-split.kv", "t2-split.kv"]),
       edits=st.lists(st.tuples(st.sampled_from(_FUZZ_KEYS),
                                st.none() | _FUZZ_VALUES),
                      min_size=1, max_size=3, unique_by=lambda kv: kv[0]),
       precision=st.integers(10, 20))
def test_the_exit_code_contract_holds_under_mutated_scenarios(
        tmp_path_factory, base, edits, precision):
    # each edit sets a key (None deletes it); the run exits 0, 1 or 2, and
    # every error reaches the user as `error: ...`, never as a traceback
    keys = {key for key, _ in edits}
    lines = [ln for ln in (GOLDEN / base).read_text().splitlines()
             if ln.split("=")[0].strip() not in keys]
    lines += ["%s = %s" % kv for kv in edits if kv[1] is not None]
    scenario = tmp_path_factory.mktemp("fuzz") / "mutated.kv"
    scenario.write_text("\n".join(lines) + "\n")
    argv = ["verify", str(scenario), "--precision", str(precision),
            "--floor", "10", "--format", "kv"]
    out, err = io.StringIO(), io.StringIO()
    with wall_clock_limit((argv, lines)), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
    else:
        assert out.getvalue().endswith("checks=%d\n" % out.getvalue().count(
            " margin="))


@settings(max_examples=60, deadline=None)
@given(base=st.sampled_from(["t1-split.kv", "t2-split.kv"]),
       precision=st.integers(10, 20),
       seed=st.none() | st.integers(-5, 2 ** 40),
       suites=st.lists(st.sampled_from(SUITES), unique=True, max_size=3),
       report=st.sampled_from([None, "file", "directory", "missing"]),
       data=st.data())
def test_the_exit_code_contract_holds_under_drawn_flags(
        tmp_path_factory, base, precision, seed, suites, report, data):
    # the flags, not the scenario, vary: the run exits 0, 1 or 2, an error
    # reaches the user as `error: ...` alone, and a report file written
    # holds what stdout shows
    floor = data.draw(st.integers(-2, precision + 2), label="floor")
    argv = ["verify", str(GOLDEN / base), "--precision", str(precision),
            "--floor", str(floor), "--format", "kv"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    for name in suites:
        argv += ["--suite", name]
    tmp = tmp_path_factory.mktemp("flags")
    path = {None: None, "file": tmp / "report.kv", "directory": tmp,
            "missing": tmp / "missing" / "report.kv"}[report]
    if path is not None:
        argv += ["--report", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with wall_clock_limit(argv), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
    else:
        assert out.getvalue().endswith("checks=%d\n" % out.getvalue().count(
            " margin="))
        assert report in (None, "file")
        if path is not None:
            assert path.read_text() == out.getvalue()
