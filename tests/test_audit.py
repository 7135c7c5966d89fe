"""The 2N digit audit: every reported digit confirmed by a run at twice the
precision.

Each golden scenario runs at N = 40 and at 2N = 80 with the same seed.  The
one draw that depends on the precision, `runner._random_unit`'s
randrange(p^prec), draws from p^N on both sides, so both runs compare the
same values.  `Report.add` is wrapped to record each check's compared pairs
and its reported margin m; every value at N must then agree with its value
at 2N to m digits.  A value whose digits change with the precision is
caught here even when its check compares equal at N.
"""

from pathlib import Path

import pytest

from plectic import runner, units
from plectic.padic import INF, QuadExtScalar
from plectic.runner import Report, run
from plectic.scenario import load_scenario

GOLDEN = Path(__file__).resolve().parent.parent / "scenarios"
EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected"
N = 40


class _Capped:
    """A random source whose randrange(n) draws from min(n, cap)."""

    def __init__(self, rng, cap):
        self._rng = rng
        self._cap = cap

    def randrange(self, n):
        return self._rng.randrange(min(n, self._cap))


def recorded_run(path, precision):
    """The run of the scenario at `path` at `precision`, with units drawn
    modulo p^N, and its checks as [(name, a bool or the pairs, margin)]."""
    records = []
    draw, add = runner._random_unit, Report.add

    def recording_add(report, name, verdict, note=""):
        if not isinstance(verdict, bool):
            verdict = list(verdict)
        add(report, name, verdict, note)
        records.append((name, verdict, report.checks[-1].margin))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(runner, "_random_unit",
                  lambda rng, u: draw(_Capped(rng, u.p ** N), u))
        m.setattr(Report, "add", recording_add)
        report = run(load_scenario(path, precision))
    return report, records


def unconfirmed(low, high):
    """(name, digits, margin) of each check whose values at N agree with
    those at 2N to fewer digits than the margin the N run reports."""
    assert [(name, v if isinstance(v, bool) else len(v)) for name, v, _ in low] \
        == [(name, v if isinstance(v, bool) else len(v)) for name, v, _ in high]
    out = []
    for (name, pairs, margin), (_, wide, _) in zip(low, high):
        if isinstance(pairs, bool):
            continue
        digits = min((min(a.agreement(a2), b.agreement(b2))
                      for (a, b), (a2, b2) in zip(pairs, wide)), default=INF)
        if digits < margin:
            out.append((name, digits, margin))
    return out


@pytest.mark.parametrize("name", ["t1-split.kv", "t2-split.kv", "t3-split.kv"])
def test_every_reported_digit_holds_at_twice_the_precision(name):
    path = GOLDEN / name
    report, low = recorded_run(path, N)
    _, high = recorded_run(path, 2 * N)
    assert report.ok and len(low) == len(report.checks)
    assert sum(len(v) for _, v, _ in low if not isinstance(v, bool)) > 100
    assert unconfirmed(low, high) == []


def test_a_mutant_the_report_cannot_see_fails_the_audit(monkeypatch):
    # log scaled by 1 + p^(prec - 3) is still a homomorphism, so every check
    # at N holds with the same margin, but the digits from prec - 3 on
    # change with the precision
    plog = units.plog

    def mutant(u):
        scale = QuadExtScalar.from_parts(1 + u.p ** (u.prec - 3), 0, u.p, INF)
        return plog(u) * scale

    monkeypatch.setattr(units, "plog", mutant)
    path = GOLDEN / "t2-split.kv"
    report, low = recorded_run(path, N)
    assert report.render_kv() == (EXPECTED / "t2-golden.kv").read_text()
    _, high = recorded_run(path, 2 * N)
    assert unconfirmed(low, high) == [("units.homomorphism", 38, 40),
                                      ("units.sigma_involution", 38, 40)]
