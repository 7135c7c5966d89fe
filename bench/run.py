"""Benchmark of `plectic verify`: time, set-up, memory and certified digits.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all      # every workload, one after another

Closed loop: one client runs one fresh `plectic verify ... --format kv`
process at a time (bench/child.py), starting a sample only while it should
end within `--seconds`, with at least MIN_SAMPLES samples. `--seed` is
passed to verify as `--seed`.

Every sample is gated: exit status 0, every check `pass`, the same check
names as the expected report in bench/expected/, and the same report as
every other sample of the run. At the default seed the report must be
byte-identical to the expected file, which is what `plectic verify` printed
for the workload when the benchmark was defined.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
and traced samples (bench/tracing.py wraps the layers from outside), gates
that both print the same report and that no alias escaped the wrappers, and
prints the per-layer metrics. The last stdout line is one JSON object.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
DEFAULT_SEED = 0
MIN_SAMPLES = 2
SETUP_RUNS = 10  # extra set-up-only processes per run, for a steadier setup_s
RUN_LIMIT_S = 170  # a run must end within 180 s; no child may outlive this
# mean time of bench/child.py's CPU-speed probe at the reference speed; times
# are reported as seconds at that speed (see `at_ref_speed`)
REF_PROBE_S = 0.0002

# name -> (scenario, extra verify arguments); the notes live in BENCHMARK.json
# and bench/NOTES.md
WORKLOADS = {
    # default user path: all 8 suites at precision 40
    "t2-golden": ("scenarios/t2-split.kv", []),
    # scalar- and series-bound: precision 160; min_margin is 39 because Q_S
    # in t1-split.kv commits 39 digits, which caps the factorization margins
    "t1-deep": ("scenarios/t1-split.kv", ["--precision", "160"]),
    # r = 8: the suites that terminate at t = 3 (see the scenario's header)
    "t3-tower": ("bench/scenarios/t3-tower.kv", []),
}

SUITES = ("units", "tate", "grpalg", "symalg", "gz", "sign",
          "factorization", "algebraicity")

# per-layer metric -> (kind, trace key, unit); kinds read bench/tracing.py's
# summary: span calls / total / self seconds, counters, and work statistics
PER_LAYER = {}
for _suite in SUITES:
    PER_LAYER["runner.suite.%s.s" % _suite] = ("total", "runner.suite." + _suite, "s")
for _span in ("padic.plog", "padic.quad_teichmuller", "units.complete",
              "tate.phi", "tate.add", "grpalg.mul", "grpalg.involution"):
    PER_LAYER[_span + ".calls"] = ("calls", _span, "count")
    PER_LAYER[_span + ".self_s"] = ("self", _span, "s")
for _span in ("tate.coefficients", "symalg.collapse", "symalg.sqrt_ratio",
              "symalg.mul", "plectic_ops.det_map", "plectic_ops.norm_map",
              "plectic_ops.coords", "linalg.rank"):
    PER_LAYER[_span + ".self_s"] = ("self", _span, "s")
for _counter in ("padic.scalar_new", "padic.quad_mul", "padic.quad_inverse"):
    PER_LAYER[_counter + ".count"] = ("count", _counter, "count")
PER_LAYER["grpalg.mul.pairs"] = ("stat", "grpalg.mul.pairs", "count")
PER_LAYER["grpalg.mul.kept_ratio"] = ("kept_ratio", None, "ratio")
PER_LAYER["grpalg.max_terms"] = ("stat", "grpalg.max_terms", "count")
PER_LAYER["plectic_ops.det_map.terms"] = ("stat", "plectic_ops.det_map.terms",
                                          "count")
for _suite in SUITES:
    PER_LAYER["margin." + _suite] = ("margin", _suite, "digits")
PER_LAYER["trace.verify_s"] = ("traced_verify", None, "s")
PER_LAYER["trace.overhead"] = ("overhead", None, "x")
PER_LAYER["trace.startup_s"] = ("startup", None, "s")
PER_LAYER["trace.unaccounted_s"] = ("unaccounted", None, "s")


class GateError(Exception):
    """A sample whose output is not the known-correct answer."""


def parse_kv(text):
    """[(check name, passed, margin)] and the summary line of a kv report."""
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("summary="):
        raise GateError("report has no summary line")
    checks = []
    for line in lines[:-1]:
        name, rest = line.split("=", 1)
        verdict, margin = rest.split(" margin=")
        checks.append((name, verdict == "pass", int(margin)))
    return checks, lines[-1]


def spawn(argv, timeout):
    """Run bench/child.py once; returns (wall seconds, stdout, stats)."""
    cmd = [sys.executable, os.path.join(BENCH, "child.py")] + argv
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise GateError("verify did not finish within %.0f s" % timeout)
    wall = time.perf_counter() - start
    last = proc.stderr.rstrip("\n").rsplit("\n", 1)[-1]
    if not last.startswith("BENCH-STATS "):
        raise GateError("verify crashed (exit %d): %s"
                        % (proc.returncode, proc.stderr.strip()[-500:]))
    stats = json.loads(last[len("BENCH-STATS "):])
    stats["exit"] = proc.returncode
    return wall, proc.stdout, stats


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, seconds):
        scenario, extra = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.verify_args = (["verify", scenario, "--format", "kv",
                             "--seed", str(seed)] + extra)
        with open(os.path.join(BENCH, "expected", workload + ".kv"),
                  encoding="utf-8") as fh:
            self.expected = fh.read()
        self.expected_names = [c[0] for c in parse_kv(self.expected)[0]]
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.attempted = 0  # verify processes started, set-up runs included
        self.failed = 0
        self.unreported = 0  # full samples that printed no report
        self.report = None  # the kv text every sample must reproduce
        self.samples = []  # (wall, stats) of untraced full runs
        self.traced = []
        self.setups = []

    def timeout(self):
        left = RUN_LIMIT_S - (time.perf_counter() - self.start)
        if left <= 0:
            raise GateError("run time limit of %d s reached" % RUN_LIMIT_S)
        return left

    def more(self, n, least, durations):
        """Start another sample only if it should end before the deadline."""
        if n < least:
            return True
        typical = statistics.median(durations) if durations else 0.0
        return time.perf_counter() + typical <= self.deadline

    def sample(self, traced=False):
        """One full verify process, gated; failures are counted, not raised.

        A sample whose report is well formed is measured even when the gate
        fails, so the metrics show what went wrong (a lost digit, a failing
        check) next to `correct: false`.
        """
        self.attempted += 1
        try:
            wall, out, stats = spawn((["--trace"] if traced else [])
                                     + self.verify_args, self.timeout())
            stats["checks"] = parse_kv(out)[0]
        except (GateError, ValueError) as e:
            self.unreported += 1
            self.fail("sample %d" % self.attempted, e)
            return
        (self.traced if traced else self.samples).append((wall, stats))
        self.setups.append(at_ref_speed(stats["setup_s"], stats))
        try:
            self.gate(out, stats)
        except GateError as e:
            self.fail("sample %d" % self.attempted, e)

    def fail(self, what, error):
        self.failed += 1
        print("%s failed: %s" % (what, error), file=sys.stderr)

    def gate(self, out, stats):
        checks, summary = parse_kv(out)
        failing = ["%s (margin %d)" % (c[0], c[2]) for c in checks if not c[1]]
        if failing or not summary.startswith("summary=pass"):
            raise GateError("checks not passing: %s" % ", ".join(failing))
        if stats["exit"] != 0 or stats["rc"] != 0:
            raise GateError("verify exited %d" % stats["exit"])
        if [c[0] for c in checks] != self.expected_names:
            raise GateError("check names differ from bench/expected/%s.kv"
                            % self.workload)
        if self.seed == DEFAULT_SEED and out != self.expected:
            raise GateError("report differs from bench/expected/%s.kv"
                            % self.workload)
        if self.report is None:
            self.report = out
        elif out != self.report:
            raise GateError("report differs between samples of one run "
                            "(traced vs untraced, or not deterministic)")
        if stats.get("stale_aliases"):
            raise GateError("unwrapped aliases: %s"
                            % " ".join(stats["stale_aliases"]))

    def measure_setup(self):
        """Set-up only: verify with the one trivial suite, parse dominates."""
        args = self.verify_args + ["--suite", "sign"]
        for _ in range(SETUP_RUNS):
            self.attempted += 1
            try:
                _, _, stats = spawn(args, self.timeout())
            except GateError as e:
                self.fail("set-up run", e)
                continue
            if stats["exit"] != 0:
                self.fail("set-up run", "verify exited %d" % stats["exit"])
                continue
            self.setups.append(at_ref_speed(stats["setup_s"], stats))


def at_ref_speed(seconds, stats):
    """Seconds measured in one child, scaled to the reference CPU speed by
    the mean time of the probes that child ran before and during verify."""
    return seconds * REF_PROBE_S * stats["probe_n"] / stats["probe_total_s"]


def verify_time(wall, stats):
    """Spawn-to-exit seconds at the reference speed, less the probes."""
    return at_ref_speed(wall - stats["probe_total_s"], stats)


def end_to_end(run):
    walls = [verify_time(w, s) for w, s in run.samples]
    checks = [c for _, s in run.samples for c in s["checks"]]
    # a sample without a report counts as failing every expected check
    total = len(run.expected_names) * (len(run.samples) + run.unreported)
    passed = sum(c[1] for c in checks)
    return {
        "verify_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(run.setups), "s"),
        "peak_rss_mb": (statistics.median(s["maxrss_kb"] / 1024.0
                                          for _, s in run.samples), "MB"),
        "checks_pass_share": (passed / total if total else 0.0, "share"),
        "min_margin": (min(c[2] for c in checks), "digits"),
        "margin_total": (statistics.median(sum(c[2] for c in s["checks"])
                                           for _, s in run.samples), "digits"),
    }


def per_layer(run):
    traces = [s["trace"] for _, s in run.traced]
    untraced = statistics.median(verify_time(w, s) for w, s in run.samples)
    traced = statistics.median(verify_time(w, s) for w, s in run.traced)
    margins = {}
    for name, _, margin in run.samples[0][1]["checks"]:
        suite = name.split(".", 1)[0]
        margins[suite] = min(margins.get(suite, margin), margin)

    def med(fn):
        return statistics.median(fn(t) for t in traces)

    def span(t, key, idx):
        return t["spans"].get(key, [0, 0.0, 0.0])[idx]

    def suites_s(t):
        return sum(span(t, "runner.suite." + s, 1) for s in SUITES)

    # start-up and the remainder are unscaled, like the spans
    startup = statistics.median(w - s["inprocess_s"] for w, s in run.traced)
    out = {}
    for metric, (kind, key, unit) in PER_LAYER.items():
        if kind in ("calls", "total", "self"):
            idx = {"calls": 0, "total": 1, "self": 2}[kind]
            value = med(lambda t: span(t, key, idx))
        elif kind == "count":
            value = med(lambda t: t["counts"].get(key, 0))
        elif kind == "stat":
            value = med(lambda t: t["stats"].get(key, 0))
        elif kind == "kept_ratio":
            value = med(lambda t: t["stats"]["grpalg.mul.kept"]
                        / max(1, t["stats"]["grpalg.mul.pairs"]))
        elif kind == "margin":
            value = margins.get(key, 0)  # 0: the suite does not run here
        elif kind == "traced_verify":
            value = traced
        elif kind == "overhead":
            value = traced / untraced
        elif kind == "startup":
            value = startup
        else:  # unaccounted: traced wall minus start-up, set-up and suites
            # probes that fire inside a suite are already in its span
            value = statistics.median(
                w - s["setup_s"] - suites_s(s["trace"]) for w, s in run.traced
            ) - startup
        out[metric] = (value, unit)
    return out


def environment():
    lines = 0
    src = os.path.join(ROOT, "src", "plectic")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return "env: python=%s nproc=%d src_plectic_lines=%d" % (
        platform.python_version(), os.cpu_count() or 0, lines)


def run_workload(workload, seed, seconds, trace):
    run = Run(workload, seed, seconds)
    n = 0
    durations = []
    # a traced run measures pairs: untraced then traced, at least one pair
    while run.more(n, 1 if trace else MIN_SAMPLES, durations):
        start = time.perf_counter()
        run.sample()
        if trace:
            run.sample(traced=True)
        durations.append(time.perf_counter() - start)
        n += 1
    if not trace:
        run.measure_setup()
    correct = run.failed == 0
    if trace:
        metrics = per_layer(run) if run.samples and run.traced else {}
    else:
        metrics = end_to_end(run) if run.samples and run.setups else {}
    walls = sorted(w - s["probe_total_s"] for w, s in run.samples)
    print("workload=%s seed=%d samples=%d traced=%d setups=%d"
          % (workload, seed, len(run.samples), len(run.traced), len(run.setups)))
    if walls:
        # the highest percentile with at least ten samples beyond it
        top = int(100 * (1 - 10.0 / len(walls))) if len(walls) >= 20 else None
        print("unscaled verify wall s: n=%d median=%.4f min=%.4f max=%.4f %s"
              % (len(walls), statistics.median(walls), walls[0], walls[-1],
                 "(no percentile above the median has 10 samples beyond it)"
                 if top is None else
                 "p%d=%.4f" % (top, walls[len(walls) * top // 100])))
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, unit))
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [os.path.join(ROOT, "src", "plectic", "cli.py")]
    needed += [os.path.join(ROOT, s) for s, _ in WORKLOADS.values()]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print("error: not a plectic checkout, missing %s"
              % ", ".join(os.path.relpath(p, ROOT) for p in missing),
              file=sys.stderr)
        return 2

    print(environment())
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, args.trace)
               for w in names}
    result = results[names[0]] if len(names) == 1 else results
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
