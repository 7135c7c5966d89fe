"""One benchmark sample: `plectic verify` in this fresh process.

Usage: python3 bench/child.py [--trace] verify <scenario> [verify options]

Runs the real command-line entry point, `plectic.cli.main`, on the given
arguments, with `src/` of this checkout on the import path. The report goes
to stdout exactly as the command prints it. The last line on stderr is
`BENCH-STATS <json>` with the exit status, the seconds spent in
`parse_scenario` (the set-up), the count and total time of the CPU-speed
probes, this process's own peak RSS, its in-process wall time and, with `--trace`, the per-layer trace and the list of wrapped
names that still reach an unwrapped function.
"""

import json
import os
import resource
import signal
import sys
import time

START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

PROBE_EVERY_S = 0.05
PRE_PROBES = 10
MODULUS = 5 ** 40


class _Cell:
    __slots__ = ("value", "key")

    def __init__(self, value, key):
        self.value = value
        self.key = key


def probe():
    """Time a fixed piece of pure-Python work: ~40-digit modular arithmetic,
    small tuples, `__slots__` objects and dict updates, the mix plectic runs.

    CPU speed on a shared VM can change by 2x from minute to minute. The
    mean probe time over a sample tracks it (see bench/NOTES.md), so the
    benchmark divides it out of the times it reports.
    """
    x, table = 123456789, {}
    start = time.perf_counter()
    for i in range(200):
        x = (x * x + i) % MODULUS
        cell = _Cell(x, (i & 15, i & 3))
        table[cell.key] = table.get(cell.key, 0) + cell.value
    return time.perf_counter() - start


def main(argv):
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    import plectic.cli
    import plectic.scenario

    stats = {}
    if traced:
        import tracing  # bench/ is on the path as the script's directory

        tracer = tracing.install(tracing.Tracer())
        stats["stale_aliases"] = tracing.stale_aliases(tracer)

    # cli.main imports parse_scenario from its module at call time
    parse = plectic.scenario.parse_scenario
    setup = []

    def timed_parse(text):
        start = time.perf_counter()
        try:
            return parse(text)
        finally:
            setup.append(time.perf_counter() - start)

    plectic.scenario.parse_scenario = timed_parse
    # probe before verify (enough for a set-up-only run) and every
    # PROBE_EVERY_S during it; the handler runs between bytecodes
    probes = [probe() for _ in range(PRE_PROBES)]
    signal.signal(signal.SIGALRM, lambda signum, frame: probes.append(probe()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        rc = plectic.cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    sys.stdout.flush()
    stats.update(rc=rc, setup_s=sum(setup), probe_n=len(probes),
                 probe_total_s=sum(probes),
                 maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 inprocess_s=time.perf_counter() - START)
    if traced:
        stats["trace"] = tracer.summary()
    sys.stderr.write("BENCH-STATS %s\n" % json.dumps(stats))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
