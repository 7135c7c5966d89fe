"""The out-of-tree tracer in bench/tracing.py against the current program."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# `install()` rebinds classes and module globals for the whole interpreter,
# so the traced run gets a process of its own
CHILD = r"""
import contextlib, io, json, sys
import tracing
from plectic.cli import main

def verify():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["verify", sys.argv[1], "--precision", "20", "--suite", "tate",
                   "--floor", "10", "--format", "kv"])
    return rc, out.getvalue()

untraced = verify()
tracer = tracing.install(tracing.Tracer())
traced = verify()
json.dump({"untraced": untraced, "traced": traced,
           "stale": tracing.stale_aliases(tracer),
           "spans": tracer.spans, "counts": tracer.counts}, sys.stdout)
"""


def test_tracer_wraps_every_alias_and_leaves_the_report_alone():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "scenarios" / "t1-split.kv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["stale"] == []
    assert out["traced"] == out["untraced"]
    assert out["traced"][0] == 0
    # the counted scalar methods still exist and run ...
    assert all(n > 0 for n in out["counts"].values()), out["counts"]
    assert out["spans"]["tate.phi"][0] > 0
    # ... and no scalar-level helper became a span: this run makes ~10^4
    # scalar operations, a span each would swamp the trace
    busiest = max(out["spans"].items(), key=lambda kv: kv[1][0])
    assert busiest[1][0] < 1000, busiest
