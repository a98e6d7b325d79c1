"""The benchmark's tracer still finds every layer function it wraps.

A traced benchmark run drops the metrics of a listed name that no longer
resolves, and of a counter hook that raises; either leaves the run without
its per-layer figures.  These tests run the tracer over a rank-4 series, over
every job of the in-process workloads and over two traced CLI commands, each
in a fresh interpreter, and read perfbench/ without changing it.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

TRACED_SERIES = """
import json
import tracer
t = tracer.Tracer()
t.install()
from cuspquot import series
series.hilb_numerator(4, 2)
series.quot_numerator(4, 3)
print(json.dumps({"wrapped": len(t.names), "missing": t.missing}))
"""


TRACED_WORKLOADS = """
import json
import time
import run
import tracer
import workloads
t = tracer.Tracer()
t.install()
failed = []
start = time.perf_counter()
for w in ("rank4_prime", "symbolic_chain", "oracle_audit"):
    for job in workloads.build(w, 1):
        if not job.check(job.run()):
            failed.append(w + ": " + job.name)
wall = time.perf_counter() - start
metrics, missing = run.layer_metrics({"trace": t.summary(), "wall_raw_s": wall, "jobs": []})
print(json.dumps({"failed": failed, "metrics": sorted(metrics), "missing": missing}))
"""

needs_perfbench = pytest.mark.skipif(
    not os.path.exists(os.path.join(PERFBENCH, "tracer.py")), reason="no perfbench/tracer.py"
)


def _run_traced(args: list[str]) -> subprocess.CompletedProcess:
    path = os.pathsep.join([PERFBENCH, os.path.join(ROOT, "src")])
    # no bytecode is written, so perfbench/ stays as it is
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


@needs_perfbench
def test_tracer_wraps_every_layer_name_and_no_hook_fails():
    done = _run_traced(["-c", TRACED_SERIES])
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"wrapped": 31, "missing": {}}


@needs_perfbench
def test_traced_workloads_pass_their_checks_and_report_every_layer_metric():
    done = _run_traced(["-c", TRACED_WORKLOADS])
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["failed"] == [] and report["missing"] == {}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    # the CLI latencies and the overhead ratio come from untraced and CLI reps only
    expected = {n for n in declared if not n.startswith("cli.") and n != "trace.overhead_ratio"}
    assert expected <= set(report["metrics"])


@needs_perfbench
@pytest.mark.parametrize("argv", [["series", "--d", "4", "--prime", "2"],
                                  ["conjecture", "--max-d", "6"]])
def test_traced_cli_command_exits_cleanly_with_nothing_missing(tmp_path, argv):
    prefix = str(tmp_path / "cli")
    done = _run_traced([os.path.join(PERFBENCH, "cli_traced.py"), prefix, "0", *argv])
    assert done.returncode == 0, done.stderr
    with open(prefix + ".json", encoding="utf-8") as fh:
        assert json.load(fh)["missing"] == {}
