"""The benchmark's tracer still finds every layer function it wraps.

A traced benchmark run drops the metrics of a listed name that no longer
resolves, and of a counter hook that raises; either leaves the run without
its per-layer figures.  This runs the tracer over a rank-4 series in a fresh
interpreter and reads perfbench/ without changing it.
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


@pytest.mark.skipif(
    not os.path.exists(os.path.join(PERFBENCH, "tracer.py")), reason="no perfbench/tracer.py"
)
def test_tracer_wraps_every_layer_name_and_no_hook_fails():
    path = os.pathsep.join([PERFBENCH, os.path.join(ROOT, "src")])
    # no bytecode is written, so perfbench/ stays as it is
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", TRACED_SERIES], capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"wrapped": 31, "missing": {}}
