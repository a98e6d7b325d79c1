"""One rep of one workload in a fresh interpreter.

    python perfbench/worker.py WORKLOAD SEED OUT_FILE [TRACE_DIR]

Runs the workload's job list once, in order, and appends one JSON line per job
to OUT_FILE as it finishes ({"job", "ok", "s", "tags", "rc"}), after a first line
with the plan ({"jobs": N}) and before a last line with the totals
({"wall_s", "start", "end", "trace"}; start and end are
``time.perf_counter()`` readings, comparable with the runner's on Linux).  A job
that raises stops the rep: the traceback goes to stderr and the runner counts
every unfinished job as failed.  With TRACE_DIR the calls into each layer are
recorded (tracer.py) and written there at the end.

For cli_session the jobs are ``python -m cuspquot.cli`` subprocesses; the
environment variable CUSPQUOT_CACHE_DIR names the fresh result cache.
"""

from __future__ import annotations

import json
import os
import sys
import time

import workloads


def _summed(summaries: list[dict]) -> dict:
    """Add up per-process trace summaries (one per traced CLI child)."""
    out = {"functions": {}, "counters": {}, "covered_s": 0.0, "spans": 0, "missing": {}}
    for s in summaries:
        for name, (calls, self_s) in s["functions"].items():
            acc = out["functions"].setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, value in s["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + value
        out["covered_s"] += s["covered_s"]
        out["spans"] += s["spans"]
        out["missing"].update(s["missing"])
    return out


def main(argv: list[str]) -> int:
    if not __debug__:
        print("run without -O: the engine's contract asserts must stay live", file=sys.stderr)
        return 2
    workload, seed, out_path = argv[0], int(argv[1]), argv[2]
    trace_dir = argv[3] if len(argv) > 3 else None
    is_cli = workload == "cli_session"

    tracer = None
    if trace_dir and not is_cli:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    elif not is_cli:
        import cuspquot  # noqa: F401 - same import state as the traced run
        import cuspquot.cli  # noqa: F401

    jobs = workloads.build(workload, seed, trace_dir if is_cli else None)

    with open(out_path, "a", encoding="utf-8") as out:
        def emit(obj: dict) -> None:
            out.write(json.dumps(obj) + "\n")
            out.flush()

        emit({"jobs": len(jobs)})
        start = time.perf_counter()
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            t0 = time.perf_counter()
            value = job.run()
            ok = bool(job.check(value))
            emit({"job": job.name, "ok": ok, "s": time.perf_counter() - t0, "tags": job.tags,
                  "rc": getattr(value, "returncode", None)})
        wall = time.perf_counter() - start

        summary = None
        if tracer is not None:
            summary = tracer.write(os.path.join(trace_dir, "worker"))
        elif trace_dir and is_cli:
            children = sorted(f for f in os.listdir(trace_dir) if f.endswith(".json"))
            loaded = []
            for name in children:
                with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                    loaded.append(json.load(fh))
            summary = _summed(loaded)
        emit({"wall_s": wall, "start": start, "end": start + wall, "trace": summary})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
