"""Cold-process benchmark for cuspquot.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/cuspquot``).  Each
rep of a workload runs its whole job list in a fresh interpreter with cold
in-process caches (worker.py), one rep at a time: a closed loop with one client
on a 2-core machine.  Reps repeat until another would pass S seconds; figures
are medians over reps.  ``--workload all`` runs every workload in turn.

With ``--trace 0`` the last line reports the end-to-end metrics: wall_s,
cpu_s, peak_rss_mib and setup_s, the times in seconds at a reference host
speed (see "host speed" below).  With ``--trace 1`` untraced and traced reps
alternate, and the last line reports the per-layer metrics from the traced
reps, the CLI latencies from the untraced ones and trace.overhead_ratio.
Every job's output is checked; the command exits 1 if any check fails or any
job raises, and 2 when it cannot run at all.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_SPAWNS = 15  # at least this many set-up samples a run
SETUP_PER_ROUND = 3
RUN_LIMIT_S = 150  # no rep starts that could end past this; a run must end within 180 s
CAL_REF_S = 45e-6
CAL_EVERY_S = 0.05
SETUP_CODE = "import cuspquot, cuspquot.cli\nimport time\nprint(time.perf_counter())"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
CLI_SUBCOMMANDS = ("series", "motive", "verify", "conjecture")
CLI_PASSES = ("cold", "warm")
# counters whose value is computed from call arguments, not measured
COMPUTED = sorted(k for k, v in tracer.COUNTERS.items() if v == "computed")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for layer, entries in tracer.LAYERS.items():
        for entry in entries:
            units[f"{layer}.{entry}.calls"] = "count"
            units[f"{layer}.{entry}.self_s"] = "s"
    for layer in (*tracer.LAYERS, "cli"):
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update({
        "qalgebra.mul_term_pairs": "count",
        "strata.orbits": "count",
        "varieties.patterns_distinct": "count",
        "varieties.count_cache_hit_ratio": "ratio",
        "varieties.points_enumerated_computed": "count",
        "groebner.divide_zero_remainder_ratio": "ratio",
        "oracles.stratum_candidates": "count",
        "oracles.stratum_accept_ratio": "ratio",
        "cli.cold_pass_s": "s",
        "cli.warm_pass_s": "s",
        "cli.p50_s": "s",
        "cli.p75_s": "s",
    })
    for sub in CLI_SUBCOMMANDS:
        for pass_name in CLI_PASSES:
            units[f"cli.{sub}_s.{pass_name}"] = "s"
    units.update({
        "cli.cache_lines_written": "count",
        "cli.nonzero_exits": "count",
        "trace.spans": "count",
        "trace.unattributed_share": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# processes


def child_env(root: str) -> dict:
    # plain python with its bytecode cache in the checkout, no result cache
    drop = ("PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX",
            "CUSPQUOT_CACHE_DIR")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# host speed
#
# The host slows each vCPU in episodes lasting seconds to minutes (README).
# The runner and everything it starts share one vCPU, and while a worker runs
# the runner times a fixed calibration loop on that vCPU every CAL_EVERY_S.
# Each stretch of a measured interval is rescaled by CAL_REF_S / (loop time
# then): times are reported in seconds at the reference speed, at which the
# loop takes CAL_REF_S (its fast-period time on a shared 2-vCPU Intel Xeon VM
# under Python 3.11.7).


def calibrate() -> float:
    """Seconds for a fixed dict-and-integer loop, best of two."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        d: dict[int, int] = {}
        for k in range(400):
            d[k & 31] = d.get(k & 31, 0) + k * k
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedLog:
    """Calibration samples (time, loop seconds) taken during one rep."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        self.samples.append((time.perf_counter(), calibrate()))

    def reference_seconds(self, start: float, end: float) -> float:
        """The interval [start, end] in seconds at the reference speed; each
        sample holds from its time to the next (the first also before it)."""
        total = 0.0
        n = len(self.samples)
        for i, (t, loop_s) in enumerate(self.samples):
            lo = t if i else float("-inf")
            hi = self.samples[i + 1][0] if i + 1 < n else float("inf")
            overlap = min(hi, end) - max(lo, start)
            if overlap > 0:
                total += overlap * CAL_REF_S / loop_s
        return total


def setup_sample(root: str, env: dict) -> tuple[float, float]:
    """Seconds from spawn until ``import cuspquot, cuspquot.cli`` returns, raw
    and at the reference speed (calibrated just before and after)."""
    before = calibrate()
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=root,
                          capture_output=True, check=True, timeout=60)
    raw = float(done.stdout.decode().split()[-1]) - t0
    return raw, raw * CAL_REF_S / ((before + calibrate()) / 2)


def run_rep(workload: str, seed: int, rep_dir: str, env: dict, timeout: float,
            trace_dir: str | None = None) -> dict:
    """Spawn one worker, wait for it, and read what it wrote."""
    os.makedirs(rep_dir)
    out_path = os.path.join(rep_dir, "worker.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), out_path]
    if trace_dir:
        os.makedirs(trace_dir)
        cmd.append(trace_dir)
    env = dict(env)
    if workload == "cli_session":
        env["CUSPQUOT_CACHE_DIR"] = os.path.join(rep_dir, "cache")
    # own session, so a kill reaches the CLI children too; wait4 gives the
    # rusage of the worker and its children
    speed = SpeedLog()
    speed.sample()
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, start_new_session=True)
    deadline = time.monotonic() + timeout
    timed_out = False
    pid = 0
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                timed_out = True
                break
            if time.perf_counter() - speed.samples[-1][0] >= CAL_EVERY_S:
                speed.sample()
            time.sleep(0.005)
    finally:
        if not pid:  # timed out or interrupted
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
    exited = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)

    planned, jobs, final = None, [], None
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                if "jobs" in obj:
                    planned = obj["jobs"]
                elif "job" in obj:
                    jobs.append(obj)
                else:
                    final = obj
    attempted = planned if planned is not None else 1
    failed = attempted - sum(1 for j in jobs if j["ok"])
    if proc.returncode != 0 or final is None:
        failed = max(failed, 1)
        why = "timed out" if timed_out else f"exited with {proc.returncode}"
        print(f"perfbench: {workload} worker {why}", file=sys.stderr)
    for j in jobs:
        if not j["ok"]:
            print(f"perfbench: {workload} check failed: {j['job']}", file=sys.stderr)
    cache = os.path.join(rep_dir, "cache", "cache.txt")
    cache_lines = 0
    if os.path.exists(cache):
        with open(cache, encoding="utf-8") as fh:
            cache_lines = max(0, len(fh.read().splitlines()) - 1)  # minus the version line
    cpu_raw = usage.ru_utime + usage.ru_stime
    # CPU is rescaled by the worker's mean slowdown over its whole life
    life_factor = speed.reference_seconds(spawned, exited) / (exited - spawned)
    return {
        "wall_raw_s": final["wall_s"] if final else None,
        "wall_s": speed.reference_seconds(final["start"], final["end"]) if final else None,
        "trace": final["trace"] if final else None,
        "cpu_raw_s": cpu_raw,
        "cpu_s": cpu_raw * life_factor,
        "rss_mib": usage.ru_maxrss / 1024,
        "jobs": jobs,
        "attempted": attempted,
        "failed": failed,
        "cache_lines": cache_lines,
    }


# ---------------------------------------------------------------------------
# metrics


def median(values):
    return statistics.median(values) if values else 0.0


def cli_metrics(reps: list[dict]) -> dict[str, float]:
    """Latency figures of the CLI jobs of untraced reps (zero for other workloads)."""
    out: dict[str, float] = {}
    latencies = [j["s"] for r in reps for j in r["jobs"] if "cli_pass" in j["tags"]]
    for pass_name in CLI_PASSES:
        out[f"cli.{pass_name}_pass_s"] = median([
            sum(j["s"] for j in r["jobs"] if j["tags"].get("cli_pass") == pass_name)
            for r in reps
        ])
    if len(latencies) >= 2:
        q1, q2, q3 = statistics.quantiles(latencies, n=4)
        out["cli.p50_s"], out["cli.p75_s"] = q2, q3
    else:
        out["cli.p50_s"] = out["cli.p75_s"] = median(latencies)
    for sub in CLI_SUBCOMMANDS:
        for pass_name in CLI_PASSES:
            out[f"cli.{sub}_s.{pass_name}"] = median([
                j["s"] for r in reps for j in r["jobs"]
                if j["tags"].get("subcommand") == sub and j["tags"].get("cli_pass") == pass_name
            ])
    out["cli.cache_lines_written"] = median([r["cache_lines"] for r in reps])
    out["cli.nonzero_exits"] = sum(
        1 for r in reps for j in r["jobs"] if j.get("rc") not in (None, 0)
    )
    out["cli.samples"] = len(latencies)
    return out


HOOK_METRICS = {
    "qalgebra.LaurentPolyQ.__mul__": ["qalgebra.mul_term_pairs"],
    "strata.stable_orbit_decomposition": ["strata.orbits"],
    "varieties.count_v_spec": ["varieties.patterns_distinct", "varieties.count_cache_hit_ratio",
                               "varieties.points_enumerated_computed"],
    "groebner.divide": ["groebner.divide_zero_remainder_ratio"],
    "oracles.count_stratum_bruteforce": ["oracles.stratum_candidates",
                                         "oracles.stratum_accept_ratio"],
}


def layer_metrics(rep: dict) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced rep, and the metrics missing with reasons."""
    summary, wall = rep["trace"], rep["wall_raw_s"]  # self times are raw too
    funcs, counters = summary["functions"], summary["counters"]
    missing: dict[str, str] = {}
    for name, why in summary["missing"].items():
        if name.startswith("hook:"):
            missing.update(dict.fromkeys(HOOK_METRICS[name[len("hook:"):]], why))
        else:
            missing.update(dict.fromkeys((f"{name}.calls", f"{name}.self_s"), why))
            missing.update(dict.fromkeys(HOOK_METRICS.get(name, ()), why))

    out: dict[str, float] = {}
    for layer, entries in tracer.LAYERS.items():
        total = 0.0
        for entry in entries:
            full = f"{layer}.{entry}"
            if full in funcs:
                out[f"{full}.calls"], out[f"{full}.self_s"] = funcs[full]
                total += funcs[full][1]
        out[f"{layer}.self_s"] = total
        out[f"{layer}.share"] = total / wall

    def ratio(num: float, base: float) -> float:
        return num / base if base else 0.0

    out["qalgebra.mul_term_pairs"] = counters["qalgebra.mul_term_pairs"]
    out["strata.orbits"] = counters["strata.orbits"]
    out["varieties.patterns_distinct"] = counters["varieties.patterns_distinct"]
    out["varieties.count_cache_hit_ratio"] = ratio(
        counters["varieties.count_v_spec_repeats"], out.get("varieties.count_v_spec.calls", 0))
    out["varieties.points_enumerated_computed"] = counters["varieties.points_enumerated_computed"]
    out["groebner.divide_zero_remainder_ratio"] = ratio(
        counters["groebner.divide_zero_remainders"], out.get("groebner.divide.calls", 0))
    out["oracles.stratum_candidates"] = counters["oracles.stratum_candidates"]
    out["oracles.stratum_accept_ratio"] = ratio(
        counters["oracles.stratum_accepted"], counters["oracles.stratum_candidates"])

    # the CLI layer: invocation time not covered by spans of the layers below
    cli_wall = sum(j["s"] for j in rep["jobs"] if "cli_pass" in j["tags"])
    out["cli.self_s"] = cli_wall - summary["covered_s"] if cli_wall else 0.0
    out["cli.share"] = out["cli.self_s"] / wall
    attributed = sum(out[f"{layer}.self_s"] for layer in (*tracer.LAYERS, "cli"))
    out["trace.unattributed_share"] = max(0.0, wall - attributed) / wall
    out["trace.spans"] = summary["spans"]
    return {k: v for k, v in out.items() if k not in missing}, missing


# ---------------------------------------------------------------------------
# one workload


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"seed": seed, "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, root: str) -> dict:
    env = child_env(root)
    base = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(base, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=base)
    trace_root = os.path.join(base, "trace", workload)
    if trace:
        shutil.rmtree(trace_root, ignore_errors=True)
    started = time.monotonic()
    setup: list[tuple[float, float]] = []
    reps: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            # set-up samples are spread over the run, a few before each round
            if not trace:
                setup += [setup_sample(root, env) for _ in range(SETUP_PER_ROUND)]
            k = len(reps)
            limit = RUN_LIMIT_S - (time.monotonic() - started)
            reps.append(run_rep(workload, seed, os.path.join(run_dir, f"rep-{k}"), env, limit))
            if trace and not reps[-1]["failed"]:
                limit = RUN_LIMIT_S - (time.monotonic() - started)
                traced.append(run_rep(workload, seed, os.path.join(run_dir, f"traced-{k}"),
                                      env, limit, os.path.join(trace_root, f"rep-{k}")))
            if any(r["failed"] for r in reps + traced):
                break
            elapsed = time.monotonic() - started
            per_round = elapsed / len(reps)
            if elapsed + per_round > min(seconds, RUN_LIMIT_S):
                break
        while not trace and len(setup) < SETUP_SPAWNS:
            setup.append(setup_sample(root, env))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    all_reps = reps + traced
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    result = {
        "workload": workload,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "reps": len(reps),
        "traced_reps": len(traced),
        "metrics": {},
        "units": {},
        "missing": {},
    }
    result["report"] = report = {"ops_attempted": (attempted, "count"),
                                 "ops_failed_ratio": (failed / attempted, "ratio")}
    if failed:
        return result

    walls = [r["wall_s"] for r in reps]
    cli = cli_metrics(reps) if workload == "cli_session" else None
    if cli is not None:
        for name in ("cold_pass_s", "warm_pass_s"):
            report[name] = (cli[f"cli.{name}"], "s")
        report["cli_p50_s"] = (cli["cli.p50_s"], "s")
        report["cli_p75_s"] = (cli["cli.p75_s"], "s")
        report["cli_samples"] = (cli["cli.samples"], "count")

    if not trace:
        result["metrics"] = {
            "wall_s": median(walls),
            "cpu_s": median([r["cpu_s"] for r in reps]),
            "peak_rss_mib": median([r["rss_mib"] for r in reps]),
            "setup_s": median([ref for _, ref in setup]),
        }
        result["units"] = dict(END_TO_END)
        report["wall_raw_s"] = (median([r["wall_raw_s"] for r in reps]), "s")
        report["cpu_raw_s"] = (median([r["cpu_raw_s"] for r in reps]), "s")
        report["setup_raw_s"] = (median([raw for raw, _ in setup]), "s")
        return result

    units = per_layer_units()
    per_rep = [layer_metrics(r) for r in traced]
    for _, missing in per_rep:
        result["missing"].update(missing)
    metrics = {}
    for name in units:
        values = [m[name] for m, _ in per_rep if name in m]
        if values:
            metrics[name] = median(values)
    cli = cli or cli_metrics([])
    for name in units:
        if name in cli:
            metrics[name] = cli[name]
    metrics["trace.overhead_ratio"] = median([r["wall_s"] for r in traced]) / median(walls) - 1
    result["metrics"] = {name: metrics[name] for name in units if name in metrics}
    result["units"] = units
    return result


def print_report(result: dict, env_info: dict, trace: bool) -> None:
    w = result["workload"]
    print(f"perfbench workload={w} seed={env_info['seed']} trace={int(trace)} "
          f"python={env_info['python']} nproc={env_info['nproc']} "
          f"cpu_model={env_info['cpu_model']!r}")
    print(f"  reps={result['reps']} traced_reps={result['traced_reps']} "
          f"(closed loop, one worker at a time)")
    for name, value in result["metrics"].items():
        tag = "  [computed from inputs]" if name in COMPUTED else ""
        print(f"  {name:44s} {value:>14.6g} {result['units'][name]}{tag}")
    for name, (value, unit) in result["report"].items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    for name, why in result["missing"].items():
        print(f"  {name:44s} {'missing':>14s} ({why})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the runner and all it starts share one vCPU, the one the calibration
    # loop measures
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # a terminated run still kills its worker (run_rep's finally) and cleans up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cuspquot", "__init__.py")):
        print("perfbench: run from the root of a cuspquot checkout (no src/cuspquot here)",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    # bytecode for the package and the benchmark, as an install leaves it, so
    # that no measured process compiles
    for path in (os.path.join(root, "src", "cuspquot"), HERE):
        compileall.compile_dir(path, quiet=1)
    env_info = environment(args.seed)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        print_report(result, env_info, bool(args.trace))
        results.append(result)

    if len(results) == 1:
        metrics = {name: {"value": value, "unit": results[0]["units"][name]}
                   for name, value in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{name}": {"value": value, "unit": r["units"][name]}
                   for r in results for name, value in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
