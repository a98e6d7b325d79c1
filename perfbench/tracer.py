"""Span recording around the public functions of each cuspquot layer.

``Tracer.install()`` replaces each listed function with a recording wrapper in
every ``cuspquot`` module namespace that bound it (``series`` imports
``count_v_alpha`` by name, ``cli`` imports most of the API), and on its class
for methods, including aliases such as ``__radd__ = __add__``.  Nothing under
``src/`` changes: the wrapping lives in the benchmark's process only.

Each call records one span: name, start, end, parent span and job id.  Spans
stay in compact arrays in memory and are written out by ``write()`` at the end.
For a generator function the span covers each ``next()``; ``calls`` still
counts invocations.  A listed name that no longer exists is reported as missing,
never as zero.
"""

from __future__ import annotations

import array
import collections
import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

# layer -> public functions ("Class.method" for methods) whose calls are spans
LAYERS: dict[str, list[str]] = {
    "qalgebra": [
        "LaurentPolyQ.__init__",
        "LaurentPolyQ.__add__",
        "LaurentPolyQ.__mul__",
        "TPoly.__add__",
        "TPoly.__mul__",
        "CyclotomicInt.__mul__",
    ],
    "strata": ["stable_orbit_decomposition"],
    "varieties": [
        "count_v_spec",
        "staircase_motive",
        "MotiveTable.get",
        "brute_v_d",
        "enumerate_v_d_points",
        "ab_profile",
        "h0_t_exact",
    ],
    "groebner": ["divide", "is_groebner", "reduce_basis"],
    "series": [
        "hilb_numerator",
        "quot_numerator",
        "orbit_contribution",
        "solve_nh",
        "nh_guess",
        "functional_equation_check",
        "root_of_unity_check",
        "cyclotomic_divisibility_check",
        "zhat_coefficient",
        "matrix_count_formula",
    ],
    "oracles": [
        "count_nilpotent_pairs",
        "count_all_pairs",
        "count_quot_bruteforce",
        "count_stratum_bruteforce",
    ],
}

# Counters kept by the hooks below.  Those marked computed are derived from the
# call arguments, not measured.
COUNTERS = {
    "qalgebra.mul_term_pairs": "computed",
    "strata.orbits": "counted",
    "varieties.count_v_spec_repeats": "counted",
    "varieties.patterns_distinct": "counted",
    "varieties.points_enumerated_computed": "computed",
    "groebner.divide_zero_remainders": "counted",
    "oracles.stratum_candidates": "computed",
    "oracles.stratum_accepted": "counted",
}


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _n_terms(x) -> int:
    if isinstance(x, int):
        return 1 if x else 0
    return len(x.terms)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("i")
        self.span_job = array.array("i")
        self.stack = [-1]
        self.job = -1
        self.invocations: collections.Counter = collections.Counter()
        self.counters: collections.Counter = collections.Counter()
        self.missing: dict[str, str] = {}
        self._patterns: set = set()

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Import every cuspquot module and wrap the listed functions."""
        importlib.import_module("cuspquot")
        for layer in LAYERS:
            importlib.import_module(f"cuspquot.{layer}")
        importlib.import_module("cuspquot.cli")
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "cuspquot" or name.startswith("cuspquot.")
        ]
        hooks = {
            "qalgebra.LaurentPolyQ.__mul__": self._hook_mul,
            "strata.stable_orbit_decomposition": self._hook_orbits,
            "varieties.count_v_spec": self._hook_count_v_spec,
            "groebner.divide": self._hook_divide,
            "oracles.count_stratum_bruteforce": self._hook_stratum,
        }
        for layer, entries in LAYERS.items():
            home = sys.modules[f"cuspquot.{layer}"]
            for entry in entries:
                full = f"{layer}.{entry}"
                owner_name, _, attr = entry.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = getattr(owner, "__dict__", {}).get(attr) if owner is not None else None
                if not callable(original):
                    self.missing[full] = f"{entry} not found in cuspquot.{layer}"
                    continue
                nid = len(self.names)
                self.names.append(full)
                wrapper = self._wrap(original, nid, full, hooks.get(full))
                targets = [owner] if owner_name else namespaces
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            setattr(target, key, wrapper)

    def _wrap(self, fn, nid: int, full: str, hook):
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, jobs, stack = self.span_parent, self.span_job, self.stack
        invocations = self.invocations
        tracer = self

        def open_span() -> int:
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            return idx

        def close_span(idx: int, t0: float) -> None:
            t1 = perf_counter()
            stack.pop()
            starts[idx] = t0
            ends[idx] = t1

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                invocations[nid] += 1
                inner = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx, t0)
                    yield item

            return traced_gen

        # open_span/close_span inlined: this wrapper runs up to ~10^6 times a run
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            invocations[nid] += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                tracer._run_hook(full, hook, args, kwargs, result)
            return result

        return traced

    def _run_hook(self, full: str, hook, args, kwargs, result) -> None:
        # A hook reads the public API; if a later engine changes that API the
        # counter is reported missing instead of stopping the traced run.
        key = f"hook:{full}"
        if key in self.missing:
            return
        try:
            hook(args, kwargs, result)
        except Exception as exc:  # noqa: BLE001 - boundary: keep tracing
            self.missing[key] = f"counter hook failed: {exc!r}"

    # -- counter hooks (run outside the timed region of the call) -----------

    def _hook_mul(self, args, kwargs, result) -> None:
        self.counters["qalgebra.mul_term_pairs"] += _n_terms(args[0]) * _n_terms(args[1])

    def _hook_orbits(self, args, kwargs, result) -> None:
        self.counters["strata.orbits"] += len(result)

    def _hook_count_v_spec(self, args, kwargs, result) -> None:
        spec, p = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "p")
        key = (spec.key(), p)
        if key in self._patterns:
            self.counters["varieties.count_v_spec_repeats"] += 1
            return
        self._patterns.add(key)
        self.counters["varieties.patterns_distinct"] += 1
        free = len(spec.free_x()) + len(spec.free_y())
        self.counters["varieties.points_enumerated_computed"] += p ** free

    def _hook_divide(self, args, kwargs, result) -> None:
        if result.remainder.is_zero():
            self.counters["groebner.divide_zero_remainders"] += 1

    def _hook_stratum(self, args, kwargs, result) -> None:
        from cuspquot.oracles import stratum_slots

        datum, p = _arg(args, kwargs, 0, "datum"), _arg(args, kwargs, 1, "p")
        pins = _arg(args, kwargs, 2, "pins") or {}
        free = len(stratum_slots(datum)) - len(pins)
        self.counters["oracles.stratum_candidates"] += p ** free
        self.counters["oracles.stratum_accepted"] += result

    # -- output ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and self time, counters, and the time spans cover."""
        n = len(self.span_name)
        child = [0.0] * n
        covered = 0.0
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        for i in range(n):
            dur = ends[i] - starts[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += dur
            else:
                covered += dur
        self_s = [0.0] * len(self.names)
        for i in range(n):
            self_s[names[i]] += ends[i] - starts[i] - child[i]
        return {
            "functions": {
                name: [self.invocations[nid], self_s[nid]]
                for nid, name in enumerate(self.names)
            },
            "counters": {name: self.counters[name] for name in COUNTERS},
            "covered_s": covered,
            "spans": n,
            "missing": dict(self.missing),
        }

    def write(self, prefix: str) -> dict:
        """Write the spans to PREFIX.spans and the summary to PREFIX.json.

        PREFIX.spans is one JSON header line (name table, field order, span
        count) followed by the five arrays in native byte order: name id (i32),
        start (f64), end (f64), parent span index (i32, -1 for none), job id
        (i32).  Times are ``time.perf_counter()`` seconds.
        """
        header = {
            "names": self.names,
            "fields": ["name:i32", "start:f64", "end:f64", "parent:i32", "job:i32"],
            "count": len(self.span_name),
            "byteorder": sys.byteorder,
        }
        with open(f"{prefix}.spans", "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_job):
                arr.tofile(fh)
        summary = self.summary()
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        return summary
