"""Span tracer that times rcuniv's layers from outside the package.

`Tracer.install()` wraps the public functions of the rcuniv modules and
rebinds every name that refers to one of them, in every loaded rcuniv
module: `certify_esp` is replaced in `rcuniv.reservoirs`,
`rcuniv.training` and `rcuniv.harness` alike.  `Tracer.uninstall()` puts
every original binding back.  Spans are kept in memory as flat arrays and
reduced to per-layer metrics when the run ends.  Counters that need the
call arguments are recorded at the same boundaries by small probes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict

# modules whose public functions are wrapped, with the layer they report under
LAYER_MODULES = {
    "rcuniv.processes": "processes",
    "rcuniv.core": "core",
    "rcuniv.targets": "core",
    "rcuniv.reservoirs": "reservoirs",
    "rcuniv.readouts": "readouts",
    "rcuniv.training": "training",
    "rcuniv.metrics": "metrics",
    "rcuniv.harness": "harness",
}
LAYERS = ("processes", "core", "reservoirs", "readouts", "training", "metrics", "harness")
SYSTEM_TAGS = {"EchoStateNetwork": "esn", "TrigSAS": "trig_sas", "LinearReservoir": "linear"}
BUILDERS = ("random_esn", "random_trig_sas", "build_shift_register",
            "build_nilpotent_trig_sas", "build_block_esn", "direct_sum_sas")
# the built-in verify suites, reported on every workload (zero where unused)
VERIFY_SUITE_NAMES = ("product_rule", "conditional_truncation", "esp", "direct_sum",
                      "block_esn", "stationarity")


def _union_length(intervals) -> int:
    """Measure of a union of half-open [start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(starts, ends, parents) -> list[int]:
    """Self time of each span: its duration minus the time its children cover.

    Children may overlap each other (spans from worker threads share a
    parent), so the covered time is the measure of the union of the child
    intervals clipped to the parent's interval.  A parent of -1 marks a root.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        clipped = [(max(starts[c], s), min(ends[c], e)) for c in children.get(i, ())]
        out.append(e - s - _union_length(clipped))
    return out


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self.path_keys: dict[tuple, list[tuple[int, int]]] = defaultdict(list)
        self.screens: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        # a worker thread's outermost spans hang under the main thread's open span
        parent = stack[-1] if stack else (self._main_stack[-1:] or [-1])[0]
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(parent)
            self.ends.append(-1)
            self.starts.append(self._clock())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self._clock()
        self._stack().pop()

    def wrap(self, fn, name: str):
        """Wrapper that records a span, plus the probe's counters, per call."""
        suffix, count = PROBES.get(name, (None, None))
        if suffix is None and count is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)
            return traced

        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            idx = self.open(f"{name}.{suffix(a)}" if suffix else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                with self._lock:
                    count(self, a, result)
            return result
        return probed

    # -- rebinding -----------------------------------------------------------

    def install(self) -> None:
        """Wrap public functions of the layer modules and rebind every alias."""
        loaded = [m for k, m in list(sys.modules.items())
                  if m is not None and (k == "rcuniv" or k.startswith("rcuniv."))]
        wrappers = {}
        for mod in loaded:
            layer = LAYER_MODULES.get(mod.__name__)
            if layer is None:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        for mod in loaded:
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((namespace, attr, obj))
                    namespace[attr] = hit[1]
        harness = sys.modules.get("rcuniv.harness")
        suites = getattr(harness, "VERIFY_SUITES", None)
        if isinstance(suites, dict):
            for key, fn in list(suites.items()):
                self._restore.append((suites, key, fn))
                suites[key] = self.wrap(fn, f"harness.verify_suite.{key}")

    def uninstall(self) -> None:
        """Restore every binding that install() replaced."""
        while self._restore:
            namespace, key, original = self._restore.pop()
            namespace[key] = original

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        selfs = self_times(self.starts, self.ends, self.parents)
        total, own, calls = Counter(), Counter(), Counter()
        for nid, s, e, x in zip(self.name_ids, self.starts, self.ends, selfs):
            name = self.names[nid]
            total[name] += e - s
            own[name] += x
            calls[name] += 1

        def total_s(prefix):
            return sum(v for k, v in total.items() if k.startswith(prefix)) / 1e9

        def self_s(prefix):
            return sum(v for k, v in own.items() if k.startswith(prefix)) / 1e9

        c = self.counts
        points = c["harness.points"]
        paths = c["sample_paths.paths"]
        distinct = sum(_union_length(iv) for iv in self.path_keys.values())
        certify = calls["reservoirs.certify_esp"]
        screens = calls["processes.exp_moment_check"]
        m = {
            "reservoirs.certify_esp.calls": certify,
            "reservoirs.certify_esp.s": total_s("reservoirs.certify_esp"),
            "reservoirs.certify_esp.calls_per_point": certify / points if points else 0.0,
        }
        for tag in SYSTEM_TAGS.values():
            m[f"reservoirs.final_states.{tag}.s"] = total_s(f"reservoirs.final_states.{tag}")
            m[f"reservoirs.final_states.{tag}.state_steps"] = c[f"final_states.{tag}.steps"]
            m[f"reservoirs.final_states.{tag}.gflops_computed"] = (
                c[f"final_states.{tag}.flops"] / 1e9)
        m.update({
            "reservoirs.run_reservoir.s": total_s("reservoirs.run_reservoir"),
            "reservoirs.washout_decay.s": total_s("reservoirs.washout_decay"),
            "reservoirs.build.s": sum(total[f"reservoirs.{b}"] for b in BUILDERS) / 1e9,
            "processes.sample_paths.calls": calls["processes.sample_paths"],
            "processes.sample_paths.paths": paths,
            "processes.sample_paths.steps": c["sample_paths.steps"],
            "processes.sample_paths.self_s": self_s("processes.sample_paths"),
            "processes.sample_paths.unique_ratio": distinct / paths if paths else 0.0,
            "processes.path_rng.calls": calls["processes.path_rng"],
            "processes.path_rng.s": total_s("processes.path_rng"),
            "processes.exp_moment_check.calls": screens,
            "processes.exp_moment_check.s": total_s("processes.exp_moment_check"),
            "processes.exp_moment_check.useful_ratio":
                len(self.screens) / screens if screens else 0.0,
            "processes.shift_invariance_probe.s": total_s("processes.shift_invariance_probe"),
            "core.evaluate_functional_batch.windows": c["evaluate_functional_batch.windows"],
            "core.evaluate_functional_batch.s": total_s("core.evaluate_functional_batch"),
            "core.truncated_conditional_error.paths": c["truncated_conditional_error.paths"],
            "core.truncated_conditional_error.s": total_s("core.truncated_conditional_error"),
            "readouts.poly_features.calls": calls["readouts.poly_features"],
            "readouts.poly_features.cells": c["poly_features.cells"],
            "readouts.poly_features.s": total_s("readouts.poly_features"),
            "readouts.eval_readout.s": total_s("readouts.eval_readout"),
            "training.fit.s": total_s("training.fit_"),
            "training.features": c["training.features"],
            "metrics.approx_error.s": total_s("metrics.approx_error"),
            "metrics.eval_paths": c["metrics.eval_paths"],
            "harness.run_experiment.s": total_s("harness.run_experiment"),
            "harness.points": points,
        })
        for suite in VERIFY_SUITE_NAMES:
            m[f"harness.verify_suite.{suite}.s"] = total_s(f"harness.verify_suite.{suite}")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s(f"{layer}.")
        roots = [e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0]
        m["trace.root_s"] = sum(roots) / 1e9
        m["trace.spans"] = len(self.starts)
        return m


# -- probes: span naming and counters taken from the call arguments --------------


def _system_tag(a) -> str:
    return SYSTEM_TAGS.get(type(a["system"]).__name__, "other")


def _poly_flops(poly) -> int:
    r, rows, cols = poly.cos_mats.shape
    n = poly.cos_freqs.shape[1]
    return 2 * (2 * r * rows * cols + 2 * r * n)


def step_flops(system) -> int:
    """Multiply-add flops of one state update of one path, from the shapes."""
    if type(system).__name__ == "TrigSAS":
        return _poly_flops(system.P) + _poly_flops(system.Q)
    return 2 * system.N * (system.N + system.n)


def _count_final_states(tr, a, result):
    M, T, _ = a["data"].shape
    tag = _system_tag(a)
    tr.counts[f"final_states.{tag}.steps"] += M * T
    tr.counts[f"final_states.{tag}.flops"] += M * T * step_flops(a["system"])


def _count_sample_paths(tr, a, result):
    s, T, M, offset = a["s"], int(a["T"]), int(a["M"]), int(a["path_offset"])
    tr.counts["sample_paths.paths"] += M
    tr.counts["sample_paths.steps"] += M * (s.burn_in() + T)
    tr.path_keys[(repr(s), int(a["seed"]), T)].append((offset, offset + M))


def _count_screen(tr, a, result):
    tr.screens.add(repr(sorted(a.items())))


def _count_windows(tr, a, result):
    tr.counts["evaluate_functional_batch.windows"] += len(result)


def _count_conditional(tr, a, result):
    tr.counts["truncated_conditional_error.paths"] += a["M"]


def _count_poly_cells(tr, a, result):
    tr.counts["poly_features.cells"] += result.size


def _count_fit(tr, a, result):
    diag = result[1]
    tr.counts["training.features"] += diag["paths"] * diag["coeff_count"]


def _count_eval_paths(tr, a, result):
    tr.counts["metrics.eval_paths"] += a["M"]


def _count_points(tr, a, result):
    tr.counts["harness.points"] += len(result)


# span name -> (suffix from arguments or None, counter or None)
PROBES = {
    "reservoirs.final_states": (_system_tag, _count_final_states),
    "processes.sample_paths": (None, _count_sample_paths),
    "processes.exp_moment_check": (None, _count_screen),
    "core.evaluate_functional_batch": (None, _count_windows),
    "core.truncated_conditional_error": (None, _count_conditional),
    "readouts.poly_features": (None, _count_poly_cells),
    "training.fit_linear_readout": (None, _count_fit),
    "training.fit_polynomial_readout": (None, _count_fit),
    "training.fit_network_readout": (None, _count_fit),
    "metrics.approx_error": (None, _count_eval_paths),
    "harness.run_experiment": (None, _count_points),
}
