"""Spans around the calls into each synwatch module, recorded from outside.

A ``Tracer`` rebinds named functions to wrappers that record one span per
call: its name, start, end and the span that was open when it began.  A
function is rebound by name in every loaded ``synwatch`` module that holds
it, because callers look names up in their own module's globals.  Spans
stay in memory until the run ends; ``summary`` then derives per-name and
per-layer self times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (layer, module, attribute) for every call boundary the benchmark times.
# ``Class.method`` names are rebound on the class.
TARGETS = [
    ("pipeline", "synwatch.pipeline", name) for name in (
        "load_tshark_csv", "aggregate_counts", "save_series", "load_series",
        "build_windows", "scale_windows", "fit_scaler", "save_scaler",
        "load_scaler")
] + [
    ("lstm", "synwatch.lstm", name) for name in (
        "train", "predict_windows", "predict_window", "save_model",
        "load_model")
] + [
    ("kernels", "synwatch.kernels", name) for name in (
        "loss_and_grads_numpy", "predict_batch_numpy",
        "loss_and_grads_numba", "predict_batch_numba")
] + [
    ("calibration", "synwatch.calibration", name) for name in (
        "prediction_pairs", "default_grid", "calibrate", "replay_trace",
        "evaluate_events", "evaluate", "sweep_beta", "write_sweep")
] + [
    ("detector", "synwatch.detector", name) for name in (
        "Detector.step", "segment_alarms", "write_verdicts", "write_alarms")
]

LAYERS = ("pipeline", "lstm", "kernels", "calibration", "detector")

# The numba kernels are None when numba is not importable.
OPTIONAL = {"loss_and_grads_numba", "predict_batch_numba"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.missing: list[str] = []
        self.phases = [""]
        self._phase = [0]
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, phase = self.spans, self._stack, self._phase
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, phase[0])
        return traced

    def begin_phase(self, label: str) -> None:
        """Name the spans recorded from now on ``label:<span name>``."""
        self.phases.append(label)
        self._phase[0] = len(self.phases) - 1

    def install(self, targets=TARGETS) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "synwatch" or key.startswith("synwatch.")]
        for layer, module_name, attr in targets:
            span_name = f"{layer}.{attr.split('.')[-1]}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                fn = cls.__dict__.get(method) if cls is not None else None
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._rebind(cls, method, self._wrap(span_name, fn))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                if attr not in OPTIONAL:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span_name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def arrays(self):
        """Spans as (name_id, start, end, parent, phase) arrays, in call
        order."""
        table = np.array([s for s in self.spans if s is not None],
                         dtype=np.float64).reshape(-1, 5)
        return (table[:, 0].astype(np.int64), table[:, 1], table[:, 2],
                table[:, 3].astype(np.int64), table[:, 4].astype(np.int64))

    def summary(self, wall_s: float) -> dict:
        """Per-name call counts, totals, self times and per-call
        percentiles, per-layer self time, and the caller's own time
        (``wall_s`` minus the time covered by top-level spans)."""
        name_ids, start, end, parent, phase = self.arrays()
        duration = end - start
        child = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        own = duration - child
        # A function that calls itself through its module global (as
        # load_tshark_csv does for a path) nests a span of its own name:
        # totals and per-call figures count the outermost span only.
        outer = ~nested | (name_ids[np.maximum(parent, 0)] != name_ids)
        per_name = {}
        for (name_id, phase_id) in sorted(set(zip(name_ids.tolist(),
                                                   phase.tolist()))):
            sel = (name_ids == name_id) & (phase == phase_id)
            self_s = float(own[sel].sum())
            sel &= outer
            name = self.names[name_id]
            if self.phases[phase_id]:
                name = f"{self.phases[phase_id]}:{name}"
            calls_us = duration[sel] * 1e6
            p50, p99, p9999 = np.percentile(calls_us, [50, 99, 99.99])
            per_name[name] = {
                "calls": int(sel.sum()), "total_s": float(duration[sel].sum()),
                "self_s": self_s, "p50_us": float(p50),
                "p99_us": float(p99), "p99.99_us": float(p9999)}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, stats in per_name.items():
            layer_self[name.split(":")[-1].split(".")[0]] += stats["self_s"]
        return {"spans": int(len(duration)), "per_name": per_name,
                "layer_self_s": layer_self,
                "caller_self_s": wall_s - float(duration[~nested].sum()),
                "missing": list(self.missing)}

    def save(self, path) -> None:
        name_ids, start, end, parent, phase = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_ids,
                            start=start, end=end, parent=parent, phase=phase,
                            phases=np.array(self.phases))
