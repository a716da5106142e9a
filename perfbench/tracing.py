"""Span tracing for the benchmark's traced pass.

Spans are recorded only from this file: ``instrument`` rebinds every public
function of each ``accsens`` layer module (and the evaluation methods of
``DensityModel``, the public surface of ``densities``) to a wrapper that
records one span per call.  Every module attribute that is the original
function object is rebound, so ``from .classifier import region_accuracy`` in
another module is traced too.  The scipy solvers that ``tradeoff`` and
``param_designer`` import by name are wrapped in those modules only.

A name that the package no longer defines is skipped, so its metrics read
zero calls instead of failing the run.

Spans live in memory as columns (name id, start, end, parent, run id) and are
written out once, after the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: Package modules measured as layers.  ``cli`` and ``_svg`` only format
#: results, so they count through ``setup_s`` alone.
LAYERS = (
    "densities",
    "classifier",
    "boundary_solver",
    "tradeoff",
    "param_designer",
    "theory_checks",
    "adversary_sim",
)

#: ``DensityModel`` methods traced as the ``densities`` layer's functions.
DENSITY_METHODS = ("pdf", "log_pdf", "cdf", "pdf_dx", "grad_pdf_params", "grad_cdf_params", "sample")

#: Solvers imported by name into a layer module; traced in that module only.
SOLVERS = {"tradeoff": ("brentq",), "param_designer": ("brentq", "minimize")}

#: Span name of the benchmark's own code around one traced pass.
ROOT = "harness.pass"


def _size_of_x(args, out) -> int:
    return int(np.size(args[1])) if len(args) > 1 else 0


#: Extra counters read when a span closes: span name -> (counter, reader of
#: the call's positional arguments and result).
COUNTERS = {
    "densities.cdf": ("values", _size_of_x),
    "densities.sample": ("values", lambda args, out: int(np.size(out))),
    "classifier.classify_boundaries": ("values", _size_of_x),
    "param_designer.minimize": ("nfev", lambda args, out: int(getattr(out, "nfev", 0))),
    "adversary_sim.run_experiment": ("trials", lambda args, out: int(out.n_trials)),
}


class Tracer:
    """In-memory span store with a call stack for parent links."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self.run_id = 0

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        counter = COUNTERS.get(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.counters[key] = self.counters.get(key, 0) + counter[1](args, out)
            return out

        return traced

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind the traced names; returns the (owner, attribute, original)
    triples that ``restore`` puts back."""
    wrappers: dict[int, tuple[object, object]] = {}
    undo: list[tuple[object, str, object]] = []
    for layer in LAYERS:
        try:
            mod = importlib.import_module(f"accsens.{layer}")
        except ImportError:
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
        for attr in SOLVERS.get(layer, ()):
            obj = getattr(mod, attr, None)
            if callable(obj):
                setattr(mod, attr, tracer.wrap(f"{layer}.{attr}", obj))
                undo.append((mod, attr, obj))
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "accsens" or modname.startswith("accsens.")):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
                undo.append((mod, attr, obj))
    densities = sys.modules.get("accsens.densities")
    model = getattr(densities, "DensityModel", None)
    for attr in DENSITY_METHODS:
        obj = vars(model).get(attr) if model is not None else None
        if inspect.isfunction(obj):
            setattr(model, attr, tracer.wrap(f"densities.{attr}", obj))
            undo.append((model, attr, obj))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, obj in reversed(undo):
        setattr(owner, attr, obj)


# ---- per-layer metrics derived from the spans ----


def _span_table(tracer: Tracer):
    """Per-span inclusive and exclusive (self) durations in seconds."""
    start = np.frombuffer(tracer.start, dtype=np.int64)
    end = np.frombuffer(tracer.end, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    name = np.frombuffer(tracer.name, dtype=np.int32)
    dur = (end - start).astype(float)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return name, dur * 1e-9, (dur - child) * 1e-9


def layer_metrics(tracer: Tracer, untraced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric of the benchmark, from one traced pass.

    A span's self time is its duration minus that of its direct children; a
    layer's self time sums the self times of the spans named after it, so
    the layers plus ``harness.self_s`` add up to ``trace.wall_s``.
    """
    name, dur, self_time = _span_table(tracer)

    def durations(span: str) -> np.ndarray:
        nid = tracer._ids.get(span)
        return dur[name == nid] if nid is not None else np.empty(0)

    def calls(span: str) -> int:
        return int(durations(span).size)

    def per_call(span: str, scale: float) -> float:
        d = durations(span)
        return float(d.mean() * scale) if d.size else 0.0

    def quantile(span: str, q: float, scale: float) -> float:
        d = durations(span)
        return float(np.percentile(d, q) * scale) if d.size else 0.0

    def counter(key: str) -> int:
        return int(tracer.counters.get(key, 0))

    layers = LAYERS + ("harness",)
    span_layer = np.asarray([layers.index(n.split(".", 1)[0]) for n in tracer.names])[name]
    wall = float(dur[name == tracer._ids[ROOT]].sum())

    m: dict[str, float] = {}
    for i, layer in enumerate(layers):
        m[f"{layer}.self_s"] = float(self_time[span_layer == i].sum())
    m["tradeoff.target.calls"] = calls("tradeoff.constrained_min_sensitivity")
    m["tradeoff.target.ms_p50"] = quantile("tradeoff.constrained_min_sensitivity", 50, 1e3)
    m["tradeoff.target.ms_p90"] = quantile("tradeoff.constrained_min_sensitivity", 90, 1e3)
    m["tradeoff.brentq.calls"] = calls("tradeoff.brentq")
    for fn in ("region_accuracy", "region_accuracy_gradient"):
        m[f"classifier.{fn}.calls"] = calls(f"classifier.{fn}")
        m[f"classifier.{fn}.us_per_call"] = per_call(f"classifier.{fn}", 1e6)
    m["densities.cdf.calls"] = calls("densities.cdf")
    m["densities.cdf.values"] = counter("densities.cdf.values")
    m["densities.sample.values"] = counter("densities.sample.values")
    m["classifier.classify_boundaries.values"] = counter("classifier.classify_boundaries.values")
    trials = counter("adversary_sim.run_experiment.trials")
    sim_s = float(durations("adversary_sim.run_experiment").sum())
    m["adversary_sim.trial_ms"] = sim_s * 1e3 / trials if trials else 0.0
    # Computed, not measured: float64 observations drawn plus classified.
    m["adversary_sim.bytes_computed"] = 8 * (
        m["densities.sample.values"] + m["classifier.classify_boundaries.values"]
    )
    for metric, fn in (("closed_form", "ml_boundaries_gaussian"), ("grid", "ml_boundaries_generic")):
        m[f"boundary_solver.{metric}.calls"] = calls(f"boundary_solver.{fn}")
        m[f"boundary_solver.{metric}.us_per_call"] = per_call(f"boundary_solver.{fn}", 1e6)
    m["param_designer.target.calls"] = calls("param_designer.design_params")
    m["param_designer.target.s_p50"] = quantile("param_designer.design_params", 50, 1.0)
    m["param_designer.minimize.calls"] = calls("param_designer.minimize")
    m["param_designer.minimize.nfev"] = counter("param_designer.minimize.nfev")
    m["theory_checks.report.calls"] = calls("theory_checks.run_all_checks")
    m["theory_checks.report.ms_p50"] = quantile("theory_checks.run_all_checks", 50, 1e3)
    m["theory_checks.report.ms_p90"] = quantile("theory_checks.run_all_checks", 90, 1e3)
    m["trace.spans"] = int(name.size)
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_s"] = wall - untraced_wall_s
    return m
