"""Spans and call counts around the package's public functions.

A :class:`Tracer` wraps every public function defined in the layer modules
and, while it is active, binds the wrapper under every name the package's
modules hold for that function. Calls a module makes to its own or to an
imported function (``run_pipeline`` calling ``assign_home_zone``,
``assign_home_zone`` calling ``point_in_polygon``) are therefore caught,
and the package's source stays untouched.

A span is ``[id, name, start, end, parent_id]``, kept in memory. Scalar
functions that run per message or per polygon test (``COUNT_ONLY``) only
count their calls, because a span per call would swamp what it measures.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYER_MODULES = ("cli", "fileio", "pipeline", "geometry", "sim", "calibration", "synth")

# Every public geometry function is a per-point scalar; these are the others.
COUNT_ONLY = frozenset({
    "pipeline.tokenize",
    "pipeline.assign_nearest_museum",
    "calibration.pearson_r",
    "calibration.rms_error",
    "sim.deterrence_value",
    "sim.deterrence_matrix",
})


def _sweep_regime(args, kwargs) -> str:
    spec = args[3] if len(args) > 3 else kwargs["spec"]
    return spec.constraint


# Span names that carry the value of one argument, e.g. sweep_beta[doubly].
SPAN_LABELS = {"calibration.sweep_beta": _sweep_regime}


class Tracer:
    """Records spans and call counts while used as a context manager.

    ``observers`` maps a span name to a function of (args, kwargs, result)
    whose return value is appended to ``observations`` after the call.
    """

    def __init__(self, package: str, observers=None):
        self.package = package
        self.observers = dict(observers or {})
        self.spans: list[list] = []
        self.calls: dict[str, list[int]] = {}  # name -> [calls, raised]
        self.observations: list[tuple[str, object]] = []
        self._stack: list[int | None] = [None]
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._patches: list[tuple[object, str, object]] = []
        for short in LAYER_MODULES:
            module = importlib.import_module(f"{package}.{short}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if short == "geometry" or name in COUNT_ONLY:
                    wrapper = self._counter(name, fn)
                else:
                    wrapper = self._spanner(name, fn)
                self._wrappers[id(fn)] = (fn, wrapper)

    def reset(self) -> None:
        self.spans.clear()
        self.observations.clear()
        for counts in self.calls.values():
            counts[0] = counts[1] = 0

    def __enter__(self):
        prefix = self.package + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == self.package or modname.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def _counter(self, name, fn):
        counts = self.calls.setdefault(name, [0, 0])

        def counted(*args, **kwargs):
            counts[0] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counts[1] += 1
                raise

        counted.__wrapped__ = fn
        return counted

    def _spanner(self, name, fn):
        counts = self.calls.setdefault(name, [0, 0])
        label = SPAN_LABELS.get(name)
        observer = self.observers.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def spanned(*args, **kwargs):
            counts[0] += 1
            span_name = f"{name}[{label(args, kwargs)}]" if label else name
            span = [len(spans), span_name, clock(), None, stack[-1]]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[1] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if observer is not None:
                self.observations.append((name, observer(args, kwargs, result)))
            return result

        spanned.__wrapped__ = fn
        return spanned


def span_totals(spans) -> dict[str, float]:
    """Summed duration per span name."""
    totals: dict[str, float] = {}
    for _, name, start, end, _ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name: duration minus direct children's."""
    child_time: dict[int, float] = {}
    for _, _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: dict[str, float] = {}
    for sid, name, start, end, _ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
    return totals
