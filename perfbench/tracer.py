"""Span recorder for the traced benchmark run.

The traced run wraps public functions of the library from outside: each
wrapped call records a span (layer name, start, end, parent span, counts
taken from its result).  A layer's self time is its span's duration minus
the time covered by the spans of other layers it called.  A call into a
layer from inside the same layer (a pinned kernel evaluating its base
kernel, ``uniform_surrogate`` calling ``sample_sphere``) belongs to the
outer span and opens no span of its own.

Nothing under ``src/`` is edited.  Patches are undone when the traced
pass ends, so untraced passes run the library exactly as shipped.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np

from multipot import certify, energy, geometry, kernels, optimize

# Span fields.
NAME, START, END, PARENT, COUNTS = range(5)


def _samples(result):
    return result.samples_used


# (layer, owner, attribute, counts read from the result: key -> function).
# Names imported directly by other modules (``certify.mutual_energy``,
# ``scenarios.sample_sphere``) are patched wherever they are bound.
_FUNCTIONS = (
    ("energy.mutual_energy", energy, "mutual_energy", {}),
    ("energy.potential", energy, "potential", {}),
    ("energy.mixture_polynomial", energy, "mixture_polynomial", {}),
    ("energy.mc_energy_uniform", energy, "mc_energy_uniform", {"tuples": _samples}),
    ("energy.discrete_energy", energy, "discrete_energy", {"tuples": _samples}),
    ("certify.inequality_suite", certify, "inequality_suite", {"trials": lambda r: r.trials}),
    ("certify.npd_test", certify, "npd_test", {"sets": lambda r: r.trials_run}),
    ("certify.convexity_probe", certify, "convexity_probe", {}),
    ("certify.potential_constancy_check", certify, "potential_constancy_check", {}),
    ("certify.shift_equivalence_battery", certify, "shift_equivalence_battery", {}),
    ("optimize.optimize_discrete", optimize, "optimize_discrete",
     {"iterations": lambda r: r.iterations_run, "n_points": lambda r: r.final_config.n_points}),
    ("geometry.surrogate", geometry, "uniform_surrogate", {}),
    ("geometry.surrogate", geometry, "sample_sphere", {}),
)
# Every ``evaluate_batch`` of every Kernel subclass.
_KERNEL_LAYER, _KERNEL_COUNTS = "kernels.evaluate", {"tuples": np.size}
# ``numpy.linalg.eigh``, counted only when called from ``multipot.certify``.
_EIGH_LAYER = "certify.eigh"

# Every traced layer and the counts its spans carry (besides calls and self time).
LAYERS = {layer: tuple(counts) for layer, _, _, counts in _FUNCTIONS}
LAYERS[_KERNEL_LAYER] = tuple(_KERNEL_COUNTS)
LAYERS[_EIGH_LAYER] = ()


def _kernel_classes():
    todo, seen = [kernels.Kernel], []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in seen if "evaluate_batch" in cls.__dict__]


class Tracer:
    """Records spans in memory while :meth:`installed` is active."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def _wrap(self, layer, fn, counts, caller=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_ and spans[open_[-1]][NAME] == layer:
                return fn(*args, **kwargs)
            if caller is not None and sys._getframe(1).f_globals.get("__name__") != caller:
                return fn(*args, **kwargs)
            span = [layer, time.perf_counter(), None, open_[-1] if open_ else None, {}]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                open_.pop()
            span[COUNTS] = {key: count(result) for key, count in counts.items()}
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced entry point; restore the originals on exit."""
        patches = []

        def patch(owner, attr, wrapper):
            patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

        try:
            modules = [m for name, m in sys.modules.items()
                       if name == "multipot" or name.startswith("multipot.")]
            for layer, owner, attr, counts in _FUNCTIONS:
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original, counts)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            patch(module, name, wrapper)
            for cls in _kernel_classes():
                patch(cls, "evaluate_batch",
                      self._wrap(_KERNEL_LAYER, cls.__dict__["evaluate_batch"], _KERNEL_COUNTS))
            patch(np.linalg, "eigh",
                  self._wrap(_EIGH_LAYER, np.linalg.eigh, {}, caller=certify.__name__))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def layer_totals(spans) -> dict:
    """Per layer: number of calls, self time and summed counts."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    totals: dict = {}
    for i, span in enumerate(spans):
        layer = totals.setdefault(span[NAME], {"calls": 0, "self_s": 0.0})
        layer["calls"] += 1
        layer["self_s"] += span[END] - span[START] - child[i]
        for key, value in span[COUNTS].items():
            layer[key] = layer.get(key, 0) + value
    return totals
