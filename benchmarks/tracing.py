"""Spans around the public mweights calls, for the traced round.

A span is recorded as ``(name, start, end, parent)``: the parent is the
index of the span that was open when this one started, or -1.  Spans stay
in memory while the round runs and are written out when it ends.  A layer's
self time is its spans' durations minus the time covered by their child
spans; the rounds run on one thread, so children never overlap.

Wrapping works by replacing a public function in every loaded ``mweights``
module namespace that holds it, so calls the library makes internally
(``run_sweep`` calling ``ap_constant``, say) go through the wrapper too.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

# layer name -> the public callables it wraps (attribute paths on mweights)
LAYERS = {
    "experiments.extremal_s": ("maximal_extremal", "riesz_extremal"),
    "experiments.norms_s": ("analytic_power_norm", "grid_lp_norm", "hybrid_lower_norm"),
    "experiments.fit_s": ("fit_exponent",),
    "weights.cell_masses_s": ("Weight.cell_masses",),
    "weights.ap_constant_s": ("ap_constant",),
    "operators.maximal_s": ("multilinear_maximal", "dyadic_maximal"),
    "operators.riesz_s": ("bilinear_riesz",),
    "operators.sparse_build_s": ("build_sparse_family",),
    "operators.sparse_apply_s": ("sparse_operator",),
}

# per-layer metrics in the order they are reported, with their units
METRICS = {
    "experiments.extremal_s": "s",
    "experiments.norms_s": "s",
    "experiments.fit_s": "s",
    "weights.cell_masses_s": "s",
    "weights.mass_cells": "count",
    "weights.ap_constant_s": "s",
    "weights.ap_cubes": "count",
    "weights.ap_cubes_per_s": "1/s",
    "operators.maximal_s": "s",
    "operators.riesz_s": "s",
    "operators.riesz_pairs": "count",
    "operators.riesz_pairs_per_s": "1/s",
    "operators.sparse_build_s": "s",
    "operators.sparse_cubes": "count",
    "operators.sparse_apply_s": "s",
    "trace.overhead_s": "s",
}


def _count_mass_cells(tracer, bound, out):
    tracer.counts["weights.mass_cells"] += int(np.size(out))


def _count_ap_cubes(tracer, bound, out):
    tracer.counts["weights.ap_cubes"] += int(out.scanned)


def _count_riesz_pairs(tracer, bound, out):
    # the quadrature visits every point against every pair of nonzero cells
    a = bound.arguments
    f1, f2 = a["f1"], a["f2"]
    points = np.size(np.asarray(a["points"], dtype=float))
    nz1 = int(np.count_nonzero(f1.values > 0.0))
    nz2 = int(np.count_nonzero(f2.values > 0.0))
    tracer.counts["operators.riesz_pairs"] += points * nz1 * nz2


def _count_sparse_cubes(tracer, bound, out):
    tracer.counts["operators.sparse_cubes"] += len(out)
    tracer.families.append((tuple(bound.arguments["gs"]), bound.arguments["grid"], out))


COUNTERS = {
    "Weight.cell_masses": _count_mass_cells,
    "ap_constant": _count_ap_cubes,
    "bilinear_riesz": _count_riesz_pairs,
    "build_sparse_family": _count_sparse_cubes,
}


class Tracer:
    """Span and count recorder; inactive once :meth:`stop` is called."""

    def __init__(self):
        self.spans = []
        self.counts = {k: 0 for k, unit in METRICS.items() if unit == "count"}
        self.families = []  # (inputs, grid, family) of every sparse build
        self.active = True
        self._open = []

    def wrap(self, layer, fn, counter=None):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([layer, time.perf_counter(), None, parent])
            self._open.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if counter is not None:
                counter(self, signature.bind(*args, **kwargs), out)
            return out

        return traced

    def install(self, mw):
        """Wrap every layer's callables wherever mweights holds them."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "mweights"]
        for layer, paths in LAYERS.items():
            for path in paths:
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(mw, cls_name)
                    fn = getattr(cls, attr)
                    setattr(cls, attr, self.wrap(layer, fn, COUNTERS.get(path)))
                    continue
                fn = getattr(mw, path)
                traced = self.wrap(layer, fn, COUNTERS.get(path))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, traced)

    def stop(self):
        self.active = False

    def self_times(self):
        """Self time per layer, summed over its spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return out

    def metrics(self):
        """Per-layer metrics of this round (all but ``trace.overhead_s``)."""
        out = dict(self.self_times())
        out.update(self.counts)
        ap_s = out["weights.ap_constant_s"]
        riesz_s = out["operators.riesz_s"]
        # a layer that did not run on this workload reports a rate of 0
        out["weights.ap_cubes_per_s"] = out["weights.ap_cubes"] / ap_s if ap_s > 0 else 0.0
        out["operators.riesz_pairs_per_s"] = (
            out["operators.riesz_pairs"] / riesz_s if riesz_s > 0 else 0.0
        )
        return out

    def write(self, path):
        spans = [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
        path.write_text(json.dumps({"spans": spans, "counts": self.counts}) + "\n")
