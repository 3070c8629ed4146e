"""Outside-in tracing of mvgdp's layers.

The tracer wraps public functions of each mvgdp module at the names their
callers import (``mechanisms.check_condition``, ``harness.mvg_unimodal``,
...), so the package itself is not edited. Each call records one span: its
layer, start and end (``perf_counter_ns``) and the index of the enclosing
span. Spans stay in memory; ``summarize`` turns one run's spans into
per-layer counts and times, and ``write_spans`` writes them out when the run
ends. Self time is a span's duration minus its children's.

Counts marked ``_computed`` come from array shapes, not from hardware
counters.

The end-to-end metric each layer should move, and where:

* ``budget.*``: ``trials_per_s`` and ``release_ms_p50`` on equi-small;
  flat on uni-wide.
* ``design.*``: ``release_ms_*``, ``trials_per_s`` and ``peak_rss_mb`` on
  uni-wide; on equi-small only ``trials_per_s``, through validation.
* ``sampling.*``: ``release_ms_*`` on uni-wide. ``sampling.normal_draws``
  must never change: it guards determinism.
* ``mechanisms.self_ms``: equi-small; ``mechanisms.directions_*``:
  ``release_ms_*`` and ``trials_per_s`` on dp-tall.
* ``metrics.*`` and ``harness.self_ms``: ``trials_per_s`` on equi-small.
* ``harness.load_*`` and ``cli.self_ms``: ``trials_per_s`` on dp-tall.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter_ns

NO_PARENT = -1


def _design_bytes(args, result) -> dict:
    arrays = (result.w_sigma, result.lambda_sigma, result.w_psi, result.lambda_psi)
    return {"design.bytes_computed": sum(a.nbytes for a in arrays)}


def _mvg_sample_counts(args, result) -> dict:
    m, n = result.shape
    # B_sigma @ N @ B_psi.T plus scaling both bases by sqrt(lambda)
    return {"sampling.normal_draws": m * n,
            "sampling.flops_computed": 2 * m * n * (m + n) + m * m + n * n}


def _standard_sample_counts(args, result) -> dict:
    return {"sampling.normal_draws": result.size}


def _load_cells(args, result) -> dict:
    return {"harness.load_cells": result[0].size}


# (layer, module, attribute, counter). The attribute is the name the calling
# module resolves at call time, so patching it there is what that caller sees.
PATCHES = (
    ("cli", "mvgdp.cli", "main", None),
    ("harness.run", "mvgdp", "run_experiment", None),
    ("harness.run", "mvgdp.cli", "run_experiment", None),
    ("harness.load", "mvgdp.harness", "load_csv_matrix", _load_cells),
    ("harness.load", "mvgdp.cli", "load_csv_matrix", _load_cells),
    ("mechanisms.release", "mvgdp.harness", "mvg_unimodal", None),
    ("mechanisms.release", "mvgdp.harness", "mvg_equimodal", None),
    ("mechanisms.directions", "mvgdp.harness", "derive_directions_dp", None),
    ("budget.report", "mvgdp.mechanisms", "precision_budget_unimodal", None),
    ("budget.report", "mvgdp.mechanisms", "precision_budget_equimodal", None),
    ("budget.check", "mvgdp.mechanisms", "check_condition", None),
    ("budget.check", "mvgdp.harness", "check_condition", None),
    ("design.build", "mvgdp.mechanisms", "NoiseDesign", _design_bytes),
    ("sampling", "mvgdp.mechanisms", "sample_mvg", _mvg_sample_counts),
    ("sampling", "mvgdp.mechanisms", "sample_standard_matrix", _standard_sample_counts),
    ("metrics", "mvgdp.harness", "ridge_regression_rmse", None),
    ("metrics", "mvgdp.harness", "delta_rho", None),
    ("metrics", "mvgdp.harness", "rss", None),
    ("metrics", "mvgdp.harness", "mean_ci95", None),
)


class Tracer:
    """Records the spans of one run while installed as a context manager.

    Entering clears the previous run's spans and installs the wrappers;
    leaving restores the original functions.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._current = NO_PARENT
        self._saved: list = []

    def _wrap(self, layer: str, fn, counter):
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            spans = self.spans
            parent = self._current
            index = len(spans)
            spans.append(None)
            self._current = index
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (layer, start, perf_counter_ns(), parent)
                self._current = parent
            if counter is not None:
                self.counts.update(counter(args, result))
            return result
        return traced

    def __enter__(self) -> "Tracer":
        self.spans = []
        self.counts = Counter()
        self._current = NO_PARENT
        for layer, module_name, attr, counter in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original, counter))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def summarize(spans, counts) -> dict:
    """Per-layer calls, inclusive ms and self ms for one run's spans."""
    child_ns = [0] * len(spans)
    for layer, start, end, parent in spans:
        if parent != NO_PARENT:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    total_ns: Counter = Counter()
    self_ns: Counter = Counter()
    for i, (layer, start, end, parent) in enumerate(spans):
        calls[layer] += 1
        total_ns[layer] += end - start
        self_ns[layer] += end - start - child_ns[i]

    def ms(counter, layer):
        return counter[layer] / 1e6

    return {
        "budget.report_calls": calls["budget.report"],
        "budget.report_ms": ms(total_ns, "budget.report"),
        "budget.check_calls": calls["budget.check"],
        "budget.check_ms": ms(total_ns, "budget.check"),
        "design.build_calls": calls["design.build"],
        "design.build_ms": ms(total_ns, "design.build"),
        "design.bytes_computed": counts["design.bytes_computed"],
        "sampling.calls": calls["sampling"],
        "sampling.ms": ms(total_ns, "sampling"),
        "sampling.normal_draws": counts["sampling.normal_draws"],
        "sampling.flops_computed": counts["sampling.flops_computed"],
        "mechanisms.release_ms": ms(total_ns, "mechanisms.release"),
        "mechanisms.self_ms": (ms(self_ns, "mechanisms.release")
                               + ms(self_ns, "mechanisms.directions")),
        "mechanisms.directions_calls": calls["mechanisms.directions"],
        "mechanisms.directions_ms": ms(total_ns, "mechanisms.directions"),
        "metrics.calls": calls["metrics"],
        "metrics.ms": ms(total_ns, "metrics"),
        "harness.load_calls": calls["harness.load"],
        "harness.load_ms": ms(total_ns, "harness.load"),
        "harness.load_cells": counts["harness.load_cells"],
        "harness.self_ms": ms(self_ns, "harness.run"),
        "cli.self_ms": ms(self_ns, "cli"),
    }


def write_spans(path, spans) -> None:
    """Write spans as JSON lines: name, start_ns, end_ns, parent index."""
    with open(path, "w", encoding="utf-8") as handle:
        for layer, start, end, parent in spans:
            handle.write(json.dumps({"name": layer, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
