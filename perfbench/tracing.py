"""Per-call tracing of hexcover's public functions, from outside the package.

``Tracer.installed()`` replaces each traced name where the caller looks it
up (``hexcover.cli.evaluate_covers``, ``hexcover.experiment.classified_block``,
``CoverEvaluator.theta_sums``, ...) with a wrapper that times the call as a
span on its thread.  Spans are folded into per-thread aggregates when they
end: calls, busy time, and self time (busy time minus the time of the
child spans the call made on the same thread).  Nothing under ``src/`` is
modified, and the originals are restored when the context exits.
"""

from __future__ import annotations

import contextlib
import threading
from collections import defaultdict
from time import perf_counter

from hexcover import circuits, cli, experiment, geometry, model
from hexcover.experiment import RAW_BLOCK, CoverEvaluator


def _observe_matrix(result, counts):
    counts["experiment.blocks_used"] += result.raw_draws // RAW_BLOCK
    counts["experiment.raw_draws"] += result.raw_draws
    counts["experiment.samples"] += result.n


def _observe_curve(result, counts):
    counts["experiment.sweep_points"] += len(result.grid)


# (owner, attribute, span name, observer of the return value).  Names bound
# into several modules are wrapped in each; all copies share one span name.
TRACED = (
    (cli, "main", "cli.main", None),
    (cli, "evaluate_covers", "experiment.evaluate_covers", _observe_matrix),
    (cli, "compare_vs_baseline", "experiment.compare_vs_baseline", None),
    (cli, "containment_analysis", "experiment.containment_analysis", None),
    (cli, "linear_homotopy", "experiment.linear_homotopy", _observe_curve),
    (cli, "simplicial_homotopy", "experiment.simplicial_homotopy", _observe_curve),
    (cli, "all_covers", "covers.all_covers", None),
    (cli, "cover_theta_sum", "circuits.cover_theta_sum", None),
    (cli, "classify", "model.classify", None),
    (cli, "hex_coefficients", "model.hex_coefficients", None),
    (cli, "closed_form_bound", "model.closed_form_bound", None),
    (experiment, "classified_block", "experiment.classified_block", None),
    (experiment, "hex_coefficient_arrays", "experiment.hex_coefficient_arrays", None),
    (experiment, "all_covers", "covers.all_covers", None),
    (CoverEvaluator, "theta_sums", "experiment.CoverEvaluator.theta_sums", None),
    (model, "cover_theta_sum", "circuits.cover_theta_sum", None),
    (model, "classify", "model.classify", None),
    (model, "hex_coefficients", "model.hex_coefficients", None),
    (circuits, "barycentric_coordinates", "geometry.barycentric_coordinates", None),
    (geometry, "barycentric_coordinates", "geometry.barycentric_coordinates", None),
)


class _ThreadState(threading.local):
    def __init__(self, registry, lock):
        self.stack = []                     # child-time accumulators of open spans
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, busy_s, self_s]
        self.counts = defaultdict(int)
        with lock:
            registry.append((self.spans, self.counts))


class Tracer:
    """Span aggregates per thread for the names in ``TRACED``."""

    def __init__(self):
        self.registry = []  # (spans, counts), one entry per thread seen
        self._state = _ThreadState(self.registry, threading.Lock())

    def _wrap(self, fn, name, observe):
        state = self._state

        def traced_call(*args, **kwargs):
            stack = state.stack
            child = [0.0]
            stack.append(child)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                agg = state.spans[name]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - child[0]
            if observe is not None:
                observe(result, state.counts)
            return result

        traced_call.__wrapped__ = fn
        return traced_call

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TRACED]
        try:
            for (owner, attr, name, observe), (_, _, fn) in zip(TRACED, originals):
                setattr(owner, attr, self._wrap(fn, name, observe))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def totals(self):
        """Span aggregates and counts summed over threads."""
        spans = defaultdict(lambda: [0, 0.0, 0.0])
        counts = defaultdict(int)
        for thread_spans, thread_counts in self.registry:
            for name, agg in thread_spans.items():
                total = spans[name]
                for i, v in enumerate(agg):
                    total[i] += v
            for name, v in thread_counts.items():
                counts[name] += v
        return spans, counts


def layer_metrics(tracer: Tracer, passes: int, threads: int) -> dict[str, float]:
    """Per-layer metrics, per traced pass, from the tracer's aggregates."""
    spans, counts = tracer.totals()

    def calls(name):
        return spans[name][0] / passes

    def busy(name):
        return spans[name][1] / passes

    def self_s(name):
        return spans[name][2] / passes

    blocks_used = counts["experiment.blocks_used"] / passes
    evaluate_s = busy("experiment.evaluate_covers")
    return {
        "experiment.classified_block.calls": calls("experiment.classified_block"),
        "experiment.blocks_used": blocks_used,
        "experiment.blocks_wasted": calls("experiment.classified_block") - blocks_used,
        "experiment.classified_block.busy_s": busy("experiment.classified_block"),
        "experiment.pool_busy_frac": (busy("experiment.classified_block") / (threads * evaluate_s)
                                      if evaluate_s else 0.0),
        "experiment.accept_rate": (counts["experiment.samples"] / counts["experiment.raw_draws"]
                                   if counts["experiment.raw_draws"] else 0.0),
        "experiment.hex_coefficient_arrays.busy_s": busy("experiment.hex_coefficient_arrays"),
        "experiment.CoverEvaluator.theta_sums.busy_s": busy("experiment.CoverEvaluator.theta_sums"),
        "experiment.evaluate_covers.self_s": self_s("experiment.evaluate_covers"),
        "experiment.containment_analysis.busy_s": busy("experiment.containment_analysis"),
        "experiment.compare_vs_baseline.busy_s": busy("experiment.compare_vs_baseline"),
        "experiment.simplicial_homotopy.busy_s": busy("experiment.simplicial_homotopy"),
        "experiment.linear_homotopy.busy_s": busy("experiment.linear_homotopy"),
        "experiment.sweep_points": counts["experiment.sweep_points"] / passes,
        "covers.all_covers.busy_s": busy("covers.all_covers"),
        "circuits.cover_theta_sum.busy_s": busy("circuits.cover_theta_sum"),
        "geometry.barycentric_coordinates.calls": calls("geometry.barycentric_coordinates"),
        "geometry.barycentric_coordinates.busy_s": busy("geometry.barycentric_coordinates"),
        "model.closed_form_bound.busy_s": busy("model.closed_form_bound"),
        "model.hex_coefficients.busy_s": busy("model.hex_coefficients"),
        "model.classify.busy_s": busy("model.classify"),
        "cli.main.self_s": self_s("cli.main"),
    }
