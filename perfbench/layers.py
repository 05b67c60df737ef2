"""Per-layer metrics from the spans of a traced run.

A span metric is named <span>.<quantity>, where <span> is a wrapped
function (trace_child.TARGETS) and <quantity> one of QUANTITY_UNITS.
Self time is a span's duration minus the durations of its direct
children, which nest inside it on the single thread of a child.
import.* come from fresh interpreters timed in sequence and
trace.overhead_s from traced against untraced wall time (see run.py).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

QUANTITY_UNITS = {
    "calls": "count", "s": "s", "self_s": "s", "us_per_call": "us", "ms_per_call": "ms",
    "steps": "count", "ns_per_step": "ns", "diverged": "count", "points": "count",
    "us_per_point": "us", "rows": "count", "bytes": "B", "mb_per_s": "MB/s",
    "failed": "count", "calls_per_point": "calls/point", "dropped": "count",
}
HIGHER_IS_BETTER = {"mb_per_s"}
# quantities that need only the span's calls and times
TIME_QUANTITIES = {"calls", "s", "self_s", "us_per_call", "ms_per_call"}

IMPORT_METRICS = ("import.interpreter_s", "import.numpy_s", "import.scipy_signal_s",
                  "import.infodelay_self_s")
SPAN_METRICS = (
    "cli.main.self_s",
    "cli.parse_config.us_per_call", "cli.parse_config.self_s",
    "cli.run.self_s",
    "model.equilibria.calls", "model.equilibria.us_per_call", "model.equilibria.self_s",
    "model.coexistence.calls", "model.coexistence.self_s",
    "cubic.cubic_roots.calls", "cubic.cubic_roots.us_per_call", "cubic.cubic_roots.self_s",
    "stability.char_coeffs.us_per_call", "stability.char_coeffs.self_s",
    "stability.hopf_candidates.calls", "stability.hopf_candidates.us_per_call",
    "stability.hopf_candidates.calls_per_point", "stability.hopf_candidates.dropped",
    "stability.hopf_candidates.self_s",
    "normal_form.compute_normal_form.calls", "normal_form.compute_normal_form.us_per_call",
    "normal_form.compute_normal_form.failed", "normal_form.compute_normal_form.self_s",
    "integrator.simulate.calls", "integrator.simulate.steps",
    "integrator.simulate.ns_per_step", "integrator.simulate.diverged",
    "integrator.simulate.self_s",
    "integrator.simulate_distributed.steps", "integrator.simulate_distributed.ns_per_step",
    "integrator.simulate_distributed.self_s",
    "integrator.Trajectory.__call__.points", "integrator.Trajectory.__call__.us_per_point",
    "integrator.Trajectory.__call__.self_s",
    "integrator.cycle_metrics.calls", "integrator.cycle_metrics.ms_per_call",
    "integrator.cycle_metrics.rows", "integrator.cycle_metrics.self_s",
    "integrator.fft_period.ms_per_call", "integrator.fft_period.self_s",
    "integrator.Trajectory.to_csv.s", "integrator.Trajectory.to_csv.bytes",
    "integrator.Trajectory.to_csv.mb_per_s", "integrator.Trajectory.to_csv.self_s",
    "plots.trajectory_plots.ms_per_call", "plots.trajectory_plots.bytes",
    "plots.trajectory_plots.self_s",
)
OVERHEAD_METRIC = "trace.overhead_s"
METRICS = IMPORT_METRICS + SPAN_METRICS + (OVERHEAD_METRIC,)


def unit(metric: str) -> str:
    if metric in IMPORT_METRICS or metric == OVERHEAD_METRIC:
        return "s"
    return QUANTITY_UNITS[metric.rsplit(".", 1)[1]]


def better(metric: str) -> str:
    return "higher" if metric.rsplit(".", 1)[1] in HIGHER_IS_BETTER else "lower"


@dataclass
class SpanTotals:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    quantities: Counter = field(default_factory=Counter)
    measure_errors: set = field(default_factory=set)


def span_totals(children: list[dict]) -> dict[str, SpanTotals]:
    """Calls, inclusive time, self time and summed quantities per span
    name over the spans files of one traced run's children."""
    totals: dict[str, SpanTotals] = {}
    for child in children:
        spans = child["spans"]
        covered = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, _, start, end, quantities), cover in zip(spans, covered):
            t = totals.setdefault(name, SpanTotals())
            t.calls += 1
            t.total += end - start
            t.self_time += end - start - cover
            t.quantities.update({k: v for k, v in quantities.items()
                                 if isinstance(v, (int, float))})
            if "measure_error" in quantities:
                t.measure_errors.add(quantities["measure_error"])
    return totals


def _per(total: float, count: float, scale: float) -> float:
    # a layer a workload never reaches costs nothing per call
    return total / count * scale if count else 0.0


def span_metrics(children: list[dict]) -> tuple[dict[str, float | None], list[str]]:
    """Every SPAN_METRICS value of one traced run, and notes. A metric
    whose function the package no longer has, or whose quantity the
    wrapper could not take from the call, is None."""
    totals = span_totals(children)
    counters: Counter = Counter()
    missing: dict[str, str] = {}
    for child in children:
        counters.update(child["counters"])
        missing.update(child["missing"])
    values: dict[str, float | None] = {}
    notes = [f"{name}: {why}; its metrics are null" for name, why in sorted(missing.items())]
    for metric in SPAN_METRICS:
        span, quantity = metric.rsplit(".", 1)
        t = totals.get(span, SpanTotals())
        if span in missing or (t.measure_errors and quantity not in TIME_QUANTITIES):
            values[metric] = None
            continue
        q = t.quantities
        values[metric] = {
            "calls": lambda: t.calls,
            "s": lambda: t.total,
            "self_s": lambda: t.self_time,
            "us_per_call": lambda: _per(t.total, t.calls, 1e6),
            "ms_per_call": lambda: _per(t.total, t.calls, 1e3),
            "ns_per_step": lambda: _per(t.total, q["steps"], 1e9),
            "us_per_point": lambda: _per(t.total, q["points"], 1e6),
            "mb_per_s": lambda: _per(q["bytes"], t.total, 1e-6),
            "calls_per_point": lambda: _per(t.calls, counters["crossing_points"], 1.0),
            "dropped": lambda: counters["dropped"],
        }.get(quantity, lambda: q[quantity])()
    notes += [f"{name}: quantities not measured ({', '.join(sorted(t.measure_errors))}); "
              f"they are null" for name, t in sorted(totals.items()) if t.measure_errors]
    return values, notes
