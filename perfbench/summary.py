"""Summary statistics of a sweep's run records and of a traced replay."""

from __future__ import annotations

import math
import statistics

from spans import Span, self_times

TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest order statistic
    with TAIL_BEYOND samples above it.

    With fewer than 2 * TAIL_BEYOND + 1 samples that rule would land below
    the median, so the number above shrinks to floor((n - 1) / 2) and the
    reported percentile says how high the value really sits.
    """
    if not values:
        raise ValueError("no samples")
    xs = sorted(values)
    n = len(xs)
    index = n - 1 - min(TAIL_BEYOND, (n - 1) // 2)
    return xs[index], 100.0 * (index + 1) / n, n


def run_failed(record) -> bool:
    """A run fails when the estimator did not converge or produced NaN."""
    return (not record.converged) or any(math.isnan(v) for v in record.eta_hat)


def operation_failed(record) -> bool:
    """The run raised, so the harness wrote a NaN row in its place."""
    return any(math.isnan(v) for v in record.eta_hat)


def failed_run_frac(records) -> float:
    if not records:
        raise ValueError("no runs")
    return sum(run_failed(r) for r in records) / len(records)


def err_inf_median(records, n: int) -> float:
    """Median sup-norm error of the runs at network size n; a NaN error
    counts as infinitely bad rather than being dropped."""
    errs = [r.err_inf for r in records if r.n == n]
    return statistics.median(math.inf if math.isnan(e) else e for e in errs)


def layer_seconds_per_run(spans: list[Span], runs: int) -> dict[str, float]:
    """Self time of each span name inside the runs, summed and divided by
    the run count. Spans outside any run (probes) are left out."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        if span.run is not None:
            totals[span.name] = totals.get(span.name, 0.0) + own
    return {name: t / runs for name, t in totals.items()}
