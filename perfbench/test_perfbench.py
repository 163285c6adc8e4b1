"""Tests of the benchmark's own logic. Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import math
import os
import sys
from types import SimpleNamespace

import pytest

from spans import Span, Tracer, self_times
from summary import (
    failed_run_frac,
    layer_seconds_per_run,
    operation_failed,
    tail,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(name, start, end, parent=None, run=None):
    return Span(name, start, end, parent, run)


class TestSelfTime:
    def test_synthetic_tree(self):
        spans = [
            span("sweep", 0.0, 10.0),
            span("run", 1.0, 9.0, parent=0, run=0),
            span("sample", 1.0, 3.0, parent=1, run=0),
            span("estimate", 4.0, 8.0, parent=1, run=0),
            span("inner", 5.0, 6.0, parent=3, run=0),
        ]
        assert self_times(spans) == pytest.approx([2.0, 2.0, 2.0, 3.0, 1.0])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            span("parent", 0.0, 10.0),
            span("a", 2.0, 6.0, parent=0),
            span("b", 4.0, 8.0, parent=0),
            span("c", 9.0, 12.0, parent=0),  # clipped to the parent's end
        ]
        assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_grandchildren_do_not_count_against_the_root(self):
        spans = [
            span("root", 0.0, 4.0),
            span("child", 0.0, 2.0, parent=0),
            span("grandchild", 0.0, 2.0, parent=1),
        ]
        assert self_times(spans) == pytest.approx([2.0, 0.0, 2.0])

    def test_tracer_records_parents_and_inherits_run(self):
        tracer = Tracer()
        with tracer.span("sweep"):
            with tracer.span("run", run=3):
                with tracer.span("layer"):
                    pass
        names = [(s.name, s.parent, s.run) for s in tracer.spans]
        assert names == [("sweep", None, None), ("run", 0, 3), ("layer", 1, 3)]
        assert all(s.end >= s.start for s in tracer.spans)
        json.dumps(tracer.to_json())

    def test_per_run_layer_times_leave_out_probes(self):
        spans = [
            span("run", 0.0, 4.0, run=0),
            span("sample", 0.0, 1.0, parent=0, run=0),
            span("run", 4.0, 10.0, run=1),
            span("sample", 4.0, 7.0, parent=2, run=1),
            span("probe", 10.0, 50.0),
        ]
        per_run = layer_seconds_per_run(spans, runs=2)
        assert per_run == pytest.approx({"run": 3.0, "sample": 2.0})


class TestTail:
    def test_ten_runs_beyond(self):
        values = [float(v) for v in range(1, 101)]
        value, pct, n = tail(values)
        assert value == 90.0 and n == 100
        assert sum(v > value for v in values) == 10
        assert pct == pytest.approx(90.0)

    def test_smallest_sample_with_the_full_rule(self):
        values = [float(v) for v in range(21)]
        value, pct, _ = tail(values)
        assert sum(v > value for v in values) == 10
        assert value == 10.0  # the median, exactly

    def test_small_samples_never_drop_below_the_median(self):
        for n in range(1, 21):
            values = [float(v) for v in range(n)]
            value, pct, count = tail(values)
            assert count == n
            assert value >= sorted(values)[(n - 1) // 2]
            assert sum(v > value for v in values) == (n - 1) // 2
            assert pct == pytest.approx(100.0 * (values.index(value) + 1) / n)

    def test_order_does_not_matter(self):
        values = [3.0, 1.0, 2.0] * 10
        assert tail(values) == tail(sorted(values))

    def test_empty(self):
        with pytest.raises(ValueError):
            tail([])


def record(converged=True, eta=(0.5, 0.5)):
    return SimpleNamespace(converged=converged, eta_hat=list(eta))


class TestFailedRunFrac:
    def test_counts_nan_and_non_converged(self):
        records = [
            record(),
            record(converged=False),
            record(converged=False, eta=(math.nan, math.nan)),
            record(converged=True, eta=(0.1, math.nan)),
        ]
        assert failed_run_frac(records) == pytest.approx(3 / 4)
        assert [operation_failed(r) for r in records] == [False, False, True, True]

    def test_all_good(self):
        assert failed_run_frac([record(), record()]) == 0.0

    def test_no_runs(self):
        with pytest.raises(ValueError):
            failed_run_frac([])


def test_metric_lists_match_benchmark_json():
    """bench.py prints exactly the metrics BENCHMARK.json declares."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bench

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)
