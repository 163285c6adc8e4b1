"""The benchmark's calls into the package, on a small sweep.

perfbench/bench.py builds ``RunRecord`` by keyword, reads
``config.solver.tol`` and ``result.starts``, and calls
``solve_network_game(pi=...)``, ``estimate(..., config.optimizer)`` and
``l2_distance(obs, ...)``. A change to any of these would otherwise show
only when the benchmark itself runs.
"""

import math
import os
from dataclasses import replace

from graphongames import run_experiment
from graphongames.harness import records_to_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def out_dir_state():
    """Names and modification times under perfbench/out, or None."""
    out = os.path.join(BENCH_DIR, "out")
    if not os.path.isdir(out):
        return None
    return {e.name: e.stat().st_mtime_ns for e in os.scandir(out)}


def test_replay_probes_and_gate_calls(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import bench
    import gate
    from spans import Tracer
    from workloads import sbm4_config

    before = out_dir_state()
    config = replace(sbm4_config(ROOT), n_list=[40], runs_per_n=2)
    tracer = Tracer()
    runs, last = bench.replay(config, tracer)
    records = [r.record for r in runs]
    assert last is not None and all(r.result is not None for r in runs)
    assert gate.check_replay(run_experiment(config), records) == []
    assert len(records_to_csv(records, config.game.xi.dim).splitlines()) == 3
    evaluations = sum(r.result.iterations_total for r in runs)
    assert evaluations / sum(r.result.starts for r in runs) >= 1.0

    (neq,) = bench.first_run_equilibria(config)
    assert neq.residual <= config.solver.tol

    probes = bench.probe_layers(config, tracer, last)
    assert set(probes) == {
        "sampling.spectral_s", "estimator.hessian_s", "graphon.lambda_max_us",
        "game.contraction_margin_us", "equilibrium.solve_values_us",
        "equilibrium.gradient_values_us",
        "equilibrium.second_derivative_values_us", "sampling.sample_peak_mb",
        "sampling.network_mb",
    }
    assert all(math.isfinite(v) and v > 0.0 for v in probes.values())
    assert out_dir_state() == before
