"""The benchmark proper: set-up timing, untraced sweeps, the traced replay,
probes, the correctness gate and the report. ``run.py`` is the entry point;
it pins the BLAS thread count and puts the package sources on the path
before this module is imported.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import scipy

from graphongames import (
    LQSBM,
    GraphonGameError,
    RunRecord,
    contraction_margin,
    derive_run_seed,
    estimate,
    hessian,
    model_equilibrium_fn,
    observe,
    run_experiment,
    sample_network,
    solve_network_game,
    summarize_quantiles,
)
from graphongames.equilibrium import (
    gradient_values,
    second_derivative_values,
    solve_values,
)
from graphongames.functionspace import l2_distance
from graphongames.harness import quantiles_to_csv, records_to_csv
from graphongames.sampling import network_spectral_radius

import gate
from spans import Tracer
from summary import (
    err_inf_median,
    failed_run_frac,
    layer_seconds_per_run,
    operation_failed,
    run_failed,
    tail,
)
from workloads import WORKLOADS, sbm4_config, sweep_config

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_REPEATS = 3
SPECTRAL_REPEATS = 3
HESSIAN_REPEATS = 5
MICRO_REPEATS = 7
MICRO_BATCH_S = 0.02
MIB = 1024.0 * 1024.0

# Timed in a fresh interpreter: import, build the workload's configuration,
# validate it.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import graphongames
t1 = time.perf_counter()
import workloads
config = workloads.WORKLOADS[sys.argv[3]].build(sys.argv[4])
problems = config.validate()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "problems": problems}))
"""

# Metric names and units, as BENCHMARK.json lists them. failed_run_frac and
# err_inf_p50 are end-to-end figures too, but they are printed rather than
# put in the JSON line: they are 0 on some workloads, and their spread from
# seed to seed is wider than any bound the benchmark could set.
END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "runs/s",
    "run_p50_s": "s",
    "run_tail_s": "s",
    "peak_rss_mb": "MB",
}
PRINTED_ONLY = {"failed_run_frac": "ratio", "err_inf_p50": "1"}
PER_LAYER = {
    "sampling.sample_s": "s",
    "sampling.spectral_s": "s",
    "sampling.solve_s": "s",
    "sampling.br_iterations": "count",
    "sampling.network_mb": "MB",
    "sampling.sample_peak_mb": "MB",
    "functionspace.observe_s": "s",
    "functionspace.l2_distance_s": "s",
    "graphon.lambda_max_us": "us",
    "game.contraction_margin_us": "us",
    "equilibrium.solve_values_us": "us",
    "equilibrium.gradient_values_us": "us",
    "equilibrium.second_derivative_values_us": "us",
    "estimator.estimate_s": "s",
    "estimator.iterations_per_start": "count",
    "estimator.hessian_s": "s",
    "estimator.converged_frac": "ratio",
    "estimator.err_inf_p50": "1",
    "harness.emit_s": "s",
    "harness.run_self_s": "s",
    "setup.import_s": "s",
    "setup.config_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# -- machine facts ---------------------------------------------------------

def blas_threads_read_back() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library loaded in-process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return {}
    found = {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[os.path.basename(path)] = int(fn())
                break
    return found


def git_facts() -> dict:
    def git(*args):
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None

    try:
        commit = git("rev-parse", "HEAD")
        status = git("status", "--porcelain") if commit else None
    except (OSError, subprocess.TimeoutExpired):
        commit = status = None
    return {"git_commit": commit, "git_dirty": None if status is None else bool(status)}


def machine_facts(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads_set": blas_threads,
        "blas_threads_read_back": blas_threads_read_back(),
        **git_facts(),
    }


# -- timing helpers --------------------------------------------------------

def measure_setup(workload: str) -> dict:
    """Median over fresh interpreters; the BLAS thread variables are
    inherited from this process."""
    walls, imports, configs = [], [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, SRC, BENCH_DIR, workload, ROOT],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        walls.append(time.perf_counter() - started)
        if out.returncode != 0:
            raise BenchError(f"set-up child failed:\n{out.stderr}")
        child = json.loads(out.stdout.splitlines()[-1])
        if child["problems"]:
            raise BenchError(f"invalid configuration: {child['problems']}")
        imports.append(child["import_s"])
        configs.append(child["config_s"])
    return {
        "walls": walls,
        "setup_s": statistics.median(walls),
        "setup.import_s": statistics.median(imports),
        "setup.config_s": statistics.median(configs),
    }


def timed_probe(tracer: Tracer, name: str, fn, repeats: int,
                batch_s: float = 0.0) -> float:
    """Median seconds per call over ``repeats`` spans, each making enough
    calls to last about ``batch_s``."""
    started = time.perf_counter()
    fn()
    first = time.perf_counter() - started
    calls = max(1, int(batch_s / first)) if first > 0.0 else 1
    per_call = []
    for _ in range(repeats):
        with tracer.span(name):
            started = time.perf_counter()
            for _ in range(calls):
                fn()
            per_call.append((time.perf_counter() - started) / calls)
    return statistics.median(per_call)


def traced_peak_mb(fn) -> float:
    """Peak memory fn allocates, by tracemalloc (numpy reports its array
    buffers to it)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def array_bytes(a) -> int:
    """Bytes held by a dense array or a scipy sparse matrix, so the metric
    keeps working if the network layer moves to sparse storage."""
    if hasattr(a, "nbytes"):
        return int(a.nbytes)
    return sum(int(getattr(a, f).nbytes) for f in ("data", "indices", "indptr", "row", "col")
               if hasattr(a, f))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def game_pi(config):
    """Community weights, which only the community game takes."""
    return config.graphon.pi if isinstance(config.game, LQSBM) else None


# -- sweeps ------------------------------------------------------------------

def warm_up(config):
    """One small run, so lazy imports and first-call costs stay out of the
    timed sweeps."""
    run_experiment(replace(config, n_list=[min(config.n_list)], runs_per_n=1))


def run_sweeps(config, seed: int, min_sweeps: int, seconds: float):
    """At least ``min_sweeps`` sweeps with fresh master seeds, then more
    while the next one is expected to end within half a sweep of
    ``seconds``. Returns the records of each sweep and its wall time."""
    sweeps, walls = [], []
    started = time.perf_counter()
    while True:
        cfg = sweep_config(config, seed, len(sweeps))
        t = time.perf_counter()
        sweeps.append(run_experiment(cfg))
        walls.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - started
        if len(sweeps) >= min_sweeps and elapsed + walls[-1] / 2 > seconds:
            return sweeps, walls


@dataclass
class ReplayedRun:
    record: RunRecord
    neq: object = None
    result: object = None


def replay(config, tracer: Tracer):
    """run_experiment's sweep, call by call, with a span around each call
    into a layer. Returns the runs and the last successful run's network
    and observation, which the probes reuse."""
    g, game = config.graphon, config.game
    eta_true = np.asarray(config.eta_true, dtype=float)
    pi = game_pi(config)
    runs, last = [], None
    with tracer.span("harness.sweep"):
        problems = config.validate()
        if problems:
            raise BenchError("; ".join(problems))
        true_fn = model_equilibrium_fn(g, game, eta_true)
        for n in sorted(int(v) for v in config.n_list):
            for run in range(config.runs_per_n):
                with tracer.span("harness.run", run=len(runs)):
                    started = time.perf_counter()
                    seed = derive_run_seed(config.master_seed, run, n)
                    out = ReplayedRun(record=None)
                    try:
                        with tracer.span("sampling.sample_network"):
                            net = sample_network(g, n, seed)
                        with tracer.span("sampling.solve_network_game"):
                            out.neq = solve_network_game(
                                net, game, eta_true, tol=config.solver.tol,
                                max_iter=config.solver.max_iter, pi=pi,
                            )
                        with tracer.span("functionspace.observe"):
                            obs = observe(net, out.neq)
                        with tracer.span("estimator.estimate"):
                            out.result = estimate(obs, g, game, config.optimizer)
                        with tracer.span("functionspace.l2_distance"):
                            l2 = l2_distance(obs, true_fn)
                        eta_hat = out.result.eta_hat
                        last = (net, obs, eta_hat)
                    except GraphonGameError:
                        eta_hat = np.full(game.xi.dim, np.nan)
                        l2 = math.nan
                    res = out.result
                    out.record = RunRecord(
                        n=n, run=run, seed=seed, eta_hat=eta_hat,
                        err_inf=float(np.max(np.abs(eta_hat - eta_true))),
                        err_2=float(np.linalg.norm(eta_hat - eta_true)),
                        objective=res.objective if res else math.nan,
                        l2_obs_vs_graphon=l2,
                        hessian_min_eig=res.hessian_min_eig if res else math.nan,
                        converged=bool(res and res.converged),
                        wall_time_s=time.perf_counter() - started,
                    )
                runs.append(out)
    return runs, last


def probe_layers(config, tracer: Tracer, last) -> dict:
    """Time the public functions the sweep calls only indirectly, outside
    the run spans, on the last replayed run and at the true parameter."""
    g, game = config.graphon, config.game
    eta = np.asarray(config.eta_true, dtype=float)
    net, obs, eta_hat = last
    m = {}
    m["sampling.spectral_s"] = timed_probe(
        tracer, "sampling.network_spectral_radius",
        lambda: network_spectral_radius(net), SPECTRAL_REPEATS)
    m["estimator.hessian_s"] = timed_probe(
        tracer, "estimator.hessian",
        lambda: hessian(obs, g, game, eta_hat), HESSIAN_REPEATS)
    micro = {
        "graphon.lambda_max_us": ("graphon.lambda_max", g.lambda_max),
        "game.contraction_margin_us": (
            "game.contraction_margin", lambda: contraction_margin(game, g)),
        "equilibrium.solve_values_us": (
            "equilibrium.solve_values", lambda: solve_values(g, game, eta)),
        "equilibrium.gradient_values_us": (
            "equilibrium.gradient_values", lambda: gradient_values(g, game, eta)),
        "equilibrium.second_derivative_values_us": (
            "equilibrium.second_derivative_values",
            lambda: second_derivative_values(g, game, eta)),
    }
    for metric, (span, fn) in micro.items():
        m[metric] = 1e6 * timed_probe(tracer, span, fn, MICRO_REPEATS, MICRO_BATCH_S)
    # Memory of the last network size: what sampling allocates at its peak,
    # and what the network holds plus the solve's peak allocation on top.
    m["sampling.sample_peak_mb"] = traced_peak_mb(
        lambda: sample_network(g, net.n_agents, net.seed))
    solve_peak = traced_peak_mb(lambda: solve_network_game(
        net, game, eta, tol=config.solver.tol,
        max_iter=config.solver.max_iter, pi=game_pi(config)))
    held = array_bytes(net.labels) + array_bytes(net.adjacency)
    m["sampling.network_mb"] = held / MIB + solve_peak
    return m


# -- the two modes -----------------------------------------------------------

def common_gate(workload, config, records) -> list[str]:
    problems = gate.check_digest(sbm4_config(ROOT).graphon)
    problems += gate.check_fd(config.graphon, config.game, config.eta_true)
    if workload.gate_err_decreasing:
        problems += gate.check_err_decreasing(records)
    return problems


def accuracy(records) -> dict:
    largest = max(r.n for r in records)
    return {
        "failed_run_frac": failed_run_frac(records),
        "err_inf_p50": err_inf_median(records, largest),
        "failed_note": (f"{sum(map(run_failed, records))} of {len(records)} "
                        f"runs of the accuracy sweeps failed"),
        "err_note": f"N={largest}, accuracy sweeps",
    }


def first_run_equilibria(config):
    """The finite-game equilibrium of the first run at each size, solved
    again outside the timed sweeps so the gate can read its residual."""
    return [
        solve_network_game(
            sample_network(config.graphon, n, derive_run_seed(config.master_seed, 0, n)),
            config.game, config.eta_true, tol=config.solver.tol,
            max_iter=config.solver.max_iter, pi=game_pi(config))
        for n in sorted(config.n_list)
    ]


def untraced(name: str, seed: int, seconds: float) -> dict:
    workload = WORKLOADS[name]
    setup = measure_setup(name)
    config = workload.build(ROOT)
    warm_up(config)
    sweeps, walls = run_sweeps(config, seed, workload.accuracy_sweeps, seconds)
    records = [r for sweep in sweeps for r in sweep]
    acc_records = [r for sweep in sweeps[: workload.accuracy_sweeps] for r in sweep]
    # The run-time quantiles come from a fixed set of runs, so a faster
    # version that fits more sweeps into --seconds is judged at the same
    # percentile: the accuracy sweeps' runs at the largest N.
    largest = max(config.n_list)
    times = [r.wall_time_s for r in acc_records if r.n == largest]
    tail_value, tail_pct, tail_n = tail(times)
    acc = accuracy(acc_records)
    problems = common_gate(workload, config, acc_records)
    problems += gate.check_residuals(
        first_run_equilibria(sweep_config(config, seed, 0)), config.solver.tol)
    metrics = {
        "setup_s": setup["setup_s"],
        "runs_per_s": len(records) / sum(walls),
        "run_p50_s": statistics.median(times),
        "run_tail_s": tail_value,
        "peak_rss_mb": peak_rss_mb(),
        "failed_run_frac": acc["failed_run_frac"],
        "err_inf_p50": acc["err_inf_p50"],
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters: "
                   + " ".join(f"{w:.3f}" for w in setup["walls"]),
        "runs_per_s": f"{len(records)} runs in {len(sweeps)} sweeps, {sum(walls):.2f} s",
        "run_p50_s": f"median of {len(times)} runs at N={largest}",
        "run_tail_s": f"p{tail_pct:.1f} of {tail_n} runs at N={largest}",
        "peak_rss_mb": "ru_maxrss of this process",
        "failed_run_frac": acc["failed_note"],
        "err_inf_p50": acc["err_note"],
    }
    return {
        "metrics": metrics,
        "units": {**END_TO_END, **PRINTED_ONLY},
        "reported": END_TO_END,
        "notes": notes,
        "attempted": len(records),
        "failed": sum(map(operation_failed, records)),
        "problems": problems,
        "runs": [[r.n, r.run, r.wall_time_s] for r in records],
        "sweep_walls": walls,
    }


def traced(name: str, seed: int) -> dict:
    workload = WORKLOADS[name]
    setup = measure_setup(name)
    config = workload.build(ROOT)
    warm_up(config)
    sweeps, _ = run_sweeps(config, seed, workload.accuracy_sweeps, 0.0)
    acc_records = [r for sweep in sweeps for r in sweep]
    # The overhead baseline is the first sweep run again untraced just
    # before its replay: the first pass after start-up runs slower (the
    # allocator is still growing the heap), which would hide the overhead.
    started = time.perf_counter()
    run_experiment(sweep_config(config, seed, 0))
    untraced_s = time.perf_counter() - started
    tracer = Tracer()
    runs, last = replay(sweep_config(config, seed, 0), tracer)
    if last is None:
        raise BenchError("every replayed run failed; nothing to probe")
    with tracer.span("harness.emit"):
        records = [r.record for r in runs]
        records_to_csv(records, config.game.xi.dim)
        quantiles_to_csv(summarize_quantiles(records))
    emit_s = tracer.spans[-1].duration
    replay_s = next(s.duration for s in tracer.spans if s.name == "harness.sweep")
    probes = probe_layers(config, tracer, last)

    per_run = layer_seconds_per_run(tracer.spans, len(runs))
    done = [r for r in runs if r.result is not None]
    acc = accuracy(acc_records)
    metrics = {
        "sampling.sample_s": per_run["sampling.sample_network"],
        "sampling.spectral_s": probes["sampling.spectral_s"],
        "sampling.solve_s": per_run["sampling.solve_network_game"],
        "sampling.br_iterations": statistics.mean(r.neq.iterations for r in done),
        "sampling.network_mb": probes["sampling.network_mb"],
        "sampling.sample_peak_mb": probes["sampling.sample_peak_mb"],
        "functionspace.observe_s": per_run["functionspace.observe"],
        "functionspace.l2_distance_s": per_run["functionspace.l2_distance"],
        "graphon.lambda_max_us": probes["graphon.lambda_max_us"],
        "game.contraction_margin_us": probes["game.contraction_margin_us"],
        "equilibrium.solve_values_us": probes["equilibrium.solve_values_us"],
        "equilibrium.gradient_values_us": probes["equilibrium.gradient_values_us"],
        "equilibrium.second_derivative_values_us":
            probes["equilibrium.second_derivative_values_us"],
        "estimator.estimate_s": per_run["estimator.estimate"],
        "estimator.iterations_per_start": (
            sum(r.result.iterations_total for r in done)
            / sum(r.result.starts for r in done)),
        "estimator.hessian_s": probes["estimator.hessian_s"],
        "estimator.converged_frac": 1.0 - acc["failed_run_frac"],
        "estimator.err_inf_p50": acc["err_inf_p50"],
        "harness.emit_s": emit_s,
        "harness.run_self_s": per_run["harness.run"],
        "setup.import_s": setup["setup.import_s"],
        "setup.config_s": setup["setup.config_s"],
        "trace.overhead_s": replay_s - untraced_s,
    }
    problems = common_gate(workload, config, acc_records)
    problems += gate.check_residuals([r.neq for r in done], config.solver.tol)
    problems += gate.check_replay(sweeps[0], records)
    notes = {
        "estimator.converged_frac": acc["failed_note"],
        "estimator.err_inf_p50": acc["err_note"],
        "trace.overhead_s": f"traced replay {replay_s:.3f} s, untraced sweep {untraced_s:.3f} s",
    }
    return {
        "metrics": metrics,
        "units": PER_LAYER,
        "reported": PER_LAYER,
        "notes": notes,
        "attempted": len(runs),
        "failed": len(runs) - len(done),
        "problems": problems,
        "spans": tracer.to_json(),
    }


# -- report ------------------------------------------------------------------

def report(args, facts: dict, result: dict) -> dict:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    for metric, value in result["metrics"].items():
        unit = result["units"][metric]
        note = result["notes"].get(metric, "")
        print(f"  {metric:<42} {value:>14.6g} {unit:<7} {note}")
    for problem in result["problems"]:
        print(f"GATE FAILED: {problem}")
    print(f"gate {'failed' if result['problems'] else 'passed'}")
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m: {"value": result["metrics"][m], "unit": unit}
            for m, unit in result["reported"].items()
        },
    }


def main(argv, blas_threads: int) -> int:
    p = argparse.ArgumentParser(description="graphongames pipeline benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    facts = machine_facts(blas_threads)
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = untraced(args.workload, args.seed, args.seconds)
    line = report(args, facts, result)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "machine": facts, **result, "line": line}, fh,
                  indent=1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1
