"""Experiment configuration, the Monte Carlo convergence harness, and CSV
emission.

A run samples a network at the true parameter, solves the finite game,
interpolates the observation and estimates the parameter back. The harness
sweeps network sizes and seeds and writes one CSV row per run, with a
quantile summary alongside.

Determinism: every byte of the results and quantile CSVs is a function of
(config, master_seed). Floats are printed with 17 significant digits, runs
execute in sorted (N, run) order, and per-run seeds come from a documented
hash, so reruns are byte-identical. Wall-clock timings are inherently not
reproducible and therefore go to a separate sidecar file, together with
the time of each stage (sampling, the finite-game solve, estimation) and
the per-run solver facts (evaluations, the finite game's solver route and
its iterations, residual and interior flag, the contraction certificate
and the class of any failure).
"""

from __future__ import annotations

import io
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np
import yaml

from .errors import ConfigError, EmptyGroup, GraphonGameError
from .estimator import EstimateOptions, estimate, model_equilibrium_fn
from .functionspace import l2_distance
from .game import (
    LQAffine,
    LQHomogeneous,
    LQSBM,
    ParameterBox,
    StrategySet,
    contraction_margin,
)
from .graphon import ConstantGraphon, Graphon, GridGraphon, SBMGraphon
from .sampling import observe, sample_network, solve_network_game

DEFAULT_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)


@dataclass
class SolverOptions:
    tol: float = 1e-10
    max_iter: int = 100_000


@dataclass
class ExperimentConfig:
    graphon: Graphon
    game: LQAffine
    eta_true: np.ndarray
    n_list: list[int]
    runs_per_n: int
    master_seed: int
    output: str = "results.csv"
    solver: SolverOptions = field(default_factory=SolverOptions)
    optimizer: EstimateOptions = field(default_factory=EstimateOptions)

    def validate(self) -> list[str]:
        """Structural checks; returns the list of problems (empty = valid)."""
        problems = list(self.graphon.validate())
        try:
            self.game.affine_maps(self.graphon)
        except (TypeError, ValueError) as exc:
            problems.append(str(exc))
        eta = np.asarray(self.eta_true, dtype=float)
        if eta.shape != (self.game.xi.dim,):
            problems.append(
                f"eta_true has length {eta.size}, parameter box has "
                f"dimension {self.game.xi.dim}"
            )
        elif not self.game.xi.contains_interior(eta):
            problems.append("eta_true is not in the interior of the box")
        if not problems:
            margin = contraction_margin(self.game, self.graphon)
            if margin <= 0.0:
                problems.append(
                    f"contraction margin over the box corners is {margin:.6g}"
                )
        if any(int(n) < 1 for n in self.n_list):
            problems.append("network sizes must be positive")
        if len(set(self.n_list)) != len(self.n_list):
            problems.append("n_list contains duplicates")
        if self.runs_per_n < 0:
            problems.append("runs_per_n must be nonnegative")
        if self.master_seed < 0:
            problems.append("master_seed must be nonnegative")
        opt, sol = self.optimizer, self.solver
        for name, value, ok, rule in (
            ("optimizer.gtol", opt.gtol, _positive_finite,
             "positive and finite"),
            ("optimizer.max_iter", opt.max_iter, _count, "an integer >= 1"),
            ("optimizer.margin_buffer", opt.margin_buffer,
             lambda v: _real(v) and 0.0 <= v < 1.0, "in [0, 1)"),
            ("solver.tol", sol.tol, _positive_finite, "positive and finite"),
            ("solver.max_iter", sol.max_iter, _count, "an integer >= 1"),
        ):
            if not ok(value):
                problems.append(f"{name} must be {rule}, got {value!r}")
        return problems


def _real(v) -> bool:
    # YAML's true and false are Python bools, which numbers.Real admits
    return isinstance(v, Real) and not isinstance(v, bool)


def _positive_finite(v) -> bool:
    return _real(v) and 0.0 < v < math.inf


def _count(v) -> bool:
    return _real(v) and isinstance(v, Integral) and v >= 1


@dataclass
class RunRecord:
    n: int
    run: int
    seed: int
    eta_hat: np.ndarray
    err_inf: float
    err_2: float
    objective: float
    l2_obs_vs_graphon: float
    hessian_min_eig: float
    converged: bool
    wall_time_s: float
    # sidecar only: seconds spent sampling, solving the finite game and
    # estimating (NaN for a stage the run did not complete), estimator
    # residual evaluations, the finite game's solver route ("cg" or
    # "project", "" when unsolved) and its iterations, residual, interior
    # flag (None when unsolved) and contraction certificate, and the
    # exception class of a failed run
    sample_s: float = float("nan")
    solve_s: float = float("nan")
    estimate_s: float = float("nan")
    evaluations: int = 0
    br_iterations: int = 0
    route: str = ""
    residual: float = float("nan")
    interior: bool | None = None
    certificate: str = ""
    contraction_margin: float = float("nan")
    failure: str = ""


def derive_run_seed(master_seed: int, run_index: int, n: int) -> int:
    """Per-run stream key: numpy's SeedSequence hashes the entropy tuple
    (master_seed, run_index, n) into one 64-bit word. SeedSequence output is
    stable across numpy versions and platforms, and distinct tuples give
    independent streams, so runs can be scheduled in any order."""
    ss = np.random.SeedSequence((int(master_seed), int(run_index), int(n)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@contextmanager
def _timed(times: dict, stage: str):
    """Store the seconds the block takes in ``times[stage]``, unless it
    raises."""
    started = time.perf_counter()
    yield
    times[stage] = time.perf_counter() - started


def run_experiment(config: ExperimentConfig, progress=None) -> list[RunRecord]:
    """Execute the full sweep: for each network size and run index, sample,
    solve the finite game at the true parameter, observe, estimate.

    Individual run failures (the package's own errors, and the
    ``LinAlgError`` and ``ValueError`` numpy and scipy raise on degenerate
    input) become rows with NaN metrics, converged = false and the
    exception class in ``failure``; they are never dropped. ``progress`` is
    an optional callable receiving each finished record.
    """
    problems = config.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    g = config.graphon
    game = config.game
    eta_true = np.asarray(config.eta_true, dtype=float)
    true_fn = model_equilibrium_fn(g, game, eta_true)
    n_params = game.xi.dim
    records: list[RunRecord] = []
    for n in sorted(int(v) for v in config.n_list):
        for run in range(config.runs_per_n):
            seed = derive_run_seed(config.master_seed, run, n)
            started = time.perf_counter()
            neq = result = None
            failure = ""
            nan = float("nan")
            times = dict.fromkeys(("sample_s", "solve_s", "estimate_s"), nan)
            try:
                with _timed(times, "sample_s"):
                    net = sample_network(g, n, seed)
                with _timed(times, "solve_s"):
                    neq = solve_network_game(
                        net, game, eta_true,
                        tol=config.solver.tol, max_iter=config.solver.max_iter,
                    )
                obs = observe(net, neq)
                l2 = l2_distance(obs, true_fn)
                with _timed(times, "estimate_s"):
                    result = estimate(obs, g, game, config.optimizer)
            except (GraphonGameError, np.linalg.LinAlgError, ValueError) as exc:
                failure = type(exc).__name__
            eta_hat = result.eta_hat if result else np.full(n_params, nan)
            record = RunRecord(
                n=n,
                run=run,
                seed=seed,
                eta_hat=eta_hat,
                err_inf=float(np.max(np.abs(eta_hat - eta_true))),
                err_2=float(np.linalg.norm(eta_hat - eta_true)),
                objective=result.objective if result else nan,
                l2_obs_vs_graphon=l2 if result else nan,
                hessian_min_eig=result.hessian_min_eig if result else nan,
                converged=bool(result and result.converged),
                wall_time_s=time.perf_counter() - started,
                **times,
                evaluations=result.iterations_total if result else 0,
                br_iterations=neq.iterations if neq else 0,
                route=neq.route if neq else "",
                residual=neq.residual if neq else nan,
                interior=neq.interior if neq else None,
                certificate=neq.certificate if neq else "",
                contraction_margin=neq.contraction_margin if neq else nan,
                failure=failure,
            )
            records.append(record)
            if progress is not None:
                progress(record)
    return records


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def records_header(n_params: int) -> list[str]:
    return (
        ["N", "run", "seed"]
        + [f"eta_hat_{i + 1}" for i in range(n_params)]
        + [
            "err_inf",
            "err_2",
            "objective",
            "l2_obs_vs_graphon",
            "hessian_min_eig",
            "converged",
        ]
    )


def records_to_csv(records: list[RunRecord], n_params: int) -> str:
    """Deterministic results CSV (no timing column; see module docstring)."""
    out = io.StringIO()
    out.write(",".join(records_header(n_params)) + "\n")
    for r in records:
        cells = [str(r.n), str(r.run), str(r.seed)]
        cells += [_fmt(v) for v in r.eta_hat]
        cells += [
            _fmt(r.err_inf),
            _fmt(r.err_2),
            _fmt(r.objective),
            _fmt(r.l2_obs_vs_graphon),
            _fmt(r.hessian_min_eig),
            "true" if r.converged else "false",
        ]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def write_records_csv(records: list[RunRecord], path, n_params: int) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(records_to_csv(records, n_params))


def timings_to_csv(records: list[RunRecord]) -> str:
    """Sidecar with measured wall times and per-run solver facts, kept out
    of the deterministic CSV."""
    out = io.StringIO()
    out.write("N,run,wall_time_s,sample_s,solve_s,estimate_s,evaluations,"
              "br_iterations,route,residual,interior,certificate,"
              "contraction_margin,failure\n")
    interior = {True: "true", False: "false", None: ""}
    for r in records:
        cells = [str(r.n), str(r.run), _fmt(r.wall_time_s), _fmt(r.sample_s),
                 _fmt(r.solve_s), _fmt(r.estimate_s), str(r.evaluations),
                 str(r.br_iterations), r.route, _fmt(r.residual),
                 interior[r.interior], r.certificate,
                 _fmt(r.contraction_margin), r.failure]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def write_timings_csv(records: list[RunRecord], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(timings_to_csv(records))


def summarize_quantiles(records: list[RunRecord],
                        quantiles=DEFAULT_QUANTILES) -> list[tuple]:
    """Per network size, the requested quantiles of each estimated
    coordinate and of the sup-norm error, as (N, metric, quantile, value)
    rows. Quantiles use the inclusive linear-interpolation definition
    (numpy's default "linear" method)."""
    if not records:
        raise EmptyGroup("no records to summarize")
    n_params = records[0].eta_hat.size
    rows: list[tuple] = []
    for n in sorted({r.n for r in records}):
        group = [r for r in records if r.n == n]
        metrics = {
            f"eta_hat_{i + 1}": np.array([r.eta_hat[i] for r in group])
            for i in range(n_params)
        }
        metrics["err_inf"] = np.array([r.err_inf for r in group])
        for name in list(metrics):
            for q in quantiles:
                value = float(np.quantile(metrics[name], q, method="linear"))
                rows.append((n, name, float(q), value))
    return rows


def quantiles_to_csv(rows: list[tuple]) -> str:
    out = io.StringIO()
    out.write(
        "# quantile definition: inclusive linear interpolation between "
        "order statistics (numpy method='linear')\n"
    )
    out.write("N,metric,quantile,value\n")
    for n, metric, q, value in rows:
        out.write(f"{n},{metric},{_fmt(q)},{_fmt(value)}\n")
    return out.getvalue()


def write_quantiles_csv(rows: list[tuple], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(quantiles_to_csv(rows))


# Configuration parsing. The file is a YAML tree; see configs/sbm4.yaml for
# the schema by example.

def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing '{key}' in {context}")
    return mapping[key]


def _graphon_from_dict(d: dict, base_dir=None) -> Graphon:
    kind = str(_require(d, "kind", "graphon")).lower()
    if kind == "constant":
        return ConstantGraphon(float(_require(d, "value", "constant graphon")))
    if kind == "sbm":
        return SBMGraphon(
            np.asarray(_require(d, "q", "sbm graphon"), dtype=float),
            np.asarray(_require(d, "pi", "sbm graphon"), dtype=float),
        )
    if kind == "grid":
        path = _require(d, "csv", "grid graphon")
        if base_dir is not None:
            path = os.path.join(base_dir, path)
        return GridGraphon.from_csv(path)
    raise ConfigError(f"unknown graphon kind {kind!r}")


def _game_from_dict(d: dict) -> LQAffine:
    kind = str(_require(d, "kind", "game")).lower()
    lo, hi = _require(d, "strategy_set", "game")
    strategy_set = StrategySet(float(lo), float(hi))
    xi_spec = _require(d, "xi", "game")
    xi = ParameterBox(
        np.asarray(_require(xi_spec, "lower", "xi"), dtype=float),
        np.asarray(_require(xi_spec, "upper", "xi"), dtype=float),
    )
    if kind == "lq_homogeneous":
        return LQHomogeneous(strategy_set=strategy_set, xi=xi)
    if kind == "lq_sbm":
        theta1 = float(_require(d, "theta1", "lq_sbm game"))
        return LQSBM(theta1=theta1, strategy_set=strategy_set, xi=xi)
    raise ConfigError(f"unknown game kind {kind!r}")


def config_from_dict(d: dict, base_dir=None) -> ExperimentConfig:
    try:
        graphon = _graphon_from_dict(dict(_require(d, "graphon", "config")), base_dir)
        game = _game_from_dict(dict(_require(d, "game", "config")))
        eta_true = np.asarray(_require(d, "eta_true", "config"), dtype=float)
        n_list = [int(v) for v in _require(d, "n_list", "config")]
        runs_per_n = int(_require(d, "runs_per_n", "config"))
        master_seed = int(_require(d, "master_seed", "config"))
        solver = _options(SolverOptions, d, "solver")
        optimizer = _options(EstimateOptions, d, "optimizer")
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    return ExperimentConfig(
        graphon=graphon,
        game=game,
        eta_true=eta_true,
        n_list=n_list,
        runs_per_n=runs_per_n,
        master_seed=master_seed,
        output=str(d.get("output", "results.csv")),
        solver=solver,
        optimizer=optimizer,
    )


def _options(cls, d: dict, key: str):
    """``cls`` built from the mapping ``d[key]``. A string that spells a
    number is read as one: PyYAML reads ``1e-9``, which has no dot, as a
    string. Any other value is passed on for ``validate`` to judge."""
    return cls(**{k: _number(v) for k, v in dict(d.get(key) or {}).items()})


def _number(v):
    if isinstance(v, str):
        for kind in (int, float):
            try:
                return kind(v)
            except ValueError:
                pass
    return v


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} does not contain a configuration mapping")
    return config_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))
