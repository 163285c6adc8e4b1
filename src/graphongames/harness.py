"""Experiment configuration, the Monte Carlo convergence harness, and CSV
emission.

A run samples a network at the true parameter, solves the finite game,
interpolates the observation and estimates the parameter back. The harness
sweeps network sizes and seeds and writes one CSV row per run, with a
quantile summary alongside.

Each run's record is a ``RunRecord``, filled as each stage finishes; a
stage that did not finish leaves its fields at their defaults. The
results CSV's columns after ``N, run, seed, eta_hat_*`` are the record
fields named in ``RESULT_COLUMNS``, and the timing sidecar's after
``N, run`` are those named in ``TIMING_COLUMNS``: these two tuples are the
one place where the output columns are declared.

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

import math
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import ClassVar

import numpy as np

from .errors import ConfigError, EmptyGroup, GraphonGameError
from .equilibrium import DEFAULT_MAX_ITER, DEFAULT_TOL, _kernel_resolvent
from .estimator import _estimate, _j, _statistic
from .game import (
    LQAffine,
    LQHomogeneous,
    LQSBM,
    ParameterBox,
    StrategySet,
    contraction_margin,
)
from .graphon import ConstantGraphon, Graphon, GridGraphon
from .sampling import observe, sample_network, solve_network_game

DEFAULT_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)


@dataclass
class ExperimentConfig:
    graphon: Graphon
    game: LQAffine
    eta_true: np.ndarray
    n_list: list[int]
    runs_per_n: int
    master_seed: int
    output: str = "results.csv"
    # not settable: the finite-game solver defaults and estimate's ignored
    # argument, kept because perfbench/bench.py reads them (ROADMAP item 1)
    solver: ClassVar[SimpleNamespace] = SimpleNamespace(
        tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER)
    optimizer: ClassVar[None] = None

    def validate(self) -> list[str]:
        """Structural checks; returns the list of problems (empty = valid)."""
        problems = []
        try:
            self.game.affine_maps(self.graphon)
        except ValueError as exc:
            problems.append(str(exc))
        eta = np.asarray(self.eta_true, dtype=float)
        if eta.shape != (self.game.xi.dim,):
            problems.append(
                f"eta_true has shape {eta.shape}, parameter box has "
                f"dimension {self.game.xi.dim}"
            )
        elif not self.game.xi.contains_interior(eta):
            problems.append("eta_true is not in the interior of the box")
        if not problems:
            margin = contraction_margin(self.game, self.graphon)
            if margin <= 0.0:
                problems.append(
                    f"contraction margin over the parameter box is {margin:.6g}"
                )
        if not self.n_list:
            problems.append("n_list is empty")
        if any(int(n) < 1 for n in self.n_list):
            problems.append("network sizes must be positive")
        if len(set(self.n_list)) != len(self.n_list):
            problems.append("n_list contains duplicates")
        if self.runs_per_n < 0:
            problems.append("runs_per_n must be nonnegative")
        if self.master_seed < 0:
            problems.append("master_seed must be nonnegative")
        return problems


@dataclass(slots=True)
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
    # estimating (NaN for a stage the run did not complete), the minor page
    # faults of the process while sampling (None unless sampled), estimator
    # resolvent evaluations (order-2 solves), the finite game's solver route ("cg" or
    # "project", "" when unsolved) and its iterations, residual, interior
    # flag (None when unsolved) and contraction certificate, and the
    # exception class of a failed run
    sample_s: float = float("nan")
    solve_s: float = float("nan")
    estimate_s: float = float("nan")
    sample_minflt: int | None = None
    evaluations: int = 0
    br_iterations: int = 0
    route: str = ""
    residual: float = float("nan")
    interior: bool | None = None
    certificate: str = ""
    contraction_margin: float = float("nan")
    failure: str = ""


# The results CSV's columns after N, run, seed and eta_hat_*, and the timing
# sidecar's after N, run: RunRecord fields, in output order.
RESULT_COLUMNS = ("err_inf", "err_2", "objective", "l2_obs_vs_graphon",
                  "hessian_min_eig", "converged")
TIMING_COLUMNS = ("wall_time_s", "sample_s", "solve_s", "estimate_s",
                  "sample_minflt", "evaluations", "br_iterations", "route",
                  "residual", "interior", "certificate", "contraction_margin",
                  "failure")


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


def _minor_faults() -> int:
    """Minor page faults of this process so far, all threads included."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


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
    # one solver for every run (validate has checked the box's margin), and
    # the model equilibrium at eta_true in its coordinates
    solver = _kernel_resolvent(g, game)
    solved_true = solver(eta_true, 0)
    nan = float("nan")
    records: list[RunRecord] = []
    for n in sorted(int(v) for v in config.n_list):
        for run in range(config.runs_per_n):
            seed = derive_run_seed(config.master_seed, run, n)
            started = time.perf_counter()
            # RunRecord's fields, updated as each stage finishes
            rec = dict(n=n, run=run, seed=seed,
                       eta_hat=np.full(game.xi.dim, nan), objective=nan,
                       l2_obs_vs_graphon=nan, hessian_min_eig=nan,
                       converged=False)
            try:
                faults = _minor_faults()
                with _timed(rec, "sample_s"):
                    net = sample_network(g, n, seed)
                rec["sample_minflt"] = _minor_faults() - faults
                with _timed(rec, "solve_s"):
                    neq = solve_network_game(net, game, eta_true)
                rec.update(br_iterations=neq.iterations, route=neq.route,
                           residual=neq.residual, interior=neq.interior,
                           certificate=neq.certificate,
                           contraction_margin=neq.contraction_margin)
                obs = observe(net, neq)
                with _timed(rec, "estimate_s"):
                    stat = _statistic(obs, solver)
                    result = _estimate(stat, solver)
                # ||obs - s_true||_L2 is the square root of J at eta_true
                rec.update(eta_hat=result.eta_hat, objective=result.objective,
                           l2_obs_vs_graphon=math.sqrt(
                               _j(stat, solved_true)[0]),
                           hessian_min_eig=result.hessian_min_eig,
                           converged=result.converged,
                           evaluations=result.iterations_total)
            except (GraphonGameError, np.linalg.LinAlgError, ValueError) as exc:
                rec["failure"] = type(exc).__name__
            err = rec["eta_hat"] - eta_true
            record = RunRecord(**rec, err_inf=float(np.max(np.abs(err))),
                               err_2=float(np.linalg.norm(err)),
                               wall_time_s=time.perf_counter() - started)
            records.append(record)
            if progress is not None:
                progress(record)
    return records


def _cell(v) -> str:
    """One CSV or printed cell: floats with 17 significant digits, bools as
    true/false, None as empty, ints and strings as they are."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, str)):
        return str(v)
    return f"{float(v):.17g}"


def _csv(header, rows) -> str:
    return "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])


def records_to_csv(records: list[RunRecord], n_params: int) -> str:
    """Deterministic results CSV (no timing column; see module docstring)."""
    header = ["N", "run", "seed",
              *(f"eta_hat_{i + 1}" for i in range(n_params)), *RESULT_COLUMNS]
    return _csv(header, ([r.n, r.run, r.seed, *r.eta_hat,
                          *(getattr(r, c) for c in RESULT_COLUMNS)]
                         for r in records))


def timings_to_csv(records: list[RunRecord]) -> str:
    """Sidecar with measured wall times and per-run solver facts, kept out
    of the deterministic CSV."""
    return _csv(["N", "run", *TIMING_COLUMNS],
                ([r.n, r.run, *(getattr(r, c) for c in TIMING_COLUMNS)]
                 for r in records))


def summarize_quantiles(records: list[RunRecord]) -> list[tuple]:
    """Per network size, the ``DEFAULT_QUANTILES`` of each estimated
    coordinate and of the sup-norm error, as (N, metric, quantile, value)
    rows. Quantiles use the inclusive linear-interpolation definition
    (numpy's default "linear" method)."""
    if not records:
        raise EmptyGroup("no records to summarize")
    names = [f"eta_hat_{i + 1}" for i in range(records[0].eta_hat.size)]
    names.append("err_inf")
    rows: list[tuple] = []
    for n in sorted({r.n for r in records}):
        table = np.array([[*r.eta_hat, r.err_inf] for r in records if r.n == n])
        values = np.quantile(table, DEFAULT_QUANTILES, axis=0, method="linear")
        rows += [(n, name, float(q), float(values[k, j]))
                 for j, name in enumerate(names)
                 for k, q in enumerate(DEFAULT_QUANTILES)]
    return rows


def quantiles_to_csv(rows: list[tuple]) -> str:
    return ("# quantile definition: inclusive linear interpolation between "
            "order statistics (numpy method='linear')\n"
            + _csv(["N", "metric", "quantile", "value"], rows))


def write_text(path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


# Configuration parsing. The file is a YAML tree; see configs/sbm4.yaml for
# the schema by example.

def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing '{key}' in {context}")
    return mapping[key]


@contextmanager
def _naming(context: str, key: str):
    """Turn the TypeError or ValueError that a malformed value of ``key``
    raises into a ConfigError that names the key."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {context}: {key}: {exc}") from exc


def _read(mapping: dict, key: str, context: str, convert):
    """``convert(mapping[key])``; a missing key, or a value ``convert``
    refuses, is a ConfigError that names the key."""
    value = _require(mapping, key, context)
    with _naming(context, key):
        return convert(value)


def _mapping(v) -> dict:
    if not isinstance(v, dict):
        raise TypeError(f"expected a mapping, got {v!r}")
    return v


def _known(mapping: dict, keys, context: str) -> dict:
    """``mapping``, refusing any key outside ``keys``: a misspelt key would
    otherwise be ignored."""
    unknown = [k for k in mapping if k not in keys]
    if unknown:
        raise ConfigError(
            f"unknown key {', '.join(map(repr, unknown))} in {context}")
    return mapping


def _kind(d: dict, section: str, **schema) -> str:
    """The kind named in ``d``, whose other keys must be those that
    ``schema`` lists for that kind."""
    kind = str(_require(d, "kind", section)).lower()
    if kind not in schema:
        raise ConfigError(f"unknown {section} kind {kind!r}")
    _known(d, ("kind", *schema[kind]), f"{kind} {section}")
    return kind


def _graphon_from_dict(d: dict, base_dir=None) -> Graphon:
    kind = _kind(d, "graphon", constant=("value",), sbm=("q", "pi"),
                 grid=("csv",))
    if kind == "constant":
        return ConstantGraphon(float(_require(d, "value", "constant graphon")))
    if kind == "sbm":
        return Graphon(_require(d, "q", "sbm graphon"),
                       _require(d, "pi", "sbm graphon"))
    path = _require(d, "csv", "grid graphon")
    if base_dir is not None:
        path = os.path.join(base_dir, path)
    return GridGraphon.from_csv(path)


def _game_from_dict(d: dict) -> LQAffine:
    kind = _kind(d, "game", lq_homogeneous=("strategy_set", "xi"),
                 lq_sbm=("theta1", "strategy_set", "xi"))
    with _naming("game", "strategy_set"):
        lo, hi = _require(d, "strategy_set", "game")
        strategy_set = StrategySet(float(lo), float(hi))
    xi = _read(d, "xi", "game", _box)
    if kind == "lq_homogeneous":
        return LQHomogeneous(strategy_set=strategy_set, xi=xi)
    theta1 = _read(d, "theta1", "lq_sbm game", float)
    return LQSBM(theta1=theta1, strategy_set=strategy_set, xi=xi)


def _box(spec) -> ParameterBox:
    spec = _known(_mapping(spec), ("lower", "upper"), "xi")
    return ParameterBox(*(np.asarray(_require(spec, k, "xi"), dtype=float)
                          for k in ("lower", "upper")))


def config_from_dict(d: dict, base_dir=None) -> ExperimentConfig:
    """The configuration in the YAML tree ``d``. A missing, unknown or
    malformed key is a ConfigError that names it."""
    _known(d, [f.name for f in fields(ExperimentConfig)], "config")

    def read(key, convert):
        return _read(d, key, "config", convert)

    return ExperimentConfig(
        graphon=read("graphon",
                     lambda v: _graphon_from_dict(_mapping(v), base_dir)),
        game=read("game", lambda v: _game_from_dict(_mapping(v))),
        eta_true=read("eta_true", lambda v: np.asarray(v, dtype=float)),
        n_list=read("n_list", lambda v: [_whole(n) for n in v]),
        runs_per_n=read("runs_per_n", _whole),
        master_seed=read("master_seed", _whole),
        output=str(d.get("output", ExperimentConfig.output)),
    )


def _whole(v) -> int:
    """``v`` as an int, refusing rather than truncating a fraction, and
    refusing a bool, which ``float`` would read as 1 or 0."""
    if isinstance(v, bool) or not float(v).is_integer():
        raise ValueError(f"{v!r} is not a whole number")
    return int(v)


def load_config(path) -> ExperimentConfig:
    import yaml  # loaded by the first config file, not on import

    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} does not contain a configuration mapping")
    return config_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))
