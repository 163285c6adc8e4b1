"""Command-line interface.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from .diagnostics import homogeneous_identifiability, sbm_identifiability_constant
from .errors import ConfigError, GraphonGameError, NotInterior
from .estimator import estimate, model_equilibrium_fn
from .functionspace import interpolate_equilibrium
from .harness import (
    load_config,
    run_experiment,
    summarize_quantiles,
    write_quantiles_csv,
    write_records_csv,
    write_timings_csv,
)
from .sampling import observe, sample_network, solve_network_game, write_network


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_eta(text: str, dim: int) -> np.ndarray:
    try:
        eta = np.array([float(v) for v in text.split(",")])
    except ValueError:
        eta = np.array([])
    if eta.size != dim or not np.all(np.isfinite(eta)):
        raise ConfigError(f"--eta needs {dim} finite comma-separated numbers")
    return eta


def _load_observation(path) -> np.ndarray:
    """One finite observed strategy per line, at least one line."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty: caught below
            values = np.loadtxt(path, dtype=float, ndmin=1)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if values.ndim != 1 or values.size == 0 or not np.all(np.isfinite(values)):
        raise ConfigError(f"{path}: need one finite value per line")
    return values


def _load_config(args):
    """The config at ``--config`` with ``--seed`` applied."""
    config = load_config(args.config)
    if args.seed is not None:
        config.master_seed = args.seed
    return config


def _load_valid_config(args):
    config = _load_config(args)
    problems = config.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    return config


def cmd_validate(args) -> int:
    config = _load_config(args)
    problems = config.validate()
    if problems:
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return 1
    print("ok")
    return 0


def _network_size(args, config) -> int:
    n = args.n if args.n is not None else config.n_list[0]
    if n < 1:
        raise ConfigError("--n must be at least 1")
    return n


def cmd_solve(args) -> int:
    if args.samples < 0:
        raise ConfigError("--samples must be nonnegative")
    config = _load_valid_config(args)
    eta = (_parse_eta(args.eta, config.game.xi.dim) if args.eta
           else np.asarray(config.eta_true, float))
    fn = model_equilibrium_fn(config.graphon, config.game, eta)
    bounds = config.game.strategy_set
    if not bounds.is_interior(fn.values):
        # the resolvent ignores the strategy bounds, so it is the
        # equilibrium only when no bound binds
        raise NotInterior(
            f"equilibrium profile leaves the strategy set "
            f"[{bounds.lower:g}, {bounds.upper:g}]"
        )
    if args.samples:
        grid = (np.arange(args.samples) + 0.5) / args.samples
        lines = [_fmt(v) for v in fn(grid)]
    else:
        lines = [
            f"{_fmt(left)} {_fmt(right)} {_fmt(value)}"
            for left, right, value in zip(
                fn.breakpoints[:-1], fn.breakpoints[1:], fn.values
            )
        ]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_sample(args) -> int:
    config = _load_valid_config(args)
    n = _network_size(args, config)
    seed = config.master_seed
    net = sample_network(config.graphon, n, seed)
    prefix = args.out or "network"
    edges_path = f"{prefix}_edges.txt"
    labels_path = f"{prefix}_labels.txt"
    write_network(net, edges_path, labels_path)
    print(f"wrote {edges_path} and {labels_path} (N={n}, seed={seed})")
    return 0


def cmd_estimate(args) -> int:
    config = _load_valid_config(args)
    if args.observation:
        obs = interpolate_equilibrium(_load_observation(args.observation))
    else:
        n = _network_size(args, config)
        net = sample_network(config.graphon, n, config.master_seed)
        neq = solve_network_game(
            net, config.game, config.eta_true,
            tol=config.solver.tol, max_iter=config.solver.max_iter,
        )
        obs = observe(net, neq)
    result = estimate(obs, config.graphon, config.game, config.optimizer)
    print("eta_hat = " + ",".join(_fmt(v) for v in result.eta_hat))
    print(f"objective = {_fmt(result.objective)}")
    print(f"gradient_norm = {_fmt(result.gradient_norm)}")
    print(f"hessian_min_eig = {_fmt(result.hessian_min_eig)}")
    print(f"converged = {'true' if result.converged else 'false'}")
    return 0


def _print_progress(record) -> None:
    converged = "true" if record.converged else "false"
    print(f"N={record.n} run={record.run} converged={converged} "
          f"wall_time_s={record.wall_time_s:.3f}",
          file=sys.stderr, flush=True)


def cmd_experiment(args) -> int:
    config = _load_valid_config(args)
    out = args.out or config.output
    records = run_experiment(config, _print_progress if args.progress else None)
    n_params = config.game.xi.dim
    write_records_csv(records, out, n_params)
    rows = summarize_quantiles(records)
    write_quantiles_csv(rows, f"{out}.quantiles.csv")
    write_timings_csv(records, f"{out}.timings.csv")
    print(f"wrote {len(records)} records to {out}")
    for n in sorted({r.n for r in records}):
        errs = np.array([r.err_inf for r in records if r.n == n])
        print(f"N={n}: median err_inf = {_fmt(np.median(errs))}")
    return 0


def cmd_diagnose(args) -> int:
    config = _load_valid_config(args)
    eta = np.asarray(config.eta_true, dtype=float)
    # a known theta1 (D1 = 0) is the community game's shape
    if not config.game.d1.any():
        report = sbm_identifiability_constant(config.graphon, config.game, eta)
    else:
        report = homogeneous_identifiability(config.graphon, eta)
    print(f"identifiable = {'true' if report.identifiable else 'false'}")
    if report.constant is not None:
        print(f"constant = {_fmt(report.constant)}")
    if report.gamma is not None:
        print(f"gamma = {_fmt(report.gamma)}")
    for key in sorted(report.detail):
        print(f"{key} = {_fmt(report.detail[key])}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a YAML config")
    common.add_argument(
        "--seed", type=int, default=None, help="override the master seed"
    )
    common.add_argument("--out", default=None, help="output path or prefix")

    parser = argparse.ArgumentParser(
        prog="graphon-games",
        description=(
            "Equilibria of graphon games and parameter estimation from "
            "observed equilibrium play."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[common]).set_defaults(func=cmd_validate)

    p_solve = sub.add_parser("solve", parents=[common])
    p_solve.add_argument("--eta", default=None, help="comma-separated parameters")
    p_solve.add_argument(
        "--samples", type=int, default=0,
        help="emit this many grid samples instead of the piecewise form",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_sample = sub.add_parser("sample", parents=[common])
    p_sample.add_argument("--n", type=int, default=None, help="network size")
    p_sample.set_defaults(func=cmd_sample)

    p_est = sub.add_parser("estimate", parents=[common])
    p_est.add_argument(
        "--observation", default=None,
        help="file with one observed strategy per line; omit to sample fresh",
    )
    p_est.add_argument("--n", type=int, default=None, help="network size")
    p_est.set_defaults(func=cmd_estimate)

    p_exp = sub.add_parser("experiment", parents=[common])
    p_exp.add_argument(
        "--progress", action="store_true",
        help="print one line per finished run on stderr",
    )
    p_exp.set_defaults(func=cmd_experiment)
    sub.add_parser("diagnose", parents=[common]).set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GraphonGameError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
