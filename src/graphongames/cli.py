"""Command-line interface.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .diagnostics import homogeneous_identifiability, sbm_identifiability_constant
from .errors import ConfigError, GraphonGameError, NotInterior
from .estimator import estimate, model_equilibrium_fn
from .functionspace import interpolate_equilibrium
from .harness import (
    _cell,
    load_config,
    quantiles_to_csv,
    records_to_csv,
    run_experiment,
    summarize_quantiles,
    timings_to_csv,
    write_text,
)
from .sampling import (_loadtxt, observe, sample_network, solve_network_game,
                       write_network)


def _parse_eta(text: str, config) -> np.ndarray:
    """The parameter ``--eta`` spells out. It is not checked against the
    box, but the game needs theta1, theta2 >= 0 on every cell."""
    dim = config.game.xi.dim
    try:
        eta = np.array([float(v) for v in text.split(",")])
    except ValueError:
        eta = np.array([])
    if eta.size != dim or not np.all(np.isfinite(eta)):
        raise ConfigError(f"--eta needs {dim} finite comma-separated numbers")
    b1, d1, b2, d2 = config.game.affine_maps(config.graphon)
    if np.any(b1 + d1 @ eta < 0.0) or np.any(b2 + d2 @ eta < 0.0):
        raise ConfigError("--eta must give theta1 >= 0 and theta2 >= 0 on "
                          "every cell")
    return eta


def _load_observation(path) -> np.ndarray:
    """One finite observed strategy per line, at least one line."""
    try:
        values = _loadtxt(path, float, 1, "one value")[:, 0]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if values.size == 0 or not np.all(np.isfinite(values)):
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


def _emit(args, lines) -> None:
    """A command's output lines: written to ``--out`` when given,
    printed otherwise."""
    text = "\n".join(lines) + "\n"
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)


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
    eta = (_parse_eta(args.eta, config) if args.eta
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
        lines = [_cell(v) for v in fn(grid)]
    else:
        lines = [
            f"{_cell(left)} {_cell(right)} {_cell(value)}"
            for left, right, value in zip(
                fn.breakpoints[:-1], fn.breakpoints[1:], fn.values
            )
        ]
    _emit(args, lines)
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
        neq = solve_network_game(net, config.game, config.eta_true)
        obs = observe(net, neq)
    result = estimate(obs, config.graphon, config.game)
    _emit(args, [
        "eta_hat = " + ",".join(_cell(v) for v in result.eta_hat),
        f"objective = {_cell(result.objective)}",
        f"gradient_norm = {_cell(result.gradient_norm)}",
        f"hessian_min_eig = {_cell(result.hessian_min_eig)}",
        f"converged = {_cell(result.converged)}",
    ])
    return 0


def _print_progress(record) -> None:
    print(f"N={record.n} run={record.run} converged={_cell(record.converged)} "
          f"wall_time_s={record.wall_time_s:.3f}",
          file=sys.stderr, flush=True)


def cmd_experiment(args) -> int:
    config = _load_valid_config(args)
    if config.runs_per_n == 0:
        raise ConfigError("runs_per_n is 0: the sweep has no runs")
    out = args.out or config.output
    if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"results path {out}: not a file in a directory")
    records = run_experiment(config, _print_progress if args.progress else None)
    write_text(out, records_to_csv(records, config.game.xi.dim))
    write_text(f"{out}.quantiles.csv",
               quantiles_to_csv(summarize_quantiles(records)))
    write_text(f"{out}.timings.csv", timings_to_csv(records))
    print(f"wrote {len(records)} records to {out}")
    for n in sorted({r.n for r in records}):
        errs = np.array([r.err_inf for r in records if r.n == n])
        print(f"N={n}: median err_inf = {_cell(np.median(errs))}")
    return 0


def cmd_diagnose(args) -> int:
    config = _load_valid_config(args)
    eta = np.asarray(config.eta_true, dtype=float)
    # a known theta1 (D1 = 0) is the community game's shape
    closed_form = (homogeneous_identifiability if config.game.d1.any()
                   else sbm_identifiability_constant)
    report = closed_form(config.graphon, config.game, eta)
    lines = [f"identifiable = {_cell(report.identifiable)}"]
    if report.constant is not None:
        lines.append(f"constant = {_cell(report.constant)}")
    if report.gamma is not None:
        lines.append(f"gamma = {_cell(report.gamma)}")
    lines += [f"{key} = {_cell(report.detail[key])}"
              for key in sorted(report.detail)]
    _emit(args, lines)
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
    source = p_est.add_mutually_exclusive_group()
    source.add_argument(
        "--observation", default=None,
        help="file with one observed strategy per line; omit to sample fresh",
    )
    source.add_argument("--n", type=int, default=None, help="network size")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which here
        # is the code of a numerical failure
        return 1 if exc.code else 0
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
