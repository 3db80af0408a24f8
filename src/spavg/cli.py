"""Command line entry point.

Subcommands mirror the experiment drivers: converge, diagnose, check, fbar,
simulate. Every run writes CSV output into the configured output directory
and exits with 0 on success, 1 when a threshold check fails, 2 on a
configuration problem (including a config file that cannot be read and an
output directory that cannot be created), and 3 when the numerics break
down (Newton failure or an unsolvable linear system).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import ConfigError, ExperimentConfig, load_config
from .experiments import (
    run_check_conditions,
    run_convergence,
    run_diagnostics,
    run_fbar,
    run_simulate,
    write_conditions_csv,
    write_convergence_csv,
    write_diagnostics_csv,
    write_fbar_csv,
    write_report,
    write_suite_csvs,
    write_trajectory_csv,
)
from .integrators import NewtonDivergence

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spavg",
        description="Slow-fast stochastic PDE averaging experiments on a 1d grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="path to a key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", default=None, help="override output_dir")
        p.add_argument(
            "--replicas", type=int, default=None, help="override Monte Carlo replicas"
        )

    p = sub.add_parser("converge", help="strong error of the averaged equation")
    add_common(p)
    p = sub.add_parser("diagnose", help="moment, scaling and decay diagnostics")
    add_common(p)
    p = sub.add_parser("check", help="structural conditions of the configured model")
    add_common(p)
    p = sub.add_parser("fbar", help="averaged forcing at the initial slow state")
    add_common(p)
    p = sub.add_parser("simulate", help="one coupled trajectory dump")
    add_common(p)
    p.add_argument(
        "--epsilon", type=float, default=None, help="scale separation for the run"
    )
    return parser


def _load(args: argparse.Namespace) -> ExperimentConfig:
    """The run's config, with its output directory created."""
    config = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.replicas is not None:
        overrides["replicas"] = args.replicas
    if overrides:
        config = dataclasses.replace(config, **overrides)
    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {config.output_dir}: {exc}") from exc
    return config


def _out_path(config: ExperimentConfig, name: str) -> str:
    return os.path.join(config.output_dir, name)


def _cmd_converge(config: ExperimentConfig) -> int:
    result = run_convergence(config)
    write_convergence_csv(result, _out_path(config, "convergence.csv"))
    lines = result.report_lines()
    write_report(lines, _out_path(config, "convergence_report.txt"))
    for line in lines:
        print(line)
    if result.any_failed:
        return EXIT_NUMERICS
    return EXIT_OK if result.passed else EXIT_THRESHOLD


def _cmd_diagnose(config: ExperimentConfig) -> int:
    result = run_diagnostics(config)
    write_diagnostics_csv(result, _out_path(config, "diagnostics.csv"))
    write_suite_csvs(result, config.output_dir)
    lines = result.report_lines()
    write_report(lines, _out_path(config, "diagnostics_report.txt"))
    for line in lines:
        print(line)
    return EXIT_OK if result.passed else EXIT_THRESHOLD


def _cmd_check(config: ExperimentConfig) -> int:
    result = run_check_conditions(config)
    write_conditions_csv(result, _out_path(config, "conditions.csv"))
    for report in result.reports:
        status = "PASS" if report.violations == 0 else "FAIL"
        print(
            f"{report.condition}: samples={report.samples} "
            f"violations={report.violations} worst_margin={report.worst_margin:.6g} "
            f"({status})"
        )
    return EXIT_OK if result.passed else EXIT_THRESHOLD


def _cmd_fbar(config: ExperimentConfig) -> int:
    result = run_fbar(config)
    write_fbar_csv(result, _out_path(config, "fbar.csv"))
    print(f"fbar: {result.n_replicas} replicas, {result.x.grid.n_interior} nodes")
    if result.oracle is not None:
        gap = abs(result.estimate_mean.values - result.oracle.values).max()
        print(f"fbar: max |estimate - closed form| = {gap:.3e}")
    return EXIT_OK


def _cmd_simulate(config: ExperimentConfig, epsilon: float | None) -> int:
    trajectory = run_simulate(config, epsilon)
    write_trajectory_csv(trajectory, _out_path(config, "trajectory.csv"))
    print(f"simulate: {len(trajectory.times)} states written")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load(args)
        if args.command == "converge":
            return _cmd_converge(config)
        if args.command == "diagnose":
            return _cmd_diagnose(config)
        if args.command == "check":
            return _cmd_check(config)
        if args.command == "fbar":
            return _cmd_fbar(config)
        # The parser admits no command but these five.
        return _cmd_simulate(config, args.epsilon)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NewtonDivergence, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
