"""Command line entry point.

COMMANDS is the one table of subcommands: each one's help text, its driver
and the report file it writes, if any. The parser is built from it, and
every run goes through _run, which writes the result's tables as CSV files
into the output directory and its report lines to the report file and
stdout. Exit status: 0 on success, 1 when a threshold check fails, 2 on a
configuration problem (including a config file that cannot be read and an
output directory that cannot be created), and 3 when the numerics break
down (a Newton failure or a non-finite state, also inside a converge row).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Callable, NamedTuple

from .config import ConfigError, ExperimentConfig, load_config
from .experiments import (
    run_check_conditions,
    run_convergence,
    run_diagnostics,
    run_fbar,
    run_simulate,
    write_report,
    write_tables,
)
from .integrators import NewtonDivergence

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


class Command(NamedTuple):
    help: str
    run: Callable
    report: str | None = None
    # The subcommand's own float options, (name, help), passed to run by keyword.
    options: tuple[tuple[str, str], ...] = ()


COMMANDS = {
    "converge": Command(
        "strong error of the averaged equation", run_convergence, "convergence_report.txt"
    ),
    "diagnose": Command(
        "moment, scaling and decay diagnostics", run_diagnostics, "diagnostics_report.txt"
    ),
    "check": Command("structural conditions of the configured model", run_check_conditions),
    "fbar": Command("averaged forcing at the initial slow state", run_fbar),
    "simulate": Command(
        "one coupled trajectory dump",
        run_simulate,
        options=(("epsilon", "scale separation for the run"),),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spavg",
        description="Slow-fast stochastic PDE averaging experiments on a 1d grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", default=None, help="path to a key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", default=None, help="override output_dir")
        p.add_argument("--replicas", type=int, default=None, help="override Monte Carlo replicas")
        for option, text in command.options:
            p.add_argument(f"--{option}", type=float, default=None, help=text)
    return parser


def _load(args: argparse.Namespace) -> ExperimentConfig:
    """The run's config, with its output directory created."""
    overrides = {"master_seed": args.seed, "output_dir": args.out, "replicas": args.replicas}
    config = dataclasses.replace(
        load_config(args.config), **{k: v for k, v in overrides.items() if v is not None}
    )
    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {config.output_dir}: {exc}") from exc
    return config


def _run(command: Command, config: ExperimentConfig, options: dict) -> int:
    """Write the result's tables and report, print the report, return the exit status."""
    result = command.run(config, **options)
    write_tables(result.tables(), config.output_dir)
    lines = result.report_lines()
    if command.report is not None:
        write_report(lines, os.path.join(config.output_dir, command.report))
    for line in lines:
        print(line)
    if getattr(result, "any_failed", False):  # a converge row left INVALID
        return EXIT_NUMERICS
    return EXIT_OK if result.passed else EXIT_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        config = _load(args)
        return _run(command, config, {name: getattr(args, name) for name, _ in command.options})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NewtonDivergence, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
