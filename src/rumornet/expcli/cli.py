"""Command-line experiment harness.

Verbs:
  generate   build the configured network and write its edge list + degree CSV
  threshold  write the analytic threshold table for the configured grid
  simulate   run a full scenario sweep (CSV + SVG per plot family + manifest)
  compare    cross-check mean-field against Monte Carlo per grid point

Exit codes: 0 success, 1 configuration error (a flag value included),
2 runtime failure, 3 comparison-tolerance failure.  argparse's own usage
errors (an unknown flag, a missing --config) also exit 2.
"""

from __future__ import annotations

import argparse
# argparse's gettext imports locale on the parser's first message; loading it
# with the module keeps that import out of main
import locale  # noqa: F401
import os
import sys

from ..netgen import write_edge_list
from .scenario import (
    ScenarioError,
    build_network,
    compare_engines,
    parse_scenario,
    run_scenario,
    threshold_table,
    write_comparison,
    write_distribution_csv,
    write_threshold_table,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_TOLERANCE = 3


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="scenario configuration file")
    sub.add_argument("--seed", default=None, help="override the master seed")
    sub.add_argument("--out", default=None, help="override the output directory")
    sub.add_argument("--workers", default=None, help="override the worker count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rumornet", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "write the configured network as an edge list"),
        ("threshold", "write analytic threshold tables"),
        ("simulate", "run one scenario sweep"),
        ("compare", "mean-field vs Monte Carlo cross-check"),
    ):
        _add_common(sub.add_parser(name, help=help_text))
    return parser


def _cmd_generate(scenario) -> int:
    os.makedirs(scenario.out_dir, exist_ok=True)
    dist, network = build_network(scenario)
    edge_path = os.path.join(scenario.out_dir, "network.edgelist")
    dist_path = os.path.join(scenario.out_dir, "degree_distribution.csv")
    write_edge_list(network, edge_path)
    write_distribution_csv(dist, dist_path)
    print(f"wrote {edge_path} ({network.n} nodes, {network.edge_count} edges, "
          f"{network.erased_edges} erased stub pairs)")
    print(f"wrote {dist_path}")
    return EXIT_OK


def _cmd_threshold(scenario) -> int:
    rows = threshold_table(scenario)
    files = write_threshold_table(scenario, rows)
    for name in files:
        print(f"wrote {os.path.join(scenario.out_dir, name)}")
    return EXIT_OK


def _cmd_simulate(scenario) -> int:
    manifest = run_scenario(scenario)
    print(f"completed {manifest['completed']}/{manifest['points']} grid points")
    for name, digest in manifest["files"].items():
        print(f"wrote {os.path.join(scenario.out_dir, name)} sha256={digest[:12]}")
    if manifest["failures"]:
        for failure in manifest["failures"]:
            print(f"point {failure['point']} failed: {failure['error']}", file=sys.stderr)
    return EXIT_OK


def _cmd_compare(scenario) -> int:
    report = compare_engines(scenario)
    files = write_comparison(scenario, report)
    for name in files:
        print(f"wrote {os.path.join(scenario.out_dir, name)}")
    worst = max((row["deviation"] for row in report["rows"]), default=0.0)
    print(f"max deviation {worst:.4f} against tolerance {report['tolerance']}")
    if report["failures"]:
        for failure in report["failures"]:
            print(f"point {failure['point']} failed: {failure['error']}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK if report["all_passed"] else EXIT_TOLERANCE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # each flag is named after the [scenario] key it overrides
        scenario = parse_scenario(args.config, {key: getattr(args, key) for key in ("seed", "out", "workers")})
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        handler = {
            "generate": _cmd_generate,
            "threshold": _cmd_threshold,
            "simulate": _cmd_simulate,
            "compare": _cmd_compare,
        }[args.command]
        return handler(scenario)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
