"""Command-line interface.

Subcommands:
  sweep    run one configured scenario, write the CSV (and optionally a plot script)
  check    validate the standing assumptions of a configuration and print a report
  figures  run the four built-in sweep families into an output directory
  topo     generate a random connected topology and write its edge list

Configs are UTF-8 JSON files whose keys are the ExperimentConfig field
names; unknown keys are rejected. Exit codes: 0 success, 1 validation
failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bias import scale_analysis
from .diffusion import validate_step_condition
from .experiment import (
    DEFAULT_SCHEDULE,
    build_scenario,
    builtin_figure_configs,
    emit_csv,
    emit_plot_script,
    load_config,
    run_sweep,
)
from .network import generate_topology, topology_to_edge_list


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="diffpareto", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p_sweep = sub.add_parser("sweep", help="run one scenario sweep")
    p_sweep.add_argument("--config", required=True, help="JSON config file")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument("--plot", default=None, help="optional gnuplot script path")

    p_check = sub.add_parser("check", help="check assumptions for a config")
    p_check.add_argument("--config", required=True, help="JSON config file")

    p_fig = sub.add_parser("figures", help="run the four built-in sweep families")
    p_fig.add_argument("--outdir", required=True, help="output directory")
    p_fig.add_argument(
        "--schedule",
        default=None,
        help="comma-separated mu_max override (default: the built-in decade schedule)",
    )

    p_topo = sub.add_parser("topo", help="generate a topology edge list")
    p_topo.add_argument("--n", type=int, required=True, help="number of nodes")
    p_topo.add_argument("--deg", type=float, required=True, help="target average degree")
    p_topo.add_argument("--seed", type=int, required=True, help="generator seed")
    p_topo.add_argument("--out", required=True, help="edge-list output path")

    return parser


def _check_writable(path: str) -> None:
    """ValueError unless a file can be written at ``path``: run before any work."""
    if Path(path).is_dir():
        raise ValueError(f"cannot write {path}: it is a directory")
    if not Path(path).parent.is_dir():
        raise ValueError(f"no directory to write {path} into")


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    if args.plot is not None and Path(args.plot).resolve() == Path(args.out).resolve():
        raise ValueError(f"--plot {args.plot} is the CSV path; the script would replace it")
    for path in filter(None, (args.out, args.plot)):
        _check_writable(path)
    rows = run_sweep(config)
    emit_csv(rows, args.out)
    if args.plot is not None:
        emit_plot_script(rows, args.plot)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_check(args) -> int:
    config = load_config(args.config)
    scenario = build_scenario(config)
    mu_max = max(config.mu_max_schedule)
    print(
        f"Scenario {config.scenario_id}: N={config.n_nodes}, M={config.dim},"
        f" edges={scenario.topology.n_edges}, mu_max={mu_max:g}"
    )

    report1 = scenario.assumption1
    floor = float(report1.weighted_lambda_min.min())
    state = "SATISFIED" if report1.satisfied else "VIOLATED"
    print(f"Assumption 1: {state} (min weighted curvature lower bound {floor:g})")
    # the scenario's Perron vector exists, so the composite is primitive
    print("Assumption 2: SATISFIED (composite primitivity)")
    report1.require()

    usable = scenario.margins[scenario.tightest]
    state = "SATISFIED" if mu_max < usable else "VIOLATED"
    print(
        f"Step-size condition: {state} (largest usable mu_max {usable:g},"
        f" tightest at node {scenario.tightest})"
    )
    validate_step_condition(scenario.at_scale(mu_max), scenario.ensemble)

    report3 = scenario.assumption3
    if report3.satisfied:
        print(f"Assumption 3: SATISFIED (c0={report3.c0_estimate:g})")
    else:
        print(
            f"Assumption 3: NOT SATISFIED (c0={report3.c0_estimate:g},"
            f" max deviation={report3.max_deviation:g})"
        )

    _, rho = scale_analysis(scenario, mu_max)
    print(f"Error-propagation spectral radius at mu_max={mu_max:g}: {rho:.6g}")
    limit_norm = float(np.linalg.norm(scenario.limit_bias))
    print(f"Small-step-size bias norm (per node): {limit_norm:.6g}")
    floor = scenario.limit_floor()
    if limit_norm <= floor:
        print(f"Small-step-size bias: zero to working precision (rounding floor {floor:.1e})")
    return 0


def _cmd_figures(args) -> int:
    if args.schedule is None:
        schedule = DEFAULT_SCHEDULE
    else:
        try:
            schedule = tuple(float(part) for part in args.schedule.split(","))
        except ValueError as exc:
            raise ValueError(f"bad --schedule value: {exc}") from exc
    outdir = Path(args.outdir)
    existing = next(path for path in (outdir, *outdir.parents) if path.exists())
    if not existing.is_dir():
        raise ValueError(f"cannot write into {outdir}: {existing} is not a directory")
    # every family runs before the first write, so a failure leaves no output
    families = {
        name: [row for config in configs for row in run_sweep(config)]
        for name, configs in builtin_figure_configs(schedule).items()
    }
    outdir.mkdir(parents=True, exist_ok=True)
    for name, rows in families.items():
        emit_csv(rows, outdir / f"sweep_{name}.csv")
        emit_plot_script(rows, outdir / f"sweep_{name}.gp")
        print(f"wrote sweep_{name}.csv and sweep_{name}.gp")
    return 0


def _cmd_topo(args) -> int:
    _check_writable(args.out)
    topology = generate_topology(args.n, args.deg, args.seed)
    Path(args.out).write_text(topology_to_edge_list(topology), encoding="utf-8")
    print(f"wrote {topology.n_edges} edges for {args.n} nodes to {args.out}")
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "check": _cmd_check,
    "figures": _cmd_figures,
    "topo": _cmd_topo,
}


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        # assumption and config errors are validation failures
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
