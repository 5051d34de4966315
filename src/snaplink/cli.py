"""Command-line interface.

Verbs: ingest, run-live, run-fixed, grid, report, synth. Run directories go
under the run root: --run-root (or --set run_root=...) if given, else
$SNAPLINK_RUN_ROOT if set, else the config file's `run_root`, else ./runs.
Invalid configurations, unreadable config files and unreadable datasets exit
with status 2 and one line naming the field or the parse error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .errors import SnaplinkError
from .evaluate import PROTOCOLS
from .model import UPDATE_KINDS
from .runner import emit_report, grid_search, load_dataset, read_run, run_experiment


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="key = value config file; flags override it")
    p.add_argument("--set", dest="sets", action="append", default=[],
                   metavar="KEY=VALUE", help="override any config key")
    p.add_argument("--dataset", help="edge-list file")
    p.add_argument("--schema", help="'delim:col,col,...', e.g. ws:src,dst,timestamp")
    p.add_argument("--frequency", help="daily, weekly, or seconds per window")
    p.add_argument("--update", help=f"state update: {', '.join(UPDATE_KINDS)}")
    p.add_argument("--alpha", help="meta blend factor in [0,1]")
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--k-neg", dest="k_neg", help="evaluation negatives per source")
    p.add_argument("--run-root", dest="run_root",
                   help="base directory for runs; wins over $SNAPLINK_RUN_ROOT, "
                        "which wins over the config file (default ./runs)")
    p.add_argument("--run-name", dest="run_name", help="run directory name")
    p.add_argument("--workers", help="parallel worker processes (grid)")
    p.add_argument("--force", action="store_const", const="true",
                   help="re-run even if complete")


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    """The text of every flag given whose name is a config key, then each
    --set: a named flag is a spelling of --set, so the config parses and
    checks every value. An absent flag parses to None."""
    keys = {f.name for f in fields(ExperimentConfig)}
    overrides = {key: value for key, value in vars(args).items()
                 if key in keys and value is not None}
    for item in getattr(args, "sets", []):
        if "=" not in item:
            raise SnaplinkError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def _build_config(args: argparse.Namespace, protocol: str | None) -> ExperimentConfig:
    overrides = _collect_overrides(args)
    if protocol is not None:
        overrides["protocol"] = protocol
    if os.environ.get("SNAPLINK_RUN_ROOT"):  # below a flag, above the config file
        overrides.setdefault("run_root", os.environ["SNAPLINK_RUN_ROOT"])
    return load_config(args.config, overrides)


def cmd_ingest(args) -> int:
    cfg = _build_config(args, None)
    cfg.validate()
    cache_dir = Path(cfg.run_root) / ".cache"
    g = load_dataset(cfg, cache_dir=cache_dir)
    print(f"dataset: {cfg.dataset}")
    print(f"nodes: {g.node_count}")
    print(f"edges: {len(g.src)}")
    print(f"snapshots: {len(g)} ({cfg.frequency})")
    print(f"cache: {cache_dir}")
    return 0


def cmd_run(args, protocol: str) -> int:
    run_dir = run_experiment(_build_config(args, protocol))
    report = read_run(run_dir)
    if report is None:
        raise SnaplinkError(f"no readable run report in {run_dir}")
    print(f"run: {run_dir}")
    print(f"mean MRR over seeds {report['seeds']}: "
          f"{report['mean_mrr']:.4f} +/- {report['std_mrr']:.4f}")
    return 0


def cmd_grid(args) -> int:
    cfg = _build_config(args, args.protocol)
    axes: dict[str, list[str]] = {}
    for item in args.axis:
        if "=" not in item:
            raise SnaplinkError(f"--axis expects KEY=V1,V2,..., got {item!r}")
        key, _, values = item.partition("=")
        axes[key.strip()] = [v.strip() for v in values.split(",") if v.strip()]
    if not axes:
        raise SnaplinkError("grid needs at least one --axis")
    index = grid_search(cfg, axes, grid_name=args.grid_name)
    print(f"grid: {index['n_cells']} cells, {index['n_failed']} failed")
    if index["best"] is not None:
        best = index["best"]
        print(f"best cell: {best['cell']} overrides={best['overrides']}")
        print(f"  val MRR {best['mean_val_mrr']:.4f} -> test MRR "
              f"{best['mean_mrr']:.4f} +/- {best['std_mrr']:.4f}")
    return 0


def cmd_report(args) -> int:
    result = emit_report([Path(d) for d in args.run_dirs], Path(args.out))
    print(f"reported {result['n_runs']} runs to {args.out}")
    for skipped in result["skipped"]:
        print(f"skipped (missing/corrupt report): {skipped}")
    return 0


def cmd_synth(args) -> int:
    from .synthetic import generate_edges, write_edge_file

    edges = generate_edges(n_nodes=args.nodes, n_steps=args.steps,
                           edges_per_step=args.edges_per_step, seed=args.seed,
                           period=args.period)
    write_edge_file(args.out, edges)
    # the nodes with an edge: a node the generator drew no edge for is not in the file
    nodes = np.union1d(edges.src, edges.dst).size
    print(f"wrote {len(edges)} edges over {nodes} nodes to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snaplink",
        description="Future link prediction on snapshot dynamic graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a dataset and build the snapshot cache")
    _add_config_args(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("run-live", help="live-update evaluation run")
    _add_config_args(p)
    p.set_defaults(func=lambda a: cmd_run(a, "live_update"))

    p = sub.add_parser("run-fixed", help="fixed-split evaluation run")
    _add_config_args(p)
    p.set_defaults(func=lambda a: cmd_run(a, "fixed_split"))

    p = sub.add_parser("grid", help="hyperparameter grid search")
    _add_config_args(p)
    p.add_argument("--axis", action="append", default=[],
                   metavar="KEY=V1,V2,...", help="one grid axis (repeatable)")
    p.add_argument("--grid-name", default="grid")
    p.add_argument("--protocol", help=f"{', '.join(PROTOCOLS)}; "
                                       "default: the config file's, else live_update")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("report", help="emit summary tables and plot data")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic edge list")
    p.add_argument("--out", required=True)
    p.add_argument("--nodes", type=int, default=80)
    p.add_argument("--steps", type=int, default=12)
    p.add_argument("--edges-per-step", type=int, default=240)
    p.add_argument("--period", type=float, default=1000.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SnaplinkError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
