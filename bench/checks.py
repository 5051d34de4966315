"""Output checks. Each returns a list of failure messages; empty means pass."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# mean_mrr must exceed the random-ranking floor 1/(k_neg+1) by this factor.
MRR_FLOOR_FACTOR = 2.0


def check_model_run(run_dir: Path, seed: int, n_evaluated: int, k_neg: int) -> list[str]:
    """One finished `run_experiment` directory for a single seed."""
    run_dir = Path(run_dir)
    report_path = run_dir / "report.json"
    seed_report_path = run_dir / f"seed{seed}" / "report.json"
    missing = [str(p) for p in (report_path, seed_report_path) if not p.exists()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    fails = []
    report = json.loads(report_path.read_text())
    seed_report = json.loads(seed_report_path.read_text())
    if seed_report.get("n_evaluated") != n_evaluated:
        fails.append(f"n_evaluated {seed_report.get('n_evaluated')} != {n_evaluated}")
    mrr = report.get("mean_mrr")
    floor = 1.0 / (k_neg + 1)
    if not isinstance(mrr, float) or not math.isfinite(mrr):
        fails.append(f"mean_mrr {mrr!r} is not finite")
    elif mrr <= MRR_FLOOR_FACTOR * floor:
        fails.append(f"mean_mrr {mrr:.6g} not above {MRR_FLOOR_FACTOR:g} x random "
                     f"floor {floor:.6g}")
    fails += check_params_finite(run_dir / f"seed{seed}" / "model.npz")
    return fails


def check_params_finite(path: Path) -> list[str]:
    """Every array in a saved checkpoint is finite."""
    if not Path(path).exists():
        return [f"missing {path}"]
    with np.load(path) as data:
        bad = [k for k in data.files
               if data[k].dtype.kind == "f" and not np.isfinite(data[k]).all()]
    return [f"non-finite checkpoint arrays in {path}: {bad}"] if bad else []


def read_step_seconds(run_dir: Path, seed: int) -> list[float]:
    """wall_seconds of the evaluated step records in steps.ndjson."""
    out = []
    with open(Path(run_dir) / f"seed{seed}" / "steps.ndjson") as fh:
        for line in fh:
            row = json.loads(line)
            if row.get("record") == "step" and row.get("mrr") is not None:
                out.append(float(row["wall_seconds"]))
    return out


def read_mean_mrr(run_dir: Path) -> float:
    return float(json.loads((Path(run_dir) / "report.json").read_text())["mean_mrr"])


def check_same_mrr(values: list[float]) -> list[str]:
    """All runs of one commit and seed give a bitwise identical mean_mrr."""
    distinct = sorted({float(v).hex() for v in values})
    if len(distinct) > 1:
        return [f"mean_mrr differs between runs of one seed: {distinct}"]
    return []


def graph_counts(g) -> dict[str, int]:
    return {"windows": len(g), "nodes": int(g.node_count),
            "edges": int(sum(s.n_edges for s in g.snapshots))}


def check_counts(g, expected: dict[str, int]) -> list[str]:
    """Window, node and edge totals of a loaded graph match the input's."""
    got = graph_counts(g)
    return [f"{k}: loaded {got[k]} != input {expected[k]}"
            for k in ("windows", "nodes", "edges") if got[k] != expected[k]]


def check_same_graph(cold, warm) -> list[str]:
    """A cache-loaded graph equals the freshly ingested one, array for array."""
    fails = []
    for attr in ("period_seconds", "node_count", "frequency", "source_fingerprint"):
        if getattr(cold, attr) != getattr(warm, attr):
            fails.append(f"graph {attr}: {getattr(cold, attr)!r} != {getattr(warm, attr)!r}")
    if len(cold) != len(warm):
        return fails + [f"snapshot count {len(cold)} != {len(warm)}"]
    for a, b in zip(cold.snapshots, warm.snapshots):
        if tuple(a.window) != tuple(b.window):
            fails.append(f"snapshot {a.index}: window differs")
        for attr in ("edge_src", "edge_dst", "edge_features", "node_features"):
            x, y = getattr(a, attr), getattr(b, attr)
            if x.dtype != y.dtype or not np.array_equal(x, y):
                fails.append(f"snapshot {a.index}: {attr} differs")
        if len(fails) > 10:
            break
    return fails
