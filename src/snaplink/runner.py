"""Experiment orchestration: single runs, seed replication, grids, reports.

Each run owns a directory under the run root containing the resolved
config, line-delimited per-step records per seed, per-seed summaries, model
checkpoints, and a cross-seed report. Completed runs are identified by
their config fingerprint and skipped on re-execution unless forced.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import os
import time
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import evaluate as ev
from .config import ExperimentConfig
from .errors import SnaplinkError
from .model import save_checkpoint
from .snapshots import (EdgeSchema, cache_key, file_fingerprint, load_edge_list,
                        load_snapshot_cache, partition_snapshots, replacing,
                        save_snapshot_cache, temp_path, v1_cache_key)

STEP_SCHEMA = {"schema_version": ev.REPORT_SCHEMA_VERSION}

# what `load_snapshot_cache` raises on a damaged archive: a cut or corrupt
# zip (BadZipFile, EOFError, an unknown compression method), a missing entry
# (KeyError), or arrays and meta that `DynamicGraph` rejects (ValueError)
DAMAGED_ARCHIVE_ERRORS = (zipfile.BadZipFile, EOFError, NotImplementedError,
                          KeyError, ValueError)


def resolve_run_root(cfg: ExperimentConfig) -> Path:
    root = os.environ.get("SNAPLINK_RUN_ROOT", "") or cfg.run_root
    return Path(root)


def load_dataset(cfg: ExperimentConfig, cache_dir: Path | None = None):
    """Ingest (or reuse a cached partition of) the configured dataset.

    A cached archive that cannot be read, or whose arrays `DynamicGraph`
    rejects, is a cache miss: the dataset is ingested again and the archive
    overwritten. A save also removes the dataset's archive in the retired
    v1 format, which no load opens.
    """
    schema = EdgeSchema.parse(cfg.schema)
    path = Path(cfg.dataset)
    if cache_dir is None:
        return partition_snapshots(load_edge_list(path, schema), cfg.frequency)
    fingerprint = file_fingerprint(path)
    cache_path = cache_dir / f"{cache_key(fingerprint, cfg.frequency, schema)}.npz"
    if cache_path.exists():
        try:
            return load_snapshot_cache(cache_path)
        except DAMAGED_ARCHIVE_ERRORS:
            pass
    g = partition_snapshots(load_edge_list(path, schema, fingerprint), cfg.frequency)
    cache_dir.mkdir(parents=True, exist_ok=True)
    save_snapshot_cache(cache_path, g)
    (cache_dir / f"{v1_cache_key(fingerprint, cfg.frequency, schema)}.npz").unlink(
        missing_ok=True)
    return g


def _atomic_write(path: Path, text: str) -> None:
    with replacing(path) as tmp:
        tmp.write_text(text)


def _keep_freed_heap() -> None:
    """Ask glibc to keep freed memory in the process for reuse.

    `diffcore.backward` frees the train graph node by node, so by default
    glibc trims the heap top after each backward (and unmaps the larger
    arrays) and the next forward faults the same pages back in. Serving
    arrays below 32 MiB from the heap and trimming only above 128 MiB of
    free top keeps those pages for reuse; it does not raise the peak, which
    is what the process holds at once. Setting both values turns off
    glibc's dynamic mmap threshold. A no-op where the C library has no
    `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD


def run_is_complete(run_dir: Path, fingerprint: str) -> bool:
    report = run_dir / "report.json"
    if not report.exists():
        return False
    try:
        data = json.loads(report.read_text())
    except json.JSONDecodeError:
        return False
    return data.get("fingerprint") == fingerprint


def run_experiment(cfg: ExperimentConfig, graph=None) -> Path:
    """Execute one configuration across its seeds; returns the run directory.

    Re-running a completed directory is a no-op unless cfg.force is set.
    """
    _keep_freed_heap()
    cfg.validate()
    fingerprint = cfg.fingerprint()
    root = resolve_run_root(cfg)
    name = cfg.run_name or f"{cfg.protocol}-{cfg.update}-{fingerprint[:10]}"
    run_dir = root / name
    if run_is_complete(run_dir, fingerprint) and not cfg.force:
        return run_dir
    if graph is None:
        graph = load_dataset(cfg, cache_dir=root / ".cache")
    # a split the graph cannot hold is rejected before the run directory exists
    ev.n_train_steps(cfg.protocol, len(graph), cfg.test_fraction)
    run_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(run_dir / "config.resolved.txt", cfg.to_text())
    _atomic_write(run_dir / "fingerprint.txt", fingerprint + "\n")

    protocol = ev.live_update_run if cfg.protocol == "live_update" else ev.fixed_split_run

    seed_summaries = []
    for seed in cfg.seeds:
        seed_dir = run_dir / f"seed{seed}"
        seed_dir.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        artifacts: dict = {}
        steps = seed_dir / "steps.ndjson"
        # not `replacing`: a seed that raises keeps the steps it finished
        with open(temp_path(steps), "w") as fh:

            def emit(record: ev.StepRecord) -> None:
                row = {"record": "step", **STEP_SCHEMA, **asdict(record)}
                fh.write(json.dumps(row, sort_keys=True) + "\n")
                fh.flush()  # a running or killed seed keeps its finished steps

            report = protocol(graph, cfg.to_run_config(seed), step_callback=emit,
                              artifacts_out=artifacts)
            report.fingerprint = fingerprint
            fh.write(json.dumps({"record": "summary", **STEP_SCHEMA,
                                 **report.summary_dict()}, sort_keys=True) + "\n")
        os.replace(temp_path(steps), steps)
        save_checkpoint(seed_dir / "model.npz", artifacts["model"],
                        artifacts["state"], artifacts["counter"])
        summary = report.summary_dict()
        summary["wall_seconds"] = time.perf_counter() - t0
        _atomic_write(seed_dir / "report.json",
                      json.dumps(summary, sort_keys=True, indent=1) + "\n")
        seed_summaries.append(summary)

    mrrs = [s["mean_mrr"] for s in seed_summaries]
    val_mrrs = [s["mean_val_mrr"] for s in seed_summaries]
    cross = {
        "schema_version": ev.REPORT_SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "protocol": cfg.protocol,
        "dataset": cfg.dataset,
        "update": cfg.update,
        "alpha": cfg.alpha,
        "seeds": list(cfg.seeds),
        "per_seed_mean_mrr": mrrs,
        "mean_mrr": float(np.mean(mrrs)),
        "std_mrr": float(np.std(mrrs)),
        "mean_val_mrr": float(np.mean(val_mrrs)),
    }
    _atomic_write(run_dir / "report.json", json.dumps(cross, sort_keys=True, indent=1) + "\n")
    return run_dir


def _expand_grid(axes: dict[str, list[str]]) -> list[dict[str, str]]:
    keys = list(axes)
    cells = []
    for combo in itertools.product(*(axes[k] for k in keys)):
        cells.append(dict(zip(keys, combo)))
    return cells


def _run_cell(args):
    cfg, overrides, cell_name = args
    try:
        cell_cfg = cfg.with_overrides({**overrides, "run_name": cell_name})
        run_dir = run_experiment(cell_cfg)
        report = json.loads((run_dir / "report.json").read_text())
        return {"cell": cell_name, "overrides": overrides, "status": "ok",
                "run_dir": str(run_dir), "mean_mrr": report["mean_mrr"],
                "std_mrr": report["std_mrr"],
                "mean_val_mrr": report["mean_val_mrr"]}
    except (SnaplinkError, OSError, ValueError) as exc:
        return {"cell": cell_name, "overrides": overrides, "status": "error",
                "error": f"{type(exc).__name__}: {exc}"}


def grid_search(base: ExperimentConfig, axes: dict[str, list[str]],
                grid_name: str = "grid") -> dict:
    """Run every cell of the axis product, select by best mean validation MRR.

    Failed cells are recorded and skipped, and so are cells whose mean
    validation MRR is not finite (no training step produced one); `best` is
    None when no cell remains. Returns the index dict with the selected
    cell's config overrides and its test-side MRR; also written to
    <run_root>/<grid_name>/index.json.
    """
    base.validate()
    root = resolve_run_root(base)
    grid_dir = root / grid_name
    grid_dir.mkdir(parents=True, exist_ok=True)

    cells = _expand_grid(axes)
    tasks = []
    for i, overrides in enumerate(cells):
        cell_name = f"{grid_name}/cell{i:03d}"
        tasks.append((base, overrides, cell_name))

    if base.workers > 1:
        with ProcessPoolExecutor(max_workers=base.workers) as pool:
            results = list(pool.map(_run_cell, tasks))
    else:
        results = [_run_cell(t) for t in tasks]

    ok = [r for r in results if r["status"] == "ok"]
    # NaN compares False both ways, so max() would keep a NaN cell listed first
    scored = [r for r in ok if np.isfinite(r["mean_val_mrr"])]
    best = max(scored, key=lambda r: r["mean_val_mrr"]) if scored else None
    index = {
        "grid_name": grid_name,
        "axes": axes,
        "n_cells": len(cells),
        "n_failed": len(results) - len(ok),
        "cells": results,
        "best": best,
    }
    _atomic_write(grid_dir / "index.json", json.dumps(index, sort_keys=True, indent=1) + "\n")
    return index


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

TABLE_HEADER = "# snaplink-table-v1"


def _read_run(run_dir: Path) -> dict | None:
    report = run_dir / "report.json"
    if not report.exists():
        return None
    try:
        return json.loads(report.read_text())
    except json.JSONDecodeError:
        return None


def emit_report(run_dirs: list[Path], out_dir: Path) -> dict:
    """Summary tables, meta-learning gain tables, and per-step series files.

    Reads only persisted records. Returns {"skipped": [...], "tables": [...]}.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    skipped = []
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        report = _read_run(run_dir)
        if report is None:
            skipped.append(str(run_dir))
            continue
        rows.append((run_dir, report))

    # main comparison table
    lines = [TABLE_HEADER,
             "run\tprotocol\tdataset\tupdate\talpha\tseeds\tmean_mrr\tstd_mrr\tmean_val_mrr"]
    for run_dir, rep in rows:
        lines.append("\t".join([
            run_dir.name, rep["protocol"], Path(rep["dataset"]).name, rep["update"],
            f"{rep['alpha']:g}", ",".join(str(s) for s in rep["seeds"]),
            f"{rep['mean_mrr']:.6f}", f"{rep['std_mrr']:.6f}",
            f"{rep['mean_val_mrr']:.6f}",
        ]))
    (out_dir / "summary_table.tsv").write_text("\n".join(lines) + "\n")

    # meta gain table: per (protocol, dataset, update) group with an alpha=1 row
    groups: dict[tuple, list[dict]] = {}
    for _, rep in rows:
        groups.setdefault((rep["protocol"], rep["dataset"], rep["update"]), []).append(rep)
    gain_lines = [TABLE_HEADER,
                  "protocol\tdataset\tupdate\tbase_mrr(alpha=1)\tbest_alpha\tbest_mrr\tgain_pct"]
    for (protocol, dataset, update), reps in sorted(groups.items()):
        base = [r for r in reps if r["alpha"] == 1.0]
        if not base or len(reps) < 2:
            continue
        base_mrr = base[0]["mean_mrr"]
        best = max(reps, key=lambda r: r["mean_mrr"])
        gain = (best["mean_mrr"] - base_mrr) / base_mrr * 100.0 if base_mrr else float("nan")
        gain_lines.append("\t".join([
            protocol, Path(dataset).name, update, f"{base_mrr:.6f}",
            f"{best['alpha']:g}", f"{best['mean_mrr']:.6f}", f"{gain:.2f}",
        ]))
    (out_dir / "meta_gain_table.tsv").write_text("\n".join(gain_lines) + "\n")

    # per-step series (plot data) per run, from the persisted ndjson records
    for run_dir, rep in rows:
        series = [TABLE_HEADER, "seed\tt\tmrr\tn_positives\tepochs_run"]
        for seed in rep["seeds"]:
            nd = run_dir / f"seed{seed}" / "steps.ndjson"
            if not nd.exists():
                continue
            for line in nd.read_text().splitlines():
                row = json.loads(line)
                if row.get("record") != "step" or row.get("mrr") is None:
                    continue
                series.append(f"{seed}\t{row['t']}\t{row['mrr']:.6f}"
                              f"\t{row['n_positives']}\t{row['epochs_run']}")
        (out_dir / f"{run_dir.name.replace('/', '_')}.steps.tsv").write_text(
            "\n".join(series) + "\n")

    return {"skipped": skipped, "n_runs": len(rows),
            "tables": ["summary_table.tsv", "meta_gain_table.tsv"]}
