"""Experiment orchestration: single runs, seed replication, grids, reports.

Each run owns a directory under the run root; it holds one copy of each fact:

    config.resolved.txt   the resolved config, its fingerprint in the header
    report.json           the cross-seed report, written last
    seed<k>/steps.ndjson  one "step" record per label step, flushed as it ends
                          to the seed's `temp_path`, renamed here when the seed ends
    seed<k>/report.json   the seed's summary and wall time
    seed<k>/model.npz     the final `evaluate.RunState`: both models, node state, step

A run whose report.json holds its config fingerprint is complete and is
skipped unless forced. Parsed datasets are cached under <run root>/.cache:

    <key>.npz             one partitioned dataset, keyed by `snapshots.cache_key`
                          on the file's content, period and schema
    fingerprints.json     each dataset path's file identity and content
                          fingerprint, so a warm load skips the hash
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import evaluate as ev
from .config import ExperimentConfig
from .errors import ConfigError, SnaplinkError
from .snapshots import (DAMAGED_ARCHIVE_ERRORS, EdgeSchema, cache_key, file_fingerprint,
                        load_edge_list, load_snapshot_cache, partition_snapshots,
                        replacing, save_snapshot_cache, temp_path)

STEP_SCHEMA = {"schema_version": ev.REPORT_SCHEMA_VERSION}


FINGERPRINT_INDEX = "fingerprints.json"
# how long before its hash a file must have last changed to be recorded
SETTLED_NS = 2_000_000_000


def load_dataset(cfg: ExperimentConfig, cache_dir: Path):
    """Ingest (or reuse a cached partition of) the configured dataset.

    The cache is keyed by the file's content (`file_fingerprint` hashes the
    whole file), so identical files at different paths share one archive.
    A warm load reads the fingerprint from `FINGERPRINT_INDEX` in
    `cache_dir` instead: it maps each resolved dataset path to the file's
    (st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns) and fingerprint, and
    an entry counts only when all five equal the file's stat now. Like make
    and git's index, this trusts that a changed file has a changed stat;
    `os.utime` can set an old mtime back, but not the ctime.

    An entry is recorded after a successful load, only when the stat held
    still over the reads and the file last changed at least `SETTLED_NS`
    (2 s) before the hash started, so that no later write can share the
    stat's timestamp tick: 2 s is FAT's mtime tick, the coarsest of a common
    filesystem (ext3 and HFS+ store whole seconds, others a clock tick of a
    few ms). A freshly written file is hashed until then. An unreadable or
    malformed index counts as empty and is rewritten; deleting it forces a
    re-hash.

    The stat is taken once before the file's first read and compared once
    after its last: the hash on an archive hit, the parse on a miss. If it
    moved, the graph that was read is returned, but no archive is written and
    no entry recorded, so no graph is cached under another content's key. A
    returned uncached graph keeps the fingerprint taken before the parse. A
    same-size rewrite within one timestamp tick of a coarse-timestamp
    filesystem is beyond what a stat can see, as for the index.

    A cached archive that cannot be read, or whose arrays `DynamicGraph`
    rejects, is a cache miss: the dataset is ingested again and the archive
    overwritten.
    """
    schema = EdgeSchema.parse(cfg.schema)
    path = Path(cfg.dataset)
    if not path.is_file():
        raise ConfigError("dataset", f"not a file: {path}")
    index_path, name = cache_dir / FINGERPRINT_INDEX, str(path.resolve())
    index, identity = _read_json(index_path), _identity(path)
    recorded = index.get(name)
    if isinstance(recorded, list) and recorded[:-1] == identity \
            and isinstance(recorded[-1], str):
        fingerprint, index = recorded[-1], None  # nothing to record
    else:
        started = time.time_ns()
        fingerprint = file_fingerprint(path)
        index.pop(name, None)
    cache_path = cache_dir / f"{cache_key(fingerprint, cfg.frequency, schema)}.npz"
    g = None
    if cache_path.exists():
        try:
            g = load_snapshot_cache(cache_path)
        except DAMAGED_ARCHIVE_ERRORS:
            pass
    parsed = g is None
    if parsed:
        g = partition_snapshots(load_edge_list(path, schema), cfg.frequency)
        g.source_fingerprint = fingerprint
        cache_dir.mkdir(parents=True, exist_ok=True)
    held = _identity(path) == identity  # the file did not change while it was read
    if parsed and held:
        save_snapshot_cache(cache_path, g)
    if index is not None:
        if held and max(identity[3:]) + SETTLED_NS <= started:
            index[name] = [*identity, fingerprint]
        try:
            _write_json(index_path, index)
        except OSError:
            pass  # the index only saves a hash; a cache it cannot be written to still loads
    return g


def _identity(path: Path) -> list[int]:
    st = path.stat()
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _read_json(path: Path) -> dict:
    """The `_json_object` at `path`; a missing or unreadable file is empty."""
    try:
        text = path.read_text()
    except (OSError, ValueError):  # unreadable or not UTF-8
        return {}
    return _json_object(text)


def _json_object(text: str) -> dict:
    """The JSON object `text` holds; text that is not JSON, is nested too
    deep to decode or holds no object is empty."""
    try:
        found = json.loads(text)
    except (ValueError, RecursionError):
        return {}
    return found if isinstance(found, dict) else {}


def _write_json(path: Path, record: dict) -> None:
    _atomic_write(path, json.dumps(record, sort_keys=True, indent=1) + "\n")


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


# (get, set) thread-count symbols: the numpy wheel's suffixed OpenBLAS, an
# unsuffixed build, an older wheel's 64-bit-index build
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


def _blas_thread_calls():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    loaded, found by the library paths in /proc/self/maps; None where there
    is none (another BLAS, or no /proc)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get_count, set_count = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get_count is not None and set_count is not None:
                get_count.argtypes, get_count.restype = (), ctypes.c_int
                set_count.argtypes, set_count.restype = (ctypes.c_int,), None
                return get_count, set_count
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS runs one thread inside the block; the caller's count is
    restored when it ends, also when it raises. A no-op without OpenBLAS."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get_count, set_count = calls
    before = get_count()
    set_count(1)
    try:
        yield
    finally:
        set_count(before)


def _check_run_paths(run_dir: Path, seeds: tuple[int, ...]) -> None:
    """Raise SnaplinkError naming the first path the run writes that is
    taken: a directory where a file goes, or a non-directory where a
    directory goes."""
    seed_dirs = [run_dir / f"seed{seed}" for seed in seeds]
    for path in [run_dir, *seed_dirs]:
        if path.exists() and not path.is_dir():
            raise SnaplinkError(f"cannot write the run: {path} is not a directory")
    for path in [run_dir / "config.resolved.txt", run_dir / "report.json",
                 *(d / name for d in seed_dirs
                   for name in ("steps.ndjson", "model.npz", "report.json"))]:
        if path.is_dir():
            raise SnaplinkError(f"cannot write the run: {path} is a directory")


@_one_blas_thread()
def run_experiment(cfg: ExperimentConfig, graph=None) -> Path:
    """Execute one configuration across its seeds; returns the run directory.

    Re-running a completed directory is a no-op unless cfg.force is set.

    The run holds OpenBLAS at one thread and restores the caller's count on
    return or raise. A GEMM split across threads sums in another order, so
    one rule for every run keeps its bits independent of the core count, and
    a grid cell run by a pool worker (which calls this) matches the same cell
    run serially. Grid parallelism is `workers` processes, one thread each,
    not threads that contend for the same cores. The cost: on a machine with
    many cores, a single run gives up BLAS parallelism.
    """
    _keep_freed_heap()
    cfg.validate()
    fingerprint = cfg.fingerprint()
    root = Path(cfg.run_root)
    name = cfg.run_name or f"{cfg.protocol}-{cfg.update}-{fingerprint[:10]}"
    run_dir = root / name
    if (read_run(run_dir) or {}).get("fingerprint") == fingerprint and not cfg.force:
        return run_dir
    if graph is None:
        graph = load_dataset(cfg, cache_dir=root / ".cache")
    # a split the graph cannot hold is rejected before the run directory exists,
    # and a path the run could not write before any seed trains
    ev.n_train_steps(cfg.protocol, len(graph), cfg.test_fraction)
    _check_run_paths(run_dir, cfg.seeds)
    run_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(run_dir / "config.resolved.txt", cfg.to_text())

    seed_summaries = []
    for seed in cfg.seeds:
        seed_dir = run_dir / f"seed{seed}"
        seed_dir.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        steps = seed_dir / "steps.ndjson"
        # not `replacing`: a seed that raises keeps the steps it finished
        with open(temp_path(steps), "w") as fh:

            def emit(record: ev.StepRecord) -> None:
                row = {"record": "step", **STEP_SCHEMA, **asdict(record)}
                fh.write(json.dumps(row, sort_keys=True) + "\n")
                fh.flush()  # a running or killed seed keeps its finished steps

            report = ev.run_protocol(graph, cfg.to_run_config(seed), step_callback=emit)
        os.replace(temp_path(steps), steps)
        report.final.save(seed_dir / "model.npz")
        summary = report.summary_dict()
        del report  # the seed's final RunState is freed before the next seed runs
        summary["fingerprint"] = fingerprint
        summary["wall_seconds"] = time.perf_counter() - t0
        _write_json(seed_dir / "report.json", summary)
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
    _write_json(run_dir / "report.json", cross)
    return run_dir


def _run_cell(args):
    cfg, overrides, cell_name = args
    try:
        cell_cfg = cfg.with_overrides({**overrides, "run_name": cell_name})
        run_dir = run_experiment(cell_cfg)
        report = _read_json(run_dir / "report.json")
        return {"cell": cell_name, "overrides": overrides, "status": "ok",
                "run_dir": str(run_dir), "mean_mrr": report["mean_mrr"],
                "std_mrr": report["std_mrr"],
                "mean_val_mrr": report["mean_val_mrr"]}
    except (SnaplinkError, OSError, ValueError, KeyError) as exc:
        return _failed_cell(args, exc)


def _failed_cell(task, exc: Exception) -> dict:
    _, overrides, cell_name = task
    return {"cell": cell_name, "overrides": overrides, "status": "error",
            "error": f"{type(exc).__name__}: {exc}"}


def grid_search(base: ExperimentConfig, axes: dict[str, list[str]],
                grid_name: str = "grid") -> dict:
    """Run every cell of the axis product, select by best mean validation MRR.

    Failed cells are recorded and skipped, and so are cells whose mean
    validation MRR is not finite (no training step produced one); `best` is
    None when no cell remains. A worker process that dies fails the cells
    the pool still held, not the grid; a rerun finishes them, since
    completed runs are skipped. Returns the index dict with the selected
    cell's config overrides and its test-side MRR; also written to
    <run_root>/<grid_name>/index.json.
    """
    base.validate()
    grid_dir = Path(base.run_root) / grid_name
    grid_dir.mkdir(parents=True, exist_ok=True)

    cells = [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]
    tasks = [(base, overrides, f"{grid_name}/cell{i:03d}") for i, overrides in enumerate(cells)]

    if base.workers > 1:
        with ProcessPoolExecutor(max_workers=base.workers) as pool:
            futures = [pool.submit(_run_cell, t) for t in tasks]
        results = []
        for task, future in zip(tasks, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                results.append(_failed_cell(task, exc))
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
    _write_json(grid_dir / "index.json", index)
    return index


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

TABLE_HEADER = "# snaplink-table-v1"


def _typed(*types):
    """A check that a JSON value's type is exactly one of `types`."""
    return lambda value: type(value) in types


# what `emit_report` prints from a run report and a step record: field -> check
_RUN_REPORT_FIELDS = {
    **dict.fromkeys(("protocol", "dataset", "update"), _typed(str)),
    **dict.fromkeys(("alpha", "mean_mrr", "std_mrr", "mean_val_mrr"), _typed(int, float)),
    "seeds": lambda v: type(v) is list and all(type(s) is int for s in v),
}
_STEP_FIELDS = {**dict.fromkeys(("t", "n_positives", "epochs_run"), _typed(int)),
                "mrr": _typed(int, float)}


def _has_fields(record: dict, checks: dict) -> bool:
    return all(key in record and check(record[key]) for key, check in checks.items())


def read_run(run_dir: Path) -> dict | None:
    """The cross-seed report of `run_dir`, or None when there is none: a
    report.json that `_read_json` reads as empty, or an object with a field of
    `_RUN_REPORT_FIELDS` absent or mistyped (a seed directory's report, for one)."""
    found = _read_json(run_dir / "report.json")
    return found if _has_fields(found, _RUN_REPORT_FIELDS) else None


def emit_report(run_dirs: list[Path], out_dir: Path) -> dict:
    """Summary tables, meta-learning gain tables, and per-step series files.

    Each run is labelled by its path under the common parent of `run_dirs`
    (one directory: its name), and its series file by that label with `/`
    as `_`. Reads only persisted records, and skips a steps line that holds
    no step record it can print: not JSON, not an object, or a field of
    `_STEP_FIELDS` absent or mistyped. Returns {"skipped": [...], "tables": [...]}.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    run_dirs = [Path(d) for d in run_dirs]
    parent = os.path.commonpath([os.path.abspath(d.parent) for d in run_dirs or [Path()]])
    rows = []
    skipped = []
    for run_dir in run_dirs:
        report = read_run(run_dir)
        if report is None:
            skipped.append(str(run_dir))
            continue
        rows.append((run_dir, Path(os.path.relpath(run_dir, parent)).as_posix(), report))

    # main comparison table
    lines = [TABLE_HEADER,
             "run\tprotocol\tdataset\tupdate\talpha\tseeds\tmean_mrr\tstd_mrr\tmean_val_mrr"]
    for _, label, rep in rows:
        lines.append("\t".join([
            label, rep["protocol"], Path(rep["dataset"]).name, rep["update"],
            f"{rep['alpha']:g}", ",".join(str(s) for s in rep["seeds"]),
            f"{rep['mean_mrr']:.6f}", f"{rep['std_mrr']:.6f}",
            f"{rep['mean_val_mrr']:.6f}",
        ]))
    (out_dir / "summary_table.tsv").write_text("\n".join(lines) + "\n")

    # meta gain table: per (protocol, dataset, update) group with an alpha=1 row
    groups: dict[tuple, list[dict]] = {}
    for _, _, rep in rows:
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
    for run_dir, label, rep in rows:
        series = [TABLE_HEADER, "seed\tt\tmrr\tn_positives\tepochs_run"]
        for seed in rep["seeds"]:
            nd = run_dir / f"seed{seed}" / "steps.ndjson"
            if not nd.exists():
                continue
            for line in nd.read_text().splitlines():
                row = _json_object(line)
                if row.get("record") != "step" or not _has_fields(row, _STEP_FIELDS):
                    continue
                series.append(f"{seed}\t{row['t']}\t{row['mrr']:.6f}"
                              f"\t{row['n_positives']}\t{row['epochs_run']}")
        (out_dir / f"{label.replace('/', '_')}.steps.tsv").write_text(
            "\n".join(series) + "\n")

    return {"skipped": skipped, "n_runs": len(rows),
            "tables": ["summary_table.tsv", "meta_gain_table.tsv"]}
