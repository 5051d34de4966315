"""The benchmark's workloads and their seeded input files.

Each workload is one closed loop in one process: a single caller runs the
operation, waits for it, and starts the next. The program sees only the
generated edge-list file; every knob not set here stays at the program's
default, so a change of default is measured.

Sizes are fitted to a 2-core machine so that one benchmark run, repeated
several times to report medians, stays within its time budget. The smoke
sizes run the same code paths in seconds for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DAY_SECONDS = 86_400


@dataclass(frozen=True)
class Workload:
    name: str                  # why each workload exists: BENCHMARK.json
    kind: str                  # "model": run_experiment; "ingest": load_dataset
    data: dict                 # generator parameters
    config: dict               # ExperimentConfig overrides
    smoke_data: dict
    smoke_config: dict
    n_evaluated: int = 0       # evaluated steps a model run must report
    # span names the traced run must see at least once (a missed binding
    # would otherwise read as zero time)
    expected_spans: tuple[str, ...] = ()
    # per-layer metric prefixes that are zero here by design, with the reason
    zero_by_design: dict = field(default_factory=dict)

    def params(self, smoke: bool) -> tuple[dict, dict]:
        return (self.smoke_data, self.smoke_config) if smoke else (self.data, self.config)

    def key(self, smoke: bool, with_config: bool = True) -> str:
        """Short hash of the sizes (and settings): changes when they change."""
        data, config = self.params(smoke)
        text = json.dumps([data, config if with_config else None], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:8]


_INGEST_SPANS = ("runner.load_dataset[cold]", "runner.load_dataset[warm]",
                 "snapshots.load_edge_list", "snapshots.partition_snapshots",
                 "snapshots.save_snapshot_cache", "snapshots.load_snapshot_cache")
_MODEL_SPANS = _INGEST_SPANS + (
    "runner.run_experiment", "snapshots.build_labels",
    "snapshots.sample_training_negatives", "evaluate.mrr[val]", "evaluate.mrr[test]",
    "model.forward[train]", "model.forward[eval]", "model.gnn_layer",
    "model.update_state", "model.PairScorer.scores_against", "train.fine_tune",
    "train.Adam.step", "train.meta_update", "diffcore.backward",
) + tuple(f"diffcore.{op}{sfx}" for op in ("affine", "aggregate", "gather_rows",
                                           "concat_cols", "batch_norm", "relu",
                                           "bce_with_logits")
          for sfx in ("", ".bwd"))
_GRU_SPANS = tuple(f"diffcore.{op}{sfx}" for op in ("gru_cell", "sigmoid", "tanh")
                   for sfx in ("", ".bwd"))

_NO_MODEL = "no model runs on ingest-long"

WORKLOADS = {w.name: w for w in (
    Workload(
        name="live-train",
        kind="model",
        data=dict(n_nodes=600, n_steps=6, edges_per_step=1000, period=1000.0),
        config=dict(protocol="live_update", frequency="1000", update="gru",
                    hidden_dim=128, k_neg=1000, max_epochs=3, patience=3, alpha=0.5),
        smoke_data=dict(n_nodes=60, n_steps=6, edges_per_step=120, period=1000.0),
        smoke_config=dict(protocol="live_update", frequency="1000", update="gru",
                          hidden_dim=16, k_neg=50, max_epochs=2, patience=2,
                          alpha=0.5),
        n_evaluated=5,
        expected_spans=_MODEL_SPANS + _GRU_SPANS,
    ),
    Workload(
        name="fixed-eval",
        kind="model",
        data=dict(n_nodes=20000, n_steps=12, edges_per_step=600, n_communities=1000,
                  period=1000.0),
        config=dict(protocol="fixed_split", frequency="1000", test_fraction=0.8,
                    update="moving_average", hidden_dim=128, k_neg=1000,
                    max_epochs=2, patience=2),
        smoke_data=dict(n_nodes=150, n_steps=12, edges_per_step=60, n_communities=8,
                        period=1000.0),
        smoke_config=dict(protocol="fixed_split", frequency="1000", test_fraction=0.8,
                          update="moving_average", hidden_dim=16, k_neg=50,
                          max_epochs=2, patience=2),
        n_evaluated=10,
        expected_spans=_MODEL_SPANS,
        zero_by_design={"diffcore.gru_cell": "update=moving_average runs no GRU",
                        "diffcore.sigmoid": "sigmoid is used only by the GRU gates",
                        "diffcore.tanh": "tanh is used only by the GRU gates"},
    ),
    Workload(
        name="ingest-long",
        kind="ingest",
        data=dict(n_nodes=50_000, n_edges=500_000, days=116),
        config=dict(frequency="daily"),
        smoke_data=dict(n_nodes=300, n_edges=3000, days=5),
        smoke_config=dict(frequency="daily"),
        expected_spans=_INGEST_SPANS,
        zero_by_design={p: _NO_MODEL for p in (
            "runner.run_experiment", "snapshots.build_labels", "snapshots.label_sources",
            "snapshots.sample_training_negatives", "evaluate", "model", "train",
            "diffcore")},
    ),
)}


def input_dir(work_dir: Path, workload: Workload, seed: int, smoke: bool) -> Path:
    """Where the input of (workload, sizes, seed) lives; new sizes, new input."""
    key = workload.key(smoke, with_config=False)
    return Path(work_dir) / "inputs" / f"{workload.name}-{key}-s{seed}"


def generate(workload: Workload, seed: int, smoke: bool, out_dir: Path) -> None:
    """Write `edges.csv` and `input.json` (its node, edge and window totals).

    Files are written under temporary names and renamed, so an interrupted
    generation never leaves an input that looks complete.
    """
    from snaplink import synthetic
    from snaplink.snapshots import edges_from_arrays

    data, _ = workload.params(smoke)
    if workload.kind == "model":
        edges = synthetic.generate_edges(seed=seed, **data)
        period = data["period"]
    else:
        rng = np.random.default_rng(seed)
        n = data["n_edges"]
        ends = rng.integers(0, data["n_nodes"], size=(2, n))
        span = data["days"] * DAY_SECONDS
        edges = edges_from_arrays(ends[0], ends[1], np.arange(n) * (span / n))
        period = float(DAY_SECONDS)
    ts = edges.timestamp
    totals = {
        "edges": int(len(edges)),
        "nodes": int(np.unique(np.concatenate([edges.src, edges.dst])).size),
        "windows": int((ts.max() - ts.min()) // period) + 1,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = out_dir / "edges.csv.tmp"
    synthetic.write_edge_file(tmp, edges)
    os.replace(tmp, out_dir / "edges.csv")
    meta_tmp = out_dir / "input.json.tmp"
    meta_tmp.write_text(json.dumps({"workload": workload.name, "seed": seed,
                                    "smoke": smoke, "totals": totals}) + "\n")
    os.replace(meta_tmp, out_dir / "input.json")
