"""Shared fixtures: small snapshots, toy models, synthetic dynamic graphs."""

import os
from pathlib import Path

import numpy as np
import pytest

from snaplink import synthetic
from snaplink.model import HierarchicalNodeState, ModelConfig, init_model
from snaplink.snapshots import GraphSnapshot, partition_snapshots


def make_snapshot(n_nodes, src, dst, edge_features=None, index=0,
                  window=(0.0, 100.0)):
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if len(src) == 0:
        edge_features = np.zeros((0, 2))
    else:
        if edge_features is None:
            edge_features = np.column_stack([np.ones(len(src)),
                                             np.linspace(0.0, 0.9, len(src))])
        edge_features = np.asarray(edge_features, dtype=np.float64).reshape(len(src), -1)
    return GraphSnapshot(index=index, edge_src=src, edge_dst=dst,
                         edge_features=edge_features, window=window, n_nodes=n_nodes)


def toy_snapshot():
    """6 nodes, 8 edges."""
    src = [0, 1, 2, 3, 4, 5, 0, 2]
    dst = [1, 2, 3, 4, 5, 0, 3, 5]
    return make_snapshot(6, src, dst)


def toy_model(update="gru", hidden=4, seed=0, dtype="float64", **overrides):
    """A small model; float64 unless asked, so gradient checks are meaningful."""
    cfg = ModelConfig(hidden_dim=hidden, n_pre=1, n_mp=2, n_post=1,
                      update=update, dtype=dtype, **overrides)
    return init_model(cfg, np.random.default_rng(seed))


def fresh_state(model, n_nodes):
    return HierarchicalNodeState.zeros(n_nodes, model.config)


def incident_counts(snapshots, n_nodes):
    """Each node's incident edge count over `snapshots`, as float64: the
    history a carried state holds once it has folded them in."""
    ends = np.concatenate([np.concatenate([s.edge_src, s.edge_dst]) for s in snapshots])
    return np.bincount(ends, minlength=n_nodes).astype(np.float64)


def make_synth_graph():
    """A 10-window synthetic dynamic graph with strong recurrence."""
    edges = synthetic.generate_edges(n_nodes=40, n_steps=10, edges_per_step=150,
                                     n_communities=4, recurrence=0.6, seed=11)
    return partition_snapshots(edges, 1000.0)


@pytest.fixture(scope="session")
def synth_graph():
    return make_synth_graph()


def dataset_path(name: str) -> Path | None:
    """Locate a real dataset file under $SNAPLINK_DATA or ./data, if present."""
    roots = []
    if os.environ.get("SNAPLINK_DATA"):
        roots.append(Path(os.environ["SNAPLINK_DATA"]))
    roots.append(Path(__file__).resolve().parent.parent / "data")
    candidates = {
        "uci-message": ["CollegeMsg.txt", "CollegeMsg.txt.gz"],
        "bitcoin-alpha": ["soc-sign-bitcoinalpha.csv", "soc-sign-bitcoinalpha.csv.gz"],
        "bitcoin-otc": ["soc-sign-bitcoinotc.csv", "soc-sign-bitcoinotc.csv.gz"],
    }[name]
    for root in roots:
        for fname in candidates:
            p = root / fname
            if p.exists():
                return p
    return None
