"""Seeded synthetic edge streams with learnable temporal structure.

Nodes belong to communities with popularity-weighted endpoints, and a
fraction of each window's edges repeats earlier ones, so future links are
predictable from history. Useful for demos, integration tests, and
scale-shaped runs when no real dataset is on disk.
"""

from __future__ import annotations

import numpy as np

from .snapshots import TemporalEdgeList, edges_from_arrays


def generate_edges(n_nodes: int = 80, n_steps: int = 12,
                   edges_per_step: int = 240, n_communities: int = 6,
                   recurrence: float = 0.5, period: float = 1000.0,
                   seed: int = 0) -> TemporalEdgeList:
    """A temporal edge list spanning `n_steps` windows of width `period`.

    Each window draws `edges_per_step` edges: with probability `recurrence`
    an edge already seen is repeated, otherwise a fresh edge is drawn inside
    a random community with Zipf-like endpoint popularity.
    """
    rng = np.random.default_rng(seed)
    community = rng.integers(0, n_communities, size=n_nodes)
    members = [np.flatnonzero(community == c) for c in range(n_communities)]
    members = [m if m.size else np.array([0]) for m in members]
    weights = [1.0 / np.arange(1, m.size + 1) for m in members]
    weights = [w / w.sum() for w in weights]

    src_all: list[np.ndarray] = []
    dst_all: list[np.ndarray] = []
    ts_all: list[np.ndarray] = []
    seen_src: list[int] = []
    seen_dst: list[int] = []

    for step in range(n_steps):
        src = np.empty(edges_per_step, dtype=np.int64)
        dst = np.empty(edges_per_step, dtype=np.int64)
        n_repeat = 0
        if seen_src and recurrence > 0:
            n_repeat = int(rng.binomial(edges_per_step, recurrence))
            idx = rng.integers(0, len(seen_src), size=n_repeat)
            src[:n_repeat] = np.asarray(seen_src)[idx]
            dst[:n_repeat] = np.asarray(seen_dst)[idx]
        for i in range(n_repeat, edges_per_step):
            c = int(rng.integers(0, n_communities))
            m, w = members[c], weights[c]
            u = int(rng.choice(m, p=w))
            v = int(rng.choice(m, p=w))
            if v == u:
                v = int(m[(np.searchsorted(m, u) + 1) % m.size])
            src[i], dst[i] = u, v
        seen_src.extend(src[n_repeat:].tolist())
        seen_dst.extend(dst[n_repeat:].tolist())
        ts = step * period + np.sort(rng.uniform(0, period, size=edges_per_step))
        src_all.append(src)
        dst_all.append(dst)
        ts_all.append(ts)

    return edges_from_arrays(np.concatenate(src_all), np.concatenate(dst_all),
                             np.concatenate(ts_all), node_count=n_nodes)


def write_edge_file(path, edges: TemporalEdgeList) -> None:
    """Dump an edge list in the default src,dst,weight,timestamp format."""
    with open(path, "w") as fh:
        for s, d, w, t in zip(edges.src, edges.dst, edges.weight, edges.timestamp):
            fh.write(f"{s},{d},{w:g},{t:.6f}\n")
