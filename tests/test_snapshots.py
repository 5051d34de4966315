"""Tests for ingestion, partitioning, and label construction."""

import gzip
import json

import numpy as np
import pytest

from snaplink import snapshots as sn
from snaplink.errors import ConfigError, EmptyInputError, ParseError


def write_edges(tmp_path, text, name="edges.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# load_edge_list
# ---------------------------------------------------------------------------


def test_load_single_line(tmp_path):
    path = write_edges(tmp_path, "0,1,1.0,100\n")
    edges = sn.load_edge_list(path)
    assert len(edges) == 1
    assert edges.node_count == 2
    assert edges.src[0] == 0 and edges.dst[0] == 1
    assert edges.weight[0] == 1.0 and edges.timestamp[0] == 100.0


def test_load_compacts_ids_and_sorts_by_time(tmp_path):
    path = write_edges(tmp_path, "900,7,0.5,30\n7,900,2.0,10\n42,900,1.5,20\n")
    edges = sn.load_edge_list(path)
    assert edges.node_count == 3
    np.testing.assert_array_equal(edges.timestamp, [10.0, 20.0, 30.0])
    # first appearance order: 900 -> 0, 7 -> 1, 42 -> 2
    np.testing.assert_array_equal(edges.src, [1, 2, 0])
    np.testing.assert_array_equal(edges.dst, [0, 0, 1])


def test_load_weight_defaults_to_one(tmp_path):
    path = write_edges(tmp_path, "1 2 100\n2 3 50\n", name="edges.txt")
    schema = sn.EdgeSchema(delimiter=None, columns=("src", "dst", "timestamp"))
    edges = sn.load_edge_list(path, schema)
    np.testing.assert_array_equal(edges.weight, [1.0, 1.0])


def test_load_gzip_transparent(tmp_path):
    p = tmp_path / "edges.csv.gz"
    with gzip.open(p, "wt") as fh:
        fh.write("0,1,1.0,5\n1,2,2.0,6\n")
    edges = sn.load_edge_list(p)
    assert len(edges) == 2


def test_load_malformed_line_names_line_number(tmp_path):
    path = write_edges(tmp_path, "0,1,1.0,100\n0,1,oops,200\n")
    with pytest.raises(ParseError, match="line 2"):
        sn.load_edge_list(path)


def test_load_wrong_field_count_names_line_number(tmp_path):
    path = write_edges(tmp_path, "0,1,1.0,100\n0,1\n")
    with pytest.raises(ParseError, match="line 2"):
        sn.load_edge_list(path)


def test_load_empty_file_raises(tmp_path):
    path = write_edges(tmp_path, "")
    with pytest.raises(EmptyInputError):
        sn.load_edge_list(path)


def test_load_negative_timestamp_rejected(tmp_path):
    path = write_edges(tmp_path, "0,1,1.0,-5\n")
    with pytest.raises(ParseError, match="line 1"):
        sn.load_edge_list(path)


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_load_non_finite_weight_names_line_number(tmp_path, weight):
    path = write_edges(tmp_path, f"0,1,1.0,100\n1,2,{weight},200\n")
    with pytest.raises(ParseError, match="line 2: bad weight"):
        sn.load_edge_list(path)


def test_schema_parse_roundtrip():
    schema = sn.EdgeSchema.parse("ws:src,dst,timestamp")
    assert schema.delimiter is None
    assert schema.columns == ("src", "dst", "timestamp")
    assert sn.EdgeSchema.parse(schema.tag()).columns == schema.columns


def test_schema_missing_required_column():
    with pytest.raises(ConfigError):
        sn.EdgeSchema(columns=("src", "weight", "timestamp"))


# ---------------------------------------------------------------------------
# partition_snapshots
# ---------------------------------------------------------------------------


def test_partition_single_window():
    edges = sn.edges_from_arrays([0, 1, 2], [1, 2, 0], [0.0, 1.0, 2.0])
    g = sn.partition_snapshots(edges, 10)
    assert len(g) == 1
    assert g[0].n_edges == 3


def test_partition_zero_period_rejected():
    edges = sn.edges_from_arrays([0], [1], [0.0])
    with pytest.raises(ConfigError):
        sn.partition_snapshots(edges, 0)
    with pytest.raises(ConfigError):
        sn.partition_snapshots(edges, -5)


def test_partition_retains_empty_windows():
    edges = sn.edges_from_arrays([0, 1], [1, 0], [0.0, 35.0])
    g = sn.partition_snapshots(edges, 10)
    assert len(g) == 4
    assert [s.n_edges for s in g.snapshots] == [1, 0, 0, 1]
    # windows contiguous, non-overlapping, strictly increasing
    for t in range(1, len(g)):
        assert g[t].window[0] == g[t - 1].window[1]


def test_partition_completeness_random():
    rng = np.random.default_rng(0)
    for period in (700.0, 86400, "daily", "weekly"):
        n = 500
        edges = sn.edges_from_arrays(
            rng.integers(0, 20, n), rng.integers(0, 20, n),
            rng.uniform(0, 3e6, n).round(3))
        g = sn.partition_snapshots(edges, period)
        assert sum(s.n_edges for s in g.snapshots) == n


def test_partition_edge_features_in_range():
    rng = np.random.default_rng(1)
    n = 200
    edges = sn.edges_from_arrays(
        rng.integers(0, 10, n), rng.integers(0, 10, n),
        rng.uniform(0, 1e5, n), weight=rng.uniform(0.1, 5.0, n))
    g = sn.partition_snapshots(edges, 1000)
    for s in g.snapshots:
        if s.n_edges:
            assert s.edge_features[:, 1].min() >= 0.0
            assert s.edge_features[:, 1].max() < 1.0
            np.testing.assert_array_equal(np.sort(s.edge_features[:, 0]),
                                          np.sort(s.edge_features[:, 0]))


def test_partition_node_features_track_cumulative_degree():
    edges = sn.edges_from_arrays([0, 0, 1], [1, 1, 2], [0.0, 10.0, 11.0])
    g = sn.partition_snapshots(edges, 10)
    # after snapshot 0: node0 degree 1, node1 degree 1, node2 degree 0
    np.testing.assert_allclose(g[0].node_features[:, 1],
                               np.log1p([1.0, 1.0, 0.0]))
    # after snapshot 1 (two more edges): node0 2, node1 3, node2 1
    np.testing.assert_allclose(g[1].node_features[:, 1],
                               np.log1p([2.0, 3.0, 1.0]))
    assert np.all(g[0].node_features[:, 0] == 1.0)


def test_partition_keeps_multi_edges():
    edges = sn.edges_from_arrays([0, 0, 0], [1, 1, 1], [1.0, 2.0, 3.0])
    g = sn.partition_snapshots(edges, 100)
    assert g[0].n_edges == 3


def reference_partition(edges, frequency):
    """The per-window partition loop the time-CSR graph replaced: per-window
    copies and node features advanced window by window. Returns the offsets
    and one (window, src, dst, edge_features, node_features) per window."""
    period = sn.period_seconds(frequency)
    start = float(edges.timestamp.min())
    bins = np.floor((edges.timestamp - start) / period).astype(np.int64)
    n_snapshots = int(bins.max()) + 1
    cum_degree = np.zeros(edges.node_count, dtype=np.float64)
    order = np.argsort(bins, kind="stable")
    boundaries = np.searchsorted(bins[order], np.arange(n_snapshots + 1))
    windows = []
    for t in range(n_snapshots):
        sel = order[boundaries[t]:boundaries[t + 1]]
        w_start = start + t * period
        tnorm = np.clip((edges.timestamp[sel] - w_start) / period,
                        0.0, np.nextafter(1.0, 0.0))
        feats = np.column_stack([edges.weight[sel], tnorm]) if len(sel) else \
            np.zeros((0, 2), dtype=np.float64)
        src, dst = edges.src[sel], edges.dst[sel]
        cum_degree += np.bincount(np.concatenate([src, dst]), minlength=cum_degree.size)
        node_features = np.column_stack([np.ones(cum_degree.size, dtype=np.float64),
                                         np.log1p(cum_degree)])
        windows.append(((w_start, w_start + period), src, dst, feats, node_features))
    return boundaries, windows


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_matches_reference(g, edges, frequency):
    offsets, windows = reference_partition(edges, frequency)
    assert same_bits(g.offsets, offsets)
    assert len(g) == len(windows)
    for t, (window, *arrays) in enumerate(windows):
        s = g[t]
        assert s.index == t and s.window == window
        for attr, ref in zip(("edge_src", "edge_dst", "edge_features", "node_features"),
                             arrays):
            assert same_bits(getattr(s, attr), ref), (t, attr)


def boundary_edges():
    """Timestamps one ulp either side of each window boundary."""
    period, start = 1000.0, 12345.678
    ts = [start]
    for k in range(1, 8):
        edge = start + k * period
        ts += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
    ids = np.arange(len(ts))
    return sn.edges_from_arrays(ids % 7, (ids + 1) % 7, ts), period


PARTITION_CASES = {
    "boundary-ulps": boundary_edges,
    "empty-middle-window": lambda: (sn.edges_from_arrays(
        [0, 1, 2], [1, 2, 0], [0.0, 5.0, 35.0], node_count=4), 10.0),
    "single-window": lambda: (sn.edges_from_arrays(
        [0, 1, 2], [1, 2, 0], [0.0, 1.0, 2.0]), 10.0),
    # node 5 has its first edge in the last window, node 4 none at all
    "first-edge-in-last-window": lambda: (sn.edges_from_arrays(
        [0, 1, 5], [1, 0, 2], [0.0, 15.0, 29.0], node_count=6), 10.0),
}


@pytest.mark.parametrize("case", sorted(PARTITION_CASES))
def test_partition_matches_per_window_reference(case):
    edges, frequency = PARTITION_CASES[case]()
    assert_matches_reference(sn.partition_snapshots(edges, frequency), edges, frequency)


def test_partition_matches_per_window_reference_random():
    rng = np.random.default_rng(12)
    for frequency in (700.0, 3333.3, "daily"):
        n = int(rng.integers(1, 1500))
        edges = sn.edges_from_arrays(
            rng.integers(0, 40, n), rng.integers(0, 40, n),
            rng.uniform(0, 2e6, n).round(int(rng.integers(0, 4))),
            weight=rng.uniform(0.1, 3.0, n), node_count=40)
        assert_matches_reference(sn.partition_snapshots(edges, frequency),
                                 edges, frequency)


def argsort_partition(edges, period):
    """The graph arrays of a partition that sorts the edges by window itself:
    (offsets, src, dst, edge_features, start)."""
    start = float(edges.timestamp.min())
    bins = np.floor((edges.timestamp - start) / period).astype(np.int64)
    order = np.argsort(bins, kind="stable")
    bins = bins[order]
    offsets = np.searchsorted(bins, np.arange(bins[-1] + 2))
    tnorm = np.clip((edges.timestamp[order] - (start + bins * period)) / period,
                    0.0, np.nextafter(1.0, 0.0))
    return (offsets, edges.src[order], edges.dst[order],
            np.column_stack([edges.weight[order], tnorm]), start)


def test_partition_matches_an_argsort_reference_with_tied_timestamps():
    rng = np.random.default_rng(24)
    for _ in range(100):
        n = int(rng.integers(1, 300))
        # few distinct timestamps, so most edges tie with another
        ts = rng.integers(0, int(rng.integers(1, 40)), n) * float(rng.choice([1.0, 0.5, 7.3]))
        edges = sn.edges_from_arrays(rng.integers(0, 30, n), rng.integers(0, 30, n), ts,
                                     weight=rng.uniform(0.1, 3.0, n), node_count=30)
        period = float(rng.choice([1.0, 2.5, 10.0, 1000.0]))
        g = sn.partition_snapshots(edges, period)
        offsets, src, dst, features, start = argsort_partition(edges, period)
        for got, ref in ((g.offsets, offsets), (g.src, src), (g.dst, dst),
                         (g.edge_features, features)):
            assert same_bits(got, ref)
        assert g.start == start
        # the graph owns and freezes copies; the edge list stays writable
        for a, b in ((g.src, edges.src), (g.dst, edges.dst)):
            assert not np.shares_memory(a, b) and b.flags.writeable


def test_an_unsorted_edge_list_is_rejected():
    with pytest.raises(ValueError, match="sorted"):
        sn.TemporalEdgeList(np.array([0, 1]), np.array([1, 0]), np.ones(2),
                            np.array([5.0, 4.0]), node_count=2)


def test_snapshot_edges_are_read_only_views():
    g = small_cache_graph()
    s = g[1]
    assert s.n_edges and np.shares_memory(s.edge_src, g.src)
    for arr in (s.edge_src, s.edge_dst, s.edge_features, g.src):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    s.node_features[0, 1] += 1.0  # owned, writable


# ---------------------------------------------------------------------------
# build_labels
# ---------------------------------------------------------------------------


def two_step_graph():
    # snapshot 0: one edge; snapshot 1: the labeled future edges
    edges = sn.edges_from_arrays([0, 0, 1, 2, 2], [1, 2, 3, 3, 3],
                                 [0.0, 10.0, 11.0, 12.0, 12.5], node_count=6)
    return sn.partition_snapshots(edges, 10)


def test_build_labels_positives_are_next_snapshot_dedup():
    g = two_step_graph()
    rng = np.random.default_rng(3)
    labels = sn.build_labels(g, 0, val_fraction=0.25, k_neg=2, rng=rng)
    np.testing.assert_array_equal(
        labels.positives, [[0, 2], [1, 3], [2, 3]])
    assert labels.train_pos.shape[0] + labels.val_pos.shape[0] == 3
    # disjoint partition
    tr = {tuple(r) for r in labels.train_pos}
    va = {tuple(r) for r in labels.val_pos}
    assert tr | va == {(0, 2), (1, 3), (2, 3)}
    assert tr & va == set()


def test_build_labels_dedups_repeated_positives():
    edges = sn.edges_from_arrays([0, 1, 1, 1], [1, 2, 2, 2], [0.0, 10.0, 11.0, 12.0],
                                 node_count=4)
    g = sn.partition_snapshots(edges, 10)
    labels = sn.build_labels(g, 0, 0.3, 2, np.random.default_rng(0))
    np.testing.assert_array_equal(labels.positives, [[1, 2]])


def test_build_labels_negatives_exclude_positives():
    g = two_step_graph()
    for seed in range(20):
        labels = sn.build_labels(g, 0, 0.25, 5, np.random.default_rng(seed))
        pos = {tuple(r) for r in labels.positives}
        for src, negs in labels.eval_negatives.items():
            assert len(negs) == 5
            assert len(np.unique(negs)) == 5  # without replacement
            for d in negs:
                assert (src, int(d)) not in pos
                assert 0 <= d < g.node_count


def test_build_labels_exhausted_pool_truncates():
    # universe {0, 1}, positive (0, 1): the only candidate left is (0, 0)
    edges = sn.edges_from_arrays([0, 0], [1, 1], [0.0, 10.0], node_count=2)
    g = sn.partition_snapshots(edges, 10)
    labels = sn.build_labels(g, 0, 0.4, 1000, np.random.default_rng(0))
    np.testing.assert_array_equal(labels.eval_negatives[0], [0])


def test_build_labels_deterministic_under_seed():
    g = two_step_graph()
    a = sn.build_labels(g, 0, 0.25, 4, np.random.default_rng(7))
    b = sn.build_labels(g, 0, 0.25, 4, np.random.default_rng(7))
    np.testing.assert_array_equal(a.positives, b.positives)
    np.testing.assert_array_equal(a.train_pos, b.train_pos)
    np.testing.assert_array_equal(a.val_pos, b.val_pos)
    assert set(a.eval_negatives) == set(b.eval_negatives)
    for k in a.eval_negatives:
        np.testing.assert_array_equal(a.eval_negatives[k], b.eval_negatives[k])


def test_build_labels_empty_next_snapshot_sets_skip():
    edges = sn.edges_from_arrays([0, 1], [1, 0], [0.0, 25.0], node_count=2)
    g = sn.partition_snapshots(edges, 10)  # middle window empty
    rng = np.random.default_rng(0)
    labels = sn.build_labels(g, 0, 0.3, 2, rng)
    assert labels.skip
    assert labels.n_positives == 0
    for arr in (labels.positives, labels.train_pos, labels.val_pos):
        assert arr.shape == (0, 2) and arr.dtype == np.int64
    assert labels.eval_negatives == {}
    # nothing was drawn
    assert rng.integers(0, 2**62) == np.random.default_rng(0).integers(0, 2**62)


def test_build_labels_causality_only_reads_next_snapshot():
    # mutating snapshots beyond t+1 must not change the labels
    g1 = two_step_graph()
    edges2 = sn.edges_from_arrays([0, 0, 1, 2, 2, 5], [1, 2, 3, 3, 3, 4],
                                  [0.0, 10.0, 11.0, 12.0, 12.5, 29.0], node_count=6)
    g2 = sn.partition_snapshots(edges2, 10)
    a = sn.build_labels(g1, 0, 0.25, 3, np.random.default_rng(11))
    b = sn.build_labels(g2, 0, 0.25, 3, np.random.default_rng(11))
    np.testing.assert_array_equal(a.positives, b.positives)
    for k in a.eval_negatives:
        np.testing.assert_array_equal(a.eval_negatives[k], b.eval_negatives[k])


def reference_build_negatives(g, t, val_fraction, k_neg, rng):
    """The original draw: a set difference over all nodes per source, then
    rng.choice over the materialised pool. Kept as the oracle that
    build_labels must match bit for bit, generator stream included."""
    nxt = g[t + 1]
    positives = np.unique(np.stack([nxt.edge_src, nxt.edge_dst], axis=1), axis=0)
    n_pos = positives.shape[0]
    rng.permutation(n_pos)  # the train/val split
    out = {}
    srcs, src_starts = np.unique(positives[:, 0], return_index=True)
    for i, src in enumerate(srcs):
        hi = src_starts[i + 1] if i + 1 < len(srcs) else n_pos
        pool = np.setdiff1d(np.arange(g.node_count, dtype=np.int64),
                            positives[src_starts[i]:hi, 1])
        k = min(k_neg, pool.size)
        out[int(src)] = (np.empty(0, dtype=np.int64) if k == 0
                         else rng.choice(pool, size=k, replace=False))
    return out


def future_graph(n_nodes, src, dst):
    """Window 0 holds one edge; window 1 holds the given future edges."""
    n = len(src)
    return sn.partition_snapshots(sn.edges_from_arrays(
        [0, *src], [0, *dst], [0.0, *np.linspace(10.0, 19.0, n)],
        node_count=n_nodes), 10)


NEGATIVE_REGIMES = {
    # source 0: 3 positives in 60 nodes, k=5 -> pool >= 2k
    "pool_ge_2k": (future_graph(60, [0, 0, 0, 4], [5, 17, 59, 0]), 5),
    # source 1: 2 positives in 12 nodes, k=8 -> pool 10, between k and 2k
    "pool_between_k_2k": (future_graph(12, [1, 1, 3], [2, 9, 3]), 8),
    # pool <= k: every list is truncated to the pool
    "pool_le_k": (future_graph(6, [0, 2, 2, 5], [1, 0, 4, 5]), 10),
    # source 0 links to every node -> empty pool; source 1 does not
    "pool_empty": (future_graph(3, [0, 0, 0, 1], [0, 1, 2, 2]), 2),
    "self_loop": (future_graph(8, [3, 3, 6], [3, 7, 6]), 4),
    "multi_edges": (future_graph(9, [2, 2, 2, 2, 4, 4], [5, 5, 5, 1, 8, 8]), 3),
    # window 1 holds no edge: no positives, no sources, no draw
    "next_window_empty": (sn.partition_snapshots(sn.edges_from_arrays(
        [0, 1], [1, 0], [0.0, 25.0], node_count=5), 10), 3),
}


@pytest.mark.parametrize("regime", sorted(NEGATIVE_REGIMES))
def test_build_labels_negatives_match_reference_draw(regime):
    g, k = NEGATIVE_REGIMES[regime]
    for seed in range(25):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sn.build_labels(g, 0, 0.3, k, rng_new).eval_negatives
        want = reference_build_negatives(g, 0, 0.3, k, rng_ref)
        assert list(got) == list(want)
        for src in want:
            assert got[src].dtype == want[src].dtype == np.int64
            np.testing.assert_array_equal(got[src], want[src])
        # the same stream was consumed
        assert rng_new.integers(0, 2**62) == rng_ref.integers(0, 2**62)


def test_build_labels_regimes_cover_pool_sizes():
    sizes = {}
    for regime, (g, k) in NEGATIVE_REGIMES.items():
        negs = sn.build_labels(g, 0, 0.3, k, np.random.default_rng(0)).eval_negatives
        sizes[regime] = {src: (len(v), k) for src, v in negs.items()}
    assert sizes["pool_ge_2k"][0] == (5, 5)
    assert sizes["pool_between_k_2k"][1] == (8, 8)
    assert all(n < k for n, k in sizes["pool_le_k"].values())
    assert sizes["pool_empty"][0] == (0, 2)


def test_build_labels_negatives_uniform_over_pool():
    # source 0 with positives {0, 2, 5, 7} among 10 nodes: pool of 6, k=3
    g = future_graph(10, [0, 0, 0, 0], [0, 2, 5, 7])
    k, rounds = 3, 6000
    rng = np.random.default_rng(123)
    counts = np.zeros(10, dtype=np.int64)
    for _ in range(rounds):
        negs = sn.build_labels(g, 0, 0.3, k, rng).eval_negatives[0]
        assert len(np.unique(negs)) == k
        counts += np.bincount(negs, minlength=10)
    positives = [0, 2, 5, 7]
    assert counts[positives].sum() == 0
    # each pool node is drawn in a round with p = k / pool, independently
    # across rounds: its count is Binomial(rounds, p)
    p = k / 6
    tol = 5.0 * np.sqrt(rounds * p * (1 - p))
    pool = np.setdiff1d(np.arange(10), positives)
    assert np.all(np.abs(counts[pool] - rounds * p) < tol), counts


def test_sample_training_negatives_rejects_positives():
    g = two_step_graph()
    labels = sn.build_labels(g, 0, 0.25, 3, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    pos = {tuple(r) for r in labels.positives}
    for _ in range(10):
        negs = sn.sample_training_negatives(labels, g.node_count, rng)
        assert negs.shape == (labels.train_pos.shape[0], 2)
        np.testing.assert_array_equal(negs[:, 0], labels.train_pos[:, 0])
        for s, d in negs:
            assert (int(s), int(d)) not in pos


def test_sample_training_negatives_drops_unresolvable_rows():
    # source 0 links to all 3 nodes: no negative exists for it
    g = future_graph(3, [0, 0, 0], [0, 1, 2])
    labels = sn.build_labels(g, 0, 0.34, 3, np.random.default_rng(0))
    assert labels.train_pos.shape[0] == 2
    negs = sn.sample_training_negatives(labels, g.node_count,
                                        np.random.default_rng(1))
    assert negs.shape == (0, 2)
    assert negs.dtype == np.int64


def test_val_view_shares_negatives():
    g = two_step_graph()
    labels = sn.build_labels(g, 0, 0.34, 3, np.random.default_rng(5))
    view = labels.val_view()
    np.testing.assert_array_equal(view.positives, labels.val_pos)
    assert view.eval_negatives is labels.eval_negatives


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def test_snapshot_cache_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    n = 300
    src = rng.integers(0, 15, n)
    dst = rng.integers(0, 15, n)
    ts = rng.uniform(0, 1e5, n)
    ts[0] = 0.0  # windows start at 0
    ts[(ts >= 18000) & (ts < 27000)] += 9000  # window 2 is empty
    # node 15 first appears in the last window, node 16 never
    src = np.append(src, 15)
    dst = np.append(dst, 3)
    ts = np.append(ts, 1e5)
    edges = sn.edges_from_arrays(src, dst, ts, weight=rng.uniform(0.5, 2.0, n + 1),
                                 node_count=17)
    g = sn.partition_snapshots(edges, 9000)
    assert g[2].n_edges == 0 and g[2].node_features.shape == (17, 2)
    path = tmp_path / "cache.npz"
    sn.save_snapshot_cache(path, g)
    with np.load(path) as data:
        assert "node_features" not in data.files
    g2 = sn.load_snapshot_cache(path)
    assert len(g2) == len(g)
    assert g2.node_count == g.node_count
    assert g2.period_seconds == g.period_seconds
    assert g2.frequency == g.frequency
    assert g2.source_fingerprint == g.source_fingerprint
    for a, b in zip(g.snapshots, g2.snapshots):
        assert a.index == b.index
        assert a.window == b.window
        for attr in ("edge_src", "edge_dst", "edge_features", "node_features"):
            x, y = getattr(a, attr), getattr(b, attr)
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes(), (a.index, attr)
    late = [t for t in range(len(g)) if g[t].node_features[15, 1] > 0]
    assert late == [len(g) - 1]
    assert (g2[-1].node_features[16] == [1.0, 0.0]).all()
    # each snapshot owns its node features: writing one changes no other
    g2[1].node_features[0, 1] += 1.0
    assert g2[0].node_features[0, 1] == g[0].node_features[0, 1]
    assert g2[2].node_features[0, 1] == g[2].node_features[0, 1]


def small_cache_graph():
    rng = np.random.default_rng(9)
    edges = sn.edges_from_arrays(rng.integers(0, 10, 50), rng.integers(0, 10, 50),
                                 rng.uniform(0, 1e4, 50))
    return sn.partition_snapshots(edges, 3000)


def test_snapshot_cache_failed_write_leaves_nothing(tmp_path, monkeypatch):
    def failing_savez(file, **arrays):
        file.write(b"partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(sn.np, "savez", failing_savez)
    path = tmp_path / "cache.npz"
    with pytest.raises(OSError, match="disk full"):
        sn.save_snapshot_cache(path, small_cache_graph())
    assert list(tmp_path.iterdir()) == []


def test_snapshot_cache_write_replaces_whole_file(tmp_path):
    g = small_cache_graph()
    path = tmp_path / "cache.npz"
    path.write_bytes(b"stale")
    sn.save_snapshot_cache(path, g)
    assert [p.name for p in tmp_path.iterdir()] == ["cache.npz"]
    assert len(sn.load_snapshot_cache(path)) == len(g)


def damage_nan_feature(arrays):
    arrays["edge_features"][3, 0] = np.nan


def damage_dst_out_of_range(arrays):
    arrays["dst"][5] = json.loads(bytes(arrays["__meta__"]))["node_count"]


def damage_offsets_end(arrays):
    arrays["src"] = arrays["src"][:-1]


@pytest.mark.parametrize("damage,message", [
    (damage_nan_feature, "non-finite"),
    (damage_dst_out_of_range, "outside"),
    (damage_offsets_end, "offsets"),
])
def test_load_snapshot_cache_rejects_a_damaged_archive(tmp_path, damage, message):
    path = tmp_path / "cache.npz"
    sn.save_snapshot_cache(path, small_cache_graph())
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    damage(arrays)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=message):
        sn.load_snapshot_cache(path)


def graph_arrays():
    """Writable copies of a valid graph's arrays and the other arguments."""
    g = small_cache_graph()
    arrays = {k: getattr(g, k).copy() for k in sn.CACHE_ARRAYS}
    return arrays, dict(start=g.start, period_seconds=g.period_seconds,
                        node_count=g.node_count)


def set_entry(name, index, value):
    """A damage that sets arrays[name][index] to `value` ("node_count": the graph's)."""
    def damage(arrays, n):
        arrays[name][index] = n if value == "node_count" else value
    return damage


def as_int32(arrays, n):
    arrays["src"] = arrays["src"].astype(np.int32)
    arrays["dst"] = arrays["dst"].astype(np.int32)


@pytest.mark.parametrize("damage, message", [
    (set_entry("src", 4, -1), "outside"),
    (set_entry("dst", 7, -1), "outside"),
    (set_entry("src", 0, np.iinfo(np.int64).min), "outside"),
    (set_entry("src", 2, "node_count"), "outside"),
    (set_entry("dst", -1, "node_count"), "outside"),
    (set_entry("edge_features", (3, 0), np.nan), "non-finite"),
    (set_entry("edge_features", (3, 0), np.inf), "non-finite"),
    (set_entry("edge_features", (5, 0), -np.inf), "non-finite"),
    (set_entry("edge_features", (3, 1), np.nan), "window"),
    (set_entry("edge_features", (3, 1), np.inf), "window"),
    (set_entry("edge_features", (3, 1), 1.0), "window"),
    (set_entry("edge_features", (3, 1), -1e-300), "window"),
    (as_int32, "int64"),
], ids=["negative-src", "negative-dst", "int64-min-src", "src-node-count",
        "dst-node-count", "nan-weight", "inf-weight", "minus-inf-weight", "nan-tnorm",
        "inf-tnorm", "tnorm-one", "tnorm-below-zero", "int32-endpoints"])
def test_dynamic_graph_rejects_bad_arrays(damage, message):
    arrays, kwargs = graph_arrays()
    sn.DynamicGraph(*(a.copy() for a in arrays.values()), **kwargs)  # undamaged, they pass
    damage(arrays, kwargs["node_count"])
    with pytest.raises(ValueError, match=message):
        sn.DynamicGraph(*arrays.values(), **kwargs)


def test_cache_key_depends_on_inputs():
    schema = sn.EdgeSchema()
    k1 = sn.cache_key("abc", "weekly", schema)
    k2 = sn.cache_key("abc", "daily", schema)
    k3 = sn.cache_key("abd", "weekly", schema)
    assert len({k1, k2, k3}) == 3


def test_cache_key_is_pinned():
    """Archives already on disk stay cache hits only while their stem does."""
    assert sn.cache_key("0123456789abcdef", "1000", sn.EdgeSchema()) == "24262c1daf94a3054f2b"
