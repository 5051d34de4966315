"""Contract tests for the MRR metric and the fixed-split protocol."""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import incident_counts, toy_model
from helpers import over_protocols, summary_fields
from test_golden import run_config, small_graph
from snaplink import evaluate as ev
from snaplink import model as md
from snaplink import synthetic
from snaplink import train as tr
from snaplink.errors import ConfigError, NumericError
from snaplink.model import ModelConfig
from snaplink.snapshots import (LabelSet, edges_from_arrays, load_snapshot_cache,
                                 partition_snapshots, save_snapshot_cache)


# ---------------------------------------------------------------------------
# mrr
# ---------------------------------------------------------------------------


def reference_mrr(top_repr, labels, model):
    """The per-positive loop that mrr replaced, scoring every pair as a
    one-row block of the head relu(a + b) . w2 + b2 in its max form,
    max(b, -a) . w2 + (a . w2 + b2)."""
    w2 = model.params["head.w2"].value.ravel()
    a = top_repr @ model.params["head.w_src"].value.T
    b = top_repr @ model.params["head.w_dst"].value.T + model.params["head.b1"].value
    a_dot = a @ w2 + model.params["head.b2"].value

    def head(src, dsts):
        return np.array([
            (np.einsum("ij,j->i", np.maximum(b[v:v + 1], -a[src]), w2) + a_dot[src])[0]
            for v in dsts])

    positives = labels.positives
    srcs, starts = np.unique(positives[:, 0], return_index=True)
    total, count = 0.0, 0
    for i, src in enumerate(srcs):
        hi = starts[i + 1] if i + 1 < len(srcs) else len(positives)
        pos_scores = head(int(src), positives[starts[i]:hi, 1])
        negs = labels.eval_negatives[int(src)]
        if negs.size == 0:
            total += float(len(pos_scores))
            count += len(pos_scores)
            continue
        neg_scores = head(int(src), negs)
        for ps in pos_scores:
            rank = 1 + int((neg_scores > ps).sum()) + int((neg_scores == ps).sum())
            total += 1.0 / rank
            count += 1
    return total / count


def random_labels(rng, n_nodes, n_pos, k, empty_sources=0):
    pairs = np.unique(rng.integers(0, n_nodes, size=(n_pos, 2)), axis=0)
    negs = {int(s): rng.choice(n_nodes, size=min(k, n_nodes), replace=False)
            for s in np.unique(pairs[:, 0])}
    for s in list(negs)[:empty_sources]:
        negs[s] = np.empty(0, np.int64)
    return LabelSet(step=0, positives=pairs, train_pos=pairs[:0], val_pos=pairs[:0],
                    eval_negatives=negs)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_mrr_equals_reference_loop(seed):
    rng = np.random.default_rng(seed)
    model = toy_model(update="moving_average", hidden=8, seed=seed)
    reps = rng.normal(size=(60, 8))
    labels = random_labels(rng, 60, 150, k=25, empty_sources=seed)
    assert np.unique(labels.positives[:, 0], return_counts=True)[1].max() > 1
    assert ev.mrr(reps, labels, model) == reference_mrr(reps, labels, model)


def test_mrr_equals_reference_loop_with_many_ties():
    rng = np.random.default_rng(5)
    model = toy_model(update="moving_average", hidden=4, seed=5)
    for name in ("head.w_src", "head.w_dst", "head.b1", "head.w2"):
        p = model.params[name]
        p.value = rng.integers(-2, 3, size=p.value.shape) * 0.25
    reps = rng.integers(0, 2, size=(30, 4)).astype(np.float64)
    labels = random_labels(rng, 30, 80, k=20)
    assert ev.mrr(reps, labels, model) == reference_mrr(reps, labels, model)


def test_mrr_constant_head_ties_count_against_positive():
    model = toy_model(update="moving_average", hidden=4, seed=6)
    model.params["head.w2"].value = np.zeros_like(model.params["head.w2"].value)
    rng = np.random.default_rng(6)
    labels = random_labels(rng, 50, 40, k=9)
    assert ev.mrr(rng.normal(size=(50, 4)), labels, model) == pytest.approx(1.0 / 10, abs=1e-15)


def test_mrr_source_without_negatives_ranks_first():
    model = toy_model(update="moving_average", hidden=4, seed=7)
    model.params["head.w2"].value = np.zeros_like(model.params["head.w2"].value)
    positives = np.array([[0, 1], [0, 2], [3, 1]])
    labels = LabelSet(step=0, positives=positives, train_pos=positives[:0],
                      val_pos=positives[:0],
                      eval_negatives={0: np.empty(0, np.int64), 3: np.array([0, 2, 4])})
    # source 0: two positives at rank 1; source 3: one positive tied with 3 negatives
    reps = np.random.default_rng(7).normal(size=(5, 4))
    assert ev.mrr(reps, labels, model) == (1.0 + 1.0 + 1.0 / 4) / 3


def test_mrr_scores_each_source_in_one_call(monkeypatch):
    rng = np.random.default_rng(8)
    model = toy_model(update="moving_average", hidden=4, seed=8)
    labels = random_labels(rng, 40, 100, k=10, empty_sources=2)
    calls = []
    real = md.PairScorer.scores_against

    def counting(self, src, dsts):
        calls.append((src, dsts.tolist()))
        return real(self, src, dsts)

    monkeypatch.setattr(md.PairScorer, "scores_against", counting)
    ev.mrr(rng.normal(size=(40, 4)), labels, model)
    positives = labels.positives
    assert calls == [
        (src, positives[positives[:, 0] == src, 1].tolist() + negs.tolist())
        for src, negs in sorted(labels.eval_negatives.items())]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_mrr_positive_ties_every_negative_with_its_row(dtype):
    # rank = 1 + #higher + #tied, so a positive that shares its representation
    # row with m negatives ranks m + 1 or worse, whatever block each sits in;
    # the positive is the best candidate, so it ranks exactly m + 1
    rng = np.random.default_rng(10)
    model = toy_model(update="moving_average", hidden=128, seed=10, dtype=dtype)
    n = 1200
    for k in (1001, 1002, 1003):
        for m in (1, 2, 3, 5, 8):
            reps = rng.normal(size=(n, 128)).astype(dtype)
            candidates = rng.choice(np.arange(1, n), size=k + 1, replace=False)
            best = md.PairScorer(reps, model).scores_against(0, candidates).argmax()
            v, negs = candidates[best], np.delete(candidates, best)
            reps[negs[rng.choice(k, size=m, replace=False)]] = reps[v]
            positives = np.array([[0, v]])
            labels = LabelSet(step=0, positives=positives, train_pos=positives[:0],
                              val_pos=positives[:0], eval_negatives={0: negs})
            assert ev.mrr(reps, labels, model) == 1.0 / (m + 1), (k, m)


@pytest.mark.parametrize("bad_node", ["positive", "negative", "source", "head.b1"])
def test_mrr_non_finite_score_raises(bad_node):
    # a NaN source row or first-layer bias reaches every score of the source,
    # so the positives' check reports it
    model = toy_model(update="moving_average", hidden=4, seed=9)
    reps = np.random.default_rng(9).normal(size=(6, 4))
    if bad_node == "head.b1":
        model.params["head.b1"].value[1] = np.nan
    else:
        reps[{"positive": 2, "negative": 4, "source": 0}[bad_node]] = np.nan
    positives = np.array([[0, 1], [0, 2] if bad_node == "positive" else [0, 3]])
    labels = LabelSet(step=0, positives=positives, train_pos=positives[:0],
                      val_pos=positives[:0], eval_negatives={0: np.array([4, 5])})
    reported = "negative" if bad_node == "negative" else "positive"
    with pytest.raises(NumericError, match=f"non-finite {reported} score"):
        ev.mrr(reps, labels, model)


@pytest.mark.parametrize("bad_node", ["positive", "negative"])
def test_mrr_float32_head_overflow_raises(bad_node):
    # a representation row of 1e38 is finite in float32, but with an all-ones
    # first head layer its slab sums to 4e38, which only float64 can hold
    model = toy_model(update="moving_average", hidden=4, seed=9, dtype="float32")
    model.params["head.w_src"].value[:] = 1.0
    model.params["head.w_dst"].value[:] = 1.0
    reps = np.random.default_rng(9).normal(size=(6, 4)).astype(np.float32)
    reps[2 if bad_node == "positive" else 4] = 1e38
    assert np.isfinite(reps).all()
    positives = np.array([[0, 1], [0, 2] if bad_node == "positive" else [0, 3]])
    labels = LabelSet(step=0, positives=positives, train_pos=positives[:0],
                      val_pos=positives[:0], eval_negatives={0: np.array([4, 5])})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=f"non-finite {bad_node} score"):
            ev.mrr(reps, labels, model)
    model64 = toy_model(update="moving_average", hidden=4, seed=9)
    model64.params["head.w_src"].value[:] = 1.0
    model64.params["head.w_dst"].value[:] = 1.0
    assert np.isfinite(ev.mrr(reps.astype(np.float64), labels, model64))


# ---------------------------------------------------------------------------
# fixed-split protocol
# ---------------------------------------------------------------------------


def fixed_config(test_fraction=0.2, seed=0, protocol="fixed_split"):
    return ev.RunConfig(
        model=ModelConfig(hidden_dim=8, n_pre=1, n_mp=2, n_post=1,
                          update="moving_average"),
        train=tr.TrainConfig(learning_rate=0.01, max_epochs=3, patience=2),
        protocol=protocol, k_neg=20, test_fraction=test_fraction, seed=seed)


def test_fixed_split_step_counts(synth_graph):
    T = len(synth_graph)
    for test_fraction in (0.1, 0.2, 0.4):
        n_test = max(1, round(T * test_fraction))
        report = ev.run_protocol(synth_graph, fixed_config(test_fraction))
        assert len(report.evaluated_steps) == n_test
        assert [r.t for r in report.per_step] == list(range(T - n_test - 1, T - 1))
        assert len(report.train_records) == T - n_test - 1
        assert all(r.mrr is None for r in report.train_records)
        assert all(r.epochs_run == 0 for r in report.per_step)


def test_fixed_split_rejects_test_block_without_training(synth_graph):
    with pytest.raises(ConfigError, match="no training steps"):
        ev.run_protocol(synth_graph, fixed_config(test_fraction=0.9))


@over_protocols
@pytest.mark.parametrize("field,value", [
    ("alpha", -0.1), ("alpha", 1.5), ("k_neg", 0), ("val_fraction", 0.0),
    ("val_fraction", 1.0), ("test_fraction", -1.0), ("test_fraction", 0.0),
    ("test_fraction", 1.0), ("protocol", "live-update"),
])
def test_run_config_rejects_an_out_of_range_protocol_key(synth_graph, protocol, field,
                                                          value):
    cfg = fixed_config(protocol=protocol)
    setattr(cfg, field, value)
    records = []
    with pytest.raises(ConfigError) as info:
        ev.run_protocol(synth_graph, cfg, step_callback=records.append)
    assert info.value.field == field
    assert records == []


def test_fixed_split_parameters_frozen_in_test_block(synth_graph, monkeypatch):
    first_test_step = len(synth_graph) - 2 - 1  # test_fraction=0.2 -> 2 steps
    seen = []
    real_mrr = ev.mrr

    def recording_mrr(top_repr, labels, model):
        if labels.step >= first_test_step:
            seen.append(ev.params_checksum(model))
        return real_mrr(top_repr, labels, model)

    monkeypatch.setattr(ev, "mrr", recording_mrr)
    report = ev.run_protocol(synth_graph, fixed_config())
    assert len(seen) == 2
    assert set(seen) == {ev.params_checksum(report.final.deploy)}


@pytest.mark.parametrize("name", ["head.w_src", "mp.0.running_mean"])
def test_fixed_split_raises_when_parameters_move(synth_graph, monkeypatch, name):
    first_test_step = len(synth_graph) - 2 - 1
    real_mrr = ev.mrr

    def mutating_mrr(top_repr, labels, model):
        if labels.step >= first_test_step:
            model.params[name].value = model.params[name].value + 1.0
        return real_mrr(top_repr, labels, model)

    monkeypatch.setattr(ev, "mrr", mutating_mrr)
    with pytest.raises(NumericError, match="parameters moved"):
        ev.run_protocol(synth_graph, fixed_config())


def test_fixed_split_same_seed_same_report(synth_graph):
    a = ev.run_protocol(synth_graph, fixed_config(seed=4))
    b = ev.run_protocol(synth_graph, fixed_config(seed=4))
    assert a.summary_dict() == b.summary_dict()
    assert [summary_fields(r) for r in a.per_step + a.train_records] == \
        [summary_fields(r) for r in b.per_step + b.train_records]
    assert np.isfinite(a.mean_mrr)


# ---------------------------------------------------------------------------
# shared step loop
# ---------------------------------------------------------------------------


def test_live_update_makes_one_loop_forward_per_step(monkeypatch):
    g = small_graph()  # steps 1 and 3 have positives but no training positives
    forwards = []
    real_forward = ev.forward

    def counting(*args, **kwargs):
        forwards.append(kwargs.get("mode"))
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(ev, "forward", counting)
    report = ev.run_protocol(g, run_config("gru", val_fraction=0.9))
    assert [r.epochs_run == 0 for r in report.per_step] == \
        [False, True, False, True, True, False]
    assert forwards == ["eval"] * (len(g) - 1)


def test_a_step_frees_its_labels_and_forwards_before_its_record_is_passed_on(
        synth_graph, monkeypatch):
    """Step s's labels (every eval negative list), its scoring forward and
    its fine-tune result are locals of `step`: none is alive when the
    record reaches the callback, so none is held while step s+1 builds its
    labels. The fine-tune result held the state it started from."""
    refs = {}

    def recording(name):
        real = getattr(ev, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            refs.setdefault(name, []).append(weakref.ref(out))
            return out
        monkeypatch.setattr(ev, name, wrapper)

    def check(record):
        alive = {name: sum(ref() is not None for ref in rs) for name, rs in refs.items()}
        assert set(alive.values()) == {0}, (record.t, alive)

    for name in ("build_labels", "forward", "fine_tune"):
        recording(name)
    report = ev.run_protocol(synth_graph, fixed_config(), step_callback=check)
    assert {name: len(rs) for name, rs in refs.items()} == {
        "build_labels": len(synth_graph) - 1, "forward": len(report.per_step),
        "fine_tune": len(report.train_records)}


class Stop(Exception):
    """Stands in for a run killed between two steps."""


@over_protocols
@pytest.mark.parametrize("update", ["moving_average", "mlp", "gru"])
def test_a_run_resumed_from_its_archive_is_bitwise_the_whole_run(synth_graph, monkeypatch,
                                                                 tmp_path, protocol, update):
    """A RunState is all one step hands the next. A run stopped after step
    0 and folded on from its archive, read back from disk before every
    step, gives the uninterrupted run's records and final RunState bit for
    bit: both models, the node state, the step and the frozen checksum."""
    cfg = run_config(update, dtype="float32", protocol=protocol)
    whole = ev.run_protocol(synth_graph, cfg)
    path = tmp_path / "model.npz"
    records = []
    real_step = ev.step

    def stopping(g, run_cfg, rs):
        rs, record = real_step(g, run_cfg, rs)
        rs.save(path)
        records.append(record)
        raise Stop

    monkeypatch.setattr(ev, "step", stopping)
    with pytest.raises(Stop):
        ev.run_protocol(synth_graph, cfg)
    while (rs := ev.RunState.load(path)).step < len(synth_graph) - 1:
        rs, record = real_step(synth_graph, cfg, rs)
        rs.save(path)
        records.append(record)

    expected = sorted(whole.per_step + whole.train_records, key=lambda r: r.t)
    assert [summary_fields(r) for r in records] == [summary_fields(r) for r in expected]
    final = whole.final
    for got, want in ((rs.deploy, final.deploy), (rs.meta, final.meta)):
        assert got.params.names() == want.params.names()
        for p in want.params:
            assert got.params[p.name].value.tobytes() == p.value.tobytes(), p.name
    for got, want in zip(rs.state.layers + [rs.state.history],
                         final.state.layers + [final.state.history], strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (rs.step, rs.frozen_checksum) == (final.step, final.frozen_checksum)
    assert (final.frozen_checksum is None) == (protocol == "live_update")


def running_stats(model):
    """Copies of the model's batch-norm running statistics, by name."""
    return {p.name: p.value.copy() for p in model.params if not p.requires_grad}


@pytest.mark.parametrize("reset", [False, True])
def test_bn_reset_per_snapshot_resets_only_the_warm_start(synth_graph, monkeypatch,
                                                          reset):
    starts, trained, blended = [], [], []
    real_fine_tune, real_meta_update = ev.fine_tune, ev.meta_update

    def recording_fine_tune(model, *args, **kwargs):
        starts.append(running_stats(model))
        out = real_fine_tune(model, *args, **kwargs)
        trained.append(running_stats(out.model))
        return out

    def recording_meta_update(*args, **kwargs):
        out = real_meta_update(*args, **kwargs)
        blended.append(running_stats(out))
        return out

    monkeypatch.setattr(ev, "fine_tune", recording_fine_tune)
    monkeypatch.setattr(ev, "meta_update", recording_meta_update)
    cfg = fixed_config(protocol="live_update")
    cfg.alpha = 0.5
    cfg.model.bn_reset_per_snapshot = reset
    ev.run_protocol(synth_graph, cfg)

    assert len(starts) == len(trained) == len(blended) == len(synth_graph) - 1
    initial = starts[0]
    assert initial.keys() == {"mp.0.running_mean", "mp.0.running_var",
                              "mp.1.running_mean", "mp.1.running_var"}
    for name, value in initial.items():
        assert (value == (0.0 if name.endswith("mean") else 1.0)).all(), name
    meta = initial
    for start, after_train, after_blend in zip(starts, trained, blended):
        # every fine-tune starts from the initial statistics when they are
        # reset, and from the meta model's blended ones otherwise
        for name, value in (initial if reset else meta).items():
            np.testing.assert_array_equal(start[name], value, err_msg=name)
        # the meta model blends from its own statistics, never reset ones
        meta = {name: (1.0 - cfg.alpha) * meta[name] + cfg.alpha * after_train[name]
                for name in meta}
        for name, value in meta.items():
            np.testing.assert_allclose(after_blend[name], value, rtol=1e-12,
                                       err_msg=name)
            assert not (value == initial[name]).all(), name


# ---------------------------------------------------------------------------
# carried state
# ---------------------------------------------------------------------------


@over_protocols
@pytest.mark.parametrize("per_node", [False, True])
def test_carried_history_counts_every_rolled_snapshot(synth_graph, protocol, per_node):
    cfg = fixed_config(protocol=protocol)
    cfg.model.per_node_keep_ratio = per_node
    report = ev.run_protocol(synth_graph, cfg)
    # label steps 0..T-2; per-node counts whichever keep ratio reads them
    expected = incident_counts(synth_graph.snapshots[:-1], synth_graph.node_count)
    history = report.final.state.history
    assert history.dtype == np.float64 and history.shape == (synth_graph.node_count,)
    assert np.array_equal(history, expected)


def feature_heavy_edges():
    """20,000 nodes over 10 windows of 100 edges: the edge arrays are 32 KB,
    and one window's dense float64 node features would be 320 KB."""
    rng = np.random.default_rng(31)
    n, windows, per = 20_000, 10, 100
    ts = np.repeat(np.arange(windows) * 100.0, per) + np.tile(np.arange(per) * 0.5, windows)
    return edges_from_arrays(rng.integers(0, n, windows * per),
                             rng.integers(0, n, windows * per), ts, node_count=n)


def test_a_graph_retains_only_its_edges(tmp_path):
    """A partitioned or cache-loaded graph retains about its edge arrays'
    bytes, also after both protocols ran over it: nothing builds per-window
    node features. Measured: 1.22x the edge bytes after the build, 1.6x
    after both runs (records and numpy's small-block caches); the bound is
    2x, and the features a graph used to hold were over 100x."""
    edges = feature_heavy_edges()
    path = tmp_path / "cache.npz"
    save_snapshot_cache(path, partition_snapshots(edges, 100.0))
    cfg = ev.RunConfig(model=ModelConfig(hidden_dim=4, update="moving_average"),
                       train=tr.TrainConfig(max_epochs=1), k_neg=20, test_fraction=0.3)
    ev.run_protocol(load_snapshot_cache(path), cfg)  # warm-up: lazy imports

    def retained():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    for build in (lambda: partition_snapshots(edges, 100.0), lambda: load_snapshot_cache(path)):
        gc.collect()
        tracemalloc.start()
        try:
            g = build()
            sizes = [retained()]
            for protocol in ev.PROTOCOLS:
                ev.run_protocol(g, replace(cfg, protocol=protocol))
                sizes.append(retained())
        finally:
            tracemalloc.stop()
        edge_bytes = sum(a.nbytes for a in (g.offsets, g.src, g.dst, g.edge_features))
        assert max(sizes) <= 2 * edge_bytes, (sizes, edge_bytes)


def test_a_fixed_split_run_peaks_below_thirteen_node_arrays():
    """With many nodes and few edges a step's memory is its N x d arrays, so
    the traced peak of a fixed-split run, over what it started with, is
    counted in N * d * itemsize units. A step holds only what a later op,
    the backward or its result reads: 11.86 units measured, against 14.01
    when the best epoch's top representation, batch norm's temporaries, an
    N x d bool relu mask and the aggregate after the skip sum were held."""
    g = partition_snapshots(feature_heavy_edges(), 100.0)
    d = 32
    cfg = ev.RunConfig(model=ModelConfig(hidden_dim=d, update="moving_average"),
                       protocol="fixed_split", train=tr.TrainConfig(max_epochs=2, patience=2),
                       k_neg=20, test_fraction=0.3)
    ev.run_protocol(g, cfg)  # warm-up: lazy imports
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ev.run_protocol(g, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    units = (peak - start) / (g.node_count * d * np.dtype(cfg.model.np_dtype).itemsize)
    assert units < 13.0, units


# ---------------------------------------------------------------------------
# what a step may see
# ---------------------------------------------------------------------------


def synth_edges():
    """The `synth_graph` fixture's edges, before partitioning."""
    return synthetic.generate_edges(n_nodes=40, n_steps=10, edges_per_step=150,
                                    n_communities=4, recurrence=0.6, seed=11)


def with_windows_after_replaced(g, k):
    """`g`'s edges with those of windows > k rewired, reweighted and thinned;
    the windows, T and node_count stay."""
    e = synth_edges()
    window = np.floor((e.timestamp - e.timestamp.min()) / g.period_seconds)
    later = window > k
    perm = np.random.default_rng(0).permutation(e.node_count)
    src, dst = np.where(later, perm[e.src], e.src), np.where(later, perm[e.dst], e.dst)
    keep = ~later | (np.arange(len(e)) % 3 != 0) | (np.arange(len(e)) == len(e) - 1)
    other = partition_snapshots(edges_from_arrays(
        src[keep], dst[keep], e.timestamp[keep], np.where(later, 2.0, e.weight)[keep],
        node_count=e.node_count), g.period_seconds)
    assert (len(other), other.node_count) == (len(g), g.node_count)
    assert all(a.window == b.window for a, b in zip(g.snapshots, other.snapshots))
    for a, b in zip(g.snapshots[:k + 1], other.snapshots[:k + 1]):
        assert a.edge_src.tobytes() == b.edge_src.tobytes()
        assert a.edge_features.tobytes() == b.edge_features.tobytes()
    for a, b in zip(g.snapshots[k + 1:], other.snapshots[k + 1:]):
        assert a.n_edges != b.n_edges or not np.array_equal(a.edge_src, b.edge_src)
    return other


@pytest.mark.parametrize("bn_reset", [False, True])
@pytest.mark.parametrize("update", ["moving_average", "mlp", "gru"])
@over_protocols
def test_no_future_window_leaks_into_earlier_records(synth_graph, protocol, update,
                                                     bn_reset):
    """Step s ranks and trains on windows <= s+1 only, so replacing every
    window after k leaves the records of steps < k bitwise equal."""
    k = 6
    cfg = ev.RunConfig(model=ModelConfig(hidden_dim=6, update=update,
                                         bn_reset_per_snapshot=bn_reset),
                       train=tr.TrainConfig(max_epochs=2, patience=1),
                       protocol=protocol, alpha=0.5, k_neg=8, test_fraction=0.5, seed=3)
    reports = [ev.run_protocol(g, cfg)
               for g in (synth_graph, with_windows_after_replaced(synth_graph, k))]
    early = [[summary_fields(r) for r in rep.train_records + rep.per_step if r.t < k]
             for rep in reports]
    assert [r["t"] for r in early[0]] == list(range(k))
    assert [r["mrr"] is not None for r in early[0]].count(True) >= 2  # scored steps too
    assert early[0] == early[1]
    later = [[summary_fields(r) for r in rep.per_step if r.t > k] for rep in reports]
    assert later[0] != later[1]  # the replaced windows do reach the later steps


def test_a_node_first_seen_later_is_an_earlier_eval_negative(monkeypatch):
    """The node universe is the file's node set: node 7, whose first edge is
    in window k=3, is among the eval negatives of every step s < k."""
    k, n = 3, 8
    rng = np.random.default_rng(4)
    src, dst, ts = [], [], []
    for w in range(6):
        nodes = 7 if w < k else n
        s = rng.integers(0, nodes, 12)
        src += s.tolist()
        dst += ((s + 1 + rng.integers(0, nodes - 1, 12)) % nodes).tolist()
        ts += (w * 100.0 + np.arange(12)).tolist()
    g = partition_snapshots(edges_from_arrays(src, dst, ts, node_count=n), 100.0)
    first_window = min(i for i, snap in enumerate(g.snapshots)
                       if 7 in snap.edge_src or 7 in snap.edge_dst)
    assert first_window == k

    seen = []
    real = ev.build_labels
    monkeypatch.setattr(ev, "build_labels", lambda *a: seen.append(real(*a)) or seen[-1])
    cfg = ev.RunConfig(model=ModelConfig(hidden_dim=4, update="moving_average"),
                       train=tr.TrainConfig(max_epochs=1, patience=1), k_neg=n, seed=1)
    ev.run_protocol(g, cfg)
    for labels in seen[:k]:
        for src_node, negs in labels.eval_negatives.items():
            pos = labels.positives[labels.positives[:, 0] == src_node, 1]
            # a pool of every node but the source's positives, drawn whole
            assert sorted(negs) == sorted(set(range(n)) - set(pos))
        assert any(7 in negs for negs in labels.eval_negatives.values())
