"""Tests for per-snapshot fine-tuning and the meta blend."""

import numpy as np
import pytest

from conftest import fresh_counter, fresh_state, make_snapshot, toy_model
from snaplink import train as tr
from snaplink import diffcore as dc
from snaplink.errors import ConfigError, TrainingDiverged
from snaplink.evaluate import RunConfig, live_update_run
from snaplink.model import ModelConfig, PairScorer, forward
from snaplink.seeding import derive_rng
from snaplink.snapshots import (LabelSet, build_labels, edges_from_arrays,
                                partition_snapshots)
from snaplink.synthetic import generate_edges


def learnable_snapshot():
    """Heterogeneous degrees so node embeddings separate."""
    src = [0, 0, 0, 1, 1, 2, 3, 0]
    dst = [1, 2, 3, 2, 0, 3, 1, 1]
    return make_snapshot(5, src, dst)


def single_pair_labels():
    pos = np.array([[0, 1]], dtype=np.int64)
    return LabelSet(step=0, positives=pos, train_pos=pos, val_pos=pos,
                    eval_negatives={0: np.array([3], dtype=np.int64)})


def run_fine_tune(model, labels=None, cfg=None, seed=0):
    snap = learnable_snapshot()
    labels = labels or single_pair_labels()
    cfg = cfg or tr.TrainConfig(learning_rate=0.05, max_epochs=100, patience=5)
    state = fresh_state(model, 5)
    counter = fresh_counter(model, 5)
    return tr.fine_tune(model, snap, state, labels, counter, cfg,
                        derive_rng(seed, "train", 0)), snap, state, counter


def test_zero_learning_rate_keeps_params_and_stops_early():
    model = toy_model(update="gru", hidden=4, batch_norm=False)
    before = model.params.state_dict()
    cfg = tr.TrainConfig(learning_rate=0.0, max_epochs=100, patience=3)
    result, *_ = run_fine_tune(model, cfg=cfg)
    for name, value in before.items():
        np.testing.assert_array_equal(model.params[name].value, value, err_msg=name)
    assert result.epochs_run <= cfg.patience + 1


def test_separable_toy_reaches_perfect_validation_mrr():
    model = toy_model(update="gru", hidden=8, batch_norm=False, seed=3)
    result, *_ = run_fine_tune(model)
    assert result.epochs_run <= 100
    assert result.best_val_mrr == 1.0


def test_fine_tune_never_exceeds_max_epochs():
    model = toy_model(update="gru", hidden=4)
    cfg = tr.TrainConfig(learning_rate=1e-7, max_epochs=7, patience=100)
    result, *_ = run_fine_tune(model, cfg=cfg)
    assert result.epochs_run == 7


def test_fine_tune_does_not_mutate_prev_state_or_labels():
    model = toy_model(update="gru", hidden=4, seed=4)
    snap = learnable_snapshot()
    labels = single_pair_labels()
    state = fresh_state(model, 5)
    rng = np.random.default_rng(4)
    for layer in state.layers:
        layer[:] = rng.normal(size=layer.shape)
    state_before = state.clone()
    labels_pos_before = labels.positives.copy()
    counter = fresh_counter(model, 5)
    tr.fine_tune(model, snap, state, labels, counter,
                 tr.TrainConfig(learning_rate=0.05, max_epochs=10, patience=3),
                 derive_rng(0, "train", 0))
    for a, b in zip(state.layers, state_before.layers):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(labels.positives, labels_pos_before)
    assert state.step == state_before.step


def test_fine_tune_state_consistent_with_returned_params():
    model = toy_model(update="gru", hidden=4, seed=5)
    result, snap, state, counter = run_fine_tune(model)
    again = forward(snap, state, result.model, counter, mode="eval")
    for a, b in zip(result.state.layers, again.state.layers):
        np.testing.assert_array_equal(a, b)


def count_forwards(monkeypatch):
    modes = []

    def counting(*args, **kwargs):
        modes.append(kwargs.get("mode", "eval"))
        return forward(*args, **kwargs)

    monkeypatch.setattr(tr, "forward", counting)
    return modes


def test_fine_tune_reuses_best_epoch_eval_forward(monkeypatch):
    modes = count_forwards(monkeypatch)
    cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=6, patience=2)
    result, *_ = run_fine_tune(toy_model(update="gru", hidden=4, seed=5), cfg=cfg)
    assert result.epochs_run >= 2
    assert modes == ["train", "eval"] * result.epochs_run


def test_fine_tune_without_validation_labels_runs_one_final_eval_forward(monkeypatch):
    modes = count_forwards(monkeypatch)
    pos = np.array([[0, 1]], dtype=np.int64)
    labels = LabelSet(step=0, positives=pos, train_pos=pos,
                      val_pos=np.empty((0, 2), dtype=np.int64),
                      eval_negatives={0: np.array([3], dtype=np.int64)})
    cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=4, patience=2)
    result, snap, state, counter = run_fine_tune(toy_model(seed=6), labels=labels,
                                                 cfg=cfg)
    assert modes == ["train"] * result.epochs_run + ["eval"]
    again = forward(snap, state, result.model, counter, mode="eval")
    for a, b in zip(result.state.layers, again.state.layers):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dtype,weight", [pytest.param("float64", 1e308, id="float64"),
                                          pytest.param("float32", 1e38, id="float32")])
def test_fine_tune_divergence_raises_with_diagnostics(dtype, weight):
    model = toy_model(update="gru", hidden=4, batch_norm=False, dtype=dtype)
    # first affine overflows to inf, later sums produce NaN scores
    model.params["pre.0.w"].value[:] = weight
    with pytest.raises(TrainingDiverged) as err, pytest.warns(RuntimeWarning):
        run_fine_tune(model)
    assert err.value.epoch == 1
    assert err.value.learning_rate == 0.05


# the float32 scales mirror the float64 ones: large but finite throughout
# (1e19, 1e25), or overflowing float32 in the forward (1e38); the cases that
# overflow on purpose say so, so that any other overflow fails the suite
OVERFLOWS = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                       "ignore:invalid value encountered:RuntimeWarning")


@pytest.mark.parametrize("dtype,name,scale", [
    pytest.param("float64", "head.w1", 1.0, id="head.w1-1.0"),
    pytest.param("float64", "pre.0.w", 1e150, id="pre.0.w-1e+150"),
    pytest.param("float64", "pre.0.w", 1e308, id="pre.0.w-1e+308", marks=OVERFLOWS),
    pytest.param("float64", "mp.0.w", 1e200, id="mp.0.w-1e+200"),
    pytest.param("float32", "head.w1", 1.0, id="float32-head.w1-1.0"),
    pytest.param("float32", "pre.0.w", 1e19, id="float32-pre.0.w-1e+19"),
    pytest.param("float32", "pre.0.w", 1e38, id="float32-pre.0.w-1e+38", marks=OVERFLOWS),
    pytest.param("float32", "mp.0.w", 1e25, id="float32-mp.0.w-1e+25"),
    pytest.param("float32", "mp.0.w", 1e38, id="float32-mp.0.w-1e+38", marks=OVERFLOWS),
])
def test_fine_tune_never_returns_nan_parameters(dtype, name, scale):
    model = toy_model(update="gru", hidden=4, batch_norm=False, dtype=dtype)
    model.params[name].value[:] *= scale
    try:
        result, *_ = run_fine_tune(model, cfg=tr.TrainConfig(
            learning_rate=0.05, max_epochs=5, patience=5))
    except TrainingDiverged:
        assert scale != 1.0, "a well-scaled model must train"
        return
    for p in result.model.params:
        assert np.isfinite(p.value).all(), p.name
    for layer in result.state.layers:
        assert np.isfinite(layer).all()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("update", ["moving_average", "mlp", "gru"])
def test_fine_tune_keeps_the_model_dtype(monkeypatch, update, dtype):
    optimizers = []

    class RecordingAdam(tr.Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            optimizers.append(self)

    monkeypatch.setattr(tr, "Adam", RecordingAdam)
    model = toy_model(update=update, hidden=4, seed=5, dtype=dtype)
    cfg = tr.TrainConfig(learning_rate=0.05, max_epochs=3, patience=3)
    result, snap, state, counter = run_fine_tune(model, cfg=cfg)
    meta = tr.meta_update(tr.MetaParams(toy_model(update=update, hidden=4, seed=6,
                                                  dtype=dtype), alpha=0.5),
                          result.model)
    scorer = PairScorer(forward(snap, state, result.model, counter).top_repr,
                        result.model)
    (opt,) = optimizers
    assert opt.t == result.epochs_run > 0
    checked = [("state", layer) for layer in result.state.layers]
    checked += [("scorer.a", scorer.a), ("scorer.b", scorer.b),
                ("scores", scorer.scores_against(0, np.arange(5)))]
    for owner in (result.model, meta.model):
        checked += [(p.name, p.value) for p in owner.params]
        checked += [(f"bn:{key}", stat) for key, stats in owner.bn_stats.items()
                    for stat in (stats.running_mean, stats.running_var)]
    checked += [(f"{kind}:{p.name}", value) for p in result.model.params
                for kind, value in (("grad", p.grad), ("m", opt.m[p.name]),
                                    ("v", opt.v[p.name]))]
    assert any(name.startswith("bn:") for name, _ in checked)
    for name, value in checked:
        assert value.dtype == np.dtype(dtype), name


def test_fine_tune_trains_when_a_source_has_no_negatives():
    # source 0 links to every node, so its training negatives are dropped
    edges = edges_from_arrays([0, 0, 0, 0, 1], [1, 0, 1, 2, 2],
                              [0.0, 10.0, 11.0, 12.0, 13.0], node_count=3)
    g = partition_snapshots(edges, 10)
    labels = build_labels(g, 0, 0.25, 5, np.random.default_rng(0))
    model = toy_model(update="gru", hidden=4)
    result = tr.fine_tune(model, g[0], fresh_state(model, 3), labels,
                          fresh_counter(model, 3),
                          tr.TrainConfig(learning_rate=0.05, max_epochs=3),
                          np.random.default_rng(1))
    assert result.epochs_run >= 1
    assert np.isfinite(result.final_train_loss)


def test_fine_tune_skip_labels_rejected():
    model = toy_model()
    empty = np.empty((0, 2), dtype=np.int64)
    labels = LabelSet(0, empty, empty, empty, {}, skip=True)
    with pytest.raises(ValueError):
        run_fine_tune(model, labels=labels)


# ---------------------------------------------------------------------------
# meta_update
# ---------------------------------------------------------------------------


def test_meta_alpha_one_copies_trained():
    meta = tr.MetaParams(toy_model(seed=1), alpha=1.0)
    trained = toy_model(seed=2)
    tr.meta_update(meta, trained)
    for name in trained.params.names():
        np.testing.assert_array_equal(meta.model.params[name].value,
                                      trained.params[name].value)
    # it is a copy, not a reference
    trained.params["head.w1"].value[0, 0] += 1.0
    assert meta.model.params["head.w1"].value[0, 0] != \
        trained.params["head.w1"].value[0, 0]


def test_meta_alpha_zero_is_identity():
    meta = tr.MetaParams(toy_model(seed=1), alpha=0.0)
    before = meta.model.params.state_dict()
    tr.meta_update(meta, toy_model(seed=2))
    for name, value in before.items():
        np.testing.assert_array_equal(meta.model.params[name].value, value)


def test_meta_blend_scalar_arithmetic():
    meta = tr.MetaParams(toy_model(seed=1), alpha=0.5)
    trained = toy_model(seed=1)
    for p in meta.model.params:
        p.value[:] = 0.0
    for p in trained.params:
        p.value[:] = 2.0
    tr.meta_update(meta, trained)
    for p in meta.model.params:
        np.testing.assert_array_equal(p.value, np.ones_like(p.value))


def test_meta_blends_batch_norm_running_stats():
    meta = tr.MetaParams(toy_model(seed=1), alpha=0.25)
    trained = toy_model(seed=1)
    meta.model.bn_stats["mp.0"].running_mean[:] = 0.0
    trained.bn_stats["mp.0"].running_mean[:] = 4.0
    meta.model.bn_stats["mp.0"].running_var[:] = 1.0
    trained.bn_stats["mp.0"].running_var[:] = 5.0
    tr.meta_update(meta, trained)
    np.testing.assert_allclose(meta.model.bn_stats["mp.0"].running_mean, 1.0)
    np.testing.assert_allclose(meta.model.bn_stats["mp.0"].running_var, 2.0)


def test_meta_alpha_out_of_range():
    with pytest.raises(ConfigError):
        tr.MetaParams(toy_model(), alpha=1.5)


def test_meta_shape_mismatch():
    meta = tr.MetaParams(toy_model(hidden=4), alpha=0.5)
    other = toy_model(hidden=3)
    with pytest.raises(ConfigError):
        tr.meta_update(meta, other)


# ---------------------------------------------------------------------------
# protocol-level training properties
# ---------------------------------------------------------------------------


def small_run_config(update="gru", alpha=1.0, seed=0):
    return RunConfig(
        model=ModelConfig(hidden_dim=8, n_pre=1, n_mp=2, n_post=1, update=update),
        train=tr.TrainConfig(learning_rate=0.01, max_epochs=15, patience=3),
        alpha=alpha, k_neg=20, seed=seed)


def test_working_set_independent_of_horizon(synth_graph):
    from snaplink.snapshots import DynamicGraph

    g = synth_graph
    e = g.offsets[5]
    short = DynamicGraph(g.offsets[:6], g.src[:e], g.dst[:e], g.edge_features[:e],
                         g.start, g.period_seconds, g.node_count, g.frequency,
                         g.source_fingerprint)
    cfg = small_run_config()
    rep_short = live_update_run(short, cfg)
    rep_long = live_update_run(synth_graph, cfg)
    ws_short = [r.working_set_elements for r in rep_short.per_step]
    ws_long = [r.working_set_elements for r in rep_long.per_step]
    # identical prefix, and no growth with t on the long run
    assert ws_short == ws_long[: len(ws_short)]
    assert max(ws_long) - min(ws_long) <= 0.01 * min(ws_long)


def repeat_zipf_graph(n_nodes=30, m=80, T=10, seed=7):
    """The same m popularity-skewed edges recur every window: memorizable."""
    rng = np.random.default_rng(seed)
    pop = 1.0 / np.arange(1, n_nodes + 1)
    pop /= pop.sum()
    bsrc = rng.choice(n_nodes, m, p=pop)
    bdst = rng.choice(n_nodes, m, p=pop)
    bdst = np.where(bdst == bsrc, (bdst + 1) % n_nodes, bdst)
    src = np.tile(bsrc, T)
    dst = np.tile(bdst, T)
    ts = np.concatenate([t * 100 + np.sort(rng.uniform(0, 100, m)) for t in range(T)])
    return partition_snapshots(edges_from_arrays(src, dst, ts, node_count=n_nodes), 100)


def test_training_beats_random_ranking_floor():
    g = repeat_zipf_graph()
    cfg = RunConfig(
        model=ModelConfig(hidden_dim=32, update="gru"),
        train=tr.TrainConfig(learning_rate=0.01, max_epochs=80, patience=15,
                             train_neg_per_pos=4),
        alpha=1.0, k_neg=25, seed=0)
    report = live_update_run(g, cfg)
    random_floor = np.mean(1.0 / np.arange(1, cfg.k_neg + 2))  # E[1/rank], uniform
    late = np.mean([r.mrr for r in report.per_step[-3:]])
    assert late > 3.0 * random_floor
    assert all(r.epochs_run <= cfg.train.max_epochs for r in report.per_step)
