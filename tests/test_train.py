"""Tests for per-snapshot fine-tuning and the meta blend."""

import copy
import gc
import tracemalloc

import numpy as np
import pytest

from conftest import fresh_state, make_snapshot, toy_model
from helpers import over_protocols
from snaplink import train as tr
from snaplink import diffcore as dc
from snaplink.errors import ConfigError, TrainingDiverged
from snaplink.evaluate import RunConfig, run_protocol
from snaplink.model import HierarchicalNodeState, ModelConfig, PairScorer, forward
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
    return tr.fine_tune(model, snap, state, labels, cfg,
                        derive_rng(seed, "train", 0)), snap, state


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
    state_before = copy.deepcopy(state)
    labels_pos_before = labels.positives.copy()
    tr.fine_tune(model, snap, state, labels,
                 tr.TrainConfig(learning_rate=0.05, max_epochs=10, patience=3),
                 derive_rng(0, "train", 0))
    for a, b in zip(state.layers, state_before.layers):
        np.testing.assert_array_equal(a, b)
    assert state.history.tobytes() == state_before.history.tobytes()
    np.testing.assert_array_equal(labels.positives, labels_pos_before)


def test_fine_tune_state_consistent_with_returned_params():
    model = toy_model(update="gru", hidden=4, seed=5)
    result, snap, state = run_fine_tune(model)
    again = forward(snap, state, result.model, mode="eval")
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
    result, snap, state = run_fine_tune(toy_model(seed=6), labels=labels, cfg=cfg)
    assert modes == ["train"] * result.epochs_run + ["eval"]
    again = forward(snap, state, result.model, mode="eval")
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
    pytest.param("float64", "head.w_src", 1.0, id="head.w_src-1.0"),
    pytest.param("float64", "pre.0.w", 1e150, id="pre.0.w-1e+150"),
    pytest.param("float64", "pre.0.w", 1e308, id="pre.0.w-1e+308", marks=OVERFLOWS),
    pytest.param("float64", "mp.0.w", 1e200, id="mp.0.w-1e+200"),
    pytest.param("float32", "head.w_src", 1.0, id="float32-head.w_src-1.0"),
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
    result, snap, state = run_fine_tune(model, cfg=cfg)
    meta = tr.meta_update(toy_model(update=update, hidden=4, seed=6, dtype=dtype),
                          result.model, 0.5)
    scorer = PairScorer(forward(snap, state, result.model).top_repr,
                        result.model)
    (opt,) = optimizers
    assert opt.t == result.epochs_run > 0
    checked = [("state", layer) for layer in result.state.layers]
    checked += [("scorer.neg_a", scorer.neg_a), ("scorer.b", scorer.b),
                ("scorer.a_dot", scorer.a_dot),
                ("scores", scorer.scores_against(0, np.arange(5)))]
    for owner in (result.model, meta):
        checked += [(p.name, p.value) for p in owner.params]
    checked += [(f"{kind}:{p.name}", value) for p in result.model.params
                if p.requires_grad
                for kind, value in (("grad", p.grad), ("m", opt.m[p.name]),
                                    ("v", opt.v[p.name]))]
    assert any(name.endswith(".running_var") for name, _ in checked)
    for name, value in checked:
        assert value.dtype == np.dtype(dtype), name


def test_adam_never_touches_a_running_statistic():
    model = toy_model(update="gru", hidden=4, seed=8)
    opt = tr.Adam(model.params, lr=0.05)
    trainable = {p.name for p in model.params if p.requires_grad}
    assert set(opt.m) == set(opt.v) == trainable
    assert trainable < set(model.params.names())  # the running statistics
    result = forward(learnable_snapshot(), fresh_state(model, 5), model,
                     pairs=np.array([[0, 1], [2, 4]]), mode="train")
    stats = {p.name: p.value.copy() for p in model.params if not p.requires_grad}
    before = model.params.state_dict()
    dc.backward(dc.bce_with_logits(result.scores, np.array([[1.0], [0.0]])))
    opt.step()
    for name, value in stats.items():
        assert model.params[name].grad is None, name
        assert model.params[name].value.tobytes() == value.tobytes(), name
    moved = {p.name for p in model.params if (p.value != before[p.name]).any()}
    assert moved == {p.name for p in model.params if p.grad is not None and p.grad.any()}


def test_fine_tune_trains_when_a_source_has_no_negatives():
    # source 0 links to every node, so its training negatives are dropped
    edges = edges_from_arrays([0, 0, 0, 0, 1], [1, 0, 1, 2, 2],
                              [0.0, 10.0, 11.0, 12.0, 13.0], node_count=3)
    g = partition_snapshots(edges, 10)
    labels = build_labels(g, 0, 0.25, 5, np.random.default_rng(0))
    model = toy_model(update="gru", hidden=4)
    result = tr.fine_tune(model, g[0], fresh_state(model, 3), labels,
                          tr.TrainConfig(learning_rate=0.05, max_epochs=3),
                          np.random.default_rng(1))
    assert result.epochs_run >= 1
    assert np.isfinite(result.final_train_loss)


@pytest.mark.parametrize("batch_norm", [True, False])
@pytest.mark.parametrize("aggregation", ["sum", "max"])
def test_fine_tune_on_an_edgeless_snapshot_keeps_the_message_weights(aggregation, batch_norm):
    """Zero messages give the message map a zero gradient, and Adam moves a
    parameter by exactly 0.0 on it: every mp.{l}.w and mp.{l}.b keeps its bits."""
    model = toy_model(update="gru", hidden=4, aggregation=aggregation,
                      batch_norm=batch_norm, dtype="float32")
    rng = np.random.default_rng(4)  # a carried state, so the nodes differ
    state = HierarchicalNodeState([rng.normal(size=(5, 4)).astype(np.float32)
                                   for _ in range(model.config.n_mp)],
                                  np.array([3.0, 1.0, 0.0, 2.0, 5.0]))
    before = model.params.state_dict()
    result = tr.fine_tune(model, make_snapshot(5, [], []), state, single_pair_labels(),
                          tr.TrainConfig(learning_rate=0.05, max_epochs=3),
                          derive_rng(0, "train", 0))
    assert result.epochs_run >= 1
    message = [n for n in before if n.startswith("mp.") and n.rsplit(".", 1)[1] in ("w", "b")]
    assert len(message) == 2 * model.config.n_mp
    if not batch_norm:
        assert message == [n for n in before if n.startswith("mp.")]
    for name in message:
        assert model.params[name].value.tobytes() == before[name].tobytes(), name
    assert (model.params["head.b2"].value != before["head.b2"]).any()  # it trained


def test_fine_tune_skip_labels_rejected():
    model = toy_model()
    empty = np.empty((0, 2), dtype=np.int64)
    labels = LabelSet(0, empty, empty, empty)
    with pytest.raises(ValueError):
        run_fine_tune(model, labels=labels)


def test_fine_tune_without_training_positives_raises():
    # every positive went to validation: the step must not train
    pos = np.array([[0, 1]], dtype=np.int64)
    labels = LabelSet(step=0, positives=pos, train_pos=np.empty((0, 2), dtype=np.int64),
                      val_pos=pos, eval_negatives={0: np.array([3], dtype=np.int64)})
    with pytest.raises(ValueError, match="no training positives"):
        run_fine_tune(toy_model(), labels=labels)


def test_fine_tune_without_validation_labels_keeps_the_first_epoch():
    pos = np.array([[0, 1]], dtype=np.int64)
    labels = LabelSet(step=0, positives=pos, train_pos=pos,
                      val_pos=np.empty((0, 2), dtype=np.int64),
                      eval_negatives={0: np.array([3], dtype=np.int64)})
    runs = [run_fine_tune(toy_model(update="gru", hidden=4, seed=6), labels=labels,
                          cfg=tr.TrainConfig(learning_rate=0.05, max_epochs=max_epochs,
                                             patience=2))[0]
            for max_epochs in (4, 1)]
    for result in runs:
        assert result.epochs_run == 1 and result.best_val_mrr is None
    many, one = runs
    assert many.final_train_loss == one.final_train_loss
    assert many.model.params.names() == one.model.params.names()
    for p in many.model.params:
        assert p.value.tobytes() == one.model.params[p.name].value.tobytes(), p.name
    for a, b in zip(many.state.layers + [many.state.history],
                    one.state.layers + [one.state.history]):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# meta_update
# ---------------------------------------------------------------------------


def test_meta_alpha_one_copies_trained():
    trained = toy_model(seed=2)
    meta = tr.meta_update(toy_model(seed=1), trained, 1.0)
    for name in trained.params.names():
        np.testing.assert_array_equal(meta.params[name].value,
                                      trained.params[name].value)
    # it is a copy, not a reference
    trained.params["head.w_src"].value[0, 0] += 1.0
    assert meta.params["head.w_src"].value[0, 0] != \
        trained.params["head.w_src"].value[0, 0]


def test_meta_alpha_zero_is_identity():
    meta = toy_model(seed=1)
    before = meta.params.state_dict()
    assert tr.meta_update(meta, toy_model(seed=2), 0.0) is meta
    for name, value in before.items():
        np.testing.assert_array_equal(meta.params[name].value, value)


def test_meta_blend_scalar_arithmetic():
    meta = toy_model(seed=1)
    trained = toy_model(seed=1)
    for p in meta.params:
        p.value[:] = 0.0
    for p in trained.params:
        p.value[:] = 2.0
    assert tr.meta_update(meta, trained, 0.5) is meta
    for p in meta.params:
        np.testing.assert_array_equal(p.value, np.ones_like(p.value))


def test_meta_blends_batch_norm_running_stats():
    meta = toy_model(seed=1)
    trained = toy_model(seed=1)
    meta.params["mp.0.running_mean"].value[:] = 0.0
    trained.params["mp.0.running_mean"].value[:] = 4.0
    meta.params["mp.0.running_var"].value[:] = 1.0
    trained.params["mp.0.running_var"].value[:] = 5.0
    tr.meta_update(meta, trained, 0.25)
    np.testing.assert_allclose(meta.params["mp.0.running_mean"].value, 1.0)
    np.testing.assert_allclose(meta.params["mp.0.running_var"].value, 2.0)


def test_meta_alpha_out_of_range():
    with pytest.raises(ConfigError):
        tr.meta_update(toy_model(), toy_model(), 1.5)


def test_meta_shape_mismatch():
    other = toy_model(hidden=3)
    with pytest.raises(ConfigError):
        tr.meta_update(toy_model(hidden=4), other, 0.5)


# ---------------------------------------------------------------------------
# protocol-level training properties
# ---------------------------------------------------------------------------


def small_run_config(update="gru", alpha=1.0, seed=0):
    return RunConfig(
        model=ModelConfig(hidden_dim=8, n_pre=1, n_mp=2, n_post=1, update=update),
        train=tr.TrainConfig(learning_rate=0.01, max_epochs=15, patience=3),
        alpha=alpha, k_neg=20, seed=seed)


@over_protocols
def test_retained_memory_does_not_grow_with_t(synth_graph, protocol):
    """The bytes still allocated when a step ends stay flat over the run:
    no step keeps a previous step's tape, state or labels alive. Cyclic
    garbage is collected first, so only what is reachable counts. At hidden
    64 one carried state is 20 KB, so keeping one per step grows the last
    step by 160 KB. A sound run spreads by at most 46 KB: the records and
    numpy's small-block caches add about 2 KB a step, and fixed-split's
    scored last step holds its scoring forward (30 KB)."""
    cfg = small_run_config()
    cfg.protocol = protocol
    cfg.model.hidden_dim = 64
    cfg.train.max_epochs = 3
    retained = []

    def measure(record):
        gc.collect()
        retained.append(tracemalloc.get_traced_memory()[0])

    tracemalloc.start()
    try:
        run_protocol(synth_graph, cfg, step_callback=measure)
    finally:
        tracemalloc.stop()
    assert len(retained) == len(synth_graph) - 1
    assert max(retained) - min(retained) <= 96 * 1024, retained


def small_and_large_steps_graph(n_nodes=20, T=9, seed=3):
    """Odd windows hold 3 distinct edges, even windows 20: a step predicting
    an odd window has 3 positives, and at val_fraction=0.1 none for
    validation (round(0.3) == 0)."""
    rng = np.random.default_rng(seed)
    all_pairs = np.array([(u, v) for u in range(n_nodes) for v in range(n_nodes)])
    src, dst, ts = [], [], []
    for t in range(T):
        m = 3 if t % 2 else 20
        pairs = all_pairs[rng.choice(len(all_pairs), m, replace=False)]
        src += list(pairs[:, 0])
        dst += list(pairs[:, 1])
        ts += list(t * 100 + np.sort(rng.uniform(0, 100, m)))
    return partition_snapshots(edges_from_arrays(src, dst, ts, node_count=n_nodes), 100)


@over_protocols
def test_trained_steps_without_validation_labels_report_no_validation_mrr(protocol):
    cfg = small_run_config()
    cfg.protocol = protocol
    cfg.train.max_epochs = 4
    assert cfg.val_fraction == 0.1
    report = run_protocol(small_and_large_steps_graph(), cfg)
    trained = [r for r in report.per_step + report.train_records if r.epochs_run > 0]
    small = [r for r in trained if r.n_positives <= 5]
    assert small and len(small) < len(trained)
    for r in trained:
        assert (r.best_val_mrr is None) == (r.n_positives <= 5), r
    for r in small:
        assert r.epochs_run == 1
    assert report.mean_val_mrr == np.mean([r.best_val_mrr for r in trained
                                           if r.n_positives > 5])


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
    report = run_protocol(g, cfg)
    random_floor = np.mean(1.0 / np.arange(1, cfg.k_neg + 2))  # E[1/rank], uniform
    late = np.mean([r.mrr for r in report.per_step[-3:]])
    assert late > 3.0 * random_floor
    assert all(r.epochs_run <= cfg.train.max_epochs for r in report.per_step)
