"""Tests for the network: keep ratio, message-passing layer, update modules,
prediction head, and the full forward pass."""

import numpy as np
import pytest

from conftest import (fresh_counter, fresh_state, make_snapshot, toy_model,
                      toy_snapshot)
from snaplink import diffcore as dc
from snaplink import model as md
from snaplink.errors import BoundsError, ConfigError, DimensionError


# ---------------------------------------------------------------------------
# keep_ratio and counters
# ---------------------------------------------------------------------------


def test_keep_ratio_direct_substitutions():
    assert md.keep_ratio(0, 5) == 0.0
    assert md.keep_ratio(7, 0) == 1.0
    assert md.keep_ratio(300, 100) == 0.75


def test_keep_ratio_rejects_negative():
    with pytest.raises(ValueError):
        md.keep_ratio(-1, 2)


def test_keep_ratio_both_zero_degenerate():
    assert md.keep_ratio(0, 0) == 0.0


def test_counter_global_accumulates():
    counter = md.MovingAverageCounter.fresh(4, per_node=False)
    s1 = make_snapshot(4, [0, 1, 2], [1, 2, 3])
    s2 = make_snapshot(4, [0], [1])
    assert counter.keep_ratio_for(s1) == 0.0
    counter.advance(s1)
    assert counter.keep_ratio_for(s2) == pytest.approx(3 / 4)
    counter.advance(s2)
    assert float(counter.history) == 4.0


def test_counter_degenerate_flag_on_leading_empty():
    counter = md.MovingAverageCounter.fresh(3, per_node=False)
    empty = make_snapshot(3, [], [])
    assert counter.keep_ratio_for(empty) == 0.0
    assert counter.degenerate


def test_counter_per_node_variant():
    counter = md.MovingAverageCounter.fresh(3, per_node=True)
    s1 = make_snapshot(3, [0, 0], [1, 1])  # node0: 2, node1: 2, node2: 0
    counter.advance(s1)
    s2 = make_snapshot(3, [2], [0])  # node0: +1, node2: +1
    kappa = counter.keep_ratio_for(s2)
    assert kappa.shape == (3, 1)
    np.testing.assert_allclose(kappa.ravel(), [2 / 3, 1.0, 0.0])


# ---------------------------------------------------------------------------
# gnn_layer
# ---------------------------------------------------------------------------


def test_gnn_layer_zero_edges_reduces_to_own_term():
    model = toy_model(update="moving_average", batch_norm=False)
    snap = make_snapshot(5, [], [])
    h = np.random.default_rng(0).normal(size=(5, 4))
    out = md.gnn_layer(dc.constant(h), snap, model, layer=0, mode="eval")
    np.testing.assert_array_equal(out.value, np.maximum(h, 0.0))


def test_gnn_layer_single_edge_hand_computed():
    model = toy_model(update="moving_average", hidden=1, batch_norm=False,
                      bidirectional=False, aggregation="sum")
    model.params["mp.0.w"].value = np.array([[0.1, 0.2, 0.3, 0.4]])
    model.params["mp.0.b"].value = np.zeros(1)
    snap = make_snapshot(2, [0], [1], edge_features=[[1.0, 0.5]])
    h = np.array([[2.0], [3.0]])
    out = md.gnn_layer(dc.constant(h), snap, model, 0, "eval")
    # message = .1*2 + .2*3 + .3*1 + .4*.5 = 1.3; node1 = 1.3 + 3; node0 = skip only
    np.testing.assert_allclose(out.value, [[2.0], [4.3]], rtol=0, atol=1e-15)


def test_gnn_layer_sum_equals_mean_with_indegree_one():
    rng = np.random.default_rng(1)
    snap = make_snapshot(4, [0, 1, 2, 3], [1, 2, 3, 0])  # every in-degree is 1
    h = rng.normal(size=(4, 4))
    m_sum = toy_model(update="moving_average", batch_norm=False,
                      bidirectional=False, aggregation="sum", seed=5)
    m_mean = toy_model(update="moving_average", batch_norm=False,
                       bidirectional=False, aggregation="mean", seed=5)
    out_sum = md.gnn_layer(dc.constant(h), snap, m_sum, 0, "eval")
    out_mean = md.gnn_layer(dc.constant(h), snap, m_mean, 0, "eval")
    np.testing.assert_array_equal(out_sum.value, out_mean.value)


def test_gnn_layer_bidirectional_sends_reverse_messages():
    model = toy_model(update="moving_average", hidden=1, batch_norm=False,
                      bidirectional=True, aggregation="sum")
    model.params["mp.0.w"].value = np.array([[0.1, 0.2, 0.3, 0.4]])
    model.params["mp.0.b"].value = np.zeros(1)
    snap = make_snapshot(2, [0], [1], edge_features=[[1.0, 0.5]])
    h = np.array([[2.0], [3.0]])
    out = md.gnn_layer(dc.constant(h), snap, model, 0, "eval")
    # forward message to node1 = 1.3 (as unidirectional case)
    # reverse message to node0 = .1*3 + .2*2 + .3 + .2 = 1.2
    np.testing.assert_allclose(out.value, [[3.2], [4.3]], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# update_state
# ---------------------------------------------------------------------------


def test_update_moving_average_boundaries():
    rng = np.random.default_rng(2)
    prev = dc.constant(rng.normal(size=(5, 3)))
    tilde = dc.constant(rng.normal(size=(5, 3)))
    keep = md.update_state(prev, tilde, "moving_average", kappa=1.0)
    np.testing.assert_array_equal(keep.value, prev.value)
    replace = md.update_state(prev, tilde, "moving_average", kappa=0.0)
    np.testing.assert_array_equal(replace.value, tilde.value)


def test_update_moving_average_entries_bounded():
    rng = np.random.default_rng(3)
    prev = rng.normal(size=(10, 4))
    tilde = rng.normal(size=(10, 4))
    out = md.update_state(dc.constant(prev), dc.constant(tilde),
                          "moving_average", kappa=0.3).value
    lo = np.minimum(prev, tilde)
    hi = np.maximum(prev, tilde)
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_update_gru_carry_gate_returns_prev():
    model = toy_model(update="gru")
    group = model.params.group("upd.0")
    group["bz"].value[:] = 1000.0
    rng = np.random.default_rng(4)
    prev = rng.normal(size=(6, 4))
    out = md.update_state(dc.constant(prev),
                          dc.constant(rng.normal(size=(6, 4))), "gru",
                          params=group)
    np.testing.assert_array_equal(out.value, prev)


def test_update_mlp_matches_mlp2():
    model = toy_model(update="mlp")
    group = model.params.group("upd.0")
    rng = np.random.default_rng(5)
    prev = dc.constant(rng.normal(size=(3, 4)))
    tilde = dc.constant(rng.normal(size=(3, 4)))
    out = md.update_state(prev, tilde, "mlp", params=group)
    direct = dc.mlp2(dc.concat_cols([prev, tilde]), group["w1"], group["b1"],
                     group["w2"], group["b2"])
    np.testing.assert_array_equal(out.value, direct.value)


def test_update_unknown_kind():
    x = dc.constant(np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        md.update_state(x, x, "attention")


def test_update_shape_mismatch():
    with pytest.raises(DimensionError):
        md.update_state(dc.constant(np.zeros((2, 2))),
                        dc.constant(np.zeros((3, 2))), "moving_average", kappa=0.5)


# ---------------------------------------------------------------------------
# predict_scores
# ---------------------------------------------------------------------------


def test_predict_scores_zero_head_gives_zero():
    model = toy_model()
    model.params["head.w1"].value[:] = 0.0
    model.params["head.w2"].value[:] = 0.0
    model.params["head.b1"].value[:] = 0.0
    model.params["head.b2"].value[:] = 0.0
    reps = np.random.default_rng(6).normal(size=(5, 4))
    scores = md.predict_scores(reps, [(0, 1), (2, 3)], model)
    np.testing.assert_array_equal(scores, [0.0, 0.0])


def test_predict_scores_duplicate_pairs_identical():
    model = toy_model(seed=7)
    reps = np.random.default_rng(7).normal(size=(6, 4))
    scores = md.predict_scores(reps, [(1, 4), (1, 4)], model)
    assert scores[0] == scores[1]


def test_predict_scores_scalar_hand_computed():
    model = toy_model(hidden=1)
    model.params["head.w1"].value = np.array([[0.5, 1.0]])
    model.params["head.b1"].value = np.array([0.2])
    model.params["head.w2"].value = np.array([[2.0]])
    model.params["head.b2"].value = np.array([0.3])
    reps = np.array([[2.0], [3.0]])
    # hidden = relu(.5*2 + 1*3 + .2) = 4.2; score = 2*4.2 + .3 = 8.7
    scores = md.predict_scores(reps, [(0, 1)], model)
    assert scores[0] == pytest.approx(8.7, abs=1e-12)


def test_predict_scores_out_of_range():
    model = toy_model()
    reps = np.zeros((3, 4))
    with pytest.raises(BoundsError):
        md.predict_scores(reps, [(0, 9)], model)


def test_pair_scorer_matches_naive_concat():
    model = toy_model(seed=8)
    rng = np.random.default_rng(8)
    reps = rng.normal(size=(7, 4))
    pairs = rng.integers(0, 7, size=(20, 2))
    fast = md.predict_scores(reps, pairs, model)
    w1 = model.params["head.w1"].value
    b1 = model.params["head.b1"].value
    w2 = model.params["head.w2"].value
    b2 = model.params["head.b2"].value
    naive = np.array([
        (np.maximum(w1 @ np.concatenate([reps[u], reps[v]]) + b1, 0) @ w2.T + b2).item()
        for u, v in pairs
    ])
    np.testing.assert_allclose(fast, naive, rtol=1e-12, atol=1e-12)


def test_scores_against_rejects_out_of_range_destinations():
    model = toy_model(seed=10)
    scorer = md.PairScorer(np.random.default_rng(10).normal(size=(5, 4)), model)
    for dsts in ([0, -1], [5], [2, 7, 1]):
        with pytest.raises(BoundsError):
            scorer.scores_against(1, np.array(dsts))
    with pytest.raises(BoundsError):
        scorer.scores_against(5, np.array([0]))


def test_scores_against_leaves_projections_unchanged():
    model = toy_model(seed=11)
    scorer = md.PairScorer(np.random.default_rng(11).normal(size=(6, 4)), model)
    a, b = scorer.a.copy(), scorer.b.copy()
    for dsts in (np.array([3]), np.array([0, 5, 5, 2]), np.arange(6)):
        scorer.scores_against(2, dsts)
    np.testing.assert_array_equal(scorer.a, a)
    np.testing.assert_array_equal(scorer.b, b)


def test_scores_against_bitwise_equals_scores():
    model = toy_model(hidden=8, seed=12)
    rng = np.random.default_rng(12)
    scorer = md.PairScorer(rng.normal(size=(40, 8)), model)
    for src in (0, 17, 39):
        for k in (0, 1, 7, 100):
            dsts = rng.integers(0, 40, size=k)
            assert np.array_equal(scorer.scores_against(src, dsts),
                                  scorer.scores(np.full(k, src), dsts))


def test_scores_var_matches_predict_scores():
    model = toy_model(seed=9)
    rng = np.random.default_rng(9)
    reps = rng.normal(size=(6, 4))
    pairs = rng.integers(0, 6, size=(11, 2))
    tape_scores = md._scores_var(dc.constant(reps), pairs, model).value.ravel()
    fast_scores = md.predict_scores(reps, pairs, model)
    np.testing.assert_allclose(tape_scores, fast_scores, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_state_shapes_and_step():
    model = toy_model(hidden=4)
    snap = toy_snapshot()
    state = fresh_state(model, 6)
    counter = fresh_counter(model, 6)
    result = md.forward(snap, state, model, counter, pairs=[(0, 1), (2, 4)])
    assert len(result.state.layers) == 2
    for layer in result.state.layers:
        assert layer.shape == (6, 4)
    assert result.state.step == 0
    assert result.scores.value.shape == (2, 1)
    second = md.forward(snap, result.state, model, counter)
    assert second.state.step == 1


def test_forward_default_hidden_dim_is_128():
    model = toy_model(hidden=128)
    snap = toy_snapshot()
    result = md.forward(snap, fresh_state(model, 6), model,
                        fresh_counter(model, 6))
    assert all(layer.shape == (6, 128) for layer in result.state.layers)


def test_forward_deterministic():
    model = toy_model(seed=10)
    snap = toy_snapshot()
    state = fresh_state(model, 6)
    counter = fresh_counter(model, 6)
    pairs = [(0, 1), (3, 5)]
    r1 = md.forward(snap, state, model, counter, pairs=pairs)
    r2 = md.forward(snap, state, model, counter, pairs=pairs)
    np.testing.assert_array_equal(r1.scores.value, r2.scores.value)
    for a, b in zip(r1.state.layers, r2.state.layers):
        np.testing.assert_array_equal(a, b)


def test_forward_moving_average_full_keep_on_empty_snapshot():
    model = toy_model(update="moving_average")
    counter = fresh_counter(model, 6)
    counter.advance(toy_snapshot())  # history 8, so an empty step keeps kappa=1
    state = fresh_state(model, 6)
    rng = np.random.default_rng(11)
    for layer in state.layers:
        layer[:] = rng.normal(size=layer.shape)
    empty = make_snapshot(6, [], [])
    result = md.forward(empty, state, model, counter)
    for new, old in zip(result.state.layers, state.layers):
        np.testing.assert_array_equal(new, old)


def test_forward_hierarchical_persistence():
    # perturbing the lower-layer carried state must change scores
    model = toy_model(update="gru", seed=12)
    snap = toy_snapshot()
    counter = fresh_counter(model, 6)
    state = fresh_state(model, 6)
    base = md.forward(snap, state, model, counter, pairs=[(0, 1)]).scores.value.copy()
    state2 = state.clone()
    state2.layers[0][3, 2] += 0.37
    bumped = md.forward(snap, state2, model, counter, pairs=[(0, 1)]).scores.value
    assert not np.array_equal(base, bumped)


def test_forward_state_layer_count_mismatch():
    model = toy_model()
    snap = toy_snapshot()
    bad = md.HierarchicalNodeState([np.zeros((6, 4))], step=-1)
    with pytest.raises(DimensionError):
        md.forward(snap, bad, model, fresh_counter(model, 6))


def test_forward_end_to_end_gradient():
    # BCE through the full network (gru) vs finite differences
    model = toy_model(update="gru", hidden=3, seed=13)
    snap = toy_snapshot()
    counter = fresh_counter(model, 6)
    state = fresh_state(model, 6)
    rng = np.random.default_rng(13)
    for layer in state.layers:
        layer[:] = 0.3 * rng.normal(size=layer.shape)
    pairs = np.array([(0, 1), (2, 3), (4, 5), (1, 0)])
    labels = np.array([[1.0], [0.0], [1.0], [0.0]])

    def loss():
        res = md.forward(snap, state, model, counter, pairs=pairs, mode="train")
        return dc.bce_with_logits(res.scores, labels)

    wrt = list(model.params)
    err = dc.grad_check(loss, wrt, eps=1e-5)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# tape memory: eval forwards record no graph, backward frees it as it walks
# ---------------------------------------------------------------------------


def _tape_case(synth_graph, update, hidden=32):
    """Window 3 of synth_graph with a random prior state and one positive
    plus one random negative per edge; float64, the ModelConfig default."""
    snap = synth_graph[3]
    n = snap.n_nodes
    model = toy_model(update=update, hidden=hidden, seed=3)
    counter = fresh_counter(model, n)
    counter.advance(synth_graph[2])
    state = fresh_state(model, n)
    rng = np.random.default_rng(30)
    for layer in state.layers:
        layer[:] = rng.normal(size=layer.shape)
    pos = np.column_stack([snap.edge_src, snap.edge_dst])
    pairs = np.vstack([pos, rng.integers(0, n, size=pos.shape)])
    labels = np.zeros((len(pairs), 1))
    labels[:len(pos)] = 1.0
    return snap, model, counter, state, pairs, labels


@pytest.mark.parametrize("update", ["moving_average", "mlp", "gru"])
def test_eval_forward_records_no_graph_and_matches_the_taped_forward(
        synth_graph, monkeypatch, update):
    snap, model, counter, state, pairs, _ = _tape_case(synth_graph, update)
    outputs = []
    for name in ("gnn_layer", "update_state"):
        real = getattr(md, name)

        def spy(*args, _real=real, **kwargs):
            out = _real(*args, **kwargs)
            outputs.append(out)
            return out

        monkeypatch.setattr(md, name, spy)

    bare = md.forward(snap, state, model, counter, mode="eval")
    assert len(outputs) == 2 * model.config.n_mp
    for out in outputs:
        assert out._parents == () and out._vjp is None and not out.requires_grad
    assert bare.scores is None

    outputs.clear()
    taped = md.forward(snap, state, model, counter, pairs=pairs, mode="eval")
    assert all(out._parents for out in outputs)  # pairs given: the tape is on
    assert np.array_equal(bare.top_repr, taped.top_repr)
    for a, b in zip(bare.state.layers, taped.state.layers):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# Bounds in units of N*d*itemsize, the size of one node-state matrix. On
# synth_graph's window 3 (N=40, 149 edges, so the bidirectional per-edge
# message tensors, not the node matrices, are the largest arrays), at d=32:
#   backward peak above what the forward keeps: 164 (moving average) and
#   201 (GRU) units when the graph is held until backward returns, 22 and 23
#   when each node is freed once its vjp has run;
#   eval forward peak: 109 and 127 units with a recorded graph, 55 without.
BACKWARD_EXTRA_UNITS = 60
EVAL_FORWARD_UNITS = 80


@pytest.mark.parametrize("update", ["moving_average", "gru"])
def test_tape_memory_follows_what_the_backward_needs(synth_graph, update):
    import tracemalloc

    snap, model, counter, state, pairs, labels = _tape_case(synth_graph, update)
    unit = snap.n_nodes * model.config.hidden_dim * np.dtype(model.config.np_dtype).itemsize
    md.forward(snap, state, model, counter, pairs=pairs, mode="train")  # warm-up
    tracemalloc.start()
    try:
        result = md.forward(snap, state, model, counter, pairs=pairs, mode="train")
        loss = dc.bce_with_logits(result.scores, labels)
        tracemalloc.reset_peak()
        kept = tracemalloc.get_traced_memory()[0]
        dc.backward(loss)
        backward_extra = tracemalloc.get_traced_memory()[1] - kept
        del result, loss
        model.params.zero_grad()

        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        md.forward(snap, state, model, counter, mode="eval")
        eval_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert backward_extra <= BACKWARD_EXTRA_UNITS * unit, backward_extra / unit
    assert eval_peak <= EVAL_FORWARD_UNITS * unit, eval_peak / unit


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_reproduces_forward(tmp_path):
    model = toy_model(update="gru", seed=14)
    snap = toy_snapshot()
    counter = fresh_counter(model, 6)
    counter.advance(snap)
    state = fresh_state(model, 6)
    rng = np.random.default_rng(14)
    for layer in state.layers:
        layer[:] = rng.normal(size=layer.shape)
    # run a train-mode pass so batch-norm running stats are non-trivial
    md.forward(snap, state, model, counter, pairs=[(0, 1)], mode="train")

    path = tmp_path / "model.npz"
    md.save_checkpoint(path, model, state, counter)
    model2, state2, counter2 = md.load_checkpoint(path)

    pairs = [(0, 1), (2, 5), (4, 3)]
    r1 = md.forward(snap, state, model, counter, pairs=pairs)
    r2 = md.forward(snap, state2, model2, counter2, pairs=pairs)
    np.testing.assert_array_equal(r1.scores.value, r2.scores.value)
    for a, b in zip(r1.state.layers, r2.state.layers):
        np.testing.assert_array_equal(a, b)
    assert float(counter2.history) == float(counter.history)
    assert state2.step == state.step
