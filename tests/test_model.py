"""Tests for the network: keep ratio, message-passing layer, update modules,
prediction head, and the full forward pass."""

import ast
import copy
from pathlib import Path

import numpy as np
import pytest

from conftest import fresh_state, incident_counts, make_snapshot, toy_model, toy_snapshot
from helpers import grad_check, mean_all
from snaplink import diffcore as dc
from snaplink import evaluate as ev
from snaplink import model as md
from snaplink.errors import BoundsError, ConfigError, DimensionError
from test_golden import small_graph


# ---------------------------------------------------------------------------
# keep_ratio and the carried history
# ---------------------------------------------------------------------------


def test_keep_ratio_direct_substitutions():
    assert md.keep_ratio(0, 5) == 0.0
    assert md.keep_ratio(7, 0) == 1.0
    assert md.keep_ratio(300, 100) == 0.75
    assert md.keep_ratio(np.float64(3.0), 7.0) == 3.0 / 10.0
    kappa = md.keep_ratio(np.array([300.0, 7.0]), np.array([100.0, 0.0]))
    assert kappa.shape == (2, 1) and kappa.dtype == np.float64
    np.testing.assert_array_equal(kappa.ravel(), [0.75, 1.0])


def test_keep_ratio_rejects_negative():
    with pytest.raises(ValueError):
        md.keep_ratio(-1, 2)
    with pytest.raises(ValueError):
        md.keep_ratio(np.array([1.0, 2.0]), np.array([0.0, -1.0]))


def test_keep_ratio_both_zero_degenerate():
    assert md.keep_ratio(0, 0) == 0.0
    kappa = md.keep_ratio(np.array([0.0, 2.0, 0.0]), np.array([0.0, 2.0, 3.0]))
    np.testing.assert_array_equal(kappa.ravel(), [0.0, 0.5, 0.0])


def spy_keep_ratio(monkeypatch) -> list:
    """Record every keep ratio a forward computes."""
    kappas = []
    real = md.keep_ratio

    def spy(history, new):
        kappas.append(real(history, new))
        return kappas[-1]

    monkeypatch.setattr(md, "keep_ratio", spy)
    return kappas


def test_forward_adds_the_snapshot_edge_count_to_the_history(monkeypatch):
    kappas = spy_keep_ratio(monkeypatch)
    model = toy_model(update="moving_average")
    state = fresh_state(model, 4)
    assert state.history.shape == (4,) and state.history.dtype == np.float64
    s1 = make_snapshot(4, [0, 1, 2], [1, 2, 3])
    s2 = make_snapshot(4, [0], [1])
    r1 = md.forward(s1, state, model)
    r2 = md.forward(s2, r1.state, model)
    # the scalar keep ratio reads the totals, twice the edge counts: 6 / (6 + 2)
    assert kappas == [0.0, 3 / 4]
    np.testing.assert_array_equal(r1.state.history, [1.0, 2.0, 2.0, 1.0])
    np.testing.assert_array_equal(r2.state.history, [2.0, 3.0, 2.0, 1.0])
    assert not state.history.any()


def test_forward_per_node_history_and_keep_ratio(monkeypatch):
    kappas = spy_keep_ratio(monkeypatch)
    model = toy_model(update="moving_average", per_node_keep_ratio=True)
    state = fresh_state(model, 3)
    assert state.history.shape == (3,) and state.history.dtype == np.float64
    s1 = make_snapshot(3, [0, 0], [1, 1])  # node0: 2, node1: 2, node2: 0
    s2 = make_snapshot(3, [2], [0])  # node0: +1, node2: +1
    r1 = md.forward(s1, state, model)
    r2 = md.forward(s2, r1.state, model)
    np.testing.assert_array_equal(r1.state.history, [2.0, 2.0, 0.0])
    np.testing.assert_array_equal(r2.state.history, [3.0, 2.0, 1.0])
    assert kappas[1].shape == (3, 1)
    np.testing.assert_allclose(kappas[1].ravel(), [2 / 3, 1.0, 0.0])


def test_eval_forward_on_an_empty_first_snapshot_is_pure(monkeypatch):
    model = toy_model(update="moving_average", seed=16)
    # a train forward moves the batch-norm statistics off their initial values
    md.forward(toy_snapshot(), fresh_state(model, 6), model, pairs=[(0, 1)], mode="train")
    state = fresh_state(model, 6)
    rng = np.random.default_rng(16)
    for layer in state.layers:
        layer[:] = rng.normal(size=layer.shape)
    layers = [m.copy() for m in state.layers]
    history = state.history.copy()
    arrays = model.params.state_dict()  # parameters and batch-norm statistics

    empty = make_snapshot(6, [], [])
    kappas = spy_keep_ratio(monkeypatch)
    first = md.forward(empty, state, model, mode="eval")
    second = md.forward(empty, state, model, mode="eval")

    assert all(a.tobytes() == b.tobytes() for a, b in zip(state.layers, layers))
    assert state.history.tobytes() == history.tobytes()
    after = model.params.state_dict()
    assert after.keys() == arrays.keys()
    assert all(after[k].tobytes() == arrays[k].tobytes() for k in arrays)
    assert first.top_repr.tobytes() == second.top_repr.tobytes()
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(first.state.layers, second.state.layers))
    assert first.state.history.tobytes() == second.state.history.tobytes()
    # both counts are zero: the keep ratio is zero and the history stays zero
    assert kappas == [0.0, 0.0] and not first.state.history.any()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("graph", ["synth_graph", "empty_window"])
def test_forward_input_is_the_cumulative_degree_of_a_rolled_state(synth_graph, monkeypatch,
                                                                  graph, dtype):
    """A zero state rolled through every window gives each forward the input
    the graph's per-window features hold: bitwise, in float64 and after the
    cast to float32. The input is what the first pre-layer multiplies."""
    g = synth_graph if graph == "synth_graph" else small_graph()
    model = toy_model(dtype=dtype)
    inputs = []
    real = dc.affine

    def spy(x, w, b):
        if w is model.params["pre.0.w"]:
            inputs.append(x.value)
        return real(x, w, b)

    monkeypatch.setattr(dc, "affine", spy)
    state = fresh_state(model, g.node_count)
    for t in range(len(g)):
        state = md.forward(g[t], state, model).state
    assert any(g[t].n_edges == 0 for t in range(len(g))) == (graph == "empty_window")
    assert len(inputs) == len(g)
    for t, x in enumerate(inputs):
        assert x.dtype == np.dtype(dtype)
        assert x.tobytes() == g[t].node_features.astype(dtype).tobytes(), t


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


def per_message_layer(h, snap, model, layer, mode):
    """`gnn_layer` written one message per edge: the affine map of each
    concat(source, destination, edge features), then the aggregation."""
    cfg = model.config
    src, dst, feats = snap.edge_src, snap.edge_dst, snap.edge_features
    if cfg.bidirectional:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        feats = np.concatenate([feats, feats])
    mp = model.params.group(f"mp.{layer}")
    msgs = dc.affine(dc.concat_cols([dc.gather_rows(h, src), dc.gather_rows(h, dst),
                                     dc.constant(feats)]), mp["w"], mp["b"])
    out = dc.add(dc.aggregate(msgs, dst, snap.n_nodes, cfg.aggregation), h)
    out = dc.batch_norm(out, mp["gamma"], mp["beta"], mp["running_mean"].value,
                        mp["running_var"].value, mode)
    return dc.relu(out)


def layer_case(aggregation, bidirectional):
    """Six nodes with a double edge 0->1, a self-loop at 2 and node 5 without
    any edge, so it receives no message in either direction; float64, with
    batch-norm parameters and running statistics away from their defaults."""
    snap = make_snapshot(6, [0, 0, 2, 1, 3, 4], [1, 1, 2, 3, 0, 3],
                         edge_features=[[1.0, 0.1], [1.0, 0.7], [0.5, 0.2],
                                        [1.0, 0.4], [0.3, 0.9], [1.0, 0.0]])
    model = toy_model(update="moving_average", aggregation=aggregation,
                      bidirectional=bidirectional, seed=8)
    rng = np.random.default_rng(9)
    for name in ("mp.0.b", "mp.0.gamma", "mp.0.beta", "mp.0.running_mean"):
        model.params[name].value = rng.normal(size=4)
    model.params["mp.0.running_var"].value = rng.uniform(0.5, 2.0, size=4)
    h = dc.Param("h", rng.normal(size=(6, 4)))
    return snap, model, h


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("aggregation", ["sum", "mean"])
def test_gnn_layer_aggregates_first_like_the_per_message_layer(aggregation, bidirectional):
    snap, model, h = layer_case(aggregation, bidirectional)
    for mode in ("eval", "train"):
        ref_model = model.clone()
        out = md.gnn_layer(h, snap, model, 0, mode).value
        ref = per_message_layer(h, snap, ref_model, 0, mode).value
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=0)
        for stat in ("running_mean", "running_var"):
            np.testing.assert_allclose(model.params[f"mp.0.{stat}"].value,
                                       ref_model.params[f"mp.0.{stat}"].value, rtol=1e-12)


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("aggregation", ["sum", "mean"])
def test_gnn_layer_gradients_aggregate_first(aggregation, bidirectional):
    snap, model, h = layer_case(aggregation, bidirectional)
    weights = dc.constant(np.random.default_rng(10).normal(size=(6, 4)))
    mp = model.params.group("mp.0")

    def f():
        return mean_all(dc.mul(md.gnn_layer(h, snap, model, 0, "train"), weights))

    assert grad_check(f, [h, mp["w"], mp["b"], mp["gamma"], mp["beta"]]) < 1e-6


@pytest.mark.parametrize("bidirectional", [False, True])
def test_gnn_layer_max_is_the_per_message_layer_bit_for_bit(bidirectional):
    snap, model, h = layer_case("max", bidirectional)
    weights = dc.constant(np.random.default_rng(10).normal(size=(6, 4)))
    grads = []
    for layer_fn in (md.gnn_layer, per_message_layer):
        model.params.zero_grad()
        h.grad = None
        out = layer_fn(h, snap, model, 0, "eval")
        dc.backward(mean_all(dc.mul(out, weights)))
        grads.append([out.value, h.grad, model.params["mp.0.w"].grad,
                      model.params["mp.0.b"].grad])
    for a, b in zip(*grads):
        assert a.tobytes() == b.tobytes()


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


def mlp_params(rng, d_in, hidden, d_out):
    """An MLP update's w1/b1/w2/b2 for a (2 * d_in)-wide input, standard
    normal."""
    shapes = {"w1": (hidden, 2 * d_in), "b1": hidden, "w2": (d_out, hidden), "b2": d_out}
    return {name: dc.Param(name, rng.normal(size=shape)) for name, shape in shapes.items()}


def test_update_mlp_zero_params_zero_output():
    rng = np.random.default_rng(3)
    params = mlp_params(rng, 3, 4, 2)
    for p in params.values():
        p.value[:] = 0.0
    out = md.update_state(dc.constant(rng.normal(size=(5, 3))),
                          dc.constant(rng.normal(size=(5, 3))), "mlp", params=params)
    assert np.array_equal(out.value, np.zeros((5, 2)))


def test_update_mlp_scalar_hand_computation():
    # [prev, tilde] = [2, 1]: first layer 2*3 + 1*2 - 1 = 7, relu keeps 7,
    # second layer 7*0.5 + 0.25 = 3.75
    params = {"w1": dc.Param("w1", [[3.0, 2.0]]), "b1": dc.Param("b1", [-1.0]),
              "w2": dc.Param("w2", [[0.5]]), "b2": dc.Param("b2", [0.25])}
    out = md.update_state(dc.constant([[2.0]]), dc.constant([[1.0]]), "mlp", params=params)
    assert out.value[0, 0] == pytest.approx(3.75, abs=0)


def test_update_mlp_gradient_vs_finite_differences():
    rng = np.random.default_rng(4)
    prev = dc.Param("prev", rng.normal(size=(3, 2)))
    tilde = dc.Param("tilde", rng.normal(size=(3, 2)))
    params = mlp_params(rng, 2, 4, 2)
    err = grad_check(lambda: mean_all(md.update_state(prev, tilde, "mlp", params=params)),
                     [prev, tilde, *params.values()])
    assert err < 1e-4


def test_update_mlp_random_instances_gradients():
    rng = np.random.default_rng(18)
    for trial in range(10):
        n = int(rng.integers(2, 6))
        d_in, hidden, d_out = (int(v) for v in rng.integers(1, 5, size=3))
        prev = dc.Param("prev", rng.normal(size=(n, d_in)))
        tilde = dc.Param("tilde", rng.normal(size=(n, d_in)))
        params = mlp_params(rng, d_in, hidden, d_out)
        err = grad_check(
            lambda: mean_all(md.update_state(prev, tilde, "mlp", params=params)),
            [prev, tilde, *params.values()])
        assert err < 1e-4, f"trial {trial}: rel err {err}"


def test_update_unknown_kind():
    x = dc.constant(np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        md.update_state(x, x, "attention")


def test_update_shape_mismatch():
    with pytest.raises(DimensionError):
        md.update_state(dc.constant(np.zeros((2, 2))),
                        dc.constant(np.zeros((3, 2))), "moving_average", kappa=0.5)


# ---------------------------------------------------------------------------
# prediction head
# ---------------------------------------------------------------------------


def predict_scores(reps, pairs, model):
    """One raw score per (src, dst) pair, through `PairScorer.scores_against`,
    the scorer MRR ranks with."""
    scorer = md.PairScorer(reps, model)
    return np.array([scorer.scores_against(int(u), np.array([v]))[0] for u, v in pairs])


def test_predict_scores_zero_head_gives_zero():
    model = toy_model()
    model.params["head.w_src"].value[:] = 0.0
    model.params["head.w_dst"].value[:] = 0.0
    model.params["head.w2"].value[:] = 0.0
    model.params["head.b1"].value[:] = 0.0
    model.params["head.b2"].value[:] = 0.0
    reps = np.random.default_rng(6).normal(size=(5, 4))
    scores = predict_scores(reps, [(0, 1), (2, 3)], model)
    np.testing.assert_array_equal(scores, [0.0, 0.0])


def test_predict_scores_duplicate_pairs_identical():
    model = toy_model(seed=7)
    reps = np.random.default_rng(7).normal(size=(6, 4))
    scores = md.PairScorer(reps, model).scores_against(1, np.array([4, 4]))
    assert scores[0] == scores[1]


def test_predict_scores_scalar_hand_computed():
    model = toy_model(hidden=1)
    model.params["head.w_src"].value = np.array([[0.5]])
    model.params["head.w_dst"].value = np.array([[1.0]])
    model.params["head.b1"].value = np.array([0.2])
    model.params["head.w2"].value = np.array([[2.0]])
    model.params["head.b2"].value = np.array([0.3])
    reps = np.array([[2.0], [3.0]])
    # hidden = relu(.5*2 + 1*3 + .2) = 4.2; score = 2*4.2 + .3 = 8.7
    scores = predict_scores(reps, [(0, 1)], model)
    assert scores[0] == pytest.approx(8.7, abs=1e-12)


def test_predict_scores_out_of_range():
    model = toy_model()
    reps = np.zeros((3, 4))
    with pytest.raises(BoundsError):
        predict_scores(reps, [(0, 9)], model)


def test_pair_scorer_matches_naive_concat():
    model = toy_model(seed=8)
    rng = np.random.default_rng(8)
    reps = rng.normal(size=(7, 4))
    pairs = rng.integers(0, 7, size=(20, 2))
    fast = predict_scores(reps, pairs, model)
    w1 = np.hstack([model.params["head.w_src"].value, model.params["head.w_dst"].value])
    b1 = model.params["head.b1"].value
    w2 = model.params["head.w2"].value
    b2 = model.params["head.b2"].value
    naive = np.array([
        (np.maximum(w1 @ np.concatenate([reps[u], reps[v]]) + b1, 0) @ w2.T + b2).item()
        for u, v in pairs
    ])
    np.testing.assert_allclose(fast, naive, rtol=1e-12, atol=1e-12)


def test_pair_scorer_rejects_a_representation_of_the_wrong_width():
    with pytest.raises(DimensionError):
        md.PairScorer(np.zeros((5, 3)), toy_model(hidden=4))


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
    neg_a, b, a_dot = scorer.neg_a.copy(), scorer.b.copy(), scorer.a_dot.copy()
    for dsts in (np.array([3]), np.array([0, 5, 5, 2]), np.arange(6)):
        scorer.scores_against(2, dsts)
    assert scorer.scores_against(2, np.array([], dtype=np.int64)).shape == (0,)
    np.testing.assert_array_equal(scorer.neg_a, neg_a)
    np.testing.assert_array_equal(scorer.b, b)
    np.testing.assert_array_equal(scorer.a_dot, a_dot)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("hidden", [7, 128])
def test_scores_against_is_row_stable(dtype, hidden):
    # a candidate's score must not depend on the block it is scored in: a
    # BLAS gemv over the block rounds a row differently by the block's length
    model = toy_model(hidden=hidden, seed=12, dtype=dtype)
    rng = np.random.default_rng(hidden)
    scorer = md.PairScorer(rng.normal(size=(1100, hidden)).astype(dtype), model)
    for k in [*range(1, 10), *range(1000, 1004)]:
        dsts = rng.integers(0, 1100, size=k)
        block = scorer.scores_against(3, dsts)
        rows = np.concatenate([scorer.scores_against(3, dsts[i:i + 1]) for i in range(k)])
        assert block.dtype == rows.dtype == np.dtype(dtype)
        assert block.tobytes() == rows.tobytes(), k


def test_scores_against_peaks_within_one_temporary():
    # float32, the run default: in float64 numpy's buffer for the broadcast
    # max alone is 64 KiB (8192 elements), and its iterator's bookkeeping
    # takes the peak past this bound
    import tracemalloc

    k, d = 1000, 128
    model = toy_model(hidden=d, seed=13, dtype="float32")
    rng = np.random.default_rng(13)
    scorer = md.PairScorer(rng.normal(size=(2000, d)).astype(np.float32), model)
    dsts = rng.integers(0, 2000, size=k)
    scorer.scores_against(0, dsts)  # warm-up
    tracemalloc.start()
    try:
        scorer.scores_against(0, dsts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= k * d * 4 + 64 * 1024, peak


@pytest.mark.parametrize("dtype,halves,w2", [
    ("float64", "97f39346c3e88f86", "d1115cda07d0dcf8"),
    ("float32", "97300744555df731", "97b525ceff1a7a96"),
])
def test_head_slabs_are_the_column_halves_of_one_draw(dtype, halves, w2):
    # sha256 prefixes of the (d, 2d) first head layer and of w2 that the
    # single-matrix head drew at this seed: the split keeps the draw and
    # the RNG stream after it bit for bit
    import hashlib

    model = toy_model(update="gru", hidden=4, seed=3, dtype=dtype)
    w_src, w_dst = model.params["head.w_src"].value, model.params["head.w_dst"].value
    assert w_src.shape == w_dst.shape == (4, 4)
    assert w_src.flags.c_contiguous and w_dst.flags.c_contiguous
    digest = hashlib.sha256(np.hstack([w_src, w_dst]).tobytes()).hexdigest()
    assert digest[:16] == halves
    digest = hashlib.sha256(model.params["head.w2"].value.tobytes()).hexdigest()
    assert digest[:16] == w2


def test_scores_var_matches_predict_scores():
    model = toy_model(seed=9)
    rng = np.random.default_rng(9)
    reps = rng.normal(size=(6, 4))
    pairs = rng.integers(0, 6, size=(11, 2))
    tape_scores = md._scores_var(dc.constant(reps), pairs, model).value.ravel()
    fast_scores = predict_scores(reps, pairs, model)
    np.testing.assert_allclose(tape_scores, fast_scores, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_state_shapes():
    model = toy_model(hidden=4)
    snap = toy_snapshot()
    state = fresh_state(model, 6)
    result = md.forward(snap, state, model, pairs=[(0, 1), (2, 4)])
    assert len(result.state.layers) == 2
    for layer in result.state.layers:
        assert layer.shape == (6, 4)
    assert result.scores.value.shape == (2, 1)


def test_forward_default_hidden_dim_is_128():
    model = toy_model(hidden=128)
    snap = toy_snapshot()
    result = md.forward(snap, fresh_state(model, 6), model)
    assert all(layer.shape == (6, 128) for layer in result.state.layers)


def test_forward_deterministic():
    model = toy_model(seed=10)
    snap = toy_snapshot()
    state = fresh_state(model, 6)
    pairs = [(0, 1), (3, 5)]
    r1 = md.forward(snap, state, model, pairs=pairs)
    r2 = md.forward(snap, state, model, pairs=pairs)
    np.testing.assert_array_equal(r1.scores.value, r2.scores.value)
    for a, b in zip(r1.state.layers, r2.state.layers):
        np.testing.assert_array_equal(a, b)


def test_forward_moving_average_full_keep_on_empty_snapshot():
    model = toy_model(update="moving_average")
    state = fresh_state(model, 6)
    state.history[:] = 2.0  # edges folded in at every node, so an empty step keeps kappa=1
    rng = np.random.default_rng(11)
    for layer in state.layers:
        layer[:] = rng.normal(size=layer.shape)
    empty = make_snapshot(6, [], [])
    result = md.forward(empty, state, model)
    for new, old in zip(result.state.layers, state.layers):
        np.testing.assert_array_equal(new, old)


def test_forward_hierarchical_persistence():
    # perturbing the lower-layer carried state must change scores
    model = toy_model(update="gru", seed=12)
    snap = toy_snapshot()
    state = fresh_state(model, 6)
    base = md.forward(snap, state, model, pairs=[(0, 1)]).scores.value.copy()
    state2 = copy.deepcopy(state)
    state2.layers[0][3, 2] += 0.37
    bumped = md.forward(snap, state2, model, pairs=[(0, 1)]).scores.value
    assert not np.array_equal(base, bumped)


def test_forward_state_layer_count_mismatch():
    model = toy_model()
    snap = toy_snapshot()
    bad = md.HierarchicalNodeState([np.zeros((6, 4))], history=np.zeros(6))
    with pytest.raises(DimensionError):
        md.forward(snap, bad, model)


def test_forward_end_to_end_gradient():
    # BCE through the full network (gru) vs finite differences
    model = toy_model(update="gru", hidden=3, seed=13, dtype="float64")
    snap = toy_snapshot()
    state = fresh_state(model, 6)
    rng = np.random.default_rng(13)
    for layer in state.layers:
        layer[:] = 0.3 * rng.normal(size=layer.shape)
    # (2, 2) reaches node 2 through both head slabs, and the repeated (0, 1)
    # reaches nodes 0 and 1 more than once
    pairs = np.array([(0, 1), (2, 3), (4, 5), (1, 0), (2, 2), (0, 1)])
    labels = np.array([[1.0], [0.0], [1.0], [0.0], [1.0], [0.0]])

    def loss():
        res = md.forward(snap, state, model, pairs=pairs, mode="train")
        return dc.bce_with_logits(res.scores, labels)

    wrt = list(model.params)
    err = grad_check(loss, wrt, eps=1e-5)
    assert err < 1e-4


def test_every_forward_call_in_src_passes_pairs_and_mode_by_keyword():
    """The benchmark's tracer reads `forward`'s `pairs` and `mode` from the
    keywords, or from positions it fixes (4 and 5); it counts training pairs
    and splits train from eval time with them. A call passing either by
    position would be misread without any error, so every call in src/
    passes at most (snapshot, h_prev, model) by position and `mode` by
    keyword."""
    src = Path(__file__).resolve().parents[1] / "src" / "snaplink"
    calls = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) == "forward":
                calls.append((f"{path.name}:{node.lineno}", node))
    assert len(calls) >= 4
    for where, call in calls:
        keywords = {k.arg for k in call.keywords}
        assert len(call.args) <= 3 and None not in keywords, where
        assert not any(isinstance(a, ast.Starred) for a in call.args), where
        assert "mode" in keywords, where


# ---------------------------------------------------------------------------
# tape memory: eval forwards record no graph, backward frees it as it walks
# ---------------------------------------------------------------------------


def _tape_case(synth_graph, update, hidden=32, n_nodes=None):
    """Window 3 of synth_graph with a random prior state and one positive
    plus one random negative per edge; float64, `toy_model`'s default.
    With `n_nodes`, the window is padded with nodes that get no edge."""
    snap = synth_graph[3]
    if n_nodes is not None:
        snap = make_snapshot(n_nodes, snap.edge_src, snap.edge_dst, snap.edge_features)
    n = snap.n_nodes
    model = toy_model(update=update, hidden=hidden, seed=3)
    state = fresh_state(model, n)
    state.history = incident_counts([synth_graph[2]], n)
    rng = np.random.default_rng(30)
    for layer in state.layers:
        layer[:] = rng.normal(size=layer.shape)
    pos = np.column_stack([snap.edge_src, snap.edge_dst])
    pairs = np.vstack([pos, rng.integers(0, n, size=pos.shape)])
    labels = np.zeros((len(pairs), 1))
    labels[:len(pos)] = 1.0
    return snap, model, state, pairs, labels


@pytest.mark.parametrize("update", ["moving_average", "mlp", "gru"])
def test_eval_forward_records_no_graph_and_matches_the_taped_forward(
        synth_graph, monkeypatch, update):
    snap, model, state, pairs, _ = _tape_case(synth_graph, update)
    outputs = []
    for name in ("gnn_layer", "update_state"):
        real = getattr(md, name)

        def spy(*args, _real=real, **kwargs):
            out = _real(*args, **kwargs)
            outputs.append(out)
            return out

        monkeypatch.setattr(md, name, spy)

    bare = md.forward(snap, state, model, mode="eval")
    assert len(outputs) == 2 * model.config.n_mp
    for out in outputs:
        assert out._node.parents == () and out._vjp is None and not out.requires_grad
    assert bare.scores is None

    outputs.clear()
    taped = md.forward(snap, state, model, pairs=pairs, mode="eval")
    assert all(out._node.parents for out in outputs)  # pairs given: the tape is on
    assert np.array_equal(bare.top_repr, taped.top_repr)
    for a, b in zip(bare.state.layers, taped.state.layers):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# Bounds in units of N*d*itemsize, the size of one node-state matrix, at
# d=32. synth_graph's window 3 has N=40 and 149 edges, whose 298
# bidirectional messages reach all 40 nodes; padded to N=400, the same
# messages reach a tenth of the nodes, as on a large sparse snapshot.
# Measured with graph nodes that keep only what their vjps read (when the
# tape kept every Var's value, in brackets):
#   train forward tape kept for the backward, N=40: 23 (86) units with
#   moving average, 40 (113) with GRU; N=400: 7.7 (28) and 24 (55);
#   backward peak above what the forward keeps: 35-36 (28) units at N=40
#   and 3.5-4.7 (2.8) at N=400, as each node is freed once its vjp has run;
#   eval forward peak without a recorded graph: 32 units at N=40, 8-11 at
#   N=400.
BACKWARD_EXTRA_UNITS = 60
EVAL_FORWARD_UNITS = 40


@pytest.mark.parametrize("update,n_nodes,forward_kept_units", [
    pytest.param("moving_average", None, 25, id="moving_average"),
    pytest.param("gru", None, 44, id="gru"),
    pytest.param("moving_average", 400, 9, id="moving_average-N400"),
    pytest.param("gru", 400, 27, id="gru-N400")])
def test_tape_memory_follows_what_the_backward_needs(synth_graph, update, n_nodes,
                                                     forward_kept_units):
    import tracemalloc

    snap, model, state, pairs, labels = _tape_case(synth_graph, update, n_nodes=n_nodes)
    unit = snap.n_nodes * model.config.hidden_dim * np.dtype(model.config.np_dtype).itemsize
    md.forward(snap, state, model, pairs=pairs, mode="train")  # warm-up
    tracemalloc.start()
    try:
        result = md.forward(snap, state, model, pairs=pairs, mode="train")
        loss = dc.bce_with_logits(result.scores, labels)
        tracemalloc.reset_peak()
        kept = tracemalloc.get_traced_memory()[0]
        dc.backward(loss)
        backward_extra = tracemalloc.get_traced_memory()[1] - kept
        del result, loss
        model.params.zero_grad()

        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        md.forward(snap, state, model, mode="eval")
        eval_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert kept <= forward_kept_units * unit, kept / unit
    assert backward_extra <= BACKWARD_EXTRA_UNITS * unit, backward_extra / unit
    assert eval_peak <= EVAL_FORWARD_UNITS * unit, eval_peak / unit


@pytest.mark.parametrize("aggregation", ["sum", "mean", "max"])
def test_an_eval_gnn_layer_frees_each_input_once_read(aggregation):
    """Off the tape nothing reads a layer's affine input, nor a max message,
    after the next op: no local holds one, so the layer's peak is its output
    and batch norm's temporaries. On 4,000 nodes with 1,000 edges at d=64,
    the traced peak over the input is 3.35 units (N*d*4 bytes) for sum and
    mean and 3.08 for max, against 3.90 and 4.58 when the concatenated input
    (sum, mean) or the gathered rows and messages (max) lived until the
    layer returned."""
    import tracemalloc

    rng = np.random.default_rng(12)
    n, e, d = 4000, 1000, 64
    snap = make_snapshot(n, rng.integers(0, n, e), rng.integers(0, n, e))
    model = toy_model(update="moving_average", hidden=d, seed=12, dtype="float32",
                      aggregation=aggregation)
    h = dc.constant(rng.normal(size=(n, d)).astype(np.float32))
    with dc.no_tape():
        md.gnn_layer(h, snap, model, 0, "eval")  # warm-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            md.gnn_layer(h, snap, model, 0, "eval")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert peak <= 3.6 * n * d * 4, peak / (n * d * 4)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_reproduces_forward(tmp_path):
    model = toy_model(update="gru", seed=14)
    snap = toy_snapshot()
    state = fresh_state(model, 6)
    state.history = incident_counts([snap], 6)
    rng = np.random.default_rng(14)
    for layer in state.layers:
        layer[:] = rng.normal(size=layer.shape)
    # run a train-mode pass so batch-norm running stats are non-trivial
    md.forward(snap, state, model, pairs=[(0, 1)], mode="train")

    path = tmp_path / "model.npz"
    ev.RunState(model, model.clone(), state, 4).save(path)
    loaded = ev.RunState.load(path)
    model2, state2 = loaded.deploy, loaded.state

    # one ParamSet per model, saved under the entry names: running statistics included
    with np.load(path) as data:
        assert {"arr:deploy:mp.0.running_mean", "arr:meta:mp.1.running_var"} <= set(data.files)
    assert model2.params.names() == model.params.names()
    for p in model.params:
        assert model2.params[p.name].requires_grad == p.requires_grad, p.name
        assert model2.params[p.name].value.tobytes() == p.value.tobytes(), p.name
    pairs = [(0, 1), (2, 5), (4, 3)]
    r1 = md.forward(snap, state, model, pairs=pairs)
    r2 = md.forward(snap, state2, model2, pairs=pairs)
    np.testing.assert_array_equal(r1.scores.value, r2.scores.value)
    for a, b in zip(r1.state.layers, r2.state.layers):
        np.testing.assert_array_equal(a, b)
    assert state2.history.shape == (6,) and state2.history.tobytes() == state.history.tobytes()
    assert loaded.step == 4


def test_checkpoint_roundtrip_restores_a_per_node_history(tmp_path):
    model = toy_model(update="moving_average", seed=15, per_node_keep_ratio=True)
    state = fresh_state(model, 6)
    for snap in (toy_snapshot(), make_snapshot(6, [0, 5], [3, 3])):
        state = md.forward(snap, state, model).state

    path = tmp_path / "model.npz"
    ev.RunState(model, model.clone(), state, 2).save(path)
    loaded = ev.RunState.load(path)
    model2, state2 = loaded.deploy, loaded.state

    assert model2.config.per_node_keep_ratio
    assert state2.history.dtype == np.float64 and state2.history.shape == (6,)
    assert state2.history.tobytes() == state.history.tobytes()
    snap = make_snapshot(6, [1, 2], [4, 0])
    r1 = md.forward(snap, state, model)
    r2 = md.forward(snap, state2, model2)
    for a, b in zip(r1.state.layers, r2.state.layers):
        assert a.tobytes() == b.tobytes()
