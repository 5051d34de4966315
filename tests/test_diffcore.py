"""Tests for the differentiable primitives.

Each primitive is checked against an independent oracle: a naive
triple-loop product for affine, a per-node scatter loop for aggregation,
direct statistics for batch norm, and central finite differences for every
gradient path.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import grad_check, mean_all
from snaplink import diffcore as dc
from snaplink.errors import BoundsError, DimensionError, NumericError


def rng_for(tag):
    return np.random.default_rng(tag)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def matmul_oracle(a, b):
    """Naive triple-loop matrix product."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def aggregate_oracle(messages, dst, n_nodes, mode):
    """Per-node python-loop reduction."""
    dim = messages.shape[1]
    out = np.zeros((n_nodes, dim))
    for v in range(n_nodes):
        rows = messages[dst == v]
        if rows.shape[0] == 0:
            continue
        if mode == "sum":
            out[v] = rows.sum(axis=0)
        elif mode == "mean":
            out[v] = rows.mean(axis=0)
        else:
            out[v] = rows.max(axis=0)
    return out


def bce_oracle(scores, labels):
    """Direct -[y log p + (1-y) log(1-p)] with sigmoid probabilities."""
    p = 1.0 / (1.0 + np.exp(-scores))
    return float(np.mean(-(labels * np.log(p) + (1 - labels) * np.log(1 - p))))


# ---------------------------------------------------------------------------
# affine
# ---------------------------------------------------------------------------


def test_affine_zero_input():
    w = dc.Param("w", rng_for(0).normal(size=(2, 4)))
    b = dc.Param("b", np.zeros(2))
    out = dc.affine(dc.constant(np.zeros((3, 4))), w, b)
    assert np.array_equal(out.value, np.zeros((3, 2)))


def test_affine_identity():
    w = dc.Param("w", np.eye(4))
    b = dc.Param("b", np.zeros(4))
    x = rng_for(1).normal(size=(3, 4))
    out = dc.affine(dc.constant(x), w, b)
    np.testing.assert_array_equal(out.value, x)


def test_affine_matches_triple_loop_oracle():
    rng = rng_for(2)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(2, 4))
    b = rng.normal(size=2)
    out = dc.affine(dc.constant(x), dc.Param("w", w), dc.Param("b", b))
    expected = matmul_oracle(x, w.T) + b
    np.testing.assert_allclose(out.value, expected, rtol=0, atol=1e-12)


def test_affine_shape_mismatch_names_both_shapes():
    w = dc.Param("w", np.zeros((2, 5)))
    b = dc.Param("b", np.zeros(2))
    with pytest.raises(DimensionError, match=r"3, 4.*2, 5"):
        dc.affine(dc.constant(np.zeros((3, 4))), w, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_affine_adds_the_bias_in_place_with_the_same_bits(dtype):
    import tracemalloc

    rng = rng_for(3)
    n, d_in, d_out = 2000, 64, 128
    x = dc.constant(rng.normal(size=(n, d_in)).astype(dtype))
    w = dc.Param("w", rng.normal(size=(d_out, d_in)).astype(dtype))
    b = dc.Param("b", rng.normal(size=d_out).astype(dtype))
    expected = x.value @ w.value.T + b.value
    dc.affine(x, w, b)  # warm-up
    tracemalloc.start()
    try:
        out = dc.affine(x, w, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (n, d_out) output, not a product and then a sum beside it; the
    # slack covers numpy's iterator buffers (64 KiB in float64)
    assert peak <= n * d_out * np.dtype(dtype).itemsize + 256 * 1024, peak
    assert out.value.dtype == dtype
    assert out.value.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# relu
# ---------------------------------------------------------------------------


def test_relu_propagates_nan_and_masks_gradient():
    x = dc.Param("x", [[np.nan, -1.0, 0.0, 2.0]])
    out = dc.relu(x)
    assert np.isnan(out.value[0, 0])
    np.testing.assert_array_equal(out.value[0, 1:], [0.0, 0.0, 2.0])
    loss = mean_all(out)
    assert np.isnan(loss.value)  # NaN reaches the loss instead of vanishing
    dc.backward(loss)
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 0.0, 0.25]])


# ---------------------------------------------------------------------------
# gru_cell
# ---------------------------------------------------------------------------


def gru_params(rng, d, scale=1.0):
    return {
        "wz": dc.Param("wz", scale * rng.normal(size=(d, 2 * d))),
        "bz": dc.Param("bz", scale * rng.normal(size=d)),
        "wr": dc.Param("wr", scale * rng.normal(size=(d, 2 * d))),
        "br": dc.Param("br", scale * rng.normal(size=d)),
        "wn": dc.Param("wn", scale * rng.normal(size=(d, 2 * d))),
        "bn": dc.Param("bn", scale * rng.normal(size=d)),
    }


def test_gru_all_zero_gives_zero():
    d = 3
    p = gru_params(rng_for(5), d, scale=0.0)
    out = dc.gru_cell(dc.constant(np.zeros((4, d))), dc.constant(np.zeros((4, d))), p)
    # z = 0.5 everywhere and n = 0, so h' = 0.5*0 + 0.5*0 = 0
    np.testing.assert_array_equal(out.value, np.zeros((4, d)))


def test_gru_carry_gate_returns_h_prev():
    d = 2
    rng = rng_for(6)
    p = gru_params(rng, d, scale=0.3)
    p["bz"] = dc.Param("bz", np.full(d, 1000.0))  # z saturates to exactly 1.0
    h = rng.normal(size=(3, d))
    out = dc.gru_cell(dc.constant(h), dc.constant(rng.normal(size=(3, d))), p)
    np.testing.assert_array_equal(out.value, h)


def test_gru_gradient_vs_finite_differences():
    d = 3
    rng = rng_for(7)
    p = gru_params(rng, d, scale=0.5)
    h = dc.Param("h", rng.normal(size=(4, d)))
    x = dc.Param("x", rng.normal(size=(4, d)))
    wrt = [h, x] + list(p.values())
    err = grad_check(lambda: mean_all(dc.gru_cell(h, x, p)), wrt)
    assert err < 1e-4


def test_gru_finite_for_large_inputs():
    d = 4
    rng = rng_for(8)
    p = gru_params(rng, d, scale=5.0)
    h = dc.constant(1e6 * rng.normal(size=(5, d)))
    x = dc.constant(1e6 * rng.normal(size=(5, d)))
    out = dc.gru_cell(h, x, p)
    assert np.isfinite(out.value).all()


# ---------------------------------------------------------------------------
# batch_norm
# ---------------------------------------------------------------------------


def initial_stats(dim):
    """Fresh running statistics: mean 0, variance 1."""
    return np.zeros(dim), np.ones(dim)


def test_batch_norm_constant_column_train():
    x = dc.constant(np.full((6, 3), 2.5))
    out = dc.batch_norm(x, dc.Param("g", np.ones(3)), dc.Param("b", np.zeros(3)),
                        *initial_stats(3), "train")
    np.testing.assert_array_equal(out.value, np.zeros((6, 3)))


def test_batch_norm_eval_identity_stats():
    rng = rng_for(9)
    x = rng.normal(size=(4, 3))
    gamma = rng.normal(size=3)
    beta = rng.normal(size=3)
    out = dc.batch_norm(dc.constant(x), dc.Param("g", gamma), dc.Param("b", beta),
                        *initial_stats(3), "eval", eps=1e-5)
    np.testing.assert_allclose(out.value, x / np.sqrt(1 + 1e-5) * gamma + beta,
                               rtol=0, atol=1e-15)


def test_batch_norm_train_statistics():
    # eps small enough that var/(var+eps) sits within 1e-6 of 1
    x = rng_for(10).normal(size=(50, 4)) * 3.0 + 1.0
    out = dc.batch_norm(dc.constant(x), dc.Param("g", np.ones(4)),
                        dc.Param("b", np.zeros(4)), *initial_stats(4), "train", eps=1e-9)
    assert np.abs(out.value.mean(axis=0)).max() < 1e-10
    assert np.abs(out.value.var(axis=0) - 1.0).max() < 1e-6


def test_batch_norm_single_row_train_falls_back_to_eval():
    mean, var = np.array([1.0, 2.0]), np.array([4.0, 9.0])
    x = np.array([[3.0, 5.0]])
    out = dc.batch_norm(dc.constant(x), dc.Param("g", np.ones(2)),
                        dc.Param("b", np.zeros(2)), mean, var, "train")
    expected = (x - [1.0, 2.0]) / np.sqrt(np.array([4.0, 9.0]) + 1e-5)
    np.testing.assert_allclose(out.value, expected, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(mean, [1.0, 2.0])
    np.testing.assert_array_equal(var, [4.0, 9.0])


def test_batch_norm_updates_running_stats():
    mean, var = initial_stats(1)
    x = np.array([[0.0], [2.0]])  # mean 1, biased var 1, unbiased var 2
    dc.batch_norm(dc.constant(x), dc.Param("g", np.ones(1)),
                  dc.Param("b", np.zeros(1)), mean, var, "train", momentum=0.5)
    assert mean[0] == pytest.approx(0.5)
    assert var[0] == pytest.approx(0.5 * 1.0 + 0.5 * 2.0)


def test_batch_norm_eval_deterministic_and_stateless():
    mean, var = initial_stats(3)
    x = rng_for(11).normal(size=(5, 3))
    g = dc.Param("g", np.ones(3))
    b = dc.Param("b", np.zeros(3))
    out1 = dc.batch_norm(dc.constant(x), g, b, mean, var, "eval")
    out2 = dc.batch_norm(dc.constant(x), g, b, mean, var, "eval")
    np.testing.assert_array_equal(out1.value, out2.value)
    np.testing.assert_array_equal(mean, np.zeros(3))
    np.testing.assert_array_equal(var, np.ones(3))


def test_batch_norm_gradient_both_modes():
    # a plain mean over the output is constant in x and gamma (normalized
    # columns sum to zero), so weight the entries to get nonzero gradients
    rng = rng_for(12)
    for mode in ("train", "eval"):
        frozen_mean = rng.normal(size=3)
        frozen_var = rng.uniform(0.5, 2.0, size=3)
        x = dc.Param("x", rng.normal(size=(6, 3)))
        g = dc.Param("g", rng.normal(size=3))
        b = dc.Param("b", rng.normal(size=3))
        weights = dc.constant(rng.normal(size=(6, 3)))

        def f():
            # keep running stats fixed so repeated calls see the same function
            out = dc.batch_norm(x, g, b, frozen_mean.copy(), frozen_var.copy(), mode)
            return mean_all(dc.mul(out, weights))

        err = grad_check(f, [x, g, b])
        assert err < 1e-4, mode


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------


def test_aggregate_empty_messages():
    for mode in dc.AGGREGATION_MODES:
        out = dc.aggregate(dc.constant(np.zeros((0, 3))), np.zeros(0, dtype=int), 4, mode)
        np.testing.assert_array_equal(out.value, np.zeros((4, 3)))


def test_aggregate_mean_arithmetic():
    msgs = dc.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = dc.aggregate(msgs, np.array([0, 0]), 2, "mean")
    np.testing.assert_array_equal(out.value, np.array([[2.0, 3.0], [0.0, 0.0]]))


def test_aggregate_matches_loop_oracle_all_modes():
    rng = rng_for(13)
    for trial in range(20):
        n_nodes = int(rng.integers(1, 8))
        n_msgs = int(rng.integers(0, 20))
        msgs = rng.normal(size=(n_msgs, 3))
        dst = rng.integers(0, n_nodes, size=n_msgs)
        for mode in dc.AGGREGATION_MODES:
            out = dc.aggregate(dc.constant(msgs), dst, n_nodes, mode)
            np.testing.assert_array_equal(out.value, aggregate_oracle(msgs, dst, n_nodes, mode))


def test_aggregate_sum_is_linear():
    rng = rng_for(14)
    a = rng.normal(size=(10, 4))
    b = rng.normal(size=(10, 4))
    dst = rng.integers(0, 5, size=10)
    alpha, beta = 0.7, -1.3
    left = dc.aggregate(dc.constant(alpha * a + beta * b), dst, 5, "sum").value
    right = (alpha * dc.aggregate(dc.constant(a), dst, 5, "sum").value
             + beta * dc.aggregate(dc.constant(b), dst, 5, "sum").value)
    np.testing.assert_allclose(left, right, rtol=0, atol=1e-12)


def test_aggregate_out_of_range_index():
    with pytest.raises(BoundsError):
        dc.aggregate(dc.constant(np.zeros((2, 3))), np.array([0, 5]), 3, "sum")


def test_aggregate_max_tie_gradient_routes_to_first():
    msgs = dc.Param("m", np.array([[2.0], [2.0], [1.0]]))
    out = dc.aggregate(msgs, np.array([0, 0, 0]), 1, "max")
    dc.backward(mean_all(out))
    np.testing.assert_array_equal(msgs.grad, np.array([[1.0], [0.0], [0.0]]))


def test_aggregate_gradients_vs_finite_differences():
    rng = rng_for(15)
    for mode in dc.AGGREGATION_MODES:
        msgs = dc.Param("m", rng.normal(size=(12, 3)))
        dst = rng.integers(0, 5, size=12)
        err = grad_check(lambda: mean_all(dc.aggregate(msgs, dst, 5, mode)), [msgs])
        assert err < 1e-4, mode


# ---------------------------------------------------------------------------
# scatter: aggregate sum/mean forward and gather_rows backward
# ---------------------------------------------------------------------------


def add_at_reference(index, values, n_rows):
    """The `np.add.at` scatter both ops used before."""
    out = np.zeros((n_rows,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, index, values)
    return out


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def scatter_case(name):
    """(index, values, n_rows) for one float64 input regime."""
    rng = rng_for(41)
    if name == "random":
        return rng.integers(0, 50, size=400), rng.normal(size=(400, 6)), 50
    if name == "duplicates":
        index = rng.choice([0, 3, 3, 3, 7], size=500)
        return index, rng.normal(scale=1e8, size=(500, 5)) ** 3, 9
    if name == "empty":
        return np.zeros(0, dtype=np.int64), np.zeros((0, 4)), 6
    if name == "no_repeats":  # placed row by row; -0.0 still sums to +0.0
        values = rng.normal(size=(30, 4))
        values[rng.uniform(size=values.shape) < 0.3] = -0.0
        return rng.permutation(45)[:30], values, 45
    # -0.0 entries: a row fed only -0.0 sums to +0.0, as with np.add.at
    values = rng.normal(size=(60, 3))
    values[rng.uniform(size=values.shape) < 0.5] = -0.0
    index = rng.integers(0, 10, size=60)
    values[index == 4] = -0.0
    return index, values, 12


SCATTER_CASES = ("random", "duplicates", "empty", "negative_zero", "no_repeats")


@pytest.mark.parametrize("case", SCATTER_CASES)
def test_aggregate_sum_and_mean_bitwise_match_add_at(case):
    index, values, n = scatter_case(case)
    ref = add_at_reference(index, values, n)
    assert_bitwise(dc.aggregate(dc.constant(values), index, n, "sum").value, ref)
    denom = np.maximum(np.bincount(index, minlength=n).astype(np.float64), 1.0)[:, None]
    assert_bitwise(dc.aggregate(dc.constant(values), index, n, "mean").value, ref / denom)


@pytest.mark.parametrize("case", SCATTER_CASES)
def test_gather_rows_backward_bitwise_matches_add_at(case):
    index, g, n = scatter_case(case)
    x = dc.Param("x", rng_for(42).normal(size=(n, g.shape[1])))
    (gx,) = dc.gather_rows(x, index)._vjp(g)
    assert_bitwise(gx, add_at_reference(index, g, n))


def test_gather_rows_backward_noncontiguous_gradient():
    rng = rng_for(43)
    index = rng.integers(0, 7, size=50)
    h = dc.gather_rows(dc.Param("x", rng.normal(size=(7, 3))), index)
    c = dc.concat_cols([h, dc.constant(rng.normal(size=(50, 4)))])
    g_h, _ = c._vjp(rng.normal(size=(50, 7)))
    assert not g_h.flags.c_contiguous
    (gx,) = h._vjp(g_h)
    assert_bitwise(gx, add_at_reference(index, g_h, 7))
    assert_bitwise(dc.aggregate(dc.constant(g_h), index, 7, "sum").value,
                   add_at_reference(index, g_h, 7))


def test_scatter_float32_sums_in_float64_and_rounds_once():
    for case in ("duplicates", "no_repeats"):
        index, values, n = scatter_case(case)
        v32 = values.astype(np.float32)
        ref = add_at_reference(index, v32.astype(np.float64), n).astype(np.float32)
        assert_bitwise(dc.aggregate(dc.constant(v32), index, n, "sum").value, ref)
        x = dc.Param("x", np.zeros((n, v32.shape[1]), np.float32))
        (gx,) = dc.gather_rows(x, index)._vjp(v32)
        assert_bitwise(gx, ref)


def test_scatter_propagates_inf_and_nan():
    values = np.array([[1.0, np.inf], [np.nan, -np.inf], [2.0, 3.0], [-np.inf, 1.0]])
    index = np.array([0, 0, 1, 1])
    expected = np.array([[np.nan, np.nan], [-np.inf, 4.0], [0.0, 0.0]])
    np.testing.assert_array_equal(dc.aggregate(dc.constant(values), index, 3, "sum").value,
                                  expected)
    (gx,) = dc.gather_rows(dc.Param("x", np.zeros((3, 2))), index)._vjp(values)
    np.testing.assert_array_equal(gx, expected)


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------


def masked_sigmoid_reference(v):
    """The branch-per-sign form sigmoid and the bce backward used before."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def sigmoid_probe_values(dtype=np.float64):
    rng = rng_for(31)
    edge = [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0]
    return np.concatenate([rng.normal(scale=6.0, size=2000), edge]).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_bitwise_matches_masked_reference(dtype):
    v = sigmoid_probe_values(dtype).reshape(-1, 2)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        out = dc.sigmoid(dc.constant(v)).value
    ref = masked_sigmoid_reference(v)
    assert out.dtype == ref.dtype
    assert np.array_equal(out, ref)


def test_sigmoid_propagates_nan():
    out = dc.sigmoid(dc.constant(np.array([np.nan, 0.0, -np.nan]))).value
    assert np.isnan(out[0]) and np.isnan(out[2])
    assert out[1] == 0.5


def test_bce_backward_bitwise_matches_masked_reference():
    s = sigmoid_probe_values()
    y = (rng_for(32).uniform(size=s.size) < 0.5).astype(np.float64)
    scores = dc.Param("s", s.copy())
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        dc.backward(dc.bce_with_logits(scores, y))
    assert np.array_equal(scores.grad, (masked_sigmoid_reference(s) - y) / y.size)


def test_bce_backward_propagates_nan():
    scores = dc.Param("s", np.array([np.nan, 1.0]))
    dc.backward(dc.bce_with_logits(scores, np.array([1.0, 0.0])))
    assert np.isnan(scores.grad[0]) and np.isfinite(scores.grad[1])


# ---------------------------------------------------------------------------
# bce_with_logits
# ---------------------------------------------------------------------------


def test_bce_score_zero_label_one():
    loss = dc.bce_with_logits(dc.constant(np.array([0.0])), np.array([1.0]))
    assert loss.value == pytest.approx(np.log(2.0), abs=1e-15)


def test_bce_limit_large_score():
    loss = dc.bce_with_logits(dc.constant(np.array([40.0])), np.array([1.0]))
    assert loss.value == pytest.approx(0.0, abs=1e-15)


def test_bce_matches_direct_formula_oracle():
    rng = rng_for(16)
    scores = rng.normal(size=50) * 3
    labels = (rng.uniform(size=50) < 0.5).astype(float)
    loss = dc.bce_with_logits(dc.constant(scores), labels)
    assert abs(float(loss.value) - bce_oracle(scores, labels)) < 1e-10


def test_bce_empty_input_raises():
    with pytest.raises(NumericError):
        dc.bce_with_logits(dc.constant(np.zeros(0)), np.zeros(0))


def test_bce_gradient():
    rng = rng_for(17)
    s = dc.Param("s", rng.normal(size=8))
    labels = (rng.uniform(size=8) < 0.5).astype(float)
    err = grad_check(lambda: dc.bce_with_logits(s, labels), [s])
    assert err < 1e-4


# ---------------------------------------------------------------------------
# grad_check harness itself
# ---------------------------------------------------------------------------


def test_grad_check_square_function():
    x = dc.Param("x", np.array([3.0]))
    err = grad_check(lambda: mean_all(dc.mul(x, x)), [x])
    # analytic 6 vs numeric 6
    assert err < 1e-9


def test_grad_check_rejects_bad_eps():
    x = dc.Param("x", np.array([1.0]))
    with pytest.raises(ValueError):
        grad_check(lambda: mean_all(x), [x], eps=1e-2)


# ---------------------------------------------------------------------------
# graph lifetime: no_tape and the consuming backward
# ---------------------------------------------------------------------------


def test_no_tape_records_no_graph_and_keeps_values():
    rng = rng_for(40)
    x = dc.Param("x", rng.normal(size=(5, 3)))
    w = dc.Param("w", rng.normal(size=(4, 3)))
    b = dc.Param("b", rng.normal(size=4))
    taped = dc.relu(dc.affine(x, w, b))
    with dc.no_tape():
        bare = dc.relu(dc.affine(x, w, b))
    assert taped._node.parents and taped.requires_grad
    assert bare._node.parents == () and bare._vjp is None and not bare.requires_grad
    assert np.array_equal(bare.value, taped.value)
    assert dc.relu(x)._node.parents == (x._node,)  # recording is back on after the context


def test_off_tape_relu_builds_no_mask():
    """Under no_tape() relu computes its output and nothing else: the taped
    output's bits, and no N x d boolean mask (a quarter of the float32
    output's bytes) only a backward would read."""
    x = dc.Param("x", rng_for(45).normal(size=(1000, 128)).astype(np.float32))
    taped = dc.relu(x)
    tracemalloc.start()
    try:
        with dc.no_tape():
            bare = dc.relu(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bare.value.dtype == np.float32
    assert bare.value.tobytes() == taped.value.tobytes()
    assert peak <= bare.value.nbytes + 8 * 1024, peak


def test_no_tape_restores_the_previous_setting_on_an_exception():
    x = dc.Param("x", np.ones((2, 2)))
    with pytest.raises(KeyError):
        with dc.no_tape():
            with dc.no_tape():
                pass
            assert dc.relu(x)._node.parents == ()  # the inner exit keeps the outer off
            raise KeyError("body failed")
    assert dc.relu(x)._node.parents == (x._node,)


def test_leaves_made_inside_no_tape_are_unchanged():
    with dc.no_tape():
        p = dc.Param("p", np.ones(3))
        leaf = dc.Var(np.ones(3), requires_grad=True)
        c = dc.constant(np.ones(3))
    assert p.requires_grad and leaf.requires_grad and not c.requires_grad
    loss = mean_all(dc.mul(p, leaf))
    dc.backward(loss)
    np.testing.assert_array_equal(p.grad, np.full(3, 1.0 / 3))
    np.testing.assert_array_equal(leaf.grad, np.full(3, 1.0 / 3))


def test_backward_consumes_interior_nodes_and_keeps_leaf_grads():
    rng = rng_for(41)
    x = dc.Param("x", rng.normal(size=(6, 3)))
    w = dc.Param("w", rng.normal(size=(2, 3)))
    b = dc.Param("b", np.zeros(2))
    hidden = dc.relu(dc.affine(x, w, b))
    loss = mean_all(dc.sigmoid(hidden))
    dc.backward(loss)
    for node in (hidden, loss):
        assert node.grad is None and node._node.parents == ()
    assert x.grad.shape == x.shape and w.grad.shape == w.shape
    assert b.grad.shape == b.shape


@pytest.mark.parametrize("second", ["same_root", "shared_subgraph"])
def test_backward_through_a_consumed_graph_raises(second):
    x = dc.Param("x", np.array([[1.0, -2.0, 3.0]]))
    hidden = dc.tanh(x)
    first = mean_all(dc.mul(hidden, hidden))
    dc.backward(first)
    # without the guard the second walk would stop at the consumed nodes
    # and silently leave no gradient
    root = first if second == "same_root" else mean_all(dc.relu(hidden))
    x.grad = None
    with pytest.raises(RuntimeError, match="consumed"):
        dc.backward(root)
    assert x.grad is None


def test_an_activation_no_vjp_reads_is_freed_with_its_var():
    rng = rng_for(44)
    x = dc.Param("x", rng.normal(size=(6, 3)))
    w = dc.Param("w", rng.normal(size=(4, 3)))
    b = dc.Param("b", rng.normal(size=4))
    shift = rng.normal(size=(6, 4))
    pre = dc.affine(x, w, b)  # affine's vjp reads x and w, not its output
    summed = dc.add(pre, dc.constant(shift))  # feeds only a relu, which keeps a mask
    hidden = dc.relu(summed)  # sigmoid's vjp reads its own output
    out = dc.sigmoid(hidden)
    freed = [weakref.ref(v.value) for v in (pre, summed, hidden)]
    kept = weakref.ref(out.value)
    loss = mean_all(out)
    del pre, summed, hidden, out
    assert [ref() for ref in freed] == [None, None, None]
    assert kept() is not None
    dc.backward(loss)

    z = x.value @ w.value.T + b.value + shift
    s = 1.0 / (1.0 + np.exp(-np.maximum(z, 0.0)))
    gz = s * (1.0 - s) * (z > 0) / z.size
    np.testing.assert_allclose(x.grad, gz @ w.value, rtol=1e-12)
    np.testing.assert_allclose(w.grad, gz.T @ x.value, rtol=1e-12)
    np.testing.assert_allclose(b.grad, gz.sum(axis=0), rtol=1e-12)


def test_only_the_gradients_parents_require_are_computed():
    rng = rng_for(45)
    p = dc.Param("p", rng.normal(size=(3, 2)))
    c = dc.constant(rng.normal(size=(3, 2)))
    g = rng.normal(size=(3, 2))
    h = dc.add(p, p)
    prod = dc.mul(h, c)
    ref = weakref.ref(h.value)
    del h  # only the constant's gradient would read h
    assert ref() is None
    dh, dconst = prod._vjp(g)
    assert dconst is None and np.array_equal(dh, g * c.value)
    assert dc.sub(c, p)._vjp(g)[0] is None and dc.sub(p, c)._vjp(g)[1] is None
    w = dc.Param("w", rng.normal(size=(4, 2)))
    gx, gw, gb = dc.affine(c, w, dc.constant(np.zeros(4)))._vjp(rng.normal(size=(3, 4)))
    assert gx is None and gb is None and gw.shape == (4, 2)


def test_an_op_on_constants_only_records_no_graph():
    rng = rng_for(46)
    a = dc.constant(rng.normal(size=(4, 2)))
    b = dc.constant(rng.normal(size=(4, 2)))
    gru = {f"{kind}{gate}": dc.constant(rng.normal(size=(2, 4) if kind == "w" else 2))
           for kind in "wb" for gate in "zrn"}
    outputs = [
        dc.add(a, b), dc.sub(a, b), dc.mul(a, b), dc.relu(a), dc.sigmoid(a), dc.tanh(a),
        dc.concat_cols([a, b]), dc.gather_rows(a, [0, 0, 3]),
        dc.affine(a, dc.constant(rng.normal(size=(3, 2))), dc.constant(np.zeros(3))),
        dc.batch_norm(a, dc.constant(np.ones(2)), dc.constant(np.zeros(2)),
                      np.zeros(2), np.ones(2), "train"),
        dc.gru_cell(a, b, gru), dc.bce_with_logits(a, np.ones((4, 2))),
    ] + [dc.aggregate(a, [0, 1, 1, 0], 2, mode) for mode in dc.AGGREGATION_MODES]
    for out in outputs:
        assert out._node.parents == () and out._vjp is None and not out.requires_grad


# ---------------------------------------------------------------------------
# property sweep: every primitive vs finite differences on random shapes
# ---------------------------------------------------------------------------


def test_property_random_instances_gradients():
    rng = rng_for(18)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(2, 6))
        d_in = int(rng.integers(1, 5))
        d_out = int(rng.integers(1, 5))
        kind = trial % 4
        if kind == 0:
            x = dc.Param("x", rng.normal(size=(n, d_in)))
            w = dc.Param("w", rng.normal(size=(d_out, d_in)))
            b = dc.Param("b", rng.normal(size=d_out))
            err = grad_check(lambda: mean_all(dc.affine(x, w, b)), [x, w, b])
        elif kind == 1:
            d = int(rng.integers(1, 4))
            p = gru_params(rng, d, scale=0.6)
            h = dc.Param("h", rng.normal(size=(n, d)))
            x = dc.Param("x", rng.normal(size=(n, d)))
            err = grad_check(lambda: mean_all(dc.gru_cell(h, x, p)),
                                [h, x] + list(p.values()))
        elif kind == 2:
            mode = dc.AGGREGATION_MODES[trial % 3]
            m = dc.Param("m", rng.normal(size=(2 * n, d_in)))
            dst = rng.integers(0, n, size=2 * n)
            err = grad_check(lambda: mean_all(dc.aggregate(m, dst, n, mode)), [m])
        else:
            rows = max(n, 2)
            x = dc.Param("x", rng.normal(size=(rows, d_in)))
            g = dc.Param("g", rng.normal(size=d_in))
            b = dc.Param("b", rng.normal(size=d_in))
            weights = dc.constant(rng.normal(size=(rows, d_in)))

            def f():
                return mean_all(
                    dc.mul(dc.batch_norm(x, g, b, *initial_stats(d_in), "train"), weights)
                )

            err = grad_check(f, [x, g, b])
        assert err < 1e-4, f"trial {trial} kind {kind}: rel err {err}"
        checked += 1
    assert checked == 50


# ---------------------------------------------------------------------------
# ParamSet and checkpointing
# ---------------------------------------------------------------------------


def test_paramset_roundtrip_and_clone():
    ps = dc.ParamSet()
    rng = rng_for(19)
    ps.new("a.w", rng.normal(size=(3, 2)))
    ps.new("a.b", rng.normal(size=3))
    clone = ps.clone()
    clone["a.w"].value[0, 0] += 1.0
    assert ps["a.w"].value[0, 0] != clone["a.w"].value[0, 0]
    state = ps.state_dict()
    clone.load_state_dict(state)
    np.testing.assert_array_equal(clone["a.w"].value, ps["a.w"].value)


def test_paramset_non_trainable_entries_get_no_grad():
    ps = dc.ParamSet()
    w = ps.new("w", np.ones((2, 3)))
    stat = ps.new("stat", np.zeros(3), trainable=False)
    assert w.requires_grad and not stat.requires_grad
    assert [p.requires_grad for p in ps.clone()] == [True, False]
    dc.backward(mean_all(dc.add(w, stat)))
    assert stat.grad is None
    np.testing.assert_array_equal(w.grad, np.full((2, 3), 1 / 6))
