"""Differentiable numeric primitives with a minimal reverse-mode tape.

Everything the network needs is here: affine maps, a GRU cell, batch
normalization, column concatenation, and indexed neighborhood aggregation.
Gradients are produced by recording a small operation graph per forward
pass and walking it backwards.

A model's whole state is one `ParamSet`: the trainable weights and, as
non-trainable entries, the batch-norm running statistics. A non-trainable
`Param` never requires grad, so it never enters a graph or gets a `grad`,
but it is cloned, blended, hashed and saved with the rest. This module
reads and writes no files: `evaluate.RunState.save` stores a `ParamSet`'s
`state_dict()` through `snapshots.save_archive`.

Tape memory follows what the backward reads. A Var holds its value and a
`_Node`; nodes link to their parents' nodes, and each vjp closes over the
arrays and shapes it reads, never a Var. So an activation is freed once the
forward drops its Var, unless a vjp reads it: an `add` output that feeds
only a `relu` goes, an `affine` input (its weight gradient reads it) stays.
What a recorded op keeps is the least its vjp reads: `relu` keeps its mask
packed to one bit per element (`np.packbits`, unpacked in the vjp), and
`batch_norm` keeps x-hat, built in place from x - mu, and builds its output
in place from x-hat * gamma, so neither holds an N x d temporary beside what
it keeps. An op whose parents need no grad, and any op inside `no_tape()`,
records no graph and builds none of the data only a backward reads
(`relu`'s mask, `aggregate` max's tie index). `backward` consumes the graph
it walks: each node's closure, parent links and gradient are released as
soon as its vjp has run, so a second `backward` through the same nodes raises.

This is deliberately not a general autodiff framework: only the operations
listed above are supported, and all values are dense 1-D/2-D float arrays.
Every op keeps the dtype of its inputs; models default to float32
(`ModelConfig.dtype`). The elementwise `add`, `sub` and `mul` broadcast their
values as numpy does, but pass each parent the result-shaped gradient
unreduced: an operand that needs a gradient has the result's shape, and only
constants broadcast (a keep ratio, a degree column, the GRU's one).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import BoundsError, DimensionError, NumericError

AGGREGATION_MODES = ("sum", "mean", "max")


# ---------------------------------------------------------------------------
# Tape machinery
# ---------------------------------------------------------------------------


_recording = True
# `_Node.vjp` of a node whose gradient a `backward` has already propagated
_CONSUMED = object()


@contextmanager
def no_tape():
    """Record no graph while the context is open: a Var computed from
    parents keeps neither them nor a backward closure, and so does not
    require grad. Leaves (`Param`, `constant`) are unaffected. The previous
    setting is restored on exit, also when the body raises. The setting is
    process-wide: the package runs one forward at a time per process."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _records(parents) -> bool:
    """Whether an op over `parents` is recorded: the tape is on and one of
    them requires grad. Only then does an op build what its backward reads."""
    return _recording and any(p.requires_grad for p in parents)


class _Node:
    """A Var's place in the graph: `vjp` maps the output gradient to one
    gradient (or None) per parent node. A leaf has no parents and no vjp."""

    __slots__ = ("parents", "vjp", "grad", "requires_grad")

    def __init__(self, parents: tuple, vjp, requires_grad: bool):
        self.parents = parents
        self.vjp = vjp
        self.grad = None
        self.requires_grad = requires_grad


class Var:
    """An ndarray and its graph node.

    An op passes its input Vars as `parents`; only their nodes are kept,
    and only when one of them requires grad and the tape is recording.
    Leaves created directly from data pass `requires_grad` instead.
    `_vjp` reads and replaces the node's closure. It exists for
    `bench/tracer.py`, which wraps it to time each op's backward, until the
    package records its own spans.
    """

    __slots__ = ("value", "_node")

    def __init__(self, value, parents=(), vjp=None, requires_grad=None):
        self.value = np.asarray(value)
        nodes = ()
        if requires_grad is None:
            requires_grad = _records(parents)
            if requires_grad:
                nodes = tuple(p._node for p in parents)
        self._node = _Node(nodes, vjp if nodes else None, requires_grad)

    @property
    def grad(self):
        return self._node.grad

    @grad.setter
    def grad(self, g):
        self._node.grad = g

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @property
    def _vjp(self):
        return self._node.vjp

    @_vjp.setter
    def _vjp(self, vjp):
        self._node.vjp = vjp

    def __repr__(self):
        return f"Var(shape={self.value.shape}, requires_grad={self.requires_grad})"


class Param(Var):
    """A named leaf. A trainable one requires grad, and its `grad`
    accumulates until `zero_grad`; a non-trainable one is state that only
    its op updates (a batch-norm running statistic)."""

    __slots__ = ("name",)

    def __init__(self, name: str, value, trainable: bool = True):
        super().__init__(np.asarray(value), requires_grad=trainable)
        self.name = name

    def __repr__(self):
        return f"Param({self.name}, shape={self.value.shape})"


def constant(value) -> Var:
    """Wrap data that gradients must not flow into (e.g. prior node states)."""
    return Var(value, requires_grad=False)


def backward(root: Var) -> None:
    """Accumulate gradients of a scalar-valued `root` into every reachable leaf.

    The walk consumes the graph: once a node's vjp has run, its gradient,
    closure and parent links are dropped, so every activation and interior
    gradient is freed as soon as no unprocessed node can read it. Leaves
    keep their `grad`. A later `backward` that reaches a consumed node
    raises RuntimeError instead of silently returning no gradients.

    A vjp may pass one array to several parents (`add` does), so leaves can
    share a `grad` array. Nothing writes a gradient in place: no vjp or
    optimizer does, and accumulation makes a new array with `+`.
    """
    if root.value.size != 1:
        raise DimensionError(f"backward needs a scalar root, got shape {root.value.shape}")
    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        if node.vjp is _CONSUMED:
            raise RuntimeError("backward reached a node an earlier backward consumed")
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))

    root.grad = np.ones_like(root.value)
    while order:
        node = order.pop()
        if node.vjp is None:  # a leaf keeps its gradient
            continue
        if node.grad is not None:
            for parent, g in zip(node.parents, node.vjp(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g.copy() if g.base is not None else g
                else:
                    parent.grad = parent.grad + g
        node.grad = None
        node.vjp = _CONSUMED
        node.parents = ()


# ---------------------------------------------------------------------------
# Elementwise and linear-algebra operations. Each vjp closes over the arrays
# and shapes it reads, and computes only the gradients its parents require.
# ---------------------------------------------------------------------------


def add(a: Var, b: Var) -> Var:
    return Var(a.value + b.value, (a, b), lambda g: (g, g))


def sub(a: Var, b: Var) -> Var:
    need_a, need_b = a.requires_grad, b.requires_grad
    return Var(a.value - b.value, (a, b),
               lambda g: (g if need_a else None, -g if need_b else None))


def mul(a: Var, b: Var) -> Var:
    av = a.value if b.requires_grad else None  # only db reads a
    bv = b.value if a.requires_grad else None
    return Var(a.value * b.value, (a, b),
               lambda g: (None if bv is None else g * bv,
                          None if av is None else g * av))


def relu(x: Var) -> Var:
    # np.maximum propagates NaN, so a non-finite input stays visible downstream
    out = np.maximum(x.value, 0.0)
    if not _records((x,)):
        return Var(out, (x,))
    shape, size = x.value.shape, x.value.size
    bits = np.packbits(x.value > 0)  # the mask at one bit per element

    def vjp(g):
        mask = np.unpackbits(bits, count=size).reshape(shape).view(np.bool_)
        return (g * mask,)

    return Var(out, (x,), vjp)


def _stable_sigmoid(v: np.ndarray) -> np.ndarray:
    """1/(1+e^-v) for v >= 0 and e^v/(1+e^v) below, without overflow."""
    e = np.exp(-np.abs(v))
    # max(e, 1) = 1 where v >= 0 and max(e, 0) = e below, without a branch
    num = np.maximum(e, v >= 0)
    e += 1.0
    num /= e
    return num


def sigmoid(x: Var) -> Var:
    out = _stable_sigmoid(x.value)
    return Var(out, (x,), lambda g: (g * out * (1.0 - out),))


def tanh(x: Var) -> Var:
    out = np.tanh(x.value)
    return Var(out, (x,), lambda g: (g * (1.0 - out * out),))


def concat_cols(parts: list[Var]) -> Var:
    rows = {p.value.shape[0] for p in parts}
    if len(rows) != 1:
        raise DimensionError(f"concat needs equal row counts, got {sorted(rows)}")
    out = np.concatenate([p.value for p in parts], axis=1)
    widths = [p.value.shape[1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def vjp(g):
        return tuple(np.hsplit(g, splits))

    return Var(out, tuple(parts), vjp)


def _scatter_sum(index: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """Row i of the (n_rows, d) result sums the rows of the (len(index), d)
    `values` whose index is i.

    Bitwise equal to `np.add.at(zeros, index, values)` in float64:
    `np.bincount` adds the weights in input order starting from 0.0, as
    `np.add.at` does, but without its per-element dispatch. Two trade-offs:
    float32 input, which is what a default run passes, is summed in float64
    and rounded once, so it equals `np.add.at` on a float64 copy cast to
    float32, not float32 `np.add.at`; and the flat index is a transient of
    len(index) * d int64 values.
    When no index repeats, as when `gnn_layer` places one row per receiving
    node, each row is copied into place instead; adding 0.0 keeps the bits
    of a sum from 0.0 (-0.0 becomes 0.0).
    `index` must lie in [0, n_rows).
    """
    d = values.shape[1]
    index = np.asarray(index, dtype=np.int64)
    if np.bincount(index, minlength=n_rows).max(initial=0) <= 1:
        out = np.zeros((n_rows, d), dtype=values.dtype)
        out[index] = values
        out += 0.0
        return out
    flat = (index[:, None] * d + np.arange(d)).ravel()
    out = np.bincount(flat, weights=values.ravel(), minlength=n_rows * d)
    return out.reshape(n_rows, d).astype(values.dtype, copy=False)


def gather_rows(x: Var, index: np.ndarray) -> Var:
    index = np.asarray(index)
    n_rows = x.value.shape[0]
    if index.size and (index.min() < 0 or index.max() >= n_rows):
        raise BoundsError(f"row index out of range [0, {n_rows})")
    return Var(x.value[index], (x,), lambda g: (_scatter_sum(index, g, n_rows),))


# ---------------------------------------------------------------------------
# Named model primitives
# ---------------------------------------------------------------------------


def affine(x: Var, w: Var, b: Var) -> Var:
    """x @ w.T + b, with w shaped (out_dim, in_dim) and b shaped (out_dim,).

    The transpose convention matches the usual linear-layer layout: each
    output column is a row of w applied to the input.
    """
    if x.value.shape[1] != w.value.shape[1]:
        raise DimensionError(
            f"affine input width {x.value.shape} does not match weight {w.value.shape}"
        )
    out = x.value @ w.value.T
    out += b.value  # in place: one (n, out_dim) allocation
    xv = x.value if w.requires_grad else None  # only dw reads x
    wv = w.value if x.requires_grad else None
    need_b = b.requires_grad

    def vjp(g):
        return (None if wv is None else g @ wv, None if xv is None else g.T @ xv,
                g.sum(axis=0) if need_b else None)

    return Var(out, (x, w, b), vjp)


def gru_cell(h_prev: Var, x: Var, params: dict[str, Var]) -> Var:
    """Standard GRU gates merging a previous state with a fresh input.

        z = sigmoid(Wz [x, h] + bz)
        r = sigmoid(Wr [x, h] + br)
        n = tanh(Wn [x, r*h] + bn)
        h' = (1 - z) * n + z * h

    `params` holds wz/bz/wr/br/wn/bn with each weight shaped (d, dx + dh).
    """
    xh = concat_cols([x, h_prev])
    z = sigmoid(affine(xh, params["wz"], params["bz"]))
    r = sigmoid(affine(xh, params["wr"], params["br"]))
    n = tanh(affine(concat_cols([x, mul(r, h_prev)]), params["wn"], params["bn"]))
    one = constant(np.ones((), dtype=z.value.dtype))
    return add(mul(sub(one, z), n), mul(z, h_prev))


def batch_norm(x: Var, gamma: Var, beta: Var, running_mean: np.ndarray,
               running_var: np.ndarray, mode: str, momentum: float = 0.1,
               eps: float = 1e-5) -> Var:
    """Normalize columns of x by batch statistics (train) or running stats (eval).

    The modes differ only in where mu and var come from, and so in dx:
    train mode takes them from the batch and updates the `running_mean` and
    `running_var` arrays in place (unbiased variance, torch-style momentum
    blend); a model passes the values of its non-trainable running-statistic
    Params. Batches with fewer than 2 rows degrade to eval behavior so tiny
    snapshots never divide by a zero-count variance.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown batch_norm mode {mode!r}")
    n = x.value.shape[0]
    gv = gamma.value
    batch = mode == "train" and n >= 2
    if batch:
        mu = x.value.mean(axis=0)
        var = x.value.var(axis=0)
        m = momentum
        running_mean[:] = (1.0 - m) * running_mean + m * mu
        running_var[:] = (1.0 - m) * running_var + m * var * n / (n - 1)
    else:
        mu, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = x.value - mu
    xhat *= inv_std
    out = xhat * gv
    out += beta.value

    def vjp(g):
        dxhat = g * gv
        if batch:
            dx = (inv_std / n) * (
                n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
            )
        else:
            dx = dxhat * inv_std
        return (dx, (g * xhat).sum(axis=0), g.sum(axis=0))

    return Var(out, (x, gamma, beta), vjp)


def aggregate(messages: Var, dst_index: np.ndarray, n_nodes: int, mode: str) -> Var:
    """Reduce per-edge messages onto destination nodes.

    Row v of the output is the `mode`-reduction over messages whose
    dst_index is v; nodes with no incoming message get a zero row in every
    mode. Max ties route their gradient to the first maximal message so the
    backward pass is deterministic.
    """
    if mode not in AGGREGATION_MODES:
        raise ValueError(f"unknown aggregation mode {mode!r}")
    dst_index = np.asarray(dst_index)
    n_msgs, dim = messages.value.shape
    if dst_index.shape[0] != n_msgs:
        raise DimensionError(
            f"dst_index length {dst_index.shape[0]} != message rows {n_msgs}"
        )
    if n_msgs and (dst_index.min() < 0 or dst_index.max() >= n_nodes):
        raise BoundsError(f"dst index out of range [0, {n_nodes})")

    if mode in ("sum", "mean"):
        out = _scatter_sum(dst_index, messages.value, n_nodes)
        if mode == "mean":
            counts = np.bincount(dst_index, minlength=n_nodes).astype(messages.value.dtype)
            denom = np.maximum(counts, 1.0)[:, None]
            out = out / denom

            def vjp(g):
                return ((g / denom)[dst_index],)

        else:

            def vjp(g):
                return (g[dst_index],)

        return Var(out, (messages,), vjp)

    # max: -inf init so every real message wins, then zero out empty rows
    dtype = messages.value.dtype
    out = np.full((n_nodes, dim), -np.inf, dtype=dtype)
    np.maximum.at(out, dst_index, messages.value)
    empty = np.bincount(dst_index, minlength=n_nodes) == 0
    out[empty] = 0.0
    if not _records((messages,)):
        return Var(out, (messages,))

    # first maximal message per (node, column): smallest edge id among ties
    first = np.full((n_nodes, dim), n_msgs, dtype=np.int64)
    ties = messages.value == out[dst_index]
    edge_ids = np.where(ties, np.arange(n_msgs, dtype=np.int64)[:, None], n_msgs)
    np.minimum.at(first, dst_index, edge_ids)

    def vjp(g):
        gm = np.zeros((n_msgs, dim), dtype=dtype)
        rows, cols = np.nonzero(first < n_msgs)
        gm[first[rows, cols], cols] += g[rows, cols]
        return (gm,)

    return Var(out, (messages,), vjp)


def bce_with_logits(scores: Var, labels: np.ndarray) -> Var:
    """Mean binary cross-entropy on raw logits, in the stable log1p(exp) form."""
    y = np.asarray(labels, dtype=scores.value.dtype)
    if y.shape != scores.value.shape:
        raise DimensionError(f"labels shape {y.shape} != scores shape {scores.value.shape}")
    if y.size == 0:
        raise NumericError("bce loss is undefined on empty input")
    s = scores.value
    per = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    out = np.asarray(per.mean())

    def vjp(g):
        return (float(g) * (_stable_sigmoid(s) - y) / y.size,)

    return Var(out, (scores,), vjp)


# ---------------------------------------------------------------------------
# Parameter collections
# ---------------------------------------------------------------------------


class ParamSet:
    """An ordered, name-keyed collection of Params, trainable or not."""

    def __init__(self):
        self._params: dict[str, Param] = {}

    def new(self, name: str, value: np.ndarray, trainable: bool = True) -> Param:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Param(name, value, trainable)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __iter__(self):
        return iter(self._params.values())

    def names(self) -> list[str]:
        return list(self._params)

    def group(self, prefix: str) -> dict[str, Var]:
        """Sub-view keyed by the suffix after `prefix.`, e.g. group('upd.0')."""
        plen = len(prefix) + 1
        return {
            name[plen:]: p for name, p in self._params.items()
            if name.startswith(prefix + ".")
        }

    def zero_grad(self) -> None:
        for p in self:
            p.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if set(state) != set(self._params):
            missing = set(self._params) - set(state)
            extra = set(state) - set(self._params)
            raise ValueError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, value in state.items():
            p = self._params[name]
            if p.value.shape != value.shape:
                raise DimensionError(
                    f"param {name}: shape {value.shape} != expected {p.value.shape}"
                )
            p.value = value.copy()

    def clone(self) -> "ParamSet":
        out = ParamSet()
        for name, p in self._params.items():
            out.new(name, p.value.copy(), p.requires_grad)
        return out
