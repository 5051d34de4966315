"""The dynamic link-prediction network.

A stack of per-node pre-processing layers, message-passing layers whose
outputs are merged with the previous snapshot's per-layer states by an
update module (moving average, 2-layer MLP, or GRU), per-node
post-processing layers, and an MLP head scoring (source, destination)
pairs. All per-layer states are carried across time, not just the top one.
The carried state, `HierarchicalNodeState`, also holds the history: each
node's incident edge count already folded in. It sets the moving-average
keep ratio and is the source of the network's input: the node features are
`snapshots.degree_features` of the history with the current snapshot's
counts added. A graph stores no node features.

A message is the affine map W·[h_u; h_v; f_e] + b of its source's and
destination's embeddings and its edge features. For the sum and mean
aggregations the message layer aggregates first and transforms once per
receiving node: the mean of affine maps is the affine map of the mean input,
and a sum is that mean times the in-degree. A max of affine maps is not an
affine map of a max, so `max` keeps one message per edge.

The head exists once: `_head_slabs` projects node rows through the source
and destination slabs of its first layer, and both the taped training scores
(`_scores_var`) and the off-tape ranking scores (`PairScorer`) start there.
The ranking metric, `mrr`, scores through `PairScorer` and its tie rule.

A forward pass consumes exactly one snapshot plus the previous state and
returns the next state without mutating its inputs, so nothing later than
the current snapshot can influence a prediction.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .errors import BoundsError, ConfigError, DimensionError, EmptyInputError, NumericError
from .snapshots import (EDGE_FEATURE_DIM, NODE_FEATURE_DIM, GraphSnapshot, LabelSet,
                        degree_features)

UPDATE_KINDS = ("moving_average", "mlp", "gru")


@dataclass
class ModelConfig:
    """Architecture knobs. Layer counts are each in [1, 5]."""

    hidden_dim: int = 128
    n_pre: int = 1
    n_mp: int = 2
    n_post: int = 1
    update: str = "gru"
    aggregation: str = "sum"
    bidirectional: bool = True
    skip_connection: bool = True
    batch_norm: bool = True
    bn_reset_per_snapshot: bool = False
    per_node_keep_ratio: bool = False
    # float32 halves the bytes through every layer at MRR parity with
    # float64; `dtype = float64` opts out and keeps the float64 bits
    dtype: str = "float32"

    def validate(self) -> None:
        for name in ("n_pre", "n_mp", "n_post"):
            v = getattr(self, name)
            if not 1 <= v <= 5:
                raise ConfigError(name, f"must be in [1, 5], got {v}")
        if self.update not in UPDATE_KINDS:
            raise ConfigError("update", f"must be one of {UPDATE_KINDS}, got {self.update!r}")
        if self.aggregation not in dc.AGGREGATION_MODES:
            raise ConfigError("aggregation",
                              f"must be one of {dc.AGGREGATION_MODES}, got {self.aggregation!r}")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim", f"must be >= 1, got {self.hidden_dim}")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError("dtype", f"must be float64 or float32, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


@dataclass
class HierarchicalNodeState:
    """Everything carried from one snapshot to the next.

    `layers` are the per-layer node embedding matrices and `history` each
    node's incident edge count folded in so far, float64 of shape
    (n_nodes,). The moving-average keep ratio reads either each node's count
    or their total, as the model's config says.

    The history is also the source of the next forward's input features, so
    a state must have every earlier snapshot folded in: `RunState.load`
    restores it, and a state reset (for a diagnostic) must keep it.
    """

    layers: list[np.ndarray]
    history: np.ndarray

    @classmethod
    def zeros(cls, n_nodes: int, cfg: ModelConfig) -> "HierarchicalNodeState":
        return cls(
            [np.zeros((n_nodes, cfg.hidden_dim), dtype=cfg.np_dtype)
             for _ in range(cfg.n_mp)],
            history=np.zeros(n_nodes, dtype=np.float64),
        )


def keep_ratio(history, new):
    """history / (history + new), the fraction of state kept this step.

    Zero where both counts are zero (a leading run of empty snapshots).
    Scalar counts give a float; per-node counts an (n_nodes, 1) column.
    """
    history = np.asarray(history, dtype=np.float64)
    new = np.asarray(new, dtype=np.float64)
    if (history < 0).any() or (new < 0).any():
        raise ValueError(f"counts must be non-negative, got ({history}, {new})")
    total = history + new
    kappa = np.divide(history, np.maximum(total, 1.0), where=total > 0,
                      out=np.zeros_like(total))
    return float(kappa) if kappa.ndim == 0 else kappa[:, None]


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass
class ModelParams:
    """A model's config and its one `ParamSet`: the trainable weights and,
    with `batch_norm`, each layer's non-trainable `mp.{l}.running_mean` and
    `mp.{l}.running_var`. Cloning, the meta blend, the checksum and the
    run archive all go through the one store, so the running statistics
    travel with the weights they were collected under."""

    config: ModelConfig
    params: dc.ParamSet

    def clone(self) -> "ModelParams":
        return ModelParams(self.config, self.params.clone())

    def reset_bn_stats(self) -> None:
        """Running mean 0 and variance 1 at every batch-norm site, in place."""
        if self.config.batch_norm:
            for l in range(self.config.n_mp):
                self.params[f"mp.{l}.running_mean"].value[:] = 0.0
                self.params[f"mp.{l}.running_var"].value[:] = 1.0


def _xavier(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    fan_out, fan_in = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_model(cfg: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Freshly initialized parameters for the given architecture."""
    cfg.validate()
    d = cfg.hidden_dim
    dt = cfg.np_dtype
    ps = dc.ParamSet()

    in_dim = NODE_FEATURE_DIM
    for i in range(cfg.n_pre):
        ps.new(f"pre.{i}.w", _xavier(rng, (d, in_dim), dt))
        ps.new(f"pre.{i}.b", np.zeros(d, dtype=dt))
        in_dim = d

    msg_in = 2 * d + EDGE_FEATURE_DIM
    for l in range(cfg.n_mp):
        ps.new(f"mp.{l}.w", _xavier(rng, (d, msg_in), dt))
        ps.new(f"mp.{l}.b", np.zeros(d, dtype=dt))
        if cfg.batch_norm:
            ps.new(f"mp.{l}.gamma", np.ones(d, dtype=dt))
            ps.new(f"mp.{l}.beta", np.zeros(d, dtype=dt))
            ps.new(f"mp.{l}.running_mean", np.zeros(d, dtype=dt), trainable=False)
            ps.new(f"mp.{l}.running_var", np.ones(d, dtype=dt), trainable=False)
        if cfg.update == "gru":
            for gate in ("z", "r", "n"):
                ps.new(f"upd.{l}.w{gate}", _xavier(rng, (d, 2 * d), dt))
                ps.new(f"upd.{l}.b{gate}", np.zeros(d, dtype=dt))
        elif cfg.update == "mlp":
            ps.new(f"upd.{l}.w1", _xavier(rng, (d, 2 * d), dt))
            ps.new(f"upd.{l}.b1", np.zeros(d, dtype=dt))
            ps.new(f"upd.{l}.w2", _xavier(rng, (d, d), dt))
            ps.new(f"upd.{l}.b2", np.zeros(d, dtype=dt))

    for j in range(cfg.n_post):
        ps.new(f"post.{j}.w", _xavier(rng, (d, d), dt))
        ps.new(f"post.{j}.b", np.zeros(d, dtype=dt))

    w_src, w_dst = np.hsplit(_xavier(rng, (d, 2 * d), dt), 2)  # one draw, two slabs
    ps.new("head.w_src", w_src.copy())
    ps.new("head.w_dst", w_dst.copy())
    ps.new("head.b1", np.zeros(d, dtype=dt))
    ps.new("head.w2", _xavier(rng, (1, d), dt))
    ps.new("head.b2", np.zeros(1, dtype=dt))

    return ModelParams(cfg, ps)


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


def gnn_layer(h: dc.Var, snapshot: GraphSnapshot, model: ModelParams,
              layer: int, mode: str) -> dc.Var:
    """One message-passing layer.

    Per-edge messages are an affine map of concat(source embedding,
    destination embedding, edge features) aggregated at the destination;
    bidirectional mode also sends each edge backwards through the same
    weights. Order after aggregation: skip term, batch norm, ReLU. A
    train-mode batch norm updates the layer's running statistics in place.

    Sum and mean are computed aggregate-first. The messages into v share
    h_v, and the mean of W·x_i + b is W·mean(x_i) + b, so v's mean message
    is one affine map of [mean h_u; h_v; mean f_e] and its sum that times
    v's in-degree: one GEMM row per receiving node, not per message. Max
    maps each message and then reduces, since max_i(W·x_i + b) is not an
    affine map of any per-node input. A window with no edges takes the same
    path: zero messages aggregate to +0.0 rows, and W and b get a zero
    gradient.
    """
    cfg = model.config
    n = snapshot.n_nodes
    d = cfg.hidden_dim
    if h.value.shape != (n, d):
        raise DimensionError(f"layer input {h.value.shape} != expected {(n, d)}")

    src, dst = snapshot.edge_src, snapshot.edge_dst
    feats = snapshot.edge_features.astype(cfg.np_dtype, copy=False)
    if cfg.bidirectional:
        msrc = np.concatenate([src, dst])
        mdst = np.concatenate([dst, src])
        feats = np.concatenate([feats, feats])
    else:
        msrc, mdst = src, dst

    mp = model.params.group(f"mp.{layer}")
    # no local binds an affine input or a max message: an eval forward frees each once read
    if cfg.aggregation == "max":
        agg = dc.aggregate(dc.affine(dc.concat_cols([dc.gather_rows(h, msrc),
                                                     dc.gather_rows(h, mdst),
                                                     dc.constant(feats)]), mp["w"], mp["b"]),
                           mdst, n, "max")
    else:
        nodes, inv = np.unique(mdst, return_inverse=True)
        m = len(nodes)
        out = dc.affine(dc.concat_cols([dc.aggregate(dc.gather_rows(h, msrc), inv, m, "mean"),
                                        dc.gather_rows(h, nodes),
                                        dc.aggregate(dc.constant(feats), inv, m, "mean")]),
                        mp["w"], mp["b"])
        if cfg.aggregation == "sum":
            deg = np.bincount(inv, minlength=m).astype(cfg.np_dtype)
            out = dc.mul(out, dc.constant(deg[:, None]))
        agg = dc.aggregate(out, nodes, n, "sum")  # row i to node nodes[i]

    out = dc.add(agg, h) if cfg.skip_connection else agg
    del agg  # the skip sum's vjp reads no value: the aggregate goes here
    if cfg.batch_norm:
        out = dc.batch_norm(out, mp["gamma"], mp["beta"], mp["running_mean"].value,
                            mp["running_var"].value, mode)
    return dc.relu(out)


def update_state(h_prev: dc.Var, h_tilde: dc.Var, kind: str,
                 kappa=None, params: dict[str, dc.Var] | None = None) -> dc.Var:
    """Merge the previous per-layer state with the freshly computed one."""
    if h_prev.value.shape != h_tilde.value.shape:
        raise DimensionError(
            f"state shapes differ: {h_prev.value.shape} vs {h_tilde.value.shape}")
    if kind == "moving_average":
        if kappa is None:
            raise ConfigError("kappa", "moving_average update needs a keep ratio")
        k = dc.constant(np.asarray(kappa, dtype=h_prev.value.dtype))
        one_minus = dc.constant(np.asarray(1.0 - np.asarray(kappa),
                                           dtype=h_prev.value.dtype))
        return dc.add(dc.mul(k, h_prev), dc.mul(one_minus, h_tilde))
    if kind == "mlp":
        hidden = dc.relu(dc.affine(dc.concat_cols([h_prev, h_tilde]),
                                   params["w1"], params["b1"]))
        return dc.affine(hidden, params["w2"], params["b2"])
    if kind == "gru":
        return dc.gru_cell(h_prev, h_tilde, params)
    raise ConfigError("update", f"unknown update kind {kind!r}")


# ---------------------------------------------------------------------------
# Prediction head
# ---------------------------------------------------------------------------


def _head_slabs(rows: dc.Var, model: ModelParams) -> tuple[dc.Var, dc.Var]:
    """The head's first layer split by endpoint: a = rows . w_src^T and
    b = rows . w_dst^T + b1, so a pair (u, v) has the hidden layer
    relu(a[u] + b[v]). Both scoring paths project through here."""
    p = model.params
    zero = dc.constant(np.zeros_like(p["head.b1"].value))
    return (dc.affine(rows, p["head.w_src"], zero),
            dc.affine(rows, p["head.w_dst"], p["head.b1"]))


class PairScorer:
    """Scores (src, dst) pairs against fixed node representations.

    With the slabs a, b of `_head_slabs` over every node, the score
    relu(a[u] + b[v]) . w2 + b2 becomes, by relu(x + y) = max(x, -y) + y,

        max(b[v], -a[u]) . w2 + (a[u] . w2 + b2),

    whose second term is one number per source. It and -a are computed once
    per scorer, so scoring a source's candidates is one gather, one max and
    one row-wise dot. Raw (pre-sigmoid) scores.

    Scoring is row-stable: `einsum` computes each row's dot product on its
    own, so a candidate's score does not depend on the block it is scored in
    or its place there. Equal representation rows therefore get bitwise
    equal scores and tie.
    """

    def __init__(self, top_repr: np.ndarray, model: ModelParams):
        with dc.no_tape():  # a representation of the wrong width raises DimensionError
            a, self.b = (v.value for v in _head_slabs(dc.constant(top_repr), model))
        self.w2 = model.params["head.w2"].value.ravel()
        # in place, so a scorer holds no more than the two slabs
        self.a_dot = a @ self.w2 + model.params["head.b2"].value
        self.neg_a = np.negative(a, out=a)
        self.n_nodes = top_repr.shape[0]

    def scores_against(self, src: int, dsts: np.ndarray) -> np.ndarray:
        """Scores of (src, dst) for every candidate dst of one source.

        Builds a single (len(dsts), d) temporary: `np.take` always copies, so
        the in-place max never writes into `self.b`. Score i depends only on
        (src, dsts[i]), bit for bit.
        """
        dsts = np.asarray(dsts)
        if not 0 <= src < self.n_nodes or (
                dsts.size and (dsts.min() < 0 or dsts.max() >= self.n_nodes)):
            raise BoundsError(f"pair id out of range [0, {self.n_nodes})")
        hidden = np.take(self.b, dsts, axis=0)
        np.maximum(hidden, self.neg_a[src], out=hidden)
        return np.einsum("ij,j->i", hidden, self.w2) + self.a_dot[src]


def mrr(top_repr: np.ndarray, labels: LabelSet, model: ModelParams) -> float:
    """Mean reciprocal rank over all positives of one label set.

    Each positive (u, v) is ranked against u's sampled negative list using
    the prediction head over fixed node representations. Ties count against
    the positive: rank = 1 + #(negatives scoring higher) + #(negatives
    scoring equal), so a constant model earns 1/(k+1) rather than a free
    win. A positive whose source has no negatives ranks first.

    A source's positives and negatives are scored in one `scores_against`
    call, through the head training uses. That scoring is row-stable, so a
    negative whose representation row equals the positive's scores bitwise
    equal and ties: the tie rule holds by construction.
    """
    if labels.skip:
        raise EmptyInputError(f"step {labels.step}: no positives to evaluate")
    scorer = PairScorer(top_repr, model)
    positives = labels.positives
    srcs, starts = np.unique(positives[:, 0], return_index=True)
    bounds = [*starts.tolist(), len(positives)]
    total = 0.0
    for src, lo, hi in zip(srcs.tolist(), bounds, bounds[1:]):
        dsts = positives[lo:hi, 1]
        negs = labels.eval_negatives[src]
        scores = scorer.scores_against(src, np.concatenate([dsts, negs]))
        pos_scores, neg_scores = scores[:len(dsts)], scores[len(dsts):]
        if not np.isfinite(pos_scores).all():
            raise NumericError(f"non-finite positive score at step {labels.step}")
        if negs.size == 0:
            # candidate pool was exhausted by positives; the positive ranks first
            total += float(len(dsts))
            continue
        if not np.isfinite(neg_scores).all():
            raise NumericError(f"non-finite negative score at step {labels.step}")
        # scores are finite here, so >= is exactly "higher or tied"
        ranks = 1 + (neg_scores[None, :] >= pos_scores[:, None]).sum(axis=1)
        for rank in ranks.tolist():
            total += 1.0 / rank
    return total / len(positives)


def _scores_var(top: dc.Var, pairs: np.ndarray, model: ModelParams) -> dc.Var:
    """Differentiable pair scores relu(a[u] + b[v]) . w2 + b2 for the
    training path, from the slabs of `_head_slabs` over the batch's distinct
    nodes, each projected once."""
    nodes, inv = np.unique(np.asarray(pairs, dtype=np.int64), return_inverse=True)
    inv = inv.reshape(-1, 2)
    a, b = _head_slabs(dc.gather_rows(top, nodes), model)
    hidden = dc.relu(dc.add(dc.gather_rows(a, inv[:, 0]), dc.gather_rows(b, inv[:, 1])))
    return dc.affine(hidden, model.params["head.w2"], model.params["head.b2"])


# ---------------------------------------------------------------------------
# Full forward pass
# ---------------------------------------------------------------------------


@dataclass
class ForwardResult:
    state: HierarchicalNodeState
    top_repr: np.ndarray
    scores: dc.Var | None = None


def forward(snapshot: GraphSnapshot, h_prev: HierarchicalNodeState,
            model: ModelParams, pairs: np.ndarray | None = None,
            mode: str = "eval") -> ForwardResult:
    """Run the network on one snapshot.

    The previous state enters as data (no gradients flow into past steps)
    and is not mutated. The input is `degree_features` of the history with
    this snapshot's edge counts added, which is also the returned state's
    history; from a zero state rolled through every earlier snapshot these
    are the cumulative degrees through this one. Returns the updated state
    (per-layer embeddings and that history), the post-processed top
    representation, and, when pairs are given, their differentiable scores.
    An eval-mode forward without pairs runs under `dc.no_tape()`: it records
    no graph and computes bitwise the same state and representation.
    """
    cfg = model.config
    if len(h_prev.layers) != cfg.n_mp:
        raise DimensionError(
            f"state has {len(h_prev.layers)} layers, model expects {cfg.n_mp}")
    counts = np.bincount(np.concatenate([snapshot.edge_src, snapshot.edge_dst]),
                         minlength=snapshot.n_nodes).astype(np.float64)
    history = h_prev.history + counts

    # an eval forward without pairs is never differentiated: record no graph
    with dc.no_tape() if mode == "eval" and pairs is None else nullcontext():
        h = dc.constant(degree_features(history).astype(cfg.np_dtype, copy=False))
        for i in range(cfg.n_pre):
            h = dc.relu(dc.affine(h, model.params[f"pre.{i}.w"], model.params[f"pre.{i}.b"]))

        kappa = None
        if cfg.update == "moving_average":
            kappa = (keep_ratio(h_prev.history, counts) if cfg.per_node_keep_ratio
                     else keep_ratio(h_prev.history.sum(), counts.sum()))
        new_layers: list[dc.Var] = []
        for l in range(cfg.n_mp):
            tilde = gnn_layer(h, snapshot, model, l, mode)
            prev = dc.constant(h_prev.layers[l].astype(cfg.np_dtype, copy=False))
            h = update_state(prev, tilde, cfg.update, kappa, model.params.group(f"upd.{l}"))
            new_layers.append(h)

        for j in range(cfg.n_post):
            h = dc.relu(dc.affine(h, model.params[f"post.{j}.w"], model.params[f"post.{j}.b"]))

        state = HierarchicalNodeState([v.value for v in new_layers], history)
        scores = None if pairs is None else _scores_var(h, pairs, model)
        return ForwardResult(state=state, top_repr=h.value, scores=scores)
