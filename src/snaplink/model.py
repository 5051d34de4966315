"""The dynamic link-prediction network.

A stack of per-node pre-processing layers, message-passing layers whose
outputs are merged with the previous snapshot's per-layer states by an
update module (moving average, 2-layer MLP, or GRU), per-node
post-processing layers, and an MLP head scoring (source, destination)
pairs. All per-layer states are carried across time, not just the top one.

A forward pass consumes exactly one snapshot plus the previous state, so
nothing later than the current snapshot can influence a prediction.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, asdict

import numpy as np

from . import diffcore as dc
from .errors import BoundsError, ConfigError, DimensionError
from .snapshots import (EDGE_FEATURE_DIM, NODE_FEATURE_DIM, GraphSnapshot, npz_path,
                        replacing)

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
    # float64 so that `grad_check` and code building a ModelConfig directly
    # keep 64-bit math; runs get float32 from ExperimentConfig.dtype
    dtype: str = "float64"

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
    """Per-layer node embedding matrices carried across snapshots."""

    layers: list[np.ndarray]
    step: int = -1

    @classmethod
    def zeros(cls, n_nodes: int, cfg: ModelConfig) -> "HierarchicalNodeState":
        return cls(
            [np.zeros((n_nodes, cfg.hidden_dim), dtype=cfg.np_dtype)
             for _ in range(cfg.n_mp)],
            step=-1,
        )

    def clone(self) -> "HierarchicalNodeState":
        return HierarchicalNodeState([m.copy() for m in self.layers], self.step)

    def n_elements(self) -> int:
        return sum(m.size for m in self.layers)


@dataclass
class MovingAverageCounter:
    """Accumulated edge counts feeding the moving-average keep ratio.

    `history` is the total edge count over all snapshots already folded into
    the state: a scalar by default, or per-node incident counts when the
    per-node variant is selected. `degenerate` records that a keep ratio was
    requested while both counts were zero (leading run of empty snapshots).
    """

    history: np.ndarray            # shape () or (n_nodes,)
    per_node: bool = False
    degenerate: bool = False

    @classmethod
    def fresh(cls, n_nodes: int, per_node: bool = False) -> "MovingAverageCounter":
        shape = (n_nodes,) if per_node else ()
        return cls(np.zeros(shape, dtype=np.float64), per_node)

    def _new_counts(self, snapshot: GraphSnapshot):
        if not self.per_node:
            return float(snapshot.n_edges)
        incident = np.bincount(
            np.concatenate([snapshot.edge_src, snapshot.edge_dst]),
            minlength=self.history.shape[0],
        )
        return incident.astype(np.float64)

    def keep_ratio_for(self, snapshot: GraphSnapshot):
        """Keep ratio for folding this snapshot into the state.

        Returns a scalar (global counts) or an (n_nodes, 1) column
        (per-node variant)."""
        new = self._new_counts(snapshot)
        if not self.per_node:
            if self.history == 0.0 and new == 0.0:
                self.degenerate = True
                return 0.0
            return keep_ratio(float(self.history), new)
        total = self.history + new
        if np.any(total == 0.0):
            self.degenerate = True
        kappa = np.divide(self.history, np.maximum(total, 1.0),
                          where=total > 0, out=np.zeros_like(total))
        return kappa[:, None]

    def advance(self, snapshot: GraphSnapshot) -> None:
        """Fold the snapshot's counts into history. Call once per step."""
        self.history = self.history + self._new_counts(snapshot)

    def clone(self) -> "MovingAverageCounter":
        return MovingAverageCounter(np.array(self.history, copy=True),
                                    self.per_node, self.degenerate)

    def n_elements(self) -> int:
        return int(np.size(self.history))


def keep_ratio(history_count: float, new_count: float) -> float:
    """history / (history + new), the fraction of state kept this step."""
    if history_count < 0 or new_count < 0:
        raise ValueError(f"counts must be non-negative, got "
                         f"({history_count}, {new_count})")
    total = history_count + new_count
    if total == 0:
        return 0.0  # degenerate: caller flags it
    return history_count / total


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass
class ModelParams:
    """Trainable parameters plus batch-norm running statistics."""

    config: ModelConfig
    params: dc.ParamSet
    bn_stats: dict[str, dc.BatchNormStats] = field(default_factory=dict)

    def clone(self) -> "ModelParams":
        return ModelParams(
            self.config,
            self.params.clone(),
            {k: v.clone() for k, v in self.bn_stats.items()},
        )

    def n_elements(self) -> int:
        return self.params.n_elements() + sum(s.n_elements for s in self.bn_stats.values())

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = dict(self.params.state_dict())
        for key, s in self.bn_stats.items():
            out[f"bnstat:{key}:mean"] = s.running_mean.copy()
            out[f"bnstat:{key}:var"] = s.running_var.copy()
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        params = {k: v for k, v in arrays.items() if not k.startswith("bnstat:")}
        self.params.load_state_dict(params)
        for key, s in self.bn_stats.items():
            s.running_mean = arrays[f"bnstat:{key}:mean"].copy()
            s.running_var = arrays[f"bnstat:{key}:var"].copy()

    def reset_bn_stats(self) -> None:
        for s in self.bn_stats.values():
            s.reset()


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
    bn: dict[str, dc.BatchNormStats] = {}

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
            bn[f"mp.{l}"] = dc.BatchNormStats.zeros(d, dtype=dt)
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

    ps.new("head.w1", _xavier(rng, (d, 2 * d), dt))
    ps.new("head.b1", np.zeros(d, dtype=dt))
    ps.new("head.w2", _xavier(rng, (1, d), dt))
    ps.new("head.b2", np.zeros(1, dtype=dt))

    return ModelParams(cfg, ps, bn)


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


def gnn_layer(h: dc.Var, snapshot: GraphSnapshot, model: ModelParams,
              layer: int, mode: str) -> dc.Var:
    """One message-passing layer.

    Per-edge messages are an affine map of concat(source embedding,
    destination embedding, edge features) aggregated at the destination;
    bidirectional mode also sends each edge backwards through the same
    weights. Order after aggregation: skip term, batch norm, ReLU.
    """
    cfg = model.config
    n = snapshot.n_nodes
    d = cfg.hidden_dim
    if h.value.shape != (n, d):
        raise DimensionError(f"layer input {h.value.shape} != expected {(n, d)}")

    src, dst = snapshot.edge_src, snapshot.edge_dst
    feats = snapshot.edge_features.astype(cfg.np_dtype, copy=False)
    if cfg.bidirectional and snapshot.n_edges:
        msrc = np.concatenate([src, dst])
        mdst = np.concatenate([dst, src])
        feats = np.concatenate([feats, feats])
    else:
        msrc, mdst = src, dst

    if len(msrc):
        hu = dc.gather_rows(h, msrc)
        hv = dc.gather_rows(h, mdst)
        msgs = dc.affine(dc.concat_cols([hu, hv, dc.constant(feats)]),
                         model.params[f"mp.{layer}.w"], model.params[f"mp.{layer}.b"])
        agg = dc.aggregate(msgs, mdst, n, cfg.aggregation)
    else:
        agg = dc.constant(np.zeros((n, d), dtype=cfg.np_dtype))

    out = dc.add(agg, h) if cfg.skip_connection else agg
    if cfg.batch_norm:
        out = dc.batch_norm(out, model.params[f"mp.{layer}.gamma"],
                            model.params[f"mp.{layer}.beta"],
                            model.bn_stats[f"mp.{layer}"], mode)
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
        return dc.mlp2(dc.concat_cols([h_prev, h_tilde]),
                       params["w1"], params["b1"], params["w2"], params["b2"])
    if kind == "gru":
        return dc.gru_cell(h_prev, h_tilde, params)
    raise ConfigError("update", f"unknown update kind {kind!r}")


# ---------------------------------------------------------------------------
# Prediction head
# ---------------------------------------------------------------------------


class PairScorer:
    """Scores (src, dst) pairs against fixed node representations.

    The first head layer is split into source and destination slabs so the
    per-node projections are computed once; scoring a pair is then a fused
    add + ReLU + dot. Raw (pre-sigmoid) scores.
    """

    def __init__(self, top_repr: np.ndarray, model: ModelParams):
        d = model.config.hidden_dim
        if top_repr.shape[1] != d:
            raise DimensionError(
                f"representation width {top_repr.shape} != hidden dim {d}")
        w1 = model.params["head.w1"].value
        self.a = top_repr @ w1[:, :d].T
        self.b = top_repr @ w1[:, d:].T
        self.b1 = model.params["head.b1"].value
        self.w2 = model.params["head.w2"].value.ravel()
        self.b2 = float(model.params["head.b2"].value[0])
        self.n_nodes = top_repr.shape[0]

    def scores(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        srcs = np.asarray(srcs)
        dsts = np.asarray(dsts)
        for idx in (srcs, dsts):
            if idx.size and (idx.min() < 0 or idx.max() >= self.n_nodes):
                raise BoundsError(f"pair id out of range [0, {self.n_nodes})")
        hidden = np.maximum(self.a[srcs] + self.b[dsts] + self.b1, 0.0)
        return hidden @ self.w2 + self.b2

    def scores_against(self, src: int, dsts: np.ndarray) -> np.ndarray:
        """All candidate dsts for one source; bitwise equal to `scores`.

        Builds a single (len(dsts), d) temporary: `np.take` always copies, so
        the in-place adds never write into `self.b`, and each element sees the
        same additions in the same order as `scores` (b + a == a + b exactly).
        """
        dsts = np.asarray(dsts)
        if not 0 <= src < self.n_nodes or (
                dsts.size and (dsts.min() < 0 or dsts.max() >= self.n_nodes)):
            raise BoundsError(f"pair id out of range [0, {self.n_nodes})")
        hidden = np.take(self.b, dsts, axis=0)
        hidden += self.a[src]
        hidden += self.b1
        np.maximum(hidden, 0.0, out=hidden)
        return hidden @ self.w2 + self.b2


def predict_scores(top_repr: np.ndarray, pairs: np.ndarray,
                   model: ModelParams) -> np.ndarray:
    """One raw score per (src, dst) pair; deterministic in its inputs."""
    pairs = np.asarray(pairs)
    scorer = PairScorer(top_repr, model)
    if pairs.size == 0:
        return np.zeros(0, dtype=top_repr.dtype)
    return scorer.scores(pairs[:, 0], pairs[:, 1])


def _scores_var(top: dc.Var, pairs: np.ndarray, model: ModelParams) -> dc.Var:
    """Differentiable pair scoring for the training path."""
    n = top.value.shape[0]
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise BoundsError(f"pair id out of range [0, {n})")
    hu = dc.gather_rows(top, pairs[:, 0])
    hv = dc.gather_rows(top, pairs[:, 1])
    out = dc.mlp2(dc.concat_cols([hu, hv]),
                  model.params["head.w1"], model.params["head.b1"],
                  model.params["head.w2"], model.params["head.b2"])
    return out


# ---------------------------------------------------------------------------
# Full forward pass
# ---------------------------------------------------------------------------


@dataclass
class ForwardResult:
    state: HierarchicalNodeState
    top_repr: np.ndarray
    scores: dc.Var | None = None


def forward(snapshot: GraphSnapshot, h_prev: HierarchicalNodeState,
            model: ModelParams, counter: MovingAverageCounter,
            pairs: np.ndarray | None = None, mode: str = "eval") -> ForwardResult:
    """Run the network on one snapshot.

    The previous state enters as data (no gradients flow into past steps).
    Returns the updated per-layer states, the post-processed top
    representation, and, when pairs are given, their differentiable scores.
    An eval-mode forward without pairs runs under `dc.no_tape()`: it records
    no graph and computes bitwise the same state and representation.
    """
    cfg = model.config
    if len(h_prev.layers) != cfg.n_mp:
        raise DimensionError(
            f"state has {len(h_prev.layers)} layers, model expects {cfg.n_mp}")

    # an eval forward without pairs is never differentiated: record no graph
    with dc.no_tape() if mode == "eval" and pairs is None else nullcontext():
        h = dc.constant(snapshot.node_features.astype(cfg.np_dtype, copy=False))
        for i in range(cfg.n_pre):
            h = dc.relu(dc.affine(h, model.params[f"pre.{i}.w"], model.params[f"pre.{i}.b"]))

        kappa = counter.keep_ratio_for(snapshot) if cfg.update == "moving_average" else None
        new_layers: list[dc.Var] = []
        for l in range(cfg.n_mp):
            tilde = gnn_layer(h, snapshot, model, l, mode)
            prev = dc.constant(h_prev.layers[l].astype(cfg.np_dtype, copy=False))
            h = update_state(prev, tilde, cfg.update, kappa,
                             model.params.group(f"upd.{l}") if cfg.update != "moving_average"
                             else None)
            new_layers.append(h)

        for j in range(cfg.n_post):
            h = dc.relu(dc.affine(h, model.params[f"post.{j}.w"], model.params[f"post.{j}.b"]))

        state = HierarchicalNodeState([v.value for v in new_layers], h_prev.step + 1)
        scores = None
        if pairs is not None:
            pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
            scores = _scores_var(h, pairs, model)
        return ForwardResult(state=state, top_repr=h.value, scores=scores)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(path, model: ModelParams,
                    state: HierarchicalNodeState | None = None,
                    counter: MovingAverageCounter | None = None) -> None:
    """Model checkpoint: parameters + config + node state + counters.

    Written through `snapshots.replacing`, so a crash mid-write keeps the
    previous checkpoint. As with `np.savez`, ".npz" is appended to a path
    without it."""
    arrays = model.state_arrays()
    meta = {"config": asdict(model.config)}
    if state is not None:
        meta["state_step"] = state.step
        for i, layer in enumerate(state.layers):
            arrays[f"hstate:{i}"] = layer
    if counter is not None:
        meta["counter_per_node"] = counter.per_node
        meta["counter_degenerate"] = counter.degenerate
        arrays["counter:history"] = np.atleast_1d(np.asarray(counter.history))
    with replacing(npz_path(path)) as tmp, open(tmp, "wb") as fh:
        dc.save_params(fh, arrays, meta)


def load_checkpoint(path):
    """Returns (model, state_or_None, counter_or_None)."""
    arrays, meta = dc.load_params(path)
    cfg = ModelConfig(**meta["config"])
    model = init_model(cfg, np.random.default_rng(0))
    model_arrays = {k: v for k, v in arrays.items()
                    if not k.startswith(("hstate:", "counter:"))}
    model.load_state_arrays(model_arrays)

    state = None
    if "state_step" in meta:
        layers = [arrays[f"hstate:{i}"] for i in range(cfg.n_mp)]
        state = HierarchicalNodeState(layers, meta["state_step"])

    counter = None
    if "counter:history" in arrays:
        history = arrays["counter:history"]
        if not meta["counter_per_node"]:
            history = np.asarray(float(history[0]))
        counter = MovingAverageCounter(history, meta["counter_per_node"],
                                       meta["counter_degenerate"])
    return model, state, counter
