"""Incremental per-snapshot training.

Each step fine-tunes the network on the current snapshot's future-edge
labels with Adam and early stopping on validation MRR, treating the
previous state as constant data (truncated backpropagation: only the
current snapshot and prior state are live). A meta model is blended from
the trained models and warm-starts the next step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .errors import ConfigError, TrainingDiverged
from .model import HierarchicalNodeState, ModelParams, forward
from .snapshots import GraphSnapshot, LabelSet, sample_training_negatives


@dataclass
class TrainConfig:
    """Per-step fine-tuning knobs."""

    learning_rate: float = 0.003
    max_epochs: int = 100
    patience: int = 3
    train_neg_per_pos: int = 1

    def validate(self) -> None:
        if self.learning_rate < 0:
            raise ConfigError("learning_rate", f"must be >= 0, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs", f"must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError("patience", f"must be >= 1, got {self.patience}")
        if self.train_neg_per_pos < 1:
            raise ConfigError("train_neg_per_pos",
                              f"must be >= 1, got {self.train_neg_per_pos}")


class Adam:
    """Adam over the trainable entries of a ParamSet. Moment state is fresh
    per fine-tune call."""

    def __init__(self, params: dc.ParamSet, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value) for p in params if p.requires_grad}
        self.v = {p.name: np.zeros_like(p.value) for p in params if p.requires_grad}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[p.name]
            v = self.v[p.name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.value = p.value - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


@dataclass
class FineTuneResult:
    model: ModelParams
    state: HierarchicalNodeState
    best_val_mrr: float
    epochs_run: int
    final_train_loss: float


def fine_tune(model: ModelParams, snapshot: GraphSnapshot,
              h_prev: HierarchicalNodeState, labels: LabelSet, cfg: TrainConfig,
              rng: np.random.Generator) -> FineTuneResult:
    """Train on one step's labels until validation MRR stops improving.

    Per epoch: resample one uniform negative per train positive, take a BCE
    step on the (positives + negatives) scores from a train-mode forward,
    then measure validation MRR with an eval-mode forward, which records no
    graph. The backward consumes the train graph and its last references
    are dropped after the step, so it is gone before the validation forward
    runs. Raises TrainingDiverged when the loss or any gradient is
    non-finite, before the step writes it into the parameters. Stops after
    `patience` consecutive epochs without a new best or at max_epochs and
    keeps the best-validation parameters and running statistics (one
    `state_dict` of the model's ParamSet). The returned state is the one the
    best epoch's eval forward computed with exactly those parameters (an
    eval forward mutates nothing); only when no validation forward ran
    (validation labels skipped, or no training positives) is it computed
    once more, so the returned state always matches the returned model.
    """
    from . import evaluate  # function-level: evaluate imports this module

    if labels.skip:
        raise ValueError(f"step {labels.step} has no labels to train on")
    cfg.validate()

    n_nodes = snapshot.n_nodes
    opt = Adam(model.params, cfg.learning_rate)
    val_labels = labels.val_view()

    best_val = -np.inf
    best_arrays = model.params.state_dict()
    best_state = None
    epochs_run = 0
    stale = 0
    final_train_loss = float("nan")

    if labels.train_pos.shape[0] > 0:
        n_pos = labels.train_pos.shape[0]
        for epoch in range(1, cfg.max_epochs + 1):
            negatives = sample_training_negatives(labels, n_nodes, rng,
                                                  cfg.train_neg_per_pos)
            pairs = np.vstack([labels.train_pos, negatives])
            y = np.zeros((n_pos + len(negatives), 1), dtype=np.float64)
            y[:n_pos] = 1.0
            model.params.zero_grad()
            # only the scores: the backward reads neither the state nor the
            # top representation, so they are freed before it runs
            scores = forward(snapshot, h_prev, model, pairs=pairs, mode="train").scores
            loss = dc.bce_with_logits(scores, y)
            if not np.isfinite(loss.value):
                raise TrainingDiverged(epoch, cfg.learning_rate)
            dc.backward(loss)
            if not all(np.isfinite(p.grad).all() for p in model.params
                       if p.grad is not None):
                raise TrainingDiverged(epoch, cfg.learning_rate)
            opt.step()
            final_train_loss = float(loss.value)
            del scores, loss  # the train graph is gone before the validation forward
            epochs_run = epoch

            if val_labels.skip:
                val = 0.0
            else:
                vres = forward(snapshot, h_prev, model, mode="eval")
                val = evaluate.mrr(vres.top_repr, val_labels, model)
            if val > best_val:
                best_val = val
                best_arrays = model.params.state_dict()
                best_state = None if val_labels.skip else vres.state
                stale = 0
            else:
                stale += 1
            if stale >= cfg.patience:
                break

    model.params.load_state_dict(best_arrays)
    if best_state is None:
        best_state = forward(snapshot, h_prev, model, mode="eval").state
    if best_val == -np.inf:
        best_val = float("nan")
    return FineTuneResult(model, best_state, float(best_val), epochs_run,
                          final_train_loss)


# ---------------------------------------------------------------------------
# Meta model
# ---------------------------------------------------------------------------


def meta_update(meta: ModelParams, trained: ModelParams, alpha: float) -> ModelParams:
    """Blend the trained model into the meta model:
    theta_meta <- (1 - alpha) * theta_meta + alpha * theta_trained,
    for every entry of the ParamSet, so the batch-norm running statistics
    blend like the weights (they are part of the warm start).

    Returns the new meta model: `meta` itself when alpha=0 (untouched) or
    0 < alpha < 1 (blended in place), and an exact copy of `trained` when
    alpha=1.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError("alpha", f"must be in [0, 1], got {alpha}")
    if alpha == 0.0:
        return meta
    if alpha == 1.0:
        return trained.clone()
    mp, tp = meta.params, trained.params
    if mp.names() != tp.names():
        raise ConfigError("meta", "parameter sets do not match")
    for p in mp:
        other = tp[p.name].value
        if p.value.shape != other.shape:
            raise ConfigError(
                "meta", f"shape mismatch for {p.name}: {p.value.shape} vs {other.shape}")
        p.value = (1.0 - alpha) * p.value + alpha * other
    return meta
