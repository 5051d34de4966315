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
from .model import HierarchicalNodeState, ModelParams, forward, mrr
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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam over the trainable entries of a ParamSet, with the usual decay
    rates and epsilon (`ADAM_BETA1`, `ADAM_BETA2`, `ADAM_EPS`). Moment state
    is fresh per fine-tune call."""

    def __init__(self, params: dc.ParamSet, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value) for p in params if p.requires_grad}
        self.v = {p.name: np.zeros_like(p.value) for p in params if p.requires_grad}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[p.name]
            v = self.v[p.name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.value = p.value - self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


@dataclass
class FineTuneResult:
    model: ModelParams
    state: HierarchicalNodeState
    best_val_mrr: float | None  # None: no validation labels to select on
    epochs_run: int
    final_train_loss: float


def fine_tune(model: ModelParams, snapshot: GraphSnapshot,
              h_prev: HierarchicalNodeState, labels: LabelSet, cfg: TrainConfig,
              rng: np.random.Generator) -> FineTuneResult:
    """Train on one step's labels until validation MRR stops improving.

    Per epoch: resample one uniform negative per train positive, take a BCE
    step on the (positives + negatives) scores from a train-mode forward,
    then run an eval-mode forward, which records no graph. The backward
    consumes the train graph and its last references are dropped after the
    step, so it is gone before the eval forward runs. Raises TrainingDiverged
    when the loss or any gradient is non-finite, before the step writes it
    into the parameters, and ValueError when `labels` has no training
    positives: whether a step trains is the caller's decision.

    With validation labels, each epoch's eval forward is scored by MRR. The
    loop stops after `patience` consecutive epochs without a new best or at
    max_epochs and keeps the best epoch's parameters and running statistics
    (one `state_dict` of the model's ParamSet) and the state its eval
    forward computed with exactly those parameters (an eval forward mutates
    nothing). Only that state outlives its epoch: each epoch's top
    representation goes once its validation MRR is read, and so does the
    state of an epoch that is not a new best. Without validation labels
    there is nothing to select on: the first epoch is kept, its eval forward
    gives the state, and `best_val_mrr` is None. Either way the returned
    state matches the returned model.

    Of `labels`' negative lists only the validation sources' are read, so a
    caller may pass `labels.fine_tune_view()`.
    """
    n_pos = labels.train_pos.shape[0]
    if n_pos == 0:
        raise ValueError(f"step {labels.step} has no training positives")
    cfg.validate()

    opt = Adam(model.params, cfg.learning_rate)
    val_labels = labels.val_view()
    for epoch in range(1, cfg.max_epochs + 1):
        negatives = sample_training_negatives(labels, snapshot.n_nodes, rng,
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
        del scores, loss  # the train graph is gone before the eval forward

        vres = forward(snapshot, h_prev, model, mode="eval")
        val = None if val_labels.skip else mrr(vres.top_repr, val_labels, model)
        if epoch == 1 or val > best_val:
            best_val, best_state, stale = val, vres.state, 0
            best_arrays = model.params.state_dict()
        else:
            stale += 1
        del vres  # only the best epoch's state outlives its MRR
        if val is None or stale >= cfg.patience:  # no validation labels: keep epoch 1
            break

    model.params.load_state_dict(best_arrays)
    return FineTuneResult(model, best_state, best_val, epoch, final_train_loss)


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
