"""Ranking metrics and the two evaluation protocols.

Live-update walks the snapshot sequence once: at each step the current
model (trained only on strictly earlier labels) is scored on the step's
future-edge labels, then fine-tuned on them, then blended into the meta
model. Every step therefore contributes one evaluation record and the
reported figure is the mean over evaluated steps.

Fixed-split trains the same way on all steps before a terminal test block,
then freezes parameters and rolls only the node state forward while scoring
the test steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import EmptyInputError, NumericError
from .model import (HierarchicalNodeState, ModelConfig, ModelParams,
                    MovingAverageCounter, PairScorer, forward, init_model)
from .seeding import derive_rng
from .snapshots import DynamicGraph, LabelSet, build_labels
from .train import MetaParams, TrainConfig, fine_tune, meta_update


# ---------------------------------------------------------------------------
# Ranking metrics
# ---------------------------------------------------------------------------


def mrr(top_repr: np.ndarray, labels: LabelSet, model: ModelParams) -> float:
    """Mean reciprocal rank over all positives of one label set.

    Each positive (u, v) is ranked against u's sampled negative list using
    the prediction head over fixed node representations. Ties count against
    the positive: rank = 1 + #(negatives scoring higher) + #(negatives
    scoring equal), so a constant model earns 1/(k+1) rather than a free
    win. A positive whose source has no negatives ranks first.
    """
    if labels.skip or labels.positives.shape[0] == 0:
        raise EmptyInputError(f"step {labels.step}: no positives to evaluate")
    scorer = PairScorer(top_repr, model)
    positives = labels.positives
    srcs, starts = np.unique(positives[:, 0], return_index=True)
    total = 0.0
    count = 0
    n_pos = positives.shape[0]
    for i, src in enumerate(srcs):
        hi = starts[i + 1] if i + 1 < len(srcs) else n_pos
        dsts = positives[starts[i]:hi, 1]
        negs = labels.eval_negatives[int(src)]
        pos_scores = scorer.scores_against(int(src), dsts)
        if not np.isfinite(pos_scores).all():
            raise NumericError(f"non-finite positive score at step {labels.step}")
        if negs.size == 0:
            # candidate pool was exhausted by positives; the positive ranks first
            total += float(len(dsts))
            count += len(dsts)
            continue
        neg_scores = scorer.scores_against(int(src), negs)
        if not np.isfinite(neg_scores).all():
            raise NumericError(f"non-finite negative score at step {labels.step}")
        # scores are finite here, so >= is exactly "higher or tied"
        ranks = 1 + (neg_scores[None, :] >= pos_scores[:, None]).sum(axis=1)
        for rank in ranks.tolist():
            total += 1.0 / rank
        count += len(ranks)
    return total / count


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

REPORT_SCHEMA_VERSION = 1


@dataclass
class StepRecord:
    t: int
    mrr: float | None
    n_positives: int
    epochs_run: int
    best_val_mrr: float | None
    final_train_loss: float | None
    skipped: bool
    working_set_elements: int
    wall_seconds: float = 0.0

    def summary_fields(self) -> dict:
        """Everything except wall-clock time, for byte-stable summaries."""
        d = asdict(self)
        d.pop("wall_seconds")
        return d


@dataclass
class EvalReport:
    protocol: str
    seed: int
    per_step: list[StepRecord] = field(default_factory=list)
    train_records: list[StepRecord] = field(default_factory=list)  # fixed-split only
    fingerprint: str = ""

    @property
    def evaluated_steps(self) -> list[StepRecord]:
        return [r for r in self.per_step if r.mrr is not None]

    @property
    def mean_mrr(self) -> float:
        rs = self.evaluated_steps
        if not rs:
            return float("nan")
        return float(np.mean([r.mrr for r in rs]))

    @property
    def mean_val_mrr(self) -> float:
        vals = [r.best_val_mrr for r in self.per_step + self.train_records
                if r.best_val_mrr is not None and np.isfinite(r.best_val_mrr)]
        if not vals:
            return float("nan")
        return float(np.mean(vals))

    def summary_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "protocol": self.protocol,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "n_steps": len(self.per_step),
            "n_evaluated": len(self.evaluated_steps),
            "n_skipped": sum(1 for r in self.per_step if r.skipped),
            "mean_mrr": self.mean_mrr,
            "mean_val_mrr": self.mean_val_mrr,
        }


@dataclass
class RunConfig:
    """Everything one protocol run needs besides the data."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    alpha: float = 1.0
    meta_enabled: bool = True
    k_neg: int = 1000
    val_fraction: float = 0.1
    test_fraction: float = 0.1
    seed: int = 0


def working_set_elements(deploy: ModelParams, meta: MetaParams | None,
                         snapshot, state: HierarchicalNodeState,
                         counter: MovingAverageCounter) -> int:
    """Element count of the step's live large objects: the deployed and meta
    parameters, the current snapshot, the carried state, counters, and the
    optimizer moment budget (two moments per trainable element)."""
    total = deploy.n_elements()
    if meta is not None:
        total += meta.model.n_elements()
    total += snapshot.n_elements()
    total += state.n_elements()
    total += counter.n_elements()
    total += 2 * deploy.params.n_elements()
    return total


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


def _roll_state(snapshot, state, model, counter) -> HierarchicalNodeState:
    return forward(snapshot, state, model, counter, mode="eval").state


def live_update_run(g: DynamicGraph, cfg: RunConfig, step_callback=None,
                    artifacts_out: dict | None = None) -> EvalReport:
    """Rolling evaluate-then-train over every step (T-1 records).

    At step t the deployed model has seen labels of steps < t only; it is
    scored on step t's labels from (G_t, H_{t-1}), then fine-tuned on those
    labels starting from the meta model (or the previous trained model when
    meta is disabled), and the meta model is blended afterwards.
    """
    T = len(g)
    if T < 3:
        raise ValueError(f"live-update needs at least 3 snapshots, got {T}")
    cfg.train.validate()
    cfg.model.validate()

    deploy = init_model(cfg.model, derive_rng(cfg.seed, "init"))
    meta = MetaParams(deploy.clone(), cfg.alpha) if cfg.meta_enabled else None
    state = HierarchicalNodeState.zeros(g.node_count, cfg.model)
    counter = MovingAverageCounter.fresh(g.node_count, cfg.model.per_node_keep_ratio)

    report = EvalReport(protocol="live_update", seed=cfg.seed)
    for s in range(T - 1):
        t0 = time.perf_counter()
        snapshot = g[s]
        labels = build_labels(g, s, cfg.val_fraction, cfg.k_neg,
                              derive_rng(cfg.seed, "labels", s))

        mrr_s = None
        if not labels.skip:
            eres = forward(snapshot, state, deploy, counter, mode="eval")
            mrr_s = mrr(eres.top_repr, labels, deploy)

        if labels.skip or labels.train_pos.shape[0] == 0:
            state = _roll_state(snapshot, state, deploy, counter)
            epochs = 0
            best_val = None
            train_loss = None
        else:
            warm = meta.model.clone() if meta is not None else deploy.clone()
            if cfg.model.bn_reset_per_snapshot:
                warm.reset_bn_stats()
            ft = fine_tune(warm, snapshot, state, labels, counter, cfg.train,
                           derive_rng(cfg.seed, "train", s))
            deploy = ft.model
            state = ft.state
            if meta is not None:
                meta_update(meta, deploy)
            epochs = ft.epochs_run
            best_val = ft.best_val_mrr
            train_loss = ft.final_train_loss

        counter.advance(snapshot)
        record = StepRecord(
            t=s, mrr=mrr_s, n_positives=labels.n_positives, epochs_run=epochs,
            best_val_mrr=best_val, final_train_loss=train_loss,
            skipped=labels.skip,
            working_set_elements=working_set_elements(deploy, meta, snapshot,
                                                      state, counter),
            wall_seconds=time.perf_counter() - t0,
        )
        report.per_step.append(record)
        if step_callback is not None:
            step_callback(record)
    if artifacts_out is not None:
        artifacts_out.update(model=deploy, state=state, counter=counter)
    return report


def params_checksum(model: ModelParams) -> str:
    import hashlib

    h = hashlib.sha256()
    for name in model.params.names():
        h.update(name.encode())
        h.update(np.ascontiguousarray(model.params[name].value).tobytes())
    for key in sorted(model.bn_stats):
        s = model.bn_stats[key]
        h.update(key.encode())
        h.update(np.ascontiguousarray(s.running_mean).tobytes())
        h.update(np.ascontiguousarray(s.running_var).tobytes())
    return h.hexdigest()


def fixed_split_run(g: DynamicGraph, cfg: RunConfig, step_callback=None,
                    artifacts_out: dict | None = None) -> EvalReport:
    """Train on all steps before the terminal test block, freeze, then score
    the test block while the node state keeps rolling forward.

    The test block is the last round(T * test_fraction) snapshots (at least
    one); its label steps are evaluated with frozen parameters.
    """
    T = len(g)
    n_test = max(1, int(round(T * cfg.test_fraction)))
    if n_test > T - 2:
        raise ValueError(
            f"test block of {n_test} snapshots leaves no training steps (T={T})")
    cfg.train.validate()
    cfg.model.validate()

    first_test_step = T - n_test - 1  # label step whose positives open the block

    deploy = init_model(cfg.model, derive_rng(cfg.seed, "init"))
    meta = MetaParams(deploy.clone(), cfg.alpha) if cfg.meta_enabled else None
    state = HierarchicalNodeState.zeros(g.node_count, cfg.model)
    counter = MovingAverageCounter.fresh(g.node_count, cfg.model.per_node_keep_ratio)

    report = EvalReport(protocol="fixed_split", seed=cfg.seed)

    # training phase
    for s in range(first_test_step):
        t0 = time.perf_counter()
        snapshot = g[s]
        labels = build_labels(g, s, cfg.val_fraction, cfg.k_neg,
                              derive_rng(cfg.seed, "labels", s))
        if labels.skip or labels.train_pos.shape[0] == 0:
            state = _roll_state(snapshot, state, deploy, counter)
            epochs, best_val, train_loss = 0, None, None
        else:
            warm = meta.model.clone() if meta is not None else deploy.clone()
            if cfg.model.bn_reset_per_snapshot:
                warm.reset_bn_stats()
            ft = fine_tune(warm, snapshot, state, labels, counter, cfg.train,
                           derive_rng(cfg.seed, "train", s))
            deploy = ft.model
            state = ft.state
            if meta is not None:
                meta_update(meta, deploy)
            epochs, best_val, train_loss = ft.epochs_run, ft.best_val_mrr, \
                ft.final_train_loss
        counter.advance(snapshot)
        record = StepRecord(
            t=s, mrr=None, n_positives=labels.n_positives, epochs_run=epochs,
            best_val_mrr=best_val, final_train_loss=train_loss,
            skipped=labels.skip,
            working_set_elements=working_set_elements(deploy, meta, snapshot,
                                                      state, counter),
            wall_seconds=time.perf_counter() - t0,
        )
        report.train_records.append(record)
        if step_callback is not None:
            step_callback(record)

    # frozen test phase: parameters fixed, state and counters keep rolling
    frozen_checksum = params_checksum(deploy)
    for s in range(first_test_step, T - 1):
        t0 = time.perf_counter()
        snapshot = g[s]
        labels = build_labels(g, s, cfg.val_fraction, cfg.k_neg,
                              derive_rng(cfg.seed, "labels", s))
        mrr_s = None
        if not labels.skip:
            eres = forward(snapshot, state, deploy, counter, mode="eval")
            mrr_s = mrr(eres.top_repr, labels, deploy)
            state = eres.state
        else:
            state = _roll_state(snapshot, state, deploy, counter)
        counter.advance(snapshot)
        record = StepRecord(
            t=s, mrr=mrr_s, n_positives=labels.n_positives, epochs_run=0,
            best_val_mrr=None, final_train_loss=None, skipped=labels.skip,
            working_set_elements=working_set_elements(deploy, meta, snapshot,
                                                      state, counter),
            wall_seconds=time.perf_counter() - t0,
        )
        report.per_step.append(record)
        if step_callback is not None:
            step_callback(record)
    if params_checksum(deploy) != frozen_checksum:
        raise NumericError("parameters moved in the frozen test block")
    if artifacts_out is not None:
        artifacts_out.update(model=deploy, state=state, counter=counter)
    return report
