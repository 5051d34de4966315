"""`run_protocol`, the one entry point of both protocols, and its reports.

`RunConfig.protocol` is one of `PROTOCOLS`. Both protocols fold one `step`
over the label steps s = 0..T-2, carrying a `RunState`. Each step builds
the labels for snapshot s+1 and, when the step is scored, ranks them from
(G_s, H_{s-1}) with the deployed model. A training step then drops the
scoring forward's result and every negative list but the validation
sources' (`LabelSet.fine_tune_view`), fine-tunes a copy of the meta model
on those labels, deploys it and blends it into the meta model; any other
step keeps the parameters and rolls the node state forward with one eval
forward, reusing the scoring forward if there was one.

Live-update trains and scores every step, so each step's score comes from
a model trained only on strictly earlier labels; the reported figure is the
mean over evaluated steps. Fixed-split trains, unscored, on the steps
before a terminal test block, then scores the test steps with frozen
parameters while the node state keeps rolling.

The node universe is the file's whole node set at every step (a fixed node
set): the state rows, the train-mode batch-norm batch, the eval negative
pools and the training negatives all include nodes whose first edge comes
after window s+1. Step s reads the edges of windows <= s+1 only, but knows
every node that will ever exist; using only the nodes seen by window s+1
instead would move MRR. A source is in its own eval negative pool, so the
self-pair (u, u) is ranked against u's positives.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .model import HierarchicalNodeState, ModelConfig, ModelParams, forward, init_model, mrr
from .seeding import derive_rng
from .snapshots import DynamicGraph, build_labels, load_archive, save_archive
from .train import TrainConfig, fine_tune, meta_update


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

REPORT_SCHEMA_VERSION = 2


@dataclass
class StepRecord:
    t: int
    mrr: float | None
    n_positives: int
    epochs_run: int
    best_val_mrr: float | None
    final_train_loss: float | None
    skipped: bool
    wall_seconds: float = 0.0


@dataclass
class EvalReport:
    protocol: str
    seed: int
    per_step: list[StepRecord] = field(default_factory=list)
    train_records: list[StepRecord] = field(default_factory=list)  # fixed-split only
    final: RunState | None = field(default=None, repr=False, compare=False)

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
                if r.best_val_mrr is not None]
        if not vals:
            return float("nan")
        return float(np.mean(vals))

    def summary_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "protocol": self.protocol,
            "seed": self.seed,
            "n_steps": len(self.per_step),
            "n_evaluated": len(self.evaluated_steps),
            "n_skipped": sum(1 for r in self.per_step if r.skipped),
            "mean_mrr": self.mean_mrr,
            "mean_val_mrr": self.mean_val_mrr,
        }


PROTOCOLS = ("live_update", "fixed_split")
RUN_FORMAT = "snaplink-run-v1"


@dataclass
class RunConfig:
    """Everything one protocol run needs besides the data."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    protocol: str = "live_update"
    alpha: float = 1.0
    k_neg: int = 1000
    val_fraction: float = 0.1
    test_fraction: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError("protocol", f"must be one of {PROTOCOLS}, got {self.protocol!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha", f"must be in [0, 1], got {self.alpha}")
        if self.k_neg < 1:
            raise ConfigError("k_neg", f"must be >= 1, got {self.k_neg}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("val_fraction", f"must be in (0, 1), got {self.val_fraction}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction", f"must be in (0, 1), got {self.test_fraction}")
        self.model.validate()
        self.train.validate()


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


def n_train_steps(protocol: str, n_snapshots: int, test_fraction: float) -> int:
    """How many leading label steps fine-tune under `protocol` (one of
    PROTOCOLS) on a graph of n_snapshots windows.

    Live-update trains every label step (T-1). Fixed-split trains the steps
    before the terminal test block of round(T * test_fraction) snapshots (at
    least one). Raises ConfigError when the split leaves no step to train.
    """
    T = n_snapshots
    if protocol == "live_update":
        if T < 3:
            raise ConfigError("frequency",
                              f"live-update needs at least 3 snapshots, got {T}")
        return T - 1
    n_test = max(1, int(round(T * test_fraction)))
    if n_test > T - 2:
        raise ConfigError(
            "test_fraction",
            f"test block of {n_test} snapshots leaves no training steps (T={T})")
    return T - n_test - 1


@dataclass
class RunState:
    """What one label step hands the next: the deployed and meta models, the
    node state, the next label step, and the frozen block's parameter
    checksum once that block starts. Every generator is derived from (seed,
    tag, step), so none is carried. `save` writes one `RUN_FORMAT` archive of
    C-contiguous entries "arr:deploy:<param>", "arr:meta:<param>",
    "arr:state:<layer>" and "arr:state:history"; `load` reads it back bit
    for bit."""

    deploy: ModelParams
    meta: ModelParams
    state: HierarchicalNodeState
    step: int = 0
    frozen_checksum: str | None = None

    def save(self, path) -> None:
        arrays = {f"arr:{tag}:{k}": v for tag, m in (("deploy", self.deploy), ("meta", self.meta))
                  for k, v in m.params.state_dict().items()}
        arrays |= {f"arr:state:{i}": layer for i, layer in enumerate(self.state.layers)}
        arrays["arr:state:history"] = self.state.history
        save_archive(path, RUN_FORMAT, {k: np.ascontiguousarray(v) for k, v in arrays.items()},
                     {"config": asdict(self.deploy.config), "step": self.step,
                      "frozen_checksum": self.frozen_checksum})

    @classmethod
    def load(cls, path) -> "RunState":
        arrays, meta = load_archive(path, RUN_FORMAT)
        cfg = ModelConfig(**meta["config"])
        models = [init_model(cfg, np.random.default_rng(0)) for _ in range(2)]
        for m, prefix in zip(models, ("arr:deploy:", "arr:meta:")):
            m.params.load_state_dict({k.removeprefix(prefix): v for k, v in arrays.items()
                                      if k.startswith(prefix)})
        layers = [arrays[f"arr:state:{i}"] for i in range(cfg.n_mp)]
        history = arrays["arr:state:history"]
        if history.shape != (layers[0].shape[0],):
            raise ValueError(f"history shape {history.shape} != ({layers[0].shape[0]},)")
        return cls(*models, HierarchicalNodeState(layers, history), meta["step"],
                   meta["frozen_checksum"])


def scored(protocol: str, s: int, n_train: int) -> bool:
    """Whether label step s is ranked: always under live-update, if frozen under fixed-split."""
    return protocol == "live_update" or s >= n_train


def step(g: DynamicGraph, cfg: RunConfig, rs: RunState) -> tuple[RunState, StepRecord]:
    """Label step `rs.step`: build the labels for snapshot s+1, rank them if
    the step is scored, then fine-tune or roll the state. Returns the next
    RunState and the step's record; the labels and forwards die with the
    step. `rs.meta` may be blended in place."""
    s = rs.step
    n_train = n_train_steps(cfg.protocol, len(g), cfg.test_fraction)
    deploy, meta, state = rs.deploy, rs.meta, rs.state
    frozen_checksum = params_checksum(deploy) if s == n_train else rs.frozen_checksum
    t0 = time.perf_counter()
    snapshot = g[s]
    labels = build_labels(g, s, cfg.val_fraction, cfg.k_neg, derive_rng(cfg.seed, "labels", s))

    mrr_s = eres = None
    if scored(cfg.protocol, s, n_train) and not labels.skip:
        eres = forward(snapshot, state, deploy, mode="eval")
        mrr_s = mrr(eres.top_repr, labels, deploy)

    epochs, best_val, train_loss = 0, None, None
    if s < n_train and labels.train_pos.shape[0] > 0:
        # the MRR has read the scoring forward and the test negatives; the
        # fine-tune makes the next state and ranks only validation
        eres, labels = None, labels.fine_tune_view()
        warm = meta.clone()
        if cfg.model.bn_reset_per_snapshot:
            warm.reset_bn_stats()
        ft = fine_tune(warm, snapshot, state, labels, cfg.train, derive_rng(cfg.seed, "train", s))
        deploy, state = ft.model, ft.state
        meta = meta_update(meta, deploy, cfg.alpha)
        epochs, best_val, train_loss = ft.epochs_run, ft.best_val_mrr, ft.final_train_loss
    else:
        # an eval forward mutates nothing and only reads batch-norm running
        # stats, so the scoring forward's state (history included) is the rolled state
        if eres is None:
            eres = forward(snapshot, state, deploy, mode="eval")
        state = eres.state

    record = StepRecord(
        t=s, mrr=mrr_s, n_positives=labels.n_positives, epochs_run=epochs,
        best_val_mrr=best_val, final_train_loss=train_loss,
        skipped=labels.skip, wall_seconds=time.perf_counter() - t0,
    )
    return RunState(deploy, meta, state, s + 1, frozen_checksum), record


def run_protocol(g: DynamicGraph, cfg: RunConfig, step_callback=None) -> EvalReport:
    """Fold `step` over label steps 0..T-2 from a fresh RunState, passing
    each step's record to `step_callback` as it ends.

    The first `n_train_steps` steps fine-tune; later steps keep the
    parameters frozen, which is checked at the end. Unscored records go to
    `train_records`. The report carries the final RunState.
    """
    cfg.validate()
    n_train = n_train_steps(cfg.protocol, len(g), cfg.test_fraction)
    deploy = init_model(cfg.model, derive_rng(cfg.seed, "init"))
    rs = RunState(deploy, deploy.clone(), HierarchicalNodeState.zeros(g.node_count, cfg.model))
    del deploy  # the RunState holds the run's only models

    report = EvalReport(protocol=cfg.protocol, seed=cfg.seed)
    while rs.step < len(g) - 1:
        rs, record = step(g, cfg, rs)
        (report.per_step if scored(cfg.protocol, record.t, n_train)
         else report.train_records).append(record)
        if step_callback is not None:
            step_callback(record)
    if rs.frozen_checksum is not None and params_checksum(rs.deploy) != rs.frozen_checksum:
        raise NumericError("parameters moved in the frozen test block")
    report.final = rs
    return report


def params_checksum(model: ModelParams) -> str:
    """sha256 over every entry of the model's ParamSet, running statistics
    included, in ParamSet order. Compared only within a run."""
    import hashlib

    h = hashlib.sha256()
    for p in model.params:
        h.update(p.name.encode())
        h.update(np.ascontiguousarray(p.value).tobytes())
    return h.hexdigest()

