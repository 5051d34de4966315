"""Flat, human-editable experiment configuration.

One `key = value` pair per line, '#' comments, every field typed and
validated. A fingerprint hash over the semantic fields (everything except
execution knobs like worker counts and directory names) identifies a
configuration regardless of key order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError
from .evaluate import RunConfig
from .model import ModelConfig
from .train import TrainConfig

PROTOCOLS = ("live_update", "fixed_split")

# fields that steer execution, not semantics: excluded from the fingerprint
NON_SEMANTIC = {"run_name", "run_root", "workers", "force"}


@dataclass
class ExperimentConfig:
    # data
    dataset: str = ""
    schema: str = ",:src,dst,weight,timestamp"
    frequency: str = "weekly"
    # protocol
    protocol: str = "live_update"
    alpha: float = 1.0
    k_neg: int = 1000
    val_fraction: float = 0.1
    test_fraction: float = 0.1
    seeds: tuple[int, ...] = (0, 1, 2)
    # architecture
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
    # float64; `dtype = float64` (or `--set dtype=float64`) opts out and
    # keeps the float64 bits. ModelConfig keeps float64 as the library default.
    dtype: str = "float32"
    # training
    learning_rate: float = 0.003
    max_epochs: int = 100
    patience: int = 3
    train_neg_per_pos: int = 1
    # execution (non-semantic)
    run_name: str = ""
    run_root: str = "runs"
    workers: int = 1
    force: bool = False

    def validate(self) -> None:
        if not self.dataset:
            raise ConfigError("dataset", "a dataset path is required")
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
        if not self.seeds:
            raise ConfigError("seeds", "at least one seed is required")
        if self.workers < 1:
            raise ConfigError("workers", f"must be >= 1, got {self.workers}")
        self.to_model_config().validate()
        self.to_train_config().validate()

    def to_model_config(self) -> ModelConfig:
        return ModelConfig(
            hidden_dim=self.hidden_dim, n_pre=self.n_pre, n_mp=self.n_mp,
            n_post=self.n_post, update=self.update, aggregation=self.aggregation,
            bidirectional=self.bidirectional, skip_connection=self.skip_connection,
            batch_norm=self.batch_norm,
            bn_reset_per_snapshot=self.bn_reset_per_snapshot,
            per_node_keep_ratio=self.per_node_keep_ratio, dtype=self.dtype,
        )

    def to_train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate, max_epochs=self.max_epochs,
            patience=self.patience, train_neg_per_pos=self.train_neg_per_pos,
        )

    def to_run_config(self, seed: int) -> RunConfig:
        return RunConfig(
            model=self.to_model_config(), train=self.to_train_config(),
            alpha=self.alpha, k_neg=self.k_neg,
            val_fraction=self.val_fraction, test_fraction=self.test_fraction,
            seed=seed,
        )

    def semantic_items(self) -> list[tuple[str, str]]:
        out = []
        for f in fields(self):
            if f.name in NON_SEMANTIC:
                continue
            out.append((f.name, _format_value(getattr(self, f.name))))
        return sorted(out)

    def fingerprint(self) -> str:
        canonical = "\n".join(f"{k}={v}" for k, v in self.semantic_items())
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def to_text(self) -> str:
        lines = [f"# {type(self).__name__} (fingerprint {self.fingerprint()})"]
        for f in fields(self):
            lines.append(f"{f.name} = {_format_value(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"

    def with_overrides(self, overrides: dict[str, str]) -> "ExperimentConfig":
        kwargs = {}
        for key, raw in overrides.items():
            kwargs[key] = _parse_value(self, key, raw)
        return replace(self, **kwargs)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_value(cfg: ExperimentConfig, key: str, raw):
    field_map = {f.name: f for f in fields(cfg)}
    if key not in field_map:
        raise ConfigError(key, "unknown configuration key")
    if not isinstance(raw, str):
        return raw
    raw = raw.strip()
    current = getattr(cfg, key)
    try:
        if key == "seeds":
            return tuple(int(v) for v in raw.split(",") if v.strip() != "")
        if isinstance(current, bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


def load_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Read a key=value file (all keys optional) and apply overrides on top."""
    cfg = ExperimentConfig()
    file_overrides: dict[str, str] = {}
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}", f"expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            file_overrides[key.strip()] = value.split("#", 1)[0].strip()
    cfg = cfg.with_overrides(file_overrides)
    if overrides:
        cfg = cfg.with_overrides(overrides)
    return cfg
