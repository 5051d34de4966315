"""Flat, human-editable experiment configuration.

One `key = value` pair per line; `#` starts a comment at the start of a line
or after whitespace, so a path may contain `#`. A value that starts with `"`
is read as a JSON string literal; `to_text` writes a string that way when
its plain text would not load back (a ` #` in a path, say). Every field is
typed and validated.

Each key and its default are declared once, in the component that uses
it: the architecture keys in `model.ModelConfig`, the fine-tuning keys in
`train.TrainConfig`, and the protocol keys (`protocol`, `alpha`, `k_neg`,
`val_fraction`, `test_fraction`) in `evaluate.RunConfig`. Each component
holds its keys' range checks. Three are made twice: the library entry points
`snapshots.build_labels` check `k_neg` and `val_fraction` again, and
`train.meta_update` checks `alpha` again, for callers that pass no
`RunConfig`. `ExperimentConfig` takes the component keys flat, with their
defaults, and declares only the data, seeds and execution keys itself.
`to_run_config` projects the flat keys back onto the components.

A fingerprint hash over the sorted flat `key=value` pairs of the semantic
fields (everything except execution knobs like worker counts and directory
names) identifies a configuration regardless of key order.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, fields, make_dataclass, replace
from pathlib import Path

from .errors import ConfigError
from .evaluate import RunConfig
from .model import ModelConfig
from .train import TrainConfig

# fields that steer execution, not semantics: excluded from the fingerprint
NON_SEMANTIC = {"run_name", "run_root", "workers", "force"}

# the component keys, flat and with the components' defaults; RunConfig's
# nested components and per-run seed are not flat keys
_ComponentKeys = make_dataclass("_ComponentKeys", [
    (f.name, f.type, field(default=f.default))
    for part in (ModelConfig, TrainConfig, RunConfig) for f in fields(part)
    if f.name not in ("model", "train", "seed")])


def _project(cfg, part: type, **given):
    """An instance of the dataclass `part` whose other fields come from `cfg`."""
    return part(**{f.name: getattr(cfg, f.name) for f in fields(part)
                   if f.name not in given}, **given)


@dataclass
class ExperimentConfig(_ComponentKeys):
    # data
    dataset: str = ""
    schema: str = ",:src,dst,weight,timestamp"
    frequency: str = "weekly"
    # one protocol run per seed
    seeds: tuple[int, ...] = (0, 1, 2)
    # execution (non-semantic)
    run_name: str = ""
    run_root: str = "runs"
    workers: int = 1
    force: bool = False

    def validate(self) -> None:
        if not self.dataset:
            raise ConfigError("dataset", "a dataset path is required")
        if not self.seeds:
            raise ConfigError("seeds", "at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds", f"must be distinct, got {list(self.seeds)}")
        if self.workers < 1:
            raise ConfigError("workers", f"must be >= 1, got {self.workers}")
        self.to_run_config(self.seeds[0]).validate()

    def to_run_config(self, seed: int) -> RunConfig:
        return _project(self, RunConfig, model=_project(self, ModelConfig),
                        train=_project(self, TrainConfig), seed=seed)

    def fingerprint(self) -> str:
        canonical = "\n".join(f"{f.name}={_format_value(getattr(self, f.name))}"
                              for f in sorted(fields(self), key=lambda f: f.name)
                              if f.name not in NON_SEMANTIC)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def to_text(self) -> str:
        lines = [f"# {type(self).__name__} (fingerprint {self.fingerprint()})"]
        for f in fields(self):
            text = _format_value(getattr(self, f.name))
            if text.startswith('"') or "\n" in text or _read_value(text) != text:
                text = json.dumps(text)
            lines.append(f"{f.name} = {text}")
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
    current = getattr(cfg, key)
    if not isinstance(raw, str) or isinstance(current, str):
        return raw  # a string value keeps its spaces (a quoted one loads them back)
    raw = raw.strip()
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


def _read_value(raw: str) -> str:
    """The value of a `key = value` line: a JSON string literal when it
    starts with `"`, else the text before a comment."""
    raw = raw.strip()
    if not raw.startswith('"'):
        return re.split(r"\s#", raw, maxsplit=1)[0].rstrip()
    value, end = json.JSONDecoder().raw_decode(raw)
    if raw[end:].strip() and not raw[end:].strip().startswith("#"):
        raise ValueError(f"unexpected text after the quoted value: {raw[end:]!r}")
    return value


def load_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Read a key=value file (all keys optional) and apply overrides on top."""
    cfg = ExperimentConfig()
    file_overrides: dict[str, str] = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("config", f"unreadable file {path}: {exc}") from None
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}", f"expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            try:
                file_overrides[key.strip()] = _read_value(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}", str(exc)) from None
    cfg = cfg.with_overrides(file_overrides)
    if overrides:
        cfg = cfg.with_overrides(overrides)
    return cfg
