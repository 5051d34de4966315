"""Contract tests for the key = value config loader."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from snaplink.config import NON_SEMANTIC, ExperimentConfig, load_config
from snaplink.errors import ConfigError
from snaplink.model import ModelConfig
from snaplink.train import TrainConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "snaplink"


def test_load_config_overrides_beat_file_values(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# experiment\nalpha = 0.5\nk_neg = 30  # per source\nupdate = mlp\n")
    cfg = load_config(path, {"alpha": "0.25", "seeds": "4,5"})
    assert cfg.alpha == 0.25
    assert cfg.seeds == (4, 5)
    assert cfg.k_neg == 30
    assert cfg.update == "mlp"


@pytest.mark.parametrize("where", ["file", "override"])
def test_load_config_unknown_key_raises(tmp_path, where):
    path = tmp_path / "exp.cfg"
    path.write_text("meta_enabled = false\n" if where == "file" else "alpha = 0.5\n")
    overrides = {"meta_enabled": "false"} if where == "override" else None
    with pytest.raises(ConfigError, match="unknown configuration key") as info:
        load_config(path, overrides)
    assert info.value.field == "meta_enabled"


# every semantic key of ExperimentConfig, each at a value other than its default
NON_DEFAULT = dict(
    dataset="data/edges.txt", schema="ws:src,dst,timestamp", frequency="daily",
    protocol="fixed_split", alpha=0.5, k_neg=30, val_fraction=0.2, test_fraction=0.3,
    seeds=(4, 5), hidden_dim=16, n_pre=2, n_mp=3, n_post=2, update="mlp",
    aggregation="mean", bidirectional=False, skip_connection=False, batch_norm=False,
    bn_reset_per_snapshot=True, per_node_keep_ratio=True, dtype="float64",
    learning_rate=0.01, max_epochs=7, patience=2, train_neg_per_pos=3)


def test_non_default_config_sets_every_semantic_key():
    default = ExperimentConfig()
    assert set(NON_DEFAULT) == {f.name for f in fields(ExperimentConfig)} - NON_SEMANTIC
    assert all(getattr(default, k) != v for k, v in NON_DEFAULT.items())


@pytest.mark.parametrize("cfg,expected", [
    (ExperimentConfig(), "038960a89aff2e7c"),
    (ExperimentConfig(dataset="x"), "dba2cbd9aa50cca0"),
    (ExperimentConfig(**NON_DEFAULT), "b4e50e4f00db5276"),
    # execution keys do not enter the fingerprint
    (ExperimentConfig(**NON_DEFAULT, run_name="a", run_root="b", workers=3, force=True),
     "b4e50e4f00db5276"),
])
def test_fingerprint_is_pinned(cfg, expected):
    assert cfg.fingerprint() == expected


def test_every_model_train_and_protocol_key_reaches_the_run_config():
    cfg = ExperimentConfig(**NON_DEFAULT)
    run = cfg.to_run_config(9)
    # a plain ModelConfig, so a checkpoint's meta["config"] keeps exactly its keys
    assert type(run.model) is ModelConfig and type(run.train) is TrainConfig
    assert run.seed == 9
    reached = {}
    for part in (run.model, run.train, run):
        for f in fields(part):
            reached.setdefault(f.name, getattr(part, f.name))
    flat_only = {"dataset", "schema", "frequency", "seeds"}
    for key, value in NON_DEFAULT.items():
        if key not in flat_only:
            assert reached[key] == value, key


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(),
    ExperimentConfig(**NON_DEFAULT),
    ExperimentConfig(dataset="runs/exp#2/edges.csv", schema="ws:src,dst,timestamp",
                     dtype="float64", run_name=""),    ExperimentConfig(dataset="my data #2/edges.csv", run_name="grid #3"),
    ExperimentConfig(dataset='"quoted" dir/edges.csv', run_name="a\tb #"),
    ExperimentConfig(dataset=" padded.csv ", run_name="two\nlines"),
])
def test_resolved_text_loads_back_to_the_same_config(tmp_path, cfg):
    path = tmp_path / "config.resolved.txt"
    path.write_text(cfg.to_text())
    back = load_config(path)
    assert back == cfg
    assert back.fingerprint() == cfg.fingerprint()


def test_a_quoted_value_may_carry_a_comment(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text('dataset = "my data #2/edges.csv"  # the raw file\nk_neg = 30  # per source\n')
    cfg = load_config(path)
    assert (cfg.dataset, cfg.k_neg) == ("my data #2/edges.csv", 30)
    path.write_text('dataset = "my data"/edges.csv\n')
    with pytest.raises(ConfigError, match="exp.cfg:1"):
        load_config(path)


def class_fields(module: str, name: str) -> set[str]:
    """The names that class `name`'s body in src/snaplink/<module>.py annotates."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
    return {n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)}


def test_experiment_config_declares_no_component_key_again():
    components = (class_fields("model", "ModelConfig") | class_fields("train", "TrainConfig")
                  | class_fields("evaluate", "RunConfig"))
    assert class_fields("config", "ExperimentConfig") & components == set()
