"""Contract tests for the key = value config loader."""

import pytest

from snaplink.config import load_config
from snaplink.errors import ConfigError


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
