"""Exit-code contract of the command-line interface."""

import pytest

from snaplink import synthetic
from snaplink.cli import main


@pytest.fixture
def twelve_window_file(tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    path = tmp_path / "edges.csv"
    edges = synthetic.generate_edges(n_nodes=30, n_steps=12, edges_per_step=40,
                                     period=1000.0, seed=2)
    synthetic.write_edge_file(path, edges)
    return path


@pytest.mark.parametrize("verb,flags,field", [
    ("run-fixed", ["--frequency", "1000", "--set", "test_fraction=0.9"], "test_fraction"),
    ("run-live", ["--frequency", "100000"], "frequency"),
])
def test_protocol_split_error_exits_2_with_one_line(twelve_window_file, tmp_path,
                                                    capsys, verb, flags, field):
    runs = tmp_path / "runs"
    argv = [verb, "--dataset", str(twelve_window_file),
            "--run-root", str(runs), "--seeds", "0", *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"{verb}: {field}: ")
    # the rejected run leaves only the snapshot cache, no run directory
    assert sorted(p.name for p in runs.iterdir()) == [".cache"]
