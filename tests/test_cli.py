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


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_ingest_non_finite_weight_exits_2_naming_the_line(tmp_path, capsys, monkeypatch,
                                                          weight):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    path = tmp_path / "edges.csv"
    path.write_text(f"0,1,1.0,100\n1,2,{weight},200\n2,0,1.0,300\n")
    argv = ["ingest", "--dataset", str(path), "--run-root", str(tmp_path / "runs")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ingest: line 2: bad weight")


def test_ingest_reports_a_late_bad_weight_on_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    lines = [f"{i % 997},{(i * 7) % 991},1,{i}\n" for i in range(1, 20_001)]
    lines[18_999] = "5,6,nan,19000\n"  # line 19000; the lines before it are clean
    path = tmp_path / "edges.csv"
    path.write_text("".join(lines))
    argv = ["ingest", "--dataset", str(path), "--run-root", str(tmp_path / "runs")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ingest: line 19000: bad weight nan")


def test_ingest_rebuilds_a_damaged_cache_archive(twelve_window_file, tmp_path, capsys):
    argv = ["ingest", "--dataset", str(twelve_window_file), "--frequency", "1000",
            "--run-root", str(tmp_path / "runs")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    (archive,) = (tmp_path / "runs" / ".cache").iterdir()
    archive.write_bytes(archive.read_bytes()[:100])
    assert main(argv) == 0
    assert capsys.readouterr().out == first
