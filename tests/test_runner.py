"""Contract tests for run directories written by the runner."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from snaplink import diffcore as dc
from snaplink import evaluate as ev
from snaplink import runner, synthetic
from snaplink.config import ExperimentConfig, load_config
from snaplink.errors import ConfigError, ParseError
from snaplink.model import ModelConfig, init_model, load_checkpoint, save_checkpoint
from snaplink.runner import grid_search, load_dataset, run_experiment
from snaplink.snapshots import (EdgeSchema, cache_key, edges_from_arrays,
                                file_fingerprint, period_seconds, temp_path)


def test_seed_report_keeps_wall_seconds(synth_graph, tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    cfg = ExperimentConfig(dataset="synthetic", protocol="fixed_split", seeds=(3,),
                           test_fraction=0.2, k_neg=20, hidden_dim=8,
                           update="moving_average", max_epochs=2, patience=2,
                           run_root=str(tmp_path))
    run_dir = run_experiment(cfg, graph=synth_graph)
    seed_report = json.loads((run_dir / "seed3" / "report.json").read_text())
    assert seed_report.pop("wall_seconds") > 0

    report = ev.fixed_split_run(synth_graph, cfg.to_run_config(3))
    report.fingerprint = cfg.fingerprint()
    assert seed_report == report.summary_dict()


def test_runs_default_to_float32_and_a_config_file_opts_out(synth_graph, tmp_path,
                                                           monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    path = tmp_path / "exp.cfg"
    path.write_text("dtype = float64\n")
    settings = dict(dataset="synthetic", protocol="fixed_split", seeds=(3,),
                    test_fraction=0.2, k_neg=20, hidden_dim=8, update="moving_average",
                    max_epochs=1, patience=1, run_root=str(tmp_path))
    for cfg, dtype in ((ExperimentConfig(**settings), np.float32),
                       (replace(load_config(path), **settings), np.float64)):
        run_dir = run_experiment(cfg, graph=synth_graph)
        model, state, _ = load_checkpoint(run_dir / "seed3" / "model.npz")
        assert model.config.dtype == np.dtype(dtype).name
        arrays = [p.value for p in model.params] + state.layers + [
            s.running_mean for s in model.bn_stats.values()]
        assert {a.dtype for a in arrays} == {np.dtype(dtype)}
    assert ModelConfig().dtype == "float64"  # the library default grad_check relies on


def test_completed_run_is_skipped_unless_forced(synth_graph, tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    calls = []
    real = ev.live_update_run

    def counting(*args, **kwargs):
        calls.append(args[1].seed)
        return real(*args, **kwargs)

    monkeypatch.setattr(ev, "live_update_run", counting)
    cfg = ExperimentConfig(dataset="synthetic", protocol="live_update", seeds=(1,),
                           k_neg=20, hidden_dim=8, update="moving_average",
                           max_epochs=1, patience=1, run_root=str(tmp_path))
    run_dir = run_experiment(cfg, graph=synth_graph)
    assert calls == [1]
    assert run_experiment(cfg, graph=synth_graph) == run_dir
    assert calls == [1]
    assert run_experiment(replace(cfg, force=True), graph=synth_graph) == run_dir
    assert calls == [1, 1]


def _v1_archive(cache, path, cfg):
    """Write a v1-format archive of `path` where a v1 load would look for it."""
    # the key of a v1 archive did not include the format
    raw = (f"{file_fingerprint(path)}|{period_seconds(cfg.frequency):g}"
           f"|{EdgeSchema.parse(cfg.schema).tag()}")
    old = cache / f"{hashlib.sha256(raw.encode()).hexdigest()[:20]}.npz"
    cache.mkdir(exist_ok=True)
    meta = json.dumps({"format": "snaplink-snapshots-v1"}).encode()
    np.savez_compressed(old, __meta__=np.frombuffer(meta, np.uint8),
                        node_features=np.zeros((5, 30, 2)))
    return old


def test_load_dataset_never_opens_an_archive_of_the_old_format(tmp_path):
    path = tmp_path / "edges.csv"
    synthetic.write_edge_file(path, synthetic.generate_edges(
        n_nodes=30, n_steps=5, edges_per_step=40, period=1000.0, seed=4))
    cfg = ExperimentConfig(dataset=str(path), frequency="1000")
    cache = tmp_path / ".cache"
    old = _v1_archive(cache, path, cfg)

    g = load_dataset(cfg, cache_dir=cache)  # the v1 archive would raise
    # the save replaced the dead v1 archive
    assert [p.name for p in cache.iterdir()] == [
        f"{cache_key(file_fingerprint(path), cfg.frequency, EdgeSchema.parse(cfg.schema))}.npz"]
    assert not old.exists()
    warm = load_dataset(cfg, cache_dir=cache)
    assert len(g) == len(warm) == 5
    fresh = load_dataset(cfg)
    assert_same_graph(fresh, g)
    assert_same_graph(fresh, warm)


def test_load_dataset_keeps_other_datasets_archives(tmp_path):
    cache = tmp_path / ".cache"
    cfgs = []
    for seed in (4, 5):
        path = tmp_path / f"edges{seed}.csv"
        synthetic.write_edge_file(path, synthetic.generate_edges(
            n_nodes=30, n_steps=5, edges_per_step=40, period=1000.0, seed=seed))
        cfgs.append(ExperimentConfig(dataset=str(path), frequency="1000"))
    other_v1 = _v1_archive(cache, Path(cfgs[1].dataset), cfgs[1])
    # the same file at another period is another dataset
    load_dataset(replace(cfgs[1], frequency="2000"), cache_dir=cache)
    before = {p.name for p in cache.iterdir()}
    assert other_v1.name in before and len(before) == 2

    load_dataset(cfgs[0], cache_dir=cache)
    after = {p.name for p in cache.iterdir()}
    assert before < after and len(after) == 3


def assert_same_graph(a, b):
    assert len(a) == len(b)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.window == sb.window
        for attr in ("edge_src", "edge_dst", "edge_features", "node_features"):
            assert getattr(sa, attr).tobytes() == getattr(sb, attr).tobytes()


def truncate_archive(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def nan_feature_archive(path):
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["edge_features"][3, 0] = np.nan
    with open(path, "wb") as fh:  # np.savez would append .npz to a str path
        np.savez(fh, **arrays)


@pytest.mark.parametrize("damage", [truncate_archive, nan_feature_archive])
def test_damaged_archive_is_a_cache_miss_and_is_rewritten(tmp_path, monkeypatch, damage):
    path = tmp_path / "edges.csv"
    synthetic.write_edge_file(path, synthetic.generate_edges(
        n_nodes=30, n_steps=5, edges_per_step=40, period=1000.0, seed=4))
    cfg = ExperimentConfig(dataset=str(path), frequency="1000")
    cache = tmp_path / ".cache"
    load_dataset(cfg, cache_dir=cache)
    (archive,) = cache.iterdir()
    damage(archive)

    ingests = []
    real = runner.load_edge_list

    def counting(*args):
        ingests.append(args)
        return real(*args)

    monkeypatch.setattr(runner, "load_edge_list", counting)
    g = load_dataset(cfg, cache_dir=cache)
    assert len(ingests) == 1
    assert [p.name for p in cache.iterdir()] == [archive.name]
    warm = load_dataset(cfg, cache_dir=cache)
    assert len(ingests) == 1  # the rewritten archive is a cache hit
    fresh = load_dataset(cfg)
    assert_same_graph(fresh, g)
    assert_same_graph(fresh, warm)


def test_damaged_archive_does_not_hide_a_parse_error(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("0,1,1.0,100\n1,2,x,200\n")
    cfg = ExperimentConfig(dataset=str(path), frequency="1000")
    schema = EdgeSchema.parse(cfg.schema)
    cache = tmp_path / ".cache"
    cache.mkdir()
    archive = cache / f"{cache_key(file_fingerprint(path), cfg.frequency, schema)}.npz"
    archive.write_bytes(b"not a zip archive")
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(cfg, cache_dir=cache)


def _edge_file_with_empty_window(path):
    """Six windows of width 1000; window 1 holds no edge."""
    e = synthetic.generate_edges(n_nodes=30, n_steps=6, edges_per_step=40,
                                 period=1000.0, seed=5)
    keep = (e.timestamp < 1000.0) | (e.timestamp >= 2000.0)
    synthetic.write_edge_file(path, edges_from_arrays(
        e.src[keep], e.dst[keep], e.timestamp[keep], e.weight[keep], e.node_count))
    return path


def test_grid_reports_failed_cell_and_never_selects_a_nan_cell(tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    path = _edge_file_with_empty_window(tmp_path / "edges.csv")
    base = ExperimentConfig(dataset=str(path), frequency="1000", protocol="fixed_split",
                            seeds=(1,), k_neg=20, hidden_dim=8, update="moving_average",
                            max_epochs=1, patience=1, run_root=str(tmp_path / "runs"))
    # 0.6: the only training step (labels from the empty window) is skipped,
    # so the cell has no validation MRR; 0.9: no training step, ConfigError;
    # 0.3: three training steps
    index = grid_search(base, {"test_fraction": ["0.6", "0.9", "0.3"]})

    status = [(c["cell"], c["status"]) for c in index["cells"]]
    assert status == [("grid/cell000", "ok"), ("grid/cell001", "error"),
                      ("grid/cell002", "ok")]
    assert index["n_failed"] == 1
    assert index["cells"][1]["error"].startswith("ConfigError")
    assert np.isnan(index["cells"][0]["mean_val_mrr"])
    assert np.isfinite(index["cells"][2]["mean_val_mrr"])
    assert index["best"]["cell"] == "grid/cell002"
    written = json.loads((tmp_path / "runs" / "grid" / "index.json").read_text())
    assert written["best"]["cell"] == "grid/cell002"
    assert [c["status"] for c in written["cells"]] == ["ok", "error", "ok"]


def test_grid_selects_by_validation_mrr_not_test_mrr(tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    # (test MRR, validation MRR) per alpha; alpha 0.1 fails in the run and
    # "abc" when its value is parsed
    outcomes = {0.2: (0.9, 0.1), 0.5: (0.1, float("nan")), 0.7: (0.2, 0.3)}

    def fake_run(cfg):
        if cfg.alpha not in outcomes:
            raise ConfigError("alpha", "rejected")
        run_dir = tmp_path / cfg.run_name
        run_dir.mkdir(parents=True)
        test, val = outcomes[cfg.alpha]
        (run_dir / "report.json").write_text(json.dumps(
            {"mean_mrr": test, "std_mrr": 0.0, "mean_val_mrr": val}))
        return run_dir

    monkeypatch.setattr(runner, "run_experiment", fake_run)
    base = ExperimentConfig(dataset="unused", run_root=str(tmp_path))
    index = grid_search(base, {"alpha": ["0.1", "abc", "0.2", "0.5", "0.7"]})
    assert [c["status"] for c in index["cells"]] == ["error", "error", "ok", "ok", "ok"]
    assert index["best"]["overrides"] == {"alpha": "0.7"}

    for a in (0.2, 0.7):
        outcomes[a] = (0.5, float("nan"))
    index = grid_search(base, {"alpha": ["0.2", "0.5", "0.7"]}, grid_name="g2")
    assert index["n_failed"] == 0 and index["best"] is None


def test_steps_are_on_disk_after_each_step(synth_graph, tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    cfg = ExperimentConfig(dataset="synthetic", protocol="live_update", seeds=(2,),
                           k_neg=20, hidden_dim=8, update="moving_average",
                           max_epochs=1, patience=1, run_root=str(tmp_path),
                           run_name="flush")
    steps = temp_path(tmp_path / "flush" / "seed2" / "steps.ndjson")
    lines_seen = []
    real = ev.live_update_run

    def spying(g, run_cfg, step_callback=None, artifacts_out=None):
        def callback(record):
            step_callback(record)
            lines_seen.append(len(steps.read_text().splitlines()))

        return real(g, run_cfg, step_callback=callback, artifacts_out=artifacts_out)

    monkeypatch.setattr(ev, "live_update_run", spying)
    run_experiment(cfg, graph=synth_graph)
    assert lines_seen == list(range(1, len(synth_graph)))


def test_a_run_leaves_no_temporary_behind(synth_graph, tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    cfg = ExperimentConfig(dataset="synthetic", protocol="fixed_split", seeds=(4,),
                           test_fraction=0.5, k_neg=20, hidden_dim=8,
                           update="moving_average", max_epochs=1, patience=1,
                           run_root=str(tmp_path), run_name="clean")
    run_experiment(cfg, graph=synth_graph)
    written = sorted(str(p.relative_to(tmp_path / "clean"))
                     for p in (tmp_path / "clean").rglob("*"))
    assert written == ["config.resolved.txt", "fingerprint.txt", "report.json", "seed4",
                       "seed4/model.npz", "seed4/report.json", "seed4/steps.ndjson"]


@pytest.mark.parametrize("target", ["checkpoint", "text"])
def test_a_write_that_fails_part_way_keeps_the_old_file(tmp_path, monkeypatch, target):
    if target == "checkpoint":
        path = tmp_path / "model.npz"
        model = init_model(ModelConfig(hidden_dim=4), np.random.default_rng(0))
        save_checkpoint(path, model)

        def torn(fh, arrays, meta):
            fh.write(b"PK\x03\x04")  # the head of a zip archive, then the disk fills
            raise OSError("No space left on device")

        monkeypatch.setattr(dc, "save_params", torn)
        write, error = (lambda: save_checkpoint(path, model)), OSError
    else:
        path = tmp_path / "report.json"
        runner._atomic_write(path, "old\n")
        # the lone surrogate cannot be encoded, so the write fails after the
        # temporary was opened
        write, error = (lambda: runner._atomic_write(path, "new\ud800")), UnicodeEncodeError
    old = path.read_bytes()
    with pytest.raises(error):
        write()
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_parallel_grid_matches_the_serial_grid(tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    path = tmp_path / "edges.csv"
    synthetic.write_edge_file(path, synthetic.generate_edges(
        n_nodes=30, n_steps=6, edges_per_step=60, period=1000.0, seed=9))
    axes = {"alpha": ["0.5", "1.0"], "update": ["moving_average", "gru"]}
    indexes = {}
    for workers in (1, 2):
        root = tmp_path / f"workers{workers}"
        base = ExperimentConfig(dataset=str(path), frequency="1000", seeds=(1,),
                                k_neg=20, hidden_dim=8, max_epochs=2, patience=1,
                                workers=workers, run_root=str(root))
        returned = grid_search(base, axes)  # from a cold cache
        index = json.loads((root / "grid" / "index.json").read_text())
        assert index == returned
        # both workers may ingest at once; one whole archive and no temporary remain
        assert [p.suffix for p in (root / ".cache").iterdir()] == [".npz"]
        for cell in [*index["cells"], index["best"]]:
            assert cell.pop("run_dir") == str(root / cell["cell"])
        indexes[workers] = index
    assert [c["status"] for c in indexes[2]["cells"]] == ["ok"] * 4
    assert indexes[2] == indexes[1]


def test_heap_setting_is_a_no_op_without_mallopt(monkeypatch):
    calls = []

    class Mallopt:
        def __call__(self, param, value):
            calls.append((param, value))

    class Libc:
        mallopt = Mallopt()

    monkeypatch.setattr(runner.ctypes, "CDLL", lambda name: Libc())
    runner._keep_freed_heap()
    assert calls == [(-3, 32 << 20), (-1, 128 << 20)]  # both, so no dynamic threshold
    monkeypatch.setattr(runner.ctypes, "CDLL", lambda name: object())
    runner._keep_freed_heap()  # a C library without mallopt
    assert len(calls) == 2
