"""Contract tests for run directories written by the runner."""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from snaplink import evaluate as ev
from snaplink import runner, snapshots, synthetic
from snaplink.config import ExperimentConfig, load_config
from snaplink.errors import ConfigError, NumericError, ParseError, SnaplinkError
from snaplink.model import HierarchicalNodeState, ModelConfig, init_model
from snaplink.runner import grid_search, load_dataset, read_run, run_experiment
from snaplink.snapshots import (EdgeSchema, cache_key, edges_from_arrays, file_fingerprint,
                                load_edge_list, partition_snapshots, temp_path)


def test_seed_report_keeps_wall_seconds(synth_graph, tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    cfg = ExperimentConfig(dataset="synthetic", protocol="fixed_split", seeds=(3,),
                           test_fraction=0.2, k_neg=20, hidden_dim=8,
                           update="moving_average", max_epochs=2, patience=2,
                           run_root=str(tmp_path))
    run_dir = run_experiment(cfg, graph=synth_graph)
    seed_report = json.loads((run_dir / "seed3" / "report.json").read_text())
    assert seed_report.pop("wall_seconds") > 0
    assert seed_report.pop("fingerprint") == cfg.fingerprint()

    report = ev.run_protocol(synth_graph, cfg.to_run_config(3))
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
        rs = ev.RunState.load(run_dir / "seed3" / "model.npz")
        assert rs.deploy.config.dtype == np.dtype(dtype).name
        # both models' running stats too
        arrays = [p.value for m in (rs.deploy, rs.meta) for p in m.params] + rs.state.layers
        assert {a.dtype for a in arrays} == {np.dtype(dtype)}
    assert ModelConfig().dtype == "float32"  # one default, for runs and for the library


def test_completed_run_is_skipped_unless_forced(synth_graph, tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    calls = []
    real = ev.run_protocol

    def counting(*args, **kwargs):
        calls.append(args[1].seed)
        return real(*args, **kwargs)

    monkeypatch.setattr(ev, "run_protocol", counting)
    cfg = ExperimentConfig(dataset="synthetic", protocol="live_update", seeds=(1,),
                           k_neg=20, hidden_dim=8, update="moving_average",
                           max_epochs=1, patience=1, run_root=str(tmp_path))
    run_dir = run_experiment(cfg, graph=synth_graph)
    assert calls == [1]
    assert run_experiment(cfg, graph=synth_graph) == run_dir
    assert calls == [1]
    assert run_experiment(replace(cfg, force=True), graph=synth_graph) == run_dir
    assert calls == [1, 1]


def fresh_graph(cfg):
    """The configured dataset ingested without a cache."""
    return partition_snapshots(load_edge_list(Path(cfg.dataset), EdgeSchema.parse(cfg.schema)),
                               cfg.frequency)


def test_load_dataset_never_opens_an_archive_of_the_old_format(tmp_path, monkeypatch):
    path = tmp_path / "edges.csv"
    synthetic.write_edge_file(path, synthetic.generate_edges(
        n_nodes=30, n_steps=5, edges_per_step=40, period=1000.0, seed=4))
    cfg = ExperimentConfig(dataset=str(path), frequency="1000")
    schema = EdgeSchema.parse(cfg.schema)
    cache = tmp_path / ".cache"
    cache.mkdir()
    key = cache_key(file_fingerprint(path), cfg.frequency, schema)
    # cache_key hashes CACHE_FORMAT, so another format's archive has another stem
    monkeypatch.setattr(snapshots, "CACHE_FORMAT", "snaplink-snapshots-v1")
    old = cache / f"{cache_key(file_fingerprint(path), cfg.frequency, schema)}.npz"
    monkeypatch.undo()
    old.write_bytes(b"an archive in another format")

    opened = []
    real = runner.load_snapshot_cache
    monkeypatch.setattr(runner, "load_snapshot_cache",
                        lambda p: opened.append(Path(p).name) or real(p))
    g = load_dataset(cfg, cache_dir=cache)
    assert opened == []
    assert sorted(p.name for p in cache.iterdir()) == sorted([f"{key}.npz", old.name,
                                                              "fingerprints.json"])
    assert old.read_bytes() == b"an archive in another format"
    warm = load_dataset(cfg, cache_dir=cache)
    assert opened == [f"{key}.npz"]
    assert len(g) == len(warm) == 5
    fresh = fresh_graph(cfg)
    assert_same_graph(fresh, g)
    assert_same_graph(fresh, warm)


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


def small_run_state() -> ev.RunState:
    model = init_model(ModelConfig(hidden_dim=4), np.random.default_rng(0))
    return ev.RunState(model, model.clone(), HierarchicalNodeState.zeros(6, model.config))


def checkpoint_archive(path):
    """A whole run archive where the cache should be."""
    small_run_state().save(path)


@pytest.mark.parametrize("damage", [truncate_archive, nan_feature_archive,
                                    checkpoint_archive])
def test_damaged_archive_is_a_cache_miss_and_is_rewritten(tmp_path, monkeypatch, damage):
    path = tmp_path / "edges.csv"
    synthetic.write_edge_file(path, synthetic.generate_edges(
        n_nodes=30, n_steps=5, edges_per_step=40, period=1000.0, seed=4))
    cfg = ExperimentConfig(dataset=str(path), frequency="1000")
    cache = tmp_path / ".cache"
    load_dataset(cfg, cache_dir=cache)
    (archive,) = cache.glob("*.npz")
    assert sorted(p.name for p in cache.iterdir()) == [archive.name, "fingerprints.json"]
    damage(archive)

    ingests = []
    real = runner.load_edge_list

    def counting(*args):
        ingests.append(args)
        return real(*args)

    monkeypatch.setattr(runner, "load_edge_list", counting)
    g = load_dataset(cfg, cache_dir=cache)
    assert len(ingests) == 1
    assert sorted(p.name for p in cache.iterdir()) == [archive.name, "fingerprints.json"]
    warm = load_dataset(cfg, cache_dir=cache)
    assert len(ingests) == 1  # the rewritten archive is a cache hit
    fresh = fresh_graph(cfg)
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


def edge_file(path, seed=4):
    """Five windows of width 1000."""
    synthetic.write_edge_file(path, synthetic.generate_edges(
        n_nodes=30, n_steps=5, edges_per_step=40, period=1000.0, seed=seed))
    return path


def counting(monkeypatch, module, name):
    """Count the calls of `module.name` from here on."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def read_index(cache):
    return json.loads((cache / "fingerprints.json").read_text())


def index_entry(path):
    st = path.stat()
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns,
            file_fingerprint(path)]


@pytest.fixture
def settle(monkeypatch):
    """Shorten the settling margin to 50 ms, still above the few-ms
    timestamp tick of the file systems tests write to; calling the returned
    function waits until the files written so far have settled."""
    monkeypatch.setattr(runner, "SETTLED_NS", 50_000_000)
    return lambda: time.sleep(0.06)


def test_a_warm_load_reads_the_fingerprint_from_the_index(tmp_path, monkeypatch, settle):
    path = edge_file(tmp_path / "edges.csv")
    settle()
    cfg = ExperimentConfig(dataset=str(path), frequency="1000")
    cache = tmp_path / ".cache"
    hashes = counting(monkeypatch, runner, "file_fingerprint")
    load_dataset(cfg, cache_dir=cache)
    assert len(hashes) == 1  # a cold load hashes
    assert read_index(cache) == {str(path.resolve()): index_entry(path)}
    warm = load_dataset(cfg, cache_dir=cache)
    assert len(hashes) == 1
    assert_same_graph(fresh_graph(cfg), warm)


def test_a_same_size_rewrite_under_the_old_mtime_is_hashed_again(tmp_path, settle):
    path = edge_file(tmp_path / "edges.csv")
    settle()
    cfg = ExperimentConfig(dataset=str(path), frequency="1000")
    cache = tmp_path / ".cache"
    old = load_dataset(cfg, cache_dir=cache)
    before = path.stat()
    assert read_index(cache) == {str(path.resolve()): index_entry(path)}
    # each edge reversed: the same size, another graph; then the old mtime back
    path.write_text("".join(f"{d},{s},{rest}" for s, d, rest in (
        line.split(",", 2) for line in path.read_text().splitlines(keepends=True))))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == \
        (before.st_ino, before.st_size, before.st_mtime_ns)
    assert after.st_ctime_ns != before.st_ctime_ns  # os.utime moves the ctime
    new = load_dataset(cfg, cache_dir=cache)
    assert_same_graph(fresh_graph(cfg), new)
    assert new.source_fingerprint == file_fingerprint(path) != old.source_fingerprint
    assert read_index(cache) == {}  # the stale entry goes; the rewrite is too recent


def test_a_file_that_changed_within_the_margin_is_not_recorded(tmp_path, monkeypatch):
    path = edge_file(tmp_path / "edges.csv")
    an_hour_ago = time.time_ns() - 3600 * 10**9
    os.utime(path, ns=(an_hour_ago, an_hour_ago))  # the ctime stays recent
    cfg = ExperimentConfig(dataset=str(path), frequency="1000")
    cache = tmp_path / ".cache"
    hashes = counting(monkeypatch, runner, "file_fingerprint")
    load_dataset(cfg, cache_dir=cache)
    assert read_index(cache) == {}
    warm = load_dataset(cfg, cache_dir=cache)
    assert len(hashes) == 2
    assert read_index(cache) == {}
    assert_same_graph(fresh_graph(cfg), warm)


def test_a_file_that_changed_while_it_was_hashed_is_not_recorded(tmp_path, monkeypatch,
                                                                 settle):
    path = edge_file(tmp_path / "edges.csv")
    settle()
    cfg = ExperimentConfig(dataset=str(path), frequency="1000")
    cache = tmp_path / ".cache"

    def touching(p):
        os.utime(p)
        return file_fingerprint(p)

    monkeypatch.setattr(runner, "file_fingerprint", touching)
    load_dataset(cfg, cache_dir=cache)
    assert read_index(cache) == {}


def test_a_file_rewritten_between_its_hash_and_its_parse_caches_nothing(tmp_path, monkeypatch,
                                                                        settle):
    a, b, c = (tmp_path / f"{n}.csv" for n in "abc")
    edge_file(a)
    synthetic.write_edge_file(b, synthetic.generate_edges(  # another graph, another size
        n_nodes=40, n_steps=5, edges_per_step=60, period=1000.0, seed=5))
    c.write_bytes(a.read_bytes())
    settle()
    cache = tmp_path / ".cache"
    real = runner.load_edge_list

    def rewritten_first(path, *args):  # a writer that lands after the hash
        a.write_bytes(b.read_bytes())
        return real(path, *args)

    monkeypatch.setattr(runner, "load_edge_list", rewritten_first)
    got = load_dataset(ExperimentConfig(dataset=str(a), frequency="1000"), cache_dir=cache)
    monkeypatch.setattr(runner, "load_edge_list", real)
    assert_same_graph(got, fresh_graph(ExperimentConfig(dataset=str(b), frequency="1000")))
    assert got.source_fingerprint == file_fingerprint(c)  # taken before the parse
    assert list(cache.glob("*.npz")) == []
    assert str(a.resolve()) not in read_index(cache)
    cfg = ExperimentConfig(dataset=str(c), frequency="1000")
    assert_same_graph(load_dataset(cfg, cache_dir=cache), fresh_graph(cfg))


@pytest.mark.parametrize("garbage", [
    lambda p: b"\xff\xfe not text",
    lambda p: b'{"cut": [1, 2',
    lambda p: b"[1, 2]",
    lambda p: b"[" * 100_000,  # too deep for the JSON decoder: RecursionError
    lambda p: json.dumps({str(p.resolve()): ["not", "an", "identity"]}).encode(),
    lambda p: json.dumps({str(p.resolve()): [*index_entry(p)[:5], 5]}).encode(),
], ids=["undecodable", "cut", "not-a-dict", "too-deep", "bad-entry", "bad-fingerprint"])
def test_a_malformed_index_is_hashed_again_and_rewritten(tmp_path, monkeypatch, settle,
                                                         garbage):
    path = edge_file(tmp_path / "edges.csv")
    cfg = ExperimentConfig(dataset=str(path), frequency="1000")
    cache = tmp_path / ".cache"
    cache.mkdir()
    (cache / "fingerprints.json").write_bytes(garbage(path))
    settle()
    hashes = counting(monkeypatch, runner, "file_fingerprint")
    g = load_dataset(cfg, cache_dir=cache)
    assert len(hashes) == 1
    assert read_index(cache) == {str(path.resolve()): index_entry(path)}
    load_dataset(cfg, cache_dir=cache)
    assert len(hashes) == 1
    assert_same_graph(fresh_graph(cfg), g)


def test_two_paths_with_the_same_bytes_share_one_archive(tmp_path, monkeypatch, settle):
    a = edge_file(tmp_path / "a.csv")
    b = tmp_path / "b.csv"
    b.write_bytes(a.read_bytes())
    settle()
    cache = tmp_path / ".cache"
    ingests = counting(monkeypatch, runner, "load_edge_list")
    ga, gb = (load_dataset(ExperimentConfig(dataset=str(p), frequency="1000"), cache_dir=cache)
              for p in (a, b))
    assert len(ingests) == 1
    key = cache_key(file_fingerprint(a), "1000", EdgeSchema())
    assert sorted(p.name for p in cache.iterdir()) == [f"{key}.npz", "fingerprints.json"]
    assert read_index(cache) == {str(a.resolve()): index_entry(a),
                                 str(b.resolve()): index_entry(b)}
    assert_same_graph(ga, gb)


def _load_and_parse_the_index(args):
    """Grid-worker stand-in: load `dataset` `times` times into `cache` and
    parse the index after each load. A worker that records its entry writes
    the index until its entry survives the others' writes; one that records
    none (an endless margin) writes it on every load, keeping the others'
    entries it read."""
    dataset, cache, times, records = args
    runner.SETTLED_NS = 50_000_000 if records else 10**18
    cfg = ExperimentConfig(dataset=dataset, frequency="1000")
    for _ in range(times):
        load_dataset(cfg, cache_dir=Path(cache))
        json.loads((Path(cache) / "fingerprints.json").read_text())  # never torn
    return times


def test_concurrent_loads_never_tear_the_index(tmp_path, settle):
    paths = [tmp_path / f"edges{i}.csv" for i in range(4)]  # more workers than cores
    edge_file(paths[0])
    for p in paths[1:]:
        p.write_bytes(paths[0].read_bytes())
    settle()
    cache = tmp_path / ".cache"
    load_dataset(ExperimentConfig(dataset=str(paths[0]), frequency="1000"), cache_dir=cache)
    tasks = [(str(p), str(cache), 20, i % 2 == 0) for i, p in enumerate(paths)]
    with multiprocessing.get_context("spawn").Pool(len(tasks)) as pool:
        assert pool.map_async(_load_and_parse_the_index, tasks).get(timeout=120) == [20] * 4
    index = read_index(cache)
    assert set(index) <= {str(p.resolve()) for p in paths[::2]}
    assert all(entry == index_entry(Path(name)) for name, entry in index.items())
    key = cache_key(file_fingerprint(paths[0]), "1000", EdgeSchema())
    assert sorted(p.name for p in cache.iterdir()) == [f"{key}.npz", "fingerprints.json"]


def test_periods_that_agree_to_six_digits_do_not_share_an_archive(tmp_path):
    path = edge_file(tmp_path / "edges.csv")
    cache = tmp_path / ".cache"
    for frequency in ("1000001", "1000002"):
        cfg = ExperimentConfig(dataset=str(path), frequency=frequency)
        g = load_dataset(cfg, cache_dir=cache)
        assert g.period_seconds == float(frequency)
        assert_same_graph(fresh_graph(cfg), g)
    assert len(list(cache.glob("*.npz"))) == 2
    edges = load_edge_list(path, EdgeSchema())
    assert partition_snapshots(edges, 1000002.0).frequency == "1000002s"


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
    # (test MRR, validation MRR) per alpha; alpha 0.1 fails in the run,
    # "abc" when its value is parsed, and 0.3 leaves a report that is no object
    outcomes = {0.2: (0.9, 0.1), 0.3: None, 0.5: (0.1, float("nan")), 0.7: (0.2, 0.3)}

    def fake_run(cfg):
        if cfg.alpha not in outcomes:
            raise ConfigError("alpha", "rejected")
        run_dir = tmp_path / cfg.run_name
        run_dir.mkdir(parents=True)
        if outcomes[cfg.alpha] is None:
            (run_dir / "report.json").write_text("[1, 2]")
            return run_dir
        test, val = outcomes[cfg.alpha]
        (run_dir / "report.json").write_text(json.dumps(
            {"mean_mrr": test, "std_mrr": 0.0, "mean_val_mrr": val}))
        return run_dir

    monkeypatch.setattr(runner, "run_experiment", fake_run)
    base = ExperimentConfig(dataset="unused", run_root=str(tmp_path))
    index = grid_search(base, {"alpha": ["0.1", "abc", "0.3", "0.2", "0.5", "0.7"]})
    assert [c["status"] for c in index["cells"]] == ["error"] * 3 + ["ok"] * 3
    assert index["cells"][2]["error"] == "KeyError: 'mean_mrr'"
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
    real = ev.run_protocol

    def spying(g, run_cfg, step_callback=None):
        def callback(record):
            step_callback(record)
            lines_seen.append(len(steps.read_text().splitlines()))

        return real(g, run_cfg, step_callback=callback)

    monkeypatch.setattr(ev, "run_protocol", spying)
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
    assert written == ["config.resolved.txt", "report.json", "seed4",
                       "seed4/model.npz", "seed4/report.json", "seed4/steps.ndjson"]
    steps = (tmp_path / "clean" / "seed4" / "steps.ndjson").read_text().splitlines()
    assert [json.loads(line)["record"] for line in steps] == ["step"] * (len(synth_graph) - 1)


@pytest.mark.parametrize("target", ["checkpoint", "text"])
def test_a_write_that_fails_part_way_keeps_the_old_file(tmp_path, monkeypatch, target):
    if target == "checkpoint":
        path = tmp_path / "model.npz"
        rs = small_run_state()
        rs.save(path)

        def torn(fh, **arrays):
            fh.write(b"PK\x03\x04")  # the head of a zip archive, then the disk fills
            raise OSError("No space left on device")

        monkeypatch.setattr(np, "savez", torn)
        write, error = (lambda: rs.save(path)), OSError
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
        # both workers may ingest and record at once; one whole archive, one
        # whole index and no temporary remain
        assert sorted(p.name for p in (root / ".cache").iterdir()) == [
            f"{cache_key(file_fingerprint(path), '1000', EdgeSchema.parse(base.schema))}.npz",
            "fingerprints.json"]
        for cell in [*index["cells"], index["best"]]:
            assert cell.pop("run_dir") == str(root / cell["cell"])
        indexes[workers] = index
    assert [c["status"] for c in indexes[2]["cells"]] == ["ok"] * 4
    assert indexes[2] == indexes[1]


def test_a_dead_grid_worker_fails_its_cells_and_a_rerun_finishes_them(tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    path = tmp_path / "edges.csv"
    synthetic.write_edge_file(path, synthetic.generate_edges(
        n_nodes=30, n_steps=6, edges_per_step=60, period=1000.0, seed=9))
    base = ExperimentConfig(dataset=str(path), frequency="1000", seeds=(1,), k_neg=20,
                            hidden_dim=8, max_epochs=1, patience=1, workers=2,
                            run_root=str(tmp_path / "runs"))
    axes = {"alpha": ["0.5", "0.7", "1.0"]}
    run = runner.run_experiment

    def dies_on_one_cell(cfg):
        if cfg.alpha == 0.7:
            os._exit(1)  # the worker dies, as under an OOM kill
        return run(cfg)

    # the pool forks its workers, so they call the patched name
    monkeypatch.setattr(runner, "run_experiment", dies_on_one_cell)
    index = grid_search(base, axes)
    assert json.loads((tmp_path / "runs" / "grid" / "index.json").read_text()) == index
    dead = index["cells"][1]
    assert dead["status"] == "error" and dead["error"].startswith("BrokenProcessPool")
    # the pool breaks as a whole, so the cells it still held fail with it
    assert index["n_failed"] == sum(c["status"] == "error" for c in index["cells"]) >= 1

    monkeypatch.setattr(runner, "run_experiment", run)
    index = grid_search(base, axes)
    assert index["n_failed"] == 0
    assert [c["status"] for c in index["cells"]] == ["ok"] * 3


def test_a_report_path_that_is_a_directory_fails_before_any_seed_trains(
        synth_graph, tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    (tmp_path / "r" / "report.json").mkdir(parents=True)
    monkeypatch.setattr(ev, "run_protocol", lambda *a, **k: pytest.fail("a seed trained"))
    cfg = ExperimentConfig(dataset="synthetic", protocol="live_update", seeds=(1,),
                           k_neg=20, hidden_dim=8, max_epochs=1, patience=1,
                           run_root=str(tmp_path), run_name="r")
    with pytest.raises(SnaplinkError, match="report.json is a directory"):
        run_experiment(cfg, graph=synth_graph)
    assert [p.name for p in (tmp_path / "r").iterdir()] == ["report.json"]


@pytest.fixture
def blas_threads():
    """The OpenBLAS thread count's getter, with the count at 2 for the test
    and the old count back after it; skips where numpy's BLAS is another."""
    calls = runner._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy did not load an OpenBLAS with thread-count calls")
    get_count, set_count = calls
    before = get_count()
    set_count(2)
    assert get_count() == 2
    yield get_count
    set_count(before)


def small_fixed_run(tmp_path) -> ExperimentConfig:
    return ExperimentConfig(dataset="synthetic", protocol="fixed_split", seeds=(3,),
                            test_fraction=0.2, k_neg=20, hidden_dim=8,
                            update="moving_average", max_epochs=1, patience=1,
                            run_root=str(tmp_path))


def test_a_run_holds_one_blas_thread_and_gives_the_callers_count_back(
        synth_graph, tmp_path, monkeypatch, blas_threads):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    counts = []
    real = ev.run_protocol

    def spying(g, run_cfg, step_callback=None):
        def callback(record):
            counts.append(blas_threads())
            step_callback(record)

        return real(g, run_cfg, step_callback=callback)

    monkeypatch.setattr(ev, "run_protocol", spying)
    cfg = small_fixed_run(tmp_path)
    run_experiment(cfg, graph=synth_graph)
    assert len(counts) == len(synth_graph) - 1 and set(counts) == {1}
    assert blas_threads() == 2

    def diverging(*args, **kwargs):
        counts.append(blas_threads())
        raise NumericError("diverged")

    monkeypatch.setattr(ev, "run_protocol", diverging)
    with pytest.raises(NumericError):
        run_experiment(replace(cfg, force=True), graph=synth_graph)
    assert counts[-1] == 1 and blas_threads() == 2


def test_each_forked_grid_cell_runs_at_one_blas_thread(tmp_path, monkeypatch, blas_threads):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    path = tmp_path / "edges.csv"
    synthetic.write_edge_file(path, synthetic.generate_edges(
        n_nodes=30, n_steps=6, edges_per_step=60, period=1000.0, seed=9))
    seen = tmp_path / "seen"
    seen.mkdir()
    real = ev.run_protocol

    def spying(g, run_cfg, step_callback=None):
        # a forked worker cannot append to this process's list, so it writes a file
        (seen / f"alpha{run_cfg.alpha}").write_text(f"{os.getpid()} {blas_threads()}")
        return real(g, run_cfg, step_callback=step_callback)

    monkeypatch.setattr(ev, "run_protocol", spying)
    base = ExperimentConfig(dataset=str(path), frequency="1000", seeds=(1,), k_neg=20,
                            hidden_dim=8, max_epochs=1, patience=1, workers=2,
                            run_root=str(tmp_path / "runs"))
    index = grid_search(base, {"alpha": ["0.5", "1.0"]})
    assert index["n_failed"] == 0
    cells = [(seen / f"alpha{a}").read_text().split() for a in (0.5, 1.0)]
    assert all(int(pid) != os.getpid() and count == "1" for pid, count in cells)
    assert blas_threads() == 2


def test_a_run_without_openblas_completes(synth_graph, tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    with monkeypatch.context() as m:  # a library with no thread-count symbols is passed over
        m.setattr(runner.ctypes, "CDLL", lambda path: object())
        assert runner._blas_thread_calls() is None
    monkeypatch.setattr(runner, "_blas_thread_calls", lambda: None)
    run_dir = run_experiment(small_fixed_run(tmp_path), graph=synth_graph)
    assert read_run(run_dir)["seeds"] == [3]


# One live run on a generated file: it prints its mean MRR as a hex float.
_HEX_RUN = """
import json, sys
from snaplink.config import ExperimentConfig
from snaplink.runner import run_experiment

cfg = ExperimentConfig(dataset=sys.argv[1], frequency="1000", protocol="live_update",
                       update="gru", hidden_dim=64, k_neg=100, max_epochs=1, patience=1,
                       seeds=(7,), run_root=sys.argv[2])
print(json.loads((run_experiment(cfg) / "report.json").read_text())["mean_mrr"].hex())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core runs one BLAS thread")
def test_a_runs_bits_do_not_depend_on_the_blas_thread_count(tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    # the smallest generated input found at which 1 and 2 threads, left to
    # themselves, give different hexes: its weight gradients sum over about
    # 600 node rows, enough for OpenBLAS to split those GEMMs between threads
    path = tmp_path / "edges.csv"
    synthetic.write_edge_file(path, synthetic.generate_edges(
        n_nodes=600, n_steps=4, edges_per_step=500, period=1000.0, seed=7))
    package_root = str(Path(runner.__file__).resolve().parents[1])
    hexes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _HEX_RUN, str(path),
                               str(tmp_path / f"threads{threads}")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        hexes.append(done.stdout.strip())
    assert hexes[0] == hexes[1]


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


def _fake_run(run_dir: Path, mrr: float) -> Path:
    """A run directory holding only what `emit_report` reads."""
    (run_dir / "seed0").mkdir(parents=True)
    report = {"protocol": "live_update", "dataset": "d.csv", "update": "gru", "alpha": 1.0,
              "seeds": [0], "mean_mrr": mrr, "std_mrr": 0.0, "mean_val_mrr": mrr}
    (run_dir / "report.json").write_text(json.dumps(report))
    step = {"record": "step", "t": 0, "mrr": mrr, "n_positives": 3, "epochs_run": 1}
    (run_dir / "seed0" / "steps.ndjson").write_text(json.dumps(step) + "\n")
    return run_dir


def _reported(run_dirs, out):
    runner.emit_report(run_dirs, out)
    table = (out / "summary_table.tsv").read_text().splitlines()[2:]
    series = {p.name: p.read_text().splitlines()[2].split("\t")[2]
              for p in out.glob("*.steps.tsv")}
    return [line.split("\t")[0] for line in table], series


def test_report_labels_runs_by_their_path_under_the_common_parent(tmp_path):
    a = _fake_run(tmp_path / "gridA" / "cell000", 0.25)
    b = _fake_run(tmp_path / "gridB" / "cell000", 0.5)
    c = _fake_run(tmp_path / "gridA" / "cell001", 0.125)
    assert _reported([a, b], tmp_path / "two_grids") == (
        ["gridA/cell000", "gridB/cell000"],
        {"gridA_cell000.steps.tsv": "0.250000", "gridB_cell000.steps.tsv": "0.500000"})
    # runs under one grid (or one run root) keep their directory names
    assert _reported([a, c], tmp_path / "one_grid") == (
        ["cell000", "cell001"],
        {"cell000.steps.tsv": "0.250000", "cell001.steps.tsv": "0.125000"})
    assert _reported([b], tmp_path / "one_run") == (
        ["cell000"], {"cell000.steps.tsv": "0.500000"})
