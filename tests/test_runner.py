"""Contract tests for run directories written by the runner."""

import hashlib
import json
from dataclasses import replace

import numpy as np

from snaplink import evaluate as ev
from snaplink import synthetic
from snaplink.config import ExperimentConfig
from snaplink.runner import load_dataset, run_experiment
from snaplink.snapshots import EdgeSchema, file_fingerprint, period_seconds


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


def test_load_dataset_never_opens_an_archive_of_the_old_format(tmp_path):
    path = tmp_path / "edges.csv"
    synthetic.write_edge_file(path, synthetic.generate_edges(
        n_nodes=30, n_steps=5, edges_per_step=40, period=1000.0, seed=4))
    cfg = ExperimentConfig(dataset=str(path), frequency="1000")
    # the key of a v1 archive did not include the format
    raw = (f"{file_fingerprint(path)}|{period_seconds(cfg.frequency):g}"
           f"|{EdgeSchema.parse(cfg.schema).tag()}")
    old_key = hashlib.sha256(raw.encode()).hexdigest()[:20]
    cache = tmp_path / ".cache"
    cache.mkdir()
    meta = json.dumps({"format": "snaplink-snapshots-v1"}).encode()
    np.savez_compressed(cache / f"{old_key}.npz",
                        __meta__=np.frombuffer(meta, np.uint8),
                        node_features=np.zeros((5, 30, 2)))

    g = load_dataset(cfg, cache_dir=cache)  # the v1 archive would raise
    written = sorted(p.name for p in cache.iterdir())
    assert len(written) == 2 and f"{old_key}.npz" in written
    warm = load_dataset(cfg, cache_dir=cache)
    assert len(g) == len(warm) == 5
    for a, b, c in zip(load_dataset(cfg).snapshots, g.snapshots, warm.snapshots):
        for attr in ("edge_src", "edge_dst", "edge_features", "node_features"):
            assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes()
            assert getattr(a, attr).tobytes() == getattr(c, attr).tobytes()
