"""Contract tests for run directories written by the runner."""

import json
from dataclasses import replace

from snaplink import evaluate as ev
from snaplink.config import ExperimentConfig
from snaplink.runner import run_experiment


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
