"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import measure  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

from run import END_TO_END  # noqa: E402


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    res = run_bench("--workload", workload, "--smoke", "--seconds", "1",
                    "--seed", "3", "--trace", str(trace))
    assert res.returncode == 0, res.stdout + res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = tuple(END_TO_END if trace == 0 else PER_LAYER)
    assert tuple(last["metrics"]) == expected
    for m in last["metrics"].values():
        assert math.isfinite(m["value"])
    if trace == 0:
        assert all(last["metrics"][k]["value"] > 0 for k in END_TO_END)


def test_traced_metrics_follow_the_workload_design():
    res = run_bench("--workload", "ingest-long", "--smoke", "--seconds", "1",
                    "--trace", "1")
    metrics = json.loads(res.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["snapshots.build_labels.calls"]["value"] == 0
    assert metrics["runner.load_dataset.cold_s"]["value"] > 0
    assert metrics["snapshots.graph_mb"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = run_bench("--workload", "live-train", "--smoke", "--seconds", "1",
                    cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert res.returncode != 0
    assert not res.stdout.strip()


# ---------------------------------------------------------------------------
# Corrupted outputs fail their checks
# ---------------------------------------------------------------------------


@pytest.fixture
def smoke_run(tmp_path):
    """A finished smoke live-train run directory and its config."""
    from snaplink import runner
    from snaplink.config import ExperimentConfig

    w = WORKLOADS["live-train"]
    generate(w, 0, True, tmp_path / "in")
    _, overrides = w.params(True)
    cfg = dataclasses.replace(ExperimentConfig(), dataset=str(tmp_path / "in" / "edges.csv"),
                              seeds=(0,), run_root=str(tmp_path / "runs"),
                              run_name="r", **overrides)
    return runner.run_experiment(cfg), cfg, w


def test_good_run_passes(smoke_run):
    run_dir, cfg, w = smoke_run
    assert checks.check_model_run(run_dir, 0, w.n_evaluated, cfg.k_neg) == []


def test_nan_mrr_fails(smoke_run):
    run_dir, cfg, w = smoke_run
    report = json.loads((run_dir / "report.json").read_text())
    report["mean_mrr"] = float("nan")
    (run_dir / "report.json").write_text(json.dumps(report))
    fails = checks.check_model_run(run_dir, 0, w.n_evaluated, cfg.k_neg)
    assert any("not finite" in f for f in fails)


def test_nan_parameter_fails(smoke_run):
    run_dir, cfg, w = smoke_run
    path = run_dir / "seed0" / "model.npz"
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    name = next(k for k in arrays if k.startswith("arr:") and arrays[k].dtype.kind == "f")
    arrays[name] = arrays[name].copy()
    arrays[name].flat[0] = np.nan
    np.savez(path, **arrays)
    fails = checks.check_model_run(run_dir, 0, w.n_evaluated, cfg.k_neg)
    assert any("non-finite checkpoint" in f for f in fails)


def test_wrong_step_count_fails(smoke_run):
    run_dir, cfg, _ = smoke_run
    assert any("n_evaluated" in f for f in checks.check_model_run(run_dir, 0, 4, cfg.k_neg))


def test_changed_mrr_between_runs_fails():
    assert checks.check_same_mrr([0.25, 0.25]) == []
    assert checks.check_same_mrr([0.25, np.nextafter(0.25, 1.0)])


def test_cached_graph_that_differs_fails(smoke_run):
    from snaplink import runner

    _, cfg, _ = smoke_run
    cache = Path(cfg.run_root) / ".cache"
    cold = runner.load_dataset(cfg, cache_dir=cache / "x")
    warm = runner.load_dataset(cfg, cache_dir=cache / "x")
    assert checks.check_same_graph(cold, warm) == []
    warm.snapshots[1].node_features[0, 1] += 1e-12
    assert checks.check_same_graph(cold, warm) == ["snapshot 1: node_features differs"]
    totals = checks.graph_counts(cold)
    assert checks.check_counts(warm, {**totals, "edges": totals["edges"] + 1})


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them():
    from snaplink import evaluate, runner, snapshots, train

    originals = (evaluate.build_labels, runner.load_edge_list, train.forward,
                 evaluate.forward, evaluate.fine_tune)
    with Tracer():
        assert evaluate.build_labels is snapshots.build_labels
        assert evaluate.build_labels is not originals[0]
        assert runner.load_edge_list is snapshots.load_edge_list
        assert train.forward is evaluate.forward is not originals[2]
        assert evaluate.fine_tune is train.fine_tune is not originals[4]
    assert (evaluate.build_labels, runner.load_edge_list, train.forward,
            evaluate.forward, evaluate.fine_tune) == originals


def test_missing_span_is_reported():
    tracer = Tracer()
    with tracer:
        from snaplink import diffcore as dc

        x = dc.Param("x", np.ones((3, 2)))
        dc.backward(dc.bce_with_logits(dc.relu(x), np.zeros((3, 2))))
    missing = measure.missing_spans([("t", tracer)], ("diffcore.relu", "diffcore.relu.bwd",
                                                      "diffcore.affine"))
    assert missing == ["diffcore.affine"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == u for k, u in PER_LAYER.items())
