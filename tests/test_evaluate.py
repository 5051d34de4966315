"""Contract tests for the fixed-split protocol."""

import numpy as np
import pytest

from snaplink import evaluate as ev
from snaplink import train as tr
from snaplink.errors import NumericError
from snaplink.model import ModelConfig


def fixed_config(test_fraction=0.2, seed=0):
    return ev.RunConfig(
        model=ModelConfig(hidden_dim=8, n_pre=1, n_mp=2, n_post=1,
                          update="moving_average"),
        train=tr.TrainConfig(learning_rate=0.01, max_epochs=3, patience=2),
        k_neg=20, test_fraction=test_fraction, seed=seed)


def test_fixed_split_step_counts(synth_graph):
    T = len(synth_graph)
    for test_fraction in (0.1, 0.2, 0.4):
        n_test = max(1, round(T * test_fraction))
        report = ev.fixed_split_run(synth_graph, fixed_config(test_fraction))
        assert len(report.evaluated_steps) == n_test
        assert [r.t for r in report.per_step] == list(range(T - n_test - 1, T - 1))
        assert len(report.train_records) == T - n_test - 1
        assert all(r.mrr is None for r in report.train_records)
        assert all(r.epochs_run == 0 for r in report.per_step)


def test_fixed_split_rejects_test_block_without_training(synth_graph):
    with pytest.raises(ValueError, match="no training steps"):
        ev.fixed_split_run(synth_graph, fixed_config(test_fraction=0.9))


def test_fixed_split_parameters_frozen_in_test_block(synth_graph, monkeypatch):
    first_test_step = len(synth_graph) - 2 - 1  # test_fraction=0.2 -> 2 steps
    seen = []
    real_mrr = ev.mrr

    def recording_mrr(top_repr, labels, model):
        if labels.step >= first_test_step:
            seen.append(ev.params_checksum(model))
        return real_mrr(top_repr, labels, model)

    monkeypatch.setattr(ev, "mrr", recording_mrr)
    out = {}
    ev.fixed_split_run(synth_graph, fixed_config(), artifacts_out=out)
    assert len(seen) == 2
    assert set(seen) == {ev.params_checksum(out["model"])}


def test_fixed_split_raises_when_parameters_move(synth_graph, monkeypatch):
    first_test_step = len(synth_graph) - 2 - 1
    real_mrr = ev.mrr

    def mutating_mrr(top_repr, labels, model):
        if labels.step >= first_test_step:
            model.params["head.w1"].value = model.params["head.w1"].value + 1.0
        return real_mrr(top_repr, labels, model)

    monkeypatch.setattr(ev, "mrr", mutating_mrr)
    with pytest.raises(NumericError, match="parameters moved"):
        ev.fixed_split_run(synth_graph, fixed_config())


def test_fixed_split_same_seed_same_report(synth_graph):
    a = ev.fixed_split_run(synth_graph, fixed_config(seed=4))
    b = ev.fixed_split_run(synth_graph, fixed_config(seed=4))
    assert a.summary_dict() == b.summary_dict()
    assert [r.summary_fields() for r in a.per_step + a.train_records] == \
        [r.summary_fields() for r in b.per_step + b.train_records]
    assert np.isfinite(a.mean_mrr)
