"""Fixed-seed golden records for both evaluation protocols.

Pins every per-step field except wall time, with floats as `float.hex`
strings, for `run_protocol` under both protocols with each update kind
on the `synth_graph` fixture, and on a small graph whose labels hit the
skipped-step and no-training-positives branches. Both dtypes are pinned:
float64 (`GOLDEN`, the opt-out path) and float32 (`GOLDEN_FLOAT32`, the run
default). Comparison is exact: a change to the protocol loops must
reproduce the same bits. Regenerate these records only in a change whose
stated purpose is to move numerics, and say so in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden.py

prints both dicts in this file's layout, to paste over the old ones.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import fresh_state, make_synth_graph
from snaplink import evaluate as ev
from snaplink.model import ModelConfig, PairScorer, forward, init_model
from snaplink.snapshots import edges_from_arrays, partition_snapshots
from snaplink.train import TrainConfig

UPDATES = ("moving_average", "mlp", "gru")


def run_config(update, val_fraction=0.1, dtype="float64", protocol="live_update"):
    return ev.RunConfig(model=ModelConfig(hidden_dim=8, update=update, dtype=dtype),
                        train=TrainConfig(max_epochs=3, patience=2), protocol=protocol,
                        alpha=0.5, k_neg=20, val_fraction=val_fraction,
                        test_fraction=0.3, seed=5)


def small_graph():
    """12 nodes over 7 windows of 10, 6, 3, 20, 2, 0 and 7 edges.

    With val_fraction=0.9, label steps 1 and 3 have positives but no
    training positives, and step 4 (the empty window) is skipped; for
    fixed-split (test_fraction=0.3) steps 0-3 train and 4-5 are tested.
    """
    rng = np.random.default_rng(3)
    src, dst, ts = [], [], []
    for w, c in enumerate([10, 6, 3, 20, 2, 0, 7]):
        s = rng.integers(0, 12, c)
        src += s.tolist()
        dst += ((s + 1 + rng.integers(0, 11, c)) % 12).tolist()
        ts += (w * 100.0 + 10.0 + np.arange(c)).tolist()
    return partition_snapshots(edges_from_arrays(src, dst, ts, node_count=12), 100.0)


def hex_or_none(x):
    return None if x is None else float(x).hex()


def rows(records):
    return [(r.t, hex_or_none(r.mrr), r.epochs_run, hex_or_none(r.best_val_mrr),
             hex_or_none(r.final_train_loss), r.skipped)
            for r in records]


GOLDEN = {
    ("live_update", "moving_average"): (
        [],  # train_records
        [  # per_step
            (0, "0x1.28a8b60c9233ap-2", 3, "0x1.8dc3368dc3369p-2", "0x1.5774511ffa6d3p-1", False),
            (1, "0x1.274ac532bea4cp-2", 3, "0x1.39f49f49f49f4p-2", "0x1.6608e22551110p+0", False),
            (2, "0x1.11b8bdc8bba3bp-2", 3, "0x1.b35a2b550953cp-3", "0x1.2f8198a561ec0p+0", False),
            (3, "0x1.0ae74f00e5615p-2", 3, "0x1.07c3c8965c7c4p-2", "0x1.06b3f256ba372p+0", False),
            (4, "0x1.1be5cad3edb3dp-2", 3, "0x1.164a64a64a64ap-2", "0x1.b1b74717a0f6ap-1", False),
            (5, "0x1.da1b65888bc43p-3", 3, "0x1.164dd6a486ba4p-2", "0x1.dd5847e94a66ap-1", False),
            (6, "0x1.d5458dbec2d83p-3", 3, "0x1.386027b1a3860p-2", "0x1.891437c6174a4p-1", False),
            (7, "0x1.0cade75fb0427p-2", 3, "0x1.3a459b5e33a46p-2", "0x1.650e18ba056c5p-1", False),
            (8, "0x1.043336bcce58ep-2", 3, "0x1.1c1b1706c5c1bp-2", "0x1.6a1f9a6c84e3dp-1", False),
        ],
    ),
    ("live_update", "mlp"): (
        [],  # train_records
        [  # per_step
            (0, "0x1.13e0d56dc18e1p-2", 3, "0x1.91236c91236c9p-2", "0x1.58ae00a89d2ccp-1", False),
            (1, "0x1.0d67c27f7111ap-2", 3, "0x1.8826a08826a09p-3", "0x1.6ae40e420b991p-1", False),
            (2, "0x1.0258fd2d081dep-2", 3, "0x1.4cf2fdbb7ea0ap-2", "0x1.6625c482a69fbp-1", False),
            (3, "0x1.08dba0166811dp-2", 3, "0x1.f6f853136a1a4p-3", "0x1.5e6a28dc9bf0fp-1", False),
            (4, "0x1.36a7aa3e06bf8p-2", 3, "0x1.406b15c06b15bp-2", "0x1.549f69f2691e9p-1", False),
            (5, "0x1.d4af9de78ef88p-3", 3, "0x1.511cede0d511cp-3", "0x1.645350142482ep-1", False),
            (6, "0x1.bccd906e10476p-3", 3, "0x1.78306694a22dbp-3", "0x1.60477a033a4bap-1", False),
            (7, "0x1.1ee97771170afp-2", 3, "0x1.53b53b53b53b5p-2", "0x1.5d502483642a0p-1", False),
            (8, "0x1.02c7a0644c816p-2", 3, "0x1.8d7c65ff43827p-3", "0x1.56bf032126526p-1", False),
        ],
    ),
    ("live_update", "gru"): (
        [],  # train_records
        [  # per_step
            (0, "0x1.84f04b201de5ep-3", 3, "0x1.fbefbefbefbefp-2", "0x1.605a417261fb9p-1", False),
            (1, "0x1.13779b333d0adp-2", 3, "0x1.7150150150151p-2", "0x1.5e47d3bd1f011p-1", False),
            (2, "0x1.143fa00c57c3bp-2", 3, "0x1.327cc5ea7cc5ep-2", "0x1.610a4f15c13d6p-1", False),
            (3, "0x1.1413bae57ac00p-2", 3, "0x1.e41e10e247b65p-3", "0x1.629b714d78c7bp-1", False),
            (4, "0x1.25bbfdaf3cfcap-2", 3, "0x1.b76a76a76a76bp-3", "0x1.5b6662e2d6a74p-1", False),
            (5, "0x1.c1a442d273518p-3", 3, "0x1.12b3e34b97718p-2", "0x1.60d6c03e7905ep-1", False),
            (6, "0x1.ef4a8619fa6acp-3", 3, "0x1.257d3940a402fp-2", "0x1.5a58e4cec17bap-1", False),
            (7, "0x1.16279069cd98ap-2", 3, "0x1.710f3a535275cp-2", "0x1.5a50e893c9457p-1", False),
            (8, "0x1.fe739e5795f49p-3", 3, "0x1.65a4f302d65a4p-3", "0x1.57bc56106f6d3p-1", False),
        ],
    ),
    ("fixed_split", "moving_average"): (
        [  # train_records
            (0, None, 3, "0x1.8dc3368dc3369p-2", "0x1.5774511ffa6d3p-1", False),
            (1, None, 3, "0x1.39f49f49f49f4p-2", "0x1.6608e22551110p+0", False),
            (2, None, 3, "0x1.b35a2b550953cp-3", "0x1.2f8198a561ec0p+0", False),
            (3, None, 3, "0x1.07c3c8965c7c4p-2", "0x1.06b3f256ba372p+0", False),
            (4, None, 3, "0x1.164a64a64a64ap-2", "0x1.b1b74717a0f6ap-1", False),
            (5, None, 3, "0x1.164dd6a486ba4p-2", "0x1.dd5847e94a66ap-1", False),
        ],
        [  # per_step
            (6, "0x1.d5458dbec2d83p-3", 0, None, None, False),
            (7, "0x1.2b14e0f239bf1p-2", 0, None, None, False),
            (8, "0x1.0f1ffbe2e35f7p-2", 0, None, None, False),
        ],
    ),
    ("fixed_split", "mlp"): (
        [  # train_records
            (0, None, 3, "0x1.91236c91236c9p-2", "0x1.58ae00a89d2ccp-1", False),
            (1, None, 3, "0x1.8826a08826a09p-3", "0x1.6ae40e420b991p-1", False),
            (2, None, 3, "0x1.4cf2fdbb7ea0ap-2", "0x1.6625c482a69fbp-1", False),
            (3, None, 3, "0x1.f6f853136a1a4p-3", "0x1.5e6a28dc9bf0fp-1", False),
            (4, None, 3, "0x1.406b15c06b15bp-2", "0x1.549f69f2691e9p-1", False),
            (5, None, 3, "0x1.511cede0d511cp-3", "0x1.645350142482ep-1", False),
        ],
        [  # per_step
            (6, "0x1.bccd906e10476p-3", 0, None, None, False),
            (7, "0x1.20c89757f18cdp-2", 0, None, None, False),
            (8, "0x1.00ea6672acb73p-2", 0, None, None, False),
        ],
    ),
    ("fixed_split", "gru"): (
        [  # train_records
            (0, None, 3, "0x1.fbefbefbefbefp-2", "0x1.605a417261fb9p-1", False),
            (1, None, 3, "0x1.7150150150151p-2", "0x1.5e47d3bd1f011p-1", False),
            (2, None, 3, "0x1.327cc5ea7cc5ep-2", "0x1.610a4f15c13d6p-1", False),
            (3, None, 3, "0x1.e41e10e247b65p-3", "0x1.629b714d78c7bp-1", False),
            (4, None, 3, "0x1.b76a76a76a76bp-3", "0x1.5b6662e2d6a74p-1", False),
            (5, None, 3, "0x1.12b3e34b97718p-2", "0x1.60d6c03e7905ep-1", False),
        ],
        [  # per_step
            (6, "0x1.ef4a8619fa6acp-3", 0, None, None, False),
            (7, "0x1.2025a4a828c40p-2", 0, None, None, False),
            (8, "0x1.ed256465ebaf4p-3", 0, None, None, False),
        ],
    ),
    ("live_update", "small"): (
        [],  # train_records
        [  # per_step
            (0, "0x1.0444444444445p-2", 3, "0x1.6789abcdf0123p-3", "0x1.56cd0e113ed40p-1", False),
            (1, "0x1.1249249249249p-3", 0, None, None, False),
            (2, "0x1.a4e17ca36d1f9p-2", 3, "0x1.d56cf9b855b3ep-2", "0x1.5c07fefb51b05p-1", False),
            (3, "0x1.0000000000000p+0", 0, None, None, False),
            (4, None, 0, None, None, True),
            (5, "0x1.8164a893adcd2p-2", 3, "0x1.9451451451451p-2", "0x1.6043af30a12dfp-1", False),
        ],
    ),
    ("fixed_split", "small"): (
        [  # train_records
            (0, None, 3, "0x1.6789abcdf0123p-3", "0x1.56cd0e113ed40p-1", False),
            (1, None, 0, None, None, False),
            (2, None, 3, "0x1.d56cf9b855b3ep-2", "0x1.5c07fefb51b05p-1", False),
            (3, None, 0, None, None, False),
        ],
        [  # per_step
            (4, None, 0, None, None, True),
            (5, "0x1.8164a893adcd2p-2", 0, None, None, False),
        ],
    ),
}

# generated from the float32 default, like GOLDEN: the MRR fields match GOLDEN
# apart from live-update GRU's first step, the training losses do not
GOLDEN_FLOAT32 = {
    ("live_update", "moving_average"): (
        [],  # train_records
        [  # per_step
            (0, "0x1.28a8b60c9233ap-2", 3, "0x1.8dc3368dc3369p-2", "0x1.5774500000000p-1", False),
            (1, "0x1.274ac532bea4cp-2", 3, "0x1.39f49f49f49f4p-2", "0x1.6608e00000000p+0", False),
            (2, "0x1.11b8bdc8bba3bp-2", 3, "0x1.b35a2b550953cp-3", "0x1.2f81940000000p+0", False),
            (3, "0x1.0ae74f00e5615p-2", 3, "0x1.07c3c8965c7c4p-2", "0x1.06b3ec0000000p+0", False),
            (4, "0x1.1be5cad3edb3dp-2", 3, "0x1.164a64a64a64ap-2", "0x1.b1b73e0000000p-1", False),
            (5, "0x1.da1b65888bc43p-3", 3, "0x1.164dd6a486ba4p-2", "0x1.dd583a0000000p-1", False),
            (6, "0x1.d5458dbec2d83p-3", 3, "0x1.386027b1a3860p-2", "0x1.8914300000000p-1", False),
            (7, "0x1.0cade75fb0427p-2", 3, "0x1.3a459b5e33a46p-2", "0x1.650e160000000p-1", False),
            (8, "0x1.043336bcce58ep-2", 3, "0x1.1c1b1706c5c1bp-2", "0x1.6a1f9a0000000p-1", False),
        ],
    ),
    ("live_update", "mlp"): (
        [],  # train_records
        [  # per_step
            (0, "0x1.13e0d56dc18e1p-2", 3, "0x1.91236c91236c9p-2", "0x1.58ae000000000p-1", False),
            (1, "0x1.0d67c27f7111ap-2", 3, "0x1.8826a08826a09p-3", "0x1.6ae40e0000000p-1", False),
            (2, "0x1.0258fd2d081dep-2", 3, "0x1.4cf2fdbb7ea0ap-2", "0x1.6625c60000000p-1", False),
            (3, "0x1.08dba0166811dp-2", 3, "0x1.f6f853136a1a4p-3", "0x1.5e6a2a0000000p-1", False),
            (4, "0x1.36a7aa3e06bf8p-2", 3, "0x1.406b15c06b15bp-2", "0x1.549f6a0000000p-1", False),
            (5, "0x1.d4af9de78ef88p-3", 3, "0x1.511cede0d511cp-3", "0x1.6453500000000p-1", False),
            (6, "0x1.bccd906e10476p-3", 3, "0x1.78306694a22dbp-3", "0x1.60477c0000000p-1", False),
            (7, "0x1.1ee97771170afp-2", 3, "0x1.53b53b53b53b5p-2", "0x1.5d50260000000p-1", False),
            (8, "0x1.02c7a0644c816p-2", 3, "0x1.8d7c65ff43827p-3", "0x1.56bf040000000p-1", False),
        ],
    ),
    ("live_update", "gru"): (
        [],  # train_records
        [  # per_step
            (0, "0x1.835eb84452fc4p-3", 3, "0x1.fbefbefbefbefp-2", "0x1.605a420000000p-1", False),
            (1, "0x1.13779b333d0adp-2", 3, "0x1.7150150150151p-2", "0x1.5e47d40000000p-1", False),
            (2, "0x1.143fa00c57c3bp-2", 3, "0x1.327cc5ea7cc5ep-2", "0x1.610a4e0000000p-1", False),
            (3, "0x1.1413bae57ac00p-2", 3, "0x1.e41e10e247b65p-3", "0x1.629b700000000p-1", False),
            (4, "0x1.25bbfdaf3cfcap-2", 3, "0x1.b76a76a76a76bp-3", "0x1.5b66620000000p-1", False),
            (5, "0x1.c1a442d273518p-3", 3, "0x1.12b3e34b97718p-2", "0x1.60d6c00000000p-1", False),
            (6, "0x1.ef4a8619fa6acp-3", 3, "0x1.257d3940a402fp-2", "0x1.5a58e40000000p-1", False),
            (7, "0x1.16279069cd98ap-2", 3, "0x1.710f3a535275cp-2", "0x1.5a50e80000000p-1", False),
            (8, "0x1.fe739e5795f49p-3", 3, "0x1.65a4f302d65a4p-3", "0x1.57bc560000000p-1", False),
        ],
    ),
    ("fixed_split", "moving_average"): (
        [  # train_records
            (0, None, 3, "0x1.8dc3368dc3369p-2", "0x1.5774500000000p-1", False),
            (1, None, 3, "0x1.39f49f49f49f4p-2", "0x1.6608e00000000p+0", False),
            (2, None, 3, "0x1.b35a2b550953cp-3", "0x1.2f81940000000p+0", False),
            (3, None, 3, "0x1.07c3c8965c7c4p-2", "0x1.06b3ec0000000p+0", False),
            (4, None, 3, "0x1.164a64a64a64ap-2", "0x1.b1b73e0000000p-1", False),
            (5, None, 3, "0x1.164dd6a486ba4p-2", "0x1.dd583a0000000p-1", False),
        ],
        [  # per_step
            (6, "0x1.d5458dbec2d83p-3", 0, None, None, False),
            (7, "0x1.2b14e0f239bf1p-2", 0, None, None, False),
            (8, "0x1.0f1ffbe2e35f7p-2", 0, None, None, False),
        ],
    ),
    ("fixed_split", "mlp"): (
        [  # train_records
            (0, None, 3, "0x1.91236c91236c9p-2", "0x1.58ae000000000p-1", False),
            (1, None, 3, "0x1.8826a08826a09p-3", "0x1.6ae40e0000000p-1", False),
            (2, None, 3, "0x1.4cf2fdbb7ea0ap-2", "0x1.6625c60000000p-1", False),
            (3, None, 3, "0x1.f6f853136a1a4p-3", "0x1.5e6a2a0000000p-1", False),
            (4, None, 3, "0x1.406b15c06b15bp-2", "0x1.549f6a0000000p-1", False),
            (5, None, 3, "0x1.511cede0d511cp-3", "0x1.6453500000000p-1", False),
        ],
        [  # per_step
            (6, "0x1.bccd906e10476p-3", 0, None, None, False),
            (7, "0x1.20c89757f18cdp-2", 0, None, None, False),
            (8, "0x1.00ea6672acb73p-2", 0, None, None, False),
        ],
    ),
    ("fixed_split", "gru"): (
        [  # train_records
            (0, None, 3, "0x1.fbefbefbefbefp-2", "0x1.605a420000000p-1", False),
            (1, None, 3, "0x1.7150150150151p-2", "0x1.5e47d40000000p-1", False),
            (2, None, 3, "0x1.327cc5ea7cc5ep-2", "0x1.610a4e0000000p-1", False),
            (3, None, 3, "0x1.e41e10e247b65p-3", "0x1.629b700000000p-1", False),
            (4, None, 3, "0x1.b76a76a76a76bp-3", "0x1.5b66620000000p-1", False),
            (5, None, 3, "0x1.12b3e34b97718p-2", "0x1.60d6c00000000p-1", False),
        ],
        [  # per_step
            (6, "0x1.ef4a8619fa6acp-3", 0, None, None, False),
            (7, "0x1.2025a4a828c40p-2", 0, None, None, False),
            (8, "0x1.ed256465ebaf4p-3", 0, None, None, False),
        ],
    ),
    ("live_update", "small"): (
        [],  # train_records
        [  # per_step
            (0, "0x1.0444444444445p-2", 3, "0x1.6789abcdf0123p-3", "0x1.56cd0e0000000p-1", False),
            (1, "0x1.1249249249249p-3", 0, None, None, False),
            (2, "0x1.a4e17ca36d1f9p-2", 3, "0x1.d56cf9b855b3ep-2", "0x1.5c08000000000p-1", False),
            (3, "0x1.0000000000000p+0", 0, None, None, False),
            (4, None, 0, None, None, True),
            (5, "0x1.8164a893adcd2p-2", 3, "0x1.9451451451451p-2", "0x1.6043b00000000p-1", False),
        ],
    ),
    ("fixed_split", "small"): (
        [  # train_records
            (0, None, 3, "0x1.6789abcdf0123p-3", "0x1.56cd0e0000000p-1", False),
            (1, None, 0, None, None, False),
            (2, None, 3, "0x1.d56cf9b855b3ep-2", "0x1.5c08000000000p-1", False),
            (3, None, 0, None, None, False),
        ],
        [  # per_step
            (4, None, 0, None, None, True),
            (5, "0x1.8164a893adcd2p-2", 0, None, None, False),
        ],
    ),
}


@pytest.mark.parametrize("protocol", ev.PROTOCOLS)
@pytest.mark.parametrize("update", UPDATES)
def test_golden_synth_graph(synth_graph, protocol, update):
    report = ev.run_protocol(synth_graph, run_config(update, protocol=protocol))
    assert (rows(report.train_records), rows(report.per_step)) == \
        GOLDEN[(protocol, update)]


@pytest.mark.parametrize("protocol", ev.PROTOCOLS)
def test_golden_small_graph_with_empty_window(protocol):
    g = small_graph()
    assert [s.n_edges for s in g.snapshots] == [10, 6, 3, 20, 2, 0, 7]
    report = ev.run_protocol(g, run_config("gru", val_fraction=0.9, protocol=protocol))
    assert (rows(report.train_records), rows(report.per_step)) == \
        GOLDEN[(protocol, "small")]


@pytest.mark.parametrize("protocol", ev.PROTOCOLS)
@pytest.mark.parametrize("update", UPDATES)
def test_golden_synth_graph_float32(synth_graph, protocol, update):
    report = ev.run_protocol(synth_graph,
                             run_config(update, dtype="float32", protocol=protocol))
    assert (rows(report.train_records), rows(report.per_step)) == \
        GOLDEN_FLOAT32[(protocol, update)]


@pytest.mark.parametrize("protocol", ev.PROTOCOLS)
def test_golden_small_graph_with_empty_window_float32(protocol):
    report = ev.run_protocol(small_graph(), run_config("gru", val_fraction=0.9,
                                                       dtype="float32", protocol=protocol))
    assert (rows(report.train_records), rows(report.per_step)) == \
        GOLDEN_FLOAT32[(protocol, "small")]


def assert_close_in_float32(actual, desired):
    """Equal to rtol 1e-4 of each element or of the array's largest magnitude:
    an entry near zero (just above a ReLU's kink, say) is a difference of
    O(1) terms and keeps their absolute float32 error."""
    assert actual.dtype == np.float32
    np.testing.assert_allclose(actual, desired, rtol=1e-4,
                               atol=1e-4 * np.abs(desired).max())


@pytest.mark.parametrize("update", UPDATES)
def test_float32_forward_matches_float64(synth_graph, update):
    cfg = ModelConfig(hidden_dim=16, update=update, dtype="float64")
    model = init_model(cfg, np.random.default_rng(7))
    state = fresh_state(model, synth_graph.node_count)
    # a train forward moves the BN statistics off their initial values and an
    # eval forward gives a non-zero previous state
    forward(synth_graph[0], state, model, pairs=np.array([[0, 1]]), mode="train")
    state = forward(synth_graph[0], state, model).state

    model32 = init_model(replace(cfg, dtype="float32"), np.random.default_rng(0))
    model32.params.load_state_dict({k: v.astype(np.float32)
                                    for k, v in model.params.state_dict().items()})
    out64 = forward(synth_graph[1], state, model)
    out32 = forward(synth_graph[1], state, model32)
    assert_close_in_float32(out32.top_repr, out64.top_repr)
    for layer32, layer64 in zip(out32.state.layers, out64.state.layers):
        assert_close_in_float32(layer32, layer64)
    dsts = np.arange(synth_graph.node_count)
    for src in (0, 7, 23):
        assert_close_in_float32(
            PairScorer(out32.top_repr, model32).scores_against(src, dsts),
            PairScorer(out64.top_repr, model).scores_against(src, dsts))


def golden_source(name, dtype):
    """`name = {...}` holding every record at `dtype`, in this file's layout."""
    g = make_synth_graph()
    runs = [((p, u), g, run_config(u, dtype=dtype, protocol=p))
            for p in ev.PROTOCOLS for u in UPDATES]
    runs += [((p, "small"), small_graph(),
              run_config("gru", val_fraction=0.9, dtype=dtype, protocol=p))
             for p in ev.PROTOCOLS]

    def row(record):
        return ", ".join(f'"{x}"' if isinstance(x, str) else repr(x) for x in record)

    def block(label, records):
        if not records:
            return [f"        [],  # {label}"]
        return ([f"        [  # {label}"] + [f"            ({row(r)})," for r in records]
                + ["        ],"])

    lines = [f"{name} = {{"]
    for (protocol, kind), graph, cfg in runs:
        report = ev.run_protocol(graph, cfg)
        lines += ([f'    ("{protocol}", "{kind}"): (']
                  + block("train_records", rows(report.train_records))
                  + block("per_step", rows(report.per_step)) + ["    ),"])
    return "\n".join(lines + ["}"])


if __name__ == "__main__":
    print(golden_source("GOLDEN", "float64"))
    print()
    print(golden_source("GOLDEN_FLOAT32", "float32"))
