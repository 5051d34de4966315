"""The on-disk archives: a run's checkpoint (`evaluate.RunState`) and the
snapshot cache.

Both go through `snapshots.save_archive` / `load_archive`, which round-trip
arrays bit-exactly; and only `snapshots.py` calls numpy's archive I/O.
Their entry names and format tags are pinned, an archive written by hand
in that layout loads bit-exactly, and neither loader accepts the other's
archive."""

import io
import json
import tokenize
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conftest import fresh_state, incident_counts, toy_model, toy_snapshot
from snaplink import evaluate as ev
from snaplink import model as md
from snaplink import snapshots as sn


def meta_of(path) -> dict:
    with np.load(path) as data:
        return json.loads(bytes(data["__meta__"]).decode())


def entries_of(path) -> set[str]:
    with np.load(path) as data:
        return set(data.files)


def trained_run_state(frozen_checksum="c0ffee"):
    """A RunState at step 3: a GRU model whose running statistics a train
    forward moved, a meta model of other weights, and a carried state with
    non-zero layers and history."""
    model = toy_model(update="gru", seed=21)
    snap = toy_snapshot()
    state = fresh_state(model, snap.n_nodes)
    rng = np.random.default_rng(21)
    for layer in state.layers:
        layer[:] = rng.normal(size=layer.shape)
    state.history = 3.0 * incident_counts([snap], snap.n_nodes)
    md.forward(snap, state, model, pairs=[(0, 1), (2, 5)], mode="train")
    return ev.RunState(model, toy_model(update="gru", seed=22), state, 3, frozen_checksum)


def run_state_arrays(rs) -> dict[str, np.ndarray]:
    """Every array of `rs` under its run archive entry name."""
    arrays = {f"arr:deploy:{k}": v for k, v in rs.deploy.params.state_dict().items()}
    arrays.update({f"arr:meta:{k}": v for k, v in rs.meta.params.state_dict().items()})
    arrays.update({f"arr:state:{i}": layer for i, layer in enumerate(rs.state.layers)})
    arrays["arr:state:history"] = rs.state.history
    return arrays


def cache_graph():
    rng = np.random.default_rng(22)
    edges = sn.edges_from_arrays(rng.integers(0, 12, 80), rng.integers(0, 12, 80),
                                 rng.uniform(0, 1e4, 80), weight=rng.uniform(0.5, 2.0, 80))
    g = sn.partition_snapshots(edges, 2500)
    g.source_fingerprint = "f" * 64
    return g


def assert_same_model(a, b):
    assert a.config == b.config
    assert a.params.names() == b.params.names()
    for p in a.params:
        q = b.params[p.name]
        assert q.requires_grad == p.requires_grad, p.name
        assert q.value.dtype == p.value.dtype and q.value.tobytes() == p.value.tobytes(), p.name


def assert_same_state(a, b):
    assert len(a.layers) == len(b.layers)
    for x, y in zip(a.layers, b.layers):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert a.history.shape == b.history.shape
    assert a.history.tobytes() == b.history.tobytes()


def assert_same_run_state(a, b):
    assert_same_model(a.deploy, b.deploy)
    assert_same_model(a.meta, b.meta)
    assert_same_state(a.state, b.state)
    assert (a.step, a.frozen_checksum) == (b.step, b.frozen_checksum)


def assert_same_cached_graph(a, b):
    for attr in ("offsets", "src", "dst", "edge_features"):
        x, y = getattr(a, attr), getattr(b, attr)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), attr
    for attr in ("start", "period_seconds", "node_count", "frequency", "source_fingerprint"):
        assert getattr(a, attr) == getattr(b, attr), attr
    assert [s.window for s in a.snapshots] == [s.window for s in b.snapshots]
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.node_features.tobytes() == sb.node_features.tobytes()


# ---------------------------------------------------------------------------
# the archive helpers
# ---------------------------------------------------------------------------


def test_checkpoint_bit_exact_roundtrip(tmp_path):
    rng = np.random.default_rng(20)
    arrays = {
        "layer.w": rng.normal(size=(4, 7)),
        "layer.b": rng.normal(size=4) * 1e-300,  # subnormal-scale values survive
        "odd/name:1": rng.normal(size=(2, 2, 2)),
    }
    path = tmp_path / "ck.npz"
    sn.save_archive(path, "test-format", arrays, {"note": "test"})
    loaded, meta = sn.load_archive(path, "test-format")
    assert meta == {"format": "test-format", "note": "test"}
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert loaded[k].dtype == arrays[k].dtype
        assert np.array_equal(
            loaded[k].view(np.uint64), arrays[k].view(np.uint64)
        ), f"{k} not bit-exact"
    with pytest.raises(ValueError, match="test-format"):
        sn.load_archive(path, "other-format")
    # like np.savez, a name without the suffix gains ".npz"
    sn.save_archive(tmp_path / "bare", "test-format", arrays, {})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bare.npz", "ck.npz"]


ARCHIVE_CALLS = {"savez", "savez_compressed", "load"}


def archive_calls(text: str) -> list[int]:
    """Lines of `text` whose code calls `np.savez`, `np.savez_compressed` or
    `np.load` (also spelled `numpy.`), or imports one of them from numpy.
    Tokens, not text: a comment or a string naming one is not a call."""
    toks = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
            if t.type in (tokenize.NAME, tokenize.OP)]
    lines = []
    for i, tok in enumerate(toks):
        if tok.string not in ARCHIVE_CALLS or i < 2:
            continue
        if toks[i - 1].string == "." and toks[i - 2].string in ("np", "numpy"):
            lines.append(tok.start[0])
        elif tok.string != "load" and toks[i - 1].string in ("import", ",", "("):
            lines.append(tok.start[0])
    return lines


def test_only_snapshots_calls_numpy_archive_io():
    package = Path(__file__).resolve().parents[1] / "src" / "snaplink"
    found = {p.name: archive_calls(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert found.pop("snapshots.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_archive_call_detector():
    text = ("import numpy as np\n"
            "from numpy import savez_compressed\n"
            "np.savez(fh, **arrays)\n"
            "with np.load(path) as data:\n"
            "    pass\n"
            "numpy.savez_compressed(fh)\n"
            "# np.load in a comment\n"
            "x = 'np.savez in a string'\n"
            "json.load(fh)\n"
            "model.load(path)\n")
    assert archive_calls(text) == [2, 3, 4, 6]


# ---------------------------------------------------------------------------
# the pinned layouts
# ---------------------------------------------------------------------------


def test_checkpoint_entries_and_format_are_pinned(tmp_path):
    rs = trained_run_state()
    path = tmp_path / "model.npz"
    rs.save(path)
    names = rs.deploy.params.names()
    assert entries_of(path) == (
        {"__meta__", "arr:state:0", "arr:state:1", "arr:state:history"}
        | {f"arr:deploy:{name}" for name in names} | {f"arr:meta:{name}" for name in names})
    assert meta_of(path) == {"format": "snaplink-run-v1", "config": asdict(rs.deploy.config),
                             "step": 3, "frozen_checksum": "c0ffee"}
    with np.load(path) as data:
        # every entry C-contiguous, and the history one count per node
        assert data["arr:state:history"].shape == (rs.state.layers[0].shape[0],)
        assert all(data[k].flags.c_contiguous for k in data.files)
    # before the frozen block starts there is no checksum to keep
    trained_run_state(frozen_checksum=None).save(tmp_path / "training.npz")
    assert meta_of(tmp_path / "training.npz")["frozen_checksum"] is None
    assert ev.RunState.load(tmp_path / "training.npz").frozen_checksum is None


def test_cache_entries_and_format_are_pinned(tmp_path):
    g = cache_graph()
    path = tmp_path / "cache.npz"
    sn.save_snapshot_cache(path, g)
    assert entries_of(path) == {"__meta__", "offsets", "src", "dst", "edge_features"}
    assert meta_of(path) == {
        "format": "snaplink-snapshots-v2", "period_seconds": g.period_seconds,
        "node_count": g.node_count, "frequency": g.frequency,
        "source_fingerprint": g.source_fingerprint, "n_snapshots": len(g),
        "windows": [list(s.window) for s in g.snapshots]}


def test_a_checkpoint_written_by_hand_loads_bit_exactly(tmp_path):
    rs = trained_run_state()
    meta = {"config": asdict(rs.deploy.config), "format": "snaplink-run-v1", "step": 3,
            "frozen_checksum": "c0ffee"}
    path = tmp_path / "model.npz"
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta, sort_keys=True).encode(),
                                          np.uint8), **run_state_arrays(rs))
    assert_same_run_state(rs, ev.RunState.load(path))


def cache_written_by_hand(path, g, **extra):
    # the keys in the order the cache writes them, which is not sorted
    meta = {"format": "snaplink-snapshots-v2", "period_seconds": g.period_seconds,
            "node_count": g.node_count, "frequency": g.frequency,
            "source_fingerprint": g.source_fingerprint, "n_snapshots": len(g),
            "windows": [list(s.window) for s in g.snapshots]}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), np.uint8),
             offsets=g.offsets, src=g.src, dst=g.dst, edge_features=g.edge_features,
             **extra)


def test_a_cache_written_by_hand_loads_bit_exactly(tmp_path):
    g = cache_graph()
    path = tmp_path / "cache.npz"
    cache_written_by_hand(path, g)
    assert_same_cached_graph(g, sn.load_snapshot_cache(path))
    # an entry the cache does not know is ignored
    cache_written_by_hand(path, g, note=np.arange(3))
    assert_same_cached_graph(g, sn.load_snapshot_cache(path))


def test_a_cache_missing_an_entry_raises_key_error(tmp_path):
    g = cache_graph()
    path = tmp_path / "cache.npz"
    sn.save_snapshot_cache(path, g)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "edge_features"}
    np.savez(path, **arrays)
    with pytest.raises(KeyError):
        sn.load_snapshot_cache(path)


# ---------------------------------------------------------------------------
# one loader never reads the other's archive
# ---------------------------------------------------------------------------


def test_run_state_load_rejects_a_cache_archive(tmp_path):
    path = tmp_path / "cache.npz"
    sn.save_snapshot_cache(path, cache_graph())
    with pytest.raises(ValueError, match="snaplink-snapshots-v2"):
        ev.RunState.load(path)


def test_load_snapshot_cache_rejects_a_checkpoint(tmp_path):
    path = tmp_path / "model.npz"
    trained_run_state().save(path)
    with pytest.raises(ValueError, match="snaplink-run-v1"):
        sn.load_snapshot_cache(path)


def test_a_v1_checkpoint_is_rejected_by_its_format(tmp_path):
    # v1 stored the head's first layer as one (d, 2d) `head.w1`: its format
    # tag, not a parameter-name mismatch, is what refuses it
    model = trained_run_state().deploy
    arrays = model.params.state_dict()
    arrays["head.w1"] = np.hstack([arrays.pop("head.w_src"), arrays.pop("head.w_dst")])
    path = tmp_path / "v1.npz"
    sn.save_archive(path, "snaplink-params-v1",
                    {"arr:" + k: v for k, v in arrays.items()},
                    {"config": asdict(model.config)})
    with pytest.raises(ValueError, match="archive format 'snaplink-params-v1'"):
        ev.RunState.load(path)


def params_archive(path, rs, version: int, history) -> None:
    """A `snaplink-params-v<version>` model checkpoint of `rs`'s deployed
    model and state, with `history` as its history entry."""
    arrays = {"arr:" + k: v for k, v in rs.deploy.params.state_dict().items()}
    arrays.update({f"arr:hstate:{i}": layer for i, layer in enumerate(rs.state.layers)})
    arrays["arr:hstate:history"] = history
    sn.save_archive(path, f"snaplink-params-v{version}", arrays,
                    {"config": asdict(rs.deploy.config), "state_step": rs.step})


def test_a_v2_checkpoint_is_rejected_by_its_format(tmp_path):
    # v2 stored a scalar history total as a (1,) entry unless the config
    # asked for per-node counts
    rs = trained_run_state()
    params_archive(tmp_path / "v2.npz", rs, 2, np.array([rs.state.history.sum() / 2]))
    with pytest.raises(ValueError, match="archive format 'snaplink-params-v2'"):
        ev.RunState.load(tmp_path / "v2.npz")


def test_a_v3_checkpoint_is_rejected_by_its_format(tmp_path):
    # v3, a run's model.npz before the run archive, stored the deployed model
    # and the state but no meta model: its tag, not its entry names, refuses it
    rs = trained_run_state()
    params_archive(tmp_path / "model.npz", rs, 3, rs.state.history)
    with pytest.raises(ValueError, match="archive format 'snaplink-params-v3'"):
        ev.RunState.load(tmp_path / "model.npz")


def test_run_state_load_rejects_a_history_not_one_count_per_node(tmp_path):
    rs = trained_run_state()
    rs.state.history = rs.state.history[:-1]
    path = tmp_path / "model.npz"
    rs.save(path)
    with pytest.raises(ValueError, match=r"history shape \(5,\) != \(6,\)"):
        ev.RunState.load(path)
