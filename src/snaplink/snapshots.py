"""Edge-stream ingestion, the time-CSR snapshot graph, and link-prediction labels.

Timestamped edge lists come in as delimiter-separated text (one edge per
line, configurable column order). Node ids are compacted to a dense range
on ingestion and fixed for the whole run; later snapshots in which a node
has no incident edges simply contribute no messages for it.

A `DynamicGraph` holds every edge once, in window order, with per-window
offsets (a time-CSR layout). Partitioning, the snapshot cache and the
snapshots themselves all share that layout, and `DynamicGraph` alone checks
it and slices it into windows. A graph holds its edges only: node features
are `degree_features` of the cumulative degree that `model` carries in its
state. `GraphSnapshot.node_features` remains for the benchmark, and builds
every window's features of its graph when one of them is first read.

This module also owns the one archive format of the snapshot cache and of
`model`'s checkpoints: an uncompressed `.npz` whose JSON `__meta__` entry
holds a `format` tag, written atomically (`save_archive`, `load_archive`).

All functions are pure over their inputs and take explicit generators, so
identical (file, schema, frequency, seed) reproduce identical outputs.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, EmptyInputError, ParseError

DAY_SECONDS = 86_400
WEEK_SECONDS = 7 * DAY_SECONDS

EDGE_COLUMNS = ("src", "dst", "weight", "timestamp")

# node features: (1, log1p(cumulative incident degree))
NODE_FEATURE_DIM = 2
# edge features: (weight, position of the timestamp inside its window)
EDGE_FEATURE_DIM = 2


def degree_features(history: np.ndarray) -> np.ndarray:
    """The (N, NODE_FEATURE_DIM) float64 node features [1, log1p(history)]
    of each node's cumulative incident edge count, float64 of shape (N,)."""
    return np.column_stack([np.ones(history.size, dtype=np.float64), np.log1p(history)])


@dataclass(frozen=True)
class EdgeSchema:
    """How to read one edge per line: delimiter and column order.

    `columns` lists the meaning of each field in order; `weight` may be
    omitted (defaults to 1.0). delimiter=None splits on any whitespace.
    Lines starting with '#' are comments.
    """

    delimiter: str | None = ","
    columns: tuple[str, ...] = EDGE_COLUMNS

    def __post_init__(self):
        unknown = set(self.columns) - set(EDGE_COLUMNS)
        if unknown:
            raise ConfigError("schema.columns", f"unknown columns {sorted(unknown)}")
        for required in ("src", "dst", "timestamp"):
            if required not in self.columns:
                raise ConfigError("schema.columns", f"missing required column {required!r}")

    @classmethod
    def parse(cls, text: str) -> "EdgeSchema":
        """Parse 'delim:col,col,...' e.g. ',:src,dst,weight,timestamp' or
        'ws:src,dst,timestamp' (ws = any whitespace)."""
        delim_part, _, cols_part = text.partition(":")
        if not cols_part:
            raise ConfigError("schema", f"expected 'delim:col,col,...' got {text!r}")
        delim = None if delim_part == "ws" else delim_part
        return cls(delimiter=delim, columns=tuple(c.strip() for c in cols_part.split(",")))

    def tag(self) -> str:
        return f"{self.delimiter or 'ws'}:{','.join(self.columns)}"


@dataclass
class TemporalEdgeList:
    """Raw timestamped directed edges after id compaction, sorted by time."""

    src: np.ndarray        # int64, dense ids in [0, node_count)
    dst: np.ndarray        # int64
    weight: np.ndarray     # float64
    timestamp: np.ndarray  # float64 seconds
    node_count: int
    source_fingerprint: str = ""

    def __post_init__(self):
        if not (len(self.src) == len(self.dst) == len(self.weight) == len(self.timestamp)):
            raise ValueError("edge arrays must have equal length")

    def __len__(self) -> int:
        return len(self.src)


class _WindowFeatures:
    """Every window's node features of one time-CSR graph, built on first
    read: the degree is accumulated window by window, as a carried state's
    history is. It holds the graph's arrays, never the graph, so a snapshot
    does not point back to its graph and a dropped graph is freed at once."""

    __slots__ = ("offsets", "src", "dst", "n_nodes", "arrays")

    def __init__(self, offsets: np.ndarray, src: np.ndarray, dst: np.ndarray, n_nodes: int):
        self.offsets, self.src, self.dst, self.n_nodes = offsets, src, dst, n_nodes
        self.arrays: list[np.ndarray] | None = None

    def window(self, t: int) -> np.ndarray:
        if self.arrays is None:
            history = np.zeros(self.n_nodes, dtype=np.float64)
            self.arrays = []
            for lo, hi in zip(self.offsets[:-1], self.offsets[1:]):
                history += np.bincount(np.concatenate([self.src[lo:hi], self.dst[lo:hi]]),
                                       minlength=self.n_nodes)
                self.arrays.append(degree_features(history))
        return self.arrays[t]


@dataclass
class GraphSnapshot:
    """One static graph over the global node universe: its edges and window.

    edge_features columns are (weight, position of the timestamp inside the
    window scaled to [0, 1)). A snapshot holds no node features: the model
    builds them from its carried degree history. In a `DynamicGraph` the
    edge arrays are read-only views of the graph's arrays.
    """

    index: int
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_features: np.ndarray  # (n_edges, EDGE_FEATURE_DIM)
    window: tuple[float, float]
    n_nodes: int
    _features: _WindowFeatures | None = field(default=None, repr=False, compare=False)

    @property
    def n_edges(self) -> int:
        return len(self.edge_src)

    @property
    def node_features(self) -> np.ndarray:
        """(n_nodes, NODE_FEATURE_DIM) `degree_features` of the cumulative
        degree through this window of a `DynamicGraph`, for the benchmark
        only. The first read on any snapshot of the graph builds every
        window's array; each snapshot then owns its array, and a write to
        it persists."""
        return self._features.window(self.index)


@dataclass
class DynamicGraph:
    """Contiguous windows over one node universe, as one time-CSR graph.

    Window t holds the edges offsets[t]:offsets[t + 1] of src, dst and
    edge_features, and spans [start + t * period, start + (t + 1) * period).
    Construction checks the arrays (ValueError on a bad layout, an endpoint
    outside [0, node_count), a non-finite feature or a window position
    outside [0, 1)), makes them read-only and builds `snapshots`, whose
    edges are views. The graph holds its edges only: no per-window node
    features are built unless `GraphSnapshot.node_features` is read.
    """

    offsets: np.ndarray        # (T + 1,) int64
    src: np.ndarray            # (E,) int64, dense ids in [0, node_count)
    dst: np.ndarray            # (E,) int64
    edge_features: np.ndarray  # (E, EDGE_FEATURE_DIM) float64
    start: float
    period_seconds: float
    node_count: int
    frequency: str = ""
    source_fingerprint: str = ""
    snapshots: list[GraphSnapshot] = field(init=False, repr=False)

    def __post_init__(self):
        offsets, n, n_edges = self.offsets, self.node_count, len(self.src)
        if (offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0
                or offsets[-1] != n_edges or (np.diff(offsets) < 0).any()):
            raise ValueError(f"offsets must rise from 0 to the edge count {n_edges}")
        if len(self.dst) != n_edges or self.edge_features.shape != (n_edges, EDGE_FEATURE_DIM):
            raise ValueError(f"edge arrays disagree with {n_edges} edges")
        if n_edges:
            if min(self.src.min(), self.dst.min()) < 0 or \
                    max(self.src.max(), self.dst.max()) >= n:
                raise ValueError(f"edge endpoint outside [0, {n})")
            if not np.isfinite(self.edge_features).all():
                raise ValueError("non-finite edge features")
            tnorm = self.edge_features[:, 1]
            if tnorm.min() < 0.0 or tnorm.max() >= 1.0:
                raise ValueError("edge timestamp outside its window")
        for a in (offsets, self.src, self.dst, self.edge_features):
            a.flags.writeable = False

        features = _WindowFeatures(offsets, self.src, self.dst, n)
        self.snapshots = []
        for t in range(offsets.size - 1):
            lo, hi = offsets[t], offsets[t + 1]
            w_start = self.start + t * self.period_seconds
            self.snapshots.append(GraphSnapshot(
                index=t,
                edge_src=self.src[lo:hi],
                edge_dst=self.dst[lo:hi],
                edge_features=self.edge_features[lo:hi],
                window=(w_start, w_start + self.period_seconds),
                n_nodes=n,
                _features=features,
            ))

    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, t: int) -> GraphSnapshot:
        return self.snapshots[t]


@dataclass
class LabelSet:
    """Future-edge positives for step t (edges of snapshot t+1) plus negatives.

    eval_negatives maps each distinct positive source to dst candidates
    sampled without replacement from the node universe, rejecting this
    step's positives (historical edges may appear as negatives, and so may
    the source itself: the self-pair (u, u) is ranked).
    """

    step: int
    positives: np.ndarray               # (P, 2) dedup, lexicographically sorted
    train_pos: np.ndarray               # (P_tr, 2)
    val_pos: np.ndarray                 # (P_val, 2)
    eval_negatives: dict[int, np.ndarray] = field(default_factory=dict)
    skip: bool = False

    @property
    def n_positives(self) -> int:
        return 0 if self.skip else self.positives.shape[0]

    def val_view(self) -> "LabelSet":
        """The validation slice, sharing the negative lists."""
        return LabelSet(self.step, self.val_pos, np.empty((0, 2), np.int64),
                        self.val_pos, self.eval_negatives, self.val_pos.size == 0)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def _open_text(path: Path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt")
    return open(path, "r")


def load_edge_list(path, schema: EdgeSchema = EdgeSchema(),
                   fingerprint: str | None = None) -> TemporalEdgeList:
    """Read a delimiter-separated edge file into a compacted, time-sorted list.

    Ids are compacted to dense integers in order of first appearance.
    Missing weight column defaults to 1.0. Raises ParseError with the line
    number on malformed rows and EmptyInputError when no edges are present.
    `fingerprint` is the file's `file_fingerprint` when the caller already
    has it; otherwise the file is hashed here.

    A file is parsed in one vectorised pass when it is ASCII text with no
    control character but tab and line ends and no '#', its delimiter is
    whitespace or one printable ASCII character (or tab), and every src/dst
    field is, after stripping spaces and tabs, a canonical decimal integer:
    digits only, no sign, no leading zero, at most 18 digits. Anything else,
    and any row that pass cannot take (a field count, a float numpy rejects,
    a non-finite value, a negative timestamp, no rows), goes to the per-line
    parser, which is the only one that reports errors. Both give the same
    arrays, node count and fingerprint.
    """
    path = Path(path)
    parsed = _parse_canonical(path, schema)
    if parsed is None:
        parsed = _parse_lines(path, schema)
    src, dst, weight, ts, node_count = parsed
    return edges_from_arrays(src, dst, ts, weight, node_count,
                             file_fingerprint(path) if fingerprint is None else fingerprint)


def _parse_lines(path: Path, schema: EdgeSchema):
    """The general parser: one Python loop over the lines of any input.
    Returns (src, dst, weight, timestamp, node_count) in file order."""
    col_index = {c: i for i, c in enumerate(schema.columns)}
    n_cols = len(schema.columns)
    has_weight = "weight" in col_index

    ids: dict[str, int] = {}
    src_l: list[int] = []
    dst_l: list[int] = []
    w_l: list[float] = []
    t_l: list[float] = []

    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(schema.delimiter)
            if len(parts) != n_cols:
                raise ParseError(
                    f"expected {n_cols} fields, got {len(parts)}: {line!r}", lineno
                )
            try:
                ts = float(parts[col_index["timestamp"]])
                w = float(parts[col_index["weight"]]) if has_weight else 1.0
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            if not math.isfinite(ts) or ts < 0:
                raise ParseError(f"bad timestamp {ts!r}", lineno)
            if not math.isfinite(w):
                raise ParseError(f"bad weight {w!r}", lineno)
            s_key = parts[col_index["src"]].strip()
            d_key = parts[col_index["dst"]].strip()
            src_l.append(ids.setdefault(s_key, len(ids)))
            dst_l.append(ids.setdefault(d_key, len(ids)))
            w_l.append(w)
            t_l.append(ts)

    if not src_l:
        raise EmptyInputError(f"no edges found in {path}")
    return (np.asarray(src_l, dtype=np.int64), np.asarray(dst_l, dtype=np.int64),
            np.asarray(w_l, dtype=np.float64), np.asarray(t_l, dtype=np.float64),
            len(ids))


# Text the vectorised parse takes: printable ASCII but '#', tab and newline
# (text mode turns CR and CRLF into newline). This keeps out comment lines,
# NUL (a byte-string field drops trailing NULs) and the separators
# \x1c-\x1f, which numpy strips around a float and Python's float() rejects.
_PLAIN_TEXT = ("\t\n" + "".join(map(chr, range(32, 127))).replace("#", "")).encode()
# canonical ids have at most 18 digits, so they fit int64; the byte field is
# one wider, so a field loadtxt cut to the width fills it and is declined
_ID_DIGITS = 18
_POW10 = 10 ** np.arange(_ID_DIGITS + 1, dtype=np.int64)


def _parse_canonical(path: Path, schema: EdgeSchema):
    """`_parse_lines`'s result in one `np.loadtxt` pass, or None when the
    input is not plain text with canonical integer ids (see `load_edge_list`)."""
    delim = schema.delimiter
    if delim is not None and (len(delim) != 1 or delim == "\n"
                              or delim.encode() not in _PLAIN_TEXT):
        return None
    dtype = np.dtype([(c, f"S{_ID_DIGITS + 1}" if c in ("src", "dst") else "f8")
                      for c in schema.columns])
    try:
        with _open_text(path) as fh:
            blank = True
            for chunk in iter(lambda: fh.read(1 << 20), ""):
                if not chunk.isascii() or chunk.encode().translate(None, _PLAIN_TEXT):
                    return None
                blank = blank and chunk.isspace()
            if blank:
                return None  # loadtxt would warn and return no rows
            fh.seek(0)
            rows = np.loadtxt(fh, dtype=dtype, delimiter=delim, comments=None,
                              quotechar=None, ndmin=1)
    except (ValueError, OSError, EOFError, zlib.error):
        return None
    ts = rows["timestamp"]
    if not (np.isfinite(ts).all() and (ts >= 0).all()):
        return None
    if "weight" in dtype.names:
        weight = rows["weight"]
        if not np.isfinite(weight).all():
            return None
    else:
        weight = np.ones(rows.size, dtype=np.float64)

    record = rows.view(np.uint8).reshape(rows.size, dtype.itemsize)
    keys = np.empty(2 * rows.size, dtype=np.int64)
    for i, column in enumerate(("src", "dst")):
        offset = dtype.fields[column][1]
        values = _canonical_ints(record[:, offset:offset + _ID_DIGITS + 1])
        if values is None:
            return None
        keys[i::2] = values  # src and dst interleaved: the loop's order
    dense, node_count = _first_appearance_ids(keys)
    # copies, so that the loaded rows are freed before the caller sorts
    return (dense[0::2], dense[1::2], np.ascontiguousarray(weight),
            np.ascontiguousarray(ts), node_count)


def _canonical_ints(fields: np.ndarray) -> np.ndarray | None:
    """int64 values of (n, width) NUL-padded byte fields that are canonical
    decimal integers between optional spaces and tabs, or None if any is not."""
    # the text has no NUL, so the used byte positions are a prefix
    width = np.count_nonzero(fields.max(axis=0))
    if width == fields.shape[1]:
        return None  # a field as wide as the buffer may have been cut
    cols = np.ascontiguousarray(fields[:, :width].T)  # one row per byte position
    digit = cols - np.uint8(ord("0"))
    is_digit = digit < 10
    run_start = is_digit.copy()
    run_start[1:] &= ~is_digit[:-1]
    if not ((is_digit | (cols == ord(" ")) | (cols == ord("\t")) | (cols == 0)).all()
            and (run_start.sum(axis=0, dtype=np.uint8) == 1).all()  # one digit run
            and not (run_start[:-1] & (digit[:-1] == 0) & is_digit[1:]).any()):
        return None
    digit[~is_digit] = 0
    value = np.zeros(cols.shape[1], dtype=np.int64)
    for row in digit:  # Horner over byte positions, blanks read as zeros
        value *= 10
        value += row
    # the blanks after the digits were read as trailing zeros
    run_end = (is_digit * np.arange(1, width + 1, dtype=np.uint8)[:, None]).max(axis=0)
    return value // _POW10[width - run_end]


def _first_appearance_ids(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ids for non-negative int64 keys, numbered in order of first
    appearance, and how many distinct keys there are."""
    n = keys.size
    top = int(keys.max()) + 1
    if top <= n:  # a table over the id range: O(n + max id), no sort of n keys
        first = np.full(top, n, dtype=np.int64)
        np.minimum.at(first, keys, np.arange(n))
        present = np.flatnonzero(first < n)
        rank = np.empty(top, dtype=np.int64)
        rank[present[np.argsort(first[present])]] = np.arange(present.size)
        return rank[keys], present.size
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(uniq.size)
    return rank[inverse], uniq.size


def file_fingerprint(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def edges_from_arrays(src, dst, timestamp, weight=None, node_count=None,
                      fingerprint="inline") -> TemporalEdgeList:
    """Build a TemporalEdgeList from in-memory arrays: a parsed edge file,
    synthetic data or a test's edges. The sort by time is stable, so edges
    with equal timestamps keep their order."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    timestamp = np.asarray(timestamp, dtype=np.float64)
    if weight is None:
        weight = np.ones(len(src), dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    if node_count is None:
        node_count = int(max(src.max(), dst.max())) + 1 if len(src) else 0
    order = np.argsort(timestamp, kind="stable")
    return TemporalEdgeList(src[order], dst[order], weight[order], timestamp[order],
                            node_count=node_count, source_fingerprint=fingerprint)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def period_seconds(frequency: str | int | float) -> float:
    """'daily', 'weekly', or a fixed width in seconds."""
    if isinstance(frequency, str):
        name = frequency.strip().lower()
        if name == "daily":
            return float(DAY_SECONDS)
        if name == "weekly":
            return float(WEEK_SECONDS)
        try:
            value = float(name)
        except ValueError:
            raise ConfigError("frequency", f"unknown frequency {frequency!r}") from None
    else:
        value = float(frequency)
    if value <= 0:
        raise ConfigError("frequency", f"period must be positive, got {value}")
    return value


def partition_snapshots(edges: TemporalEdgeList,
                        frequency: str | int | float) -> DynamicGraph:
    """Assign each edge to the window floor((t - start) / period).

    Windows are contiguous from the first timestamp; empty windows are kept
    as zero-edge snapshots so window arithmetic stays regular. Per-edge
    features are (weight, (t - window_start) / period).
    """
    period = period_seconds(frequency)
    if len(edges) == 0:
        raise EmptyInputError("cannot partition an empty edge list")

    start = float(edges.timestamp.min())
    bins = np.floor((edges.timestamp - start) / period).astype(np.int64)
    order = np.argsort(bins, kind="stable")  # edges already time-sorted within bins
    bins = bins[order]
    offsets = np.searchsorted(bins, np.arange(bins[-1] + 2))
    # binning and this division can disagree by one ulp at boundaries
    tnorm = np.clip((edges.timestamp[order] - (start + bins * period)) / period,
                    0.0, np.nextafter(1.0, 0.0))
    freq_name = frequency if isinstance(frequency, str) else f"{period:g}s"
    return DynamicGraph(offsets, edges.src[order], edges.dst[order],
                        np.column_stack([edges.weight[order], tnorm]),
                        start, period, edges.node_count,
                        frequency=str(freq_name),
                        source_fingerprint=edges.source_fingerprint)


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------


def build_labels(g: DynamicGraph, t: int, val_fraction: float, k_neg: int,
                 rng: np.random.Generator) -> LabelSet:
    """Labels for predicting snapshot t+1: dedup positives, a random
    train/val split, and per-source negative dst lists.

    Each source's negatives are drawn uniformly without replacement from the
    complement of its positive dsts in this step (the pool, which holds the
    source itself unless (u, u) is a positive), truncated to the pool when
    it holds fewer than k_neg nodes. The draw picks k ranks in the sorted
    pool and maps each rank to its node by counting the positives at or
    below it, so it costs O(c + k log c) for c positives instead of a set
    difference over all nodes. It consumes the generator exactly as
    `rng.choice(pool, k, replace=False)` would.
    """
    if not 0 <= t < len(g) - 1:
        raise ValueError(f"step {t} out of range for {len(g)} snapshots")
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError("val_fraction", f"must be in (0, 1), got {val_fraction}")
    if k_neg < 1:
        raise ConfigError("k_neg", f"must be >= 1, got {k_neg}")

    nxt = g[t + 1]
    empty = np.empty((0, 2), dtype=np.int64)
    if nxt.n_edges == 0:
        return LabelSet(t, empty, empty, empty, {}, skip=True)

    pairs = np.stack([nxt.edge_src, nxt.edge_dst], axis=1)
    positives = np.unique(pairs, axis=0)  # dedup multi-edges, sorted

    n_pos = positives.shape[0]
    n_val = int(round(val_fraction * n_pos))
    perm = rng.permutation(n_pos)
    val_pos = positives[np.sort(perm[:n_val])]
    train_pos = positives[np.sort(perm[n_val:])]

    n_nodes = g.node_count
    eval_negatives: dict[int, np.ndarray] = {}
    srcs, src_starts = np.unique(positives[:, 0], return_index=True)
    for i, src in enumerate(srcs):
        hi = src_starts[i + 1] if i + 1 < len(srcs) else n_pos
        pos_dsts = positives[src_starts[i]:hi, 1]  # sorted, unique
        pool_size = n_nodes - pos_dsts.size
        if pool_size == 0:
            eval_negatives[int(src)] = np.empty(0, dtype=np.int64)
            continue
        ranks = rng.choice(pool_size, size=min(k_neg, pool_size), replace=False)
        # pos_dsts[j] - j pool nodes lie below pos_dsts[j], so the positives
        # below the rank-th pool node are those with pos_dsts[j] - j <= rank
        below = np.searchsorted(pos_dsts - np.arange(pos_dsts.size), ranks,
                                side="right")
        eval_negatives[int(src)] = ranks + below
    return LabelSet(t, positives, train_pos, val_pos, eval_negatives)


def sample_training_negatives(labels: LabelSet, n_nodes: int,
                              rng: np.random.Generator,
                              per_positive: int = 1) -> np.ndarray:
    """Fresh uniform negatives (src, dst), per_positive for each train
    positive, rejecting this step's positives. Returns an (n, 2) array.

    Colliding draws are redrawn up to 100 times; rows that still collide
    (a source linked to almost every node) are dropped, so n can be below
    per_positive * len(train_pos).
    """
    pos_keys = labels.positives[:, 0] * n_nodes + labels.positives[:, 1]
    pos_keys = np.sort(pos_keys)

    def collides(srcs, dsts):
        keys = srcs * n_nodes + dsts
        at = np.searchsorted(pos_keys, keys)
        return (at < pos_keys.size) & (pos_keys[np.minimum(at, pos_keys.size - 1)] == keys)

    srcs = np.repeat(labels.train_pos[:, 0], per_positive)
    dsts = rng.integers(0, n_nodes, size=srcs.size)
    for _ in range(100):
        bad = collides(srcs, dsts)
        if not bad.any():
            return np.stack([srcs, dsts], axis=1)
        dsts[bad] = rng.integers(0, n_nodes, size=int(bad.sum()))
    keep = ~collides(srcs, dsts)
    return np.stack([srcs[keep], dsts[keep]], axis=1)


# ---------------------------------------------------------------------------
# Archives: the snapshot cache, and the model checkpoints of `model.py`
# ---------------------------------------------------------------------------

# what `load_archive`, and a loader over it, raise on a damaged archive: a cut
# or corrupt zip (BadZipFile, EOFError, an unknown compression method), a missing
# entry (KeyError), or a wrong format tag, meta or arrays (ValueError)
DAMAGED_ARCHIVE_ERRORS = (zipfile.BadZipFile, EOFError, NotImplementedError,
                          KeyError, ValueError)

CACHE_FORMAT = "snaplink-snapshots-v2"
CACHE_ARRAYS = ("offsets", "src", "dst", "edge_features")


def save_archive(path, fmt: str, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write `arrays` bit-exactly as one uncompressed .npz, plus a `__meta__`
    entry: `meta` and `"format": fmt` as sorted-key JSON. The write goes
    through `replacing`, so a reader sees the old file or the whole new one.
    As with `np.savez`, ".npz" is appended to a path without it."""
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    header = json.dumps({**meta, "format": fmt}, sort_keys=True).encode()
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(header, np.uint8), **arrays)


def load_archive(path, fmt: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read an archive written by `save_archive`: (arrays but `__meta__`,
    meta). A format tag other than `fmt` raises ValueError; see
    `DAMAGED_ARCHIVE_ERRORS` for what else a damaged archive raises."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta.get("format") != fmt:
            raise ValueError(f"archive format {meta.get('format')!r}, expected {fmt!r}")
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
    return arrays, meta


def temp_path(path: Path) -> Path:
    """A hidden, per-process temporary name next to `path`, so concurrent
    writers of the same file never share one."""
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


@contextmanager
def replacing(path: Path):
    """Yield `temp_path(path)` to write; when the body returns, move it onto
    `path` with `os.replace`, and when it raises, remove it. A reader of
    `path` sees the old file or the whole new one, never a torn write."""
    tmp = temp_path(path)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cache_key(source_fingerprint: str, frequency: str | int | float,
              schema: EdgeSchema | None = None) -> str:
    """Cache file stem for one (source, period, schema); the archive format
    is part of the key, so an archive of another format is never opened."""
    raw = (f"{CACHE_FORMAT}|{source_fingerprint}|{period_seconds(frequency):g}"
           f"|{schema.tag() if schema else ''}")
    return hashlib.sha256(raw.encode()).hexdigest()[:20]


def save_snapshot_cache(path, g: DynamicGraph) -> None:
    """Persist a DynamicGraph as a `CACHE_FORMAT` archive: its time-CSR
    arrays (`CACHE_ARRAYS`) as they are, and the scalars and the window
    bounds in the meta. A graph holds no node features to store."""
    meta = {"period_seconds": g.period_seconds, "node_count": g.node_count,
            "frequency": g.frequency, "source_fingerprint": g.source_fingerprint,
            "n_snapshots": len(g), "windows": [list(s.window) for s in g.snapshots]}
    save_archive(path, CACHE_FORMAT, {k: getattr(g, k) for k in CACHE_ARRAYS}, meta)


def load_snapshot_cache(path) -> DynamicGraph:
    """Read an archive written by `save_snapshot_cache` into a DynamicGraph,
    which checks the arrays (a damaged archive raises ValueError). Windows
    start at the first stored window.
    A missing entry of `CACHE_ARRAYS` raises KeyError; others are ignored."""
    arrays, meta = load_archive(path, CACHE_FORMAT)
    return DynamicGraph(*(arrays[k] for k in CACHE_ARRAYS), start=meta["windows"][0][0],
                        period_seconds=meta["period_seconds"],
                        node_count=meta["node_count"], frequency=meta["frequency"],
                        source_fingerprint=meta["source_fingerprint"])
