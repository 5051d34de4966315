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

This module also owns the one archive format of the snapshot cache and the
run archive: an uncompressed `.npz` whose JSON `__meta__` entry holds a
`format` tag. `save_archive` writes it atomically; `load_archive` maps it
read-only and returns views of the mapping, after checking each member's
zip headers and CRC-32 in place, so a warm load copies no array.

All functions are pure over their inputs and take explicit generators, so
identical (file, schema, frequency, seed) reproduce identical outputs.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import mmap
import os
import struct
import warnings
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
    """Raw timestamped directed edges after id compaction, sorted by time
    (ValueError otherwise)."""

    src: np.ndarray        # int64, dense ids in [0, node_count)
    dst: np.ndarray        # int64
    weight: np.ndarray     # float64
    timestamp: np.ndarray  # float64 seconds
    node_count: int

    def __post_init__(self):
        if not (len(self.src) == len(self.dst) == len(self.weight) == len(self.timestamp)):
            raise ValueError("edge arrays must have equal length")
        if (np.diff(self.timestamp) < 0).any():
            raise ValueError("edge timestamps must be sorted")

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
    Construction checks the arrays, one pass each (ValueError on a bad
    layout, endpoints that are not int64 or lie outside [0, node_count), a
    non-finite weight or a window position outside [0, 1)), makes them
    read-only and builds `snapshots`, whose edges are views. The graph
    holds its edges only: no per-window node features are built unless
    `GraphSnapshot.node_features` is read.
    """

    offsets: np.ndarray        # (T + 1,) int64
    src: np.ndarray            # (E,) int64, dense ids in [0, node_count)
    dst: np.ndarray            # (E,) int64
    edge_features: np.ndarray  # (E, EDGE_FEATURE_DIM) float64
    start: float
    period_seconds: float
    node_count: int
    frequency: str = ""
    source_fingerprint: str = ""  # the edge file's, set by `runner.load_dataset`
    snapshots: list[GraphSnapshot] = field(init=False, repr=False)

    def __post_init__(self):
        offsets, n, n_edges = self.offsets, self.node_count, len(self.src)
        if (offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0
                or offsets[-1] != n_edges or (np.diff(offsets) < 0).any()):
            raise ValueError(f"offsets must rise from 0 to the edge count {n_edges}")
        if self.src.shape != (n_edges,) or self.dst.shape != (n_edges,) \
                or self.edge_features.shape != (n_edges, EDGE_FEATURE_DIM):
            raise ValueError(f"edge arrays disagree with {n_edges} edges")
        if self.src.dtype != np.int64 or self.dst.dtype != np.int64:
            raise ValueError("edge endpoints must be int64")
        if n_edges:
            # one pass per array: a negative int64 reads as 2**63 or more as uint64
            if max(int(self.src.view(np.uint64).max()),
                   int(self.dst.view(np.uint64).max())) >= n:
                raise ValueError(f"edge endpoint outside [0, {n})")
            if not np.isfinite(self.edge_features[:, 0]).all():
                raise ValueError("non-finite edge features")
            tnorm = self.edge_features[:, 1]
            if not ((0.0 <= tnorm) & (tnorm < 1.0)).all():  # NaN fails both
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

    @property
    def n_positives(self) -> int:
        return self.positives.shape[0]

    @property
    def skip(self) -> bool:  # no positives: an empty next window or val slice
        return self.n_positives == 0

    def val_view(self) -> "LabelSet":
        """The validation slice, sharing the negative lists."""
        return LabelSet(self.step, self.val_pos, np.empty((0, 2), np.int64),
                        self.val_pos, self.eval_negatives)

    def fine_tune_view(self) -> "LabelSet":
        """What a fine-tune reads: every positive, and the negative lists of
        the validation sources only. Its validation MRR ranks `val_pos`, and
        `sample_training_negatives` reads only the positives, so the other
        sources' lists (the bulk of a step's labels) can go once the step's
        own MRR has read them."""
        keep = np.unique(self.val_pos[:, 0]).tolist()
        return LabelSet(self.step, self.positives, self.train_pos, self.val_pos,
                        {u: self.eval_negatives[u] for u in keep})


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def _open_text(path: Path, mode: str = "rt"):
    """An edge file opened for reading, through gzip for a `.gz` name: as
    text, or as bytes with mode "rb"."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


def load_edge_list(path, schema: EdgeSchema = EdgeSchema()) -> TemporalEdgeList:
    """Read a delimiter-separated edge file into a compacted, time-sorted list.

    Ids are compacted to dense integers in order of first appearance.
    Missing weight column defaults to 1.0. Raises ParseError with the line
    number on malformed rows and EmptyInputError when no edges are present.

    A file is parsed in one vectorised pass when it is ASCII text with no
    control character but tab and line ends (LF, CR or CRLF), every '#' is
    the first byte of its line (a whole-line comment, skipped as blank
    lines are), at least one line is neither blank nor a comment, its name
    does not end in `.bz2`, `.xz` or `.lzma`, its delimiter is whitespace
    or one printable ASCII character but '#' (or tab), and every src/dst
    field is, after stripping spaces and tabs, a canonical decimal integer:
    digits only, no sign, no leading zero, at most 18 digits. Anything else
    (an indented or mid-line '#' too), and any row that pass cannot take (a
    field count, a float numpy rejects, a non-finite value, a negative
    timestamp), goes to the per-line parser, which is the only one that
    reports errors. Both give the same arrays and node count.
    """
    path = Path(path)
    parsed = _parse_canonical(path, schema)
    if parsed is None:
        parsed = _parse_lines(path, schema)
    src, dst, weight, ts, node_count = parsed
    return edges_from_arrays(src, dst, ts, weight, node_count)


def _lines(fh, path: Path):
    """The lines of `fh`, an `_open_text` of `path`; text that does not
    decode and a damaged or cut gzip stream raise ParseError."""
    try:
        yield from fh
    except (UnicodeDecodeError, gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise ParseError(f"{path}: unreadable text: {exc}") from None


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
        for lineno, line in enumerate(_lines(fh, path), start=1):
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


# Bytes the vectorised parse takes: printable ASCII, tab, CR and LF. This
# keeps out NUL (a byte-string field drops trailing NULs) and the separators
# \x1c-\x1f, which numpy strips around a float and Python's float() rejects.
_PLAIN_TEXT = ("\t\n\r" + "".join(map(chr, range(32, 127)))).encode()
_PRESCAN_CHUNK = 1 << 20  # bytes
# canonical ids have at most 18 digits, so they fit int64; the byte field is
# one wider, so a field loadtxt cut to the width fills it and is declined
_ID_DIGITS = 18


def _parse_canonical(path: Path, schema: EdgeSchema):
    """`_parse_lines`'s result in one `np.loadtxt` pass, or None when the
    input is not plain text with canonical integer ids (see `load_edge_list`).

    A prescan of the raw bytes decides, and a file in which numpy finds no
    row is declined. numpy is handed the path, not a file object: only from
    a path does numpy 2.x read in blocks, where a file object is read one
    Python line at a time (1.35x the time on a 500k-line file). It opens
    the path in text mode, so CR and CRLF end
    lines, as in the per-line parser, and picks a decompressor by suffix:
    `.gz` is gzip in both parsers, and the suffixes only numpy decompresses
    (`.bz2`, `.xz`, `.lzma`) are declined before any read, so the per-line
    parser reads such a file as plain text.
    """
    delim = schema.delimiter
    if delim is not None and (len(delim) != 1 or delim in "\r\n#"
                              or delim.encode() not in _PLAIN_TEXT):
        return None
    if os.path.splitext(path)[1] in (".bz2", ".xz", ".lzma"):
        return None  # numpy would decompress these; the per-line parser would not
    dtype = np.dtype([(c, f"S{_ID_DIGITS + 1}" if c in ("src", "dst") else "f8")
                      for c in schema.columns])
    try:
        if not _plain_text(path):
            return None
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(os.fspath(path), dtype=dtype, delimiter=delim, comments="#",
                              quotechar=None, ndmin=1, encoding="ascii")
    except (ValueError, OSError, EOFError, zlib.error):
        return None
    ts = rows["timestamp"]
    if not (rows.size and np.isfinite(ts).all() and (ts >= 0).all()):
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


def _plain_text(path: Path) -> bool:
    """Whether the edge file holds only `_PLAIN_TEXT` bytes and has a '#'
    only as the first byte of a line (a whole-line comment). It is read in
    `_PRESCAN_CHUNK` byte chunks."""
    line_start = True
    with _open_text(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_PRESCAN_CHUNK), b""):
            if chunk.translate(None, _PLAIN_TEXT):
                return False
            if b"#" in chunk and chunk.count(b"#") != (
                    chunk.count(b"\n#") + chunk.count(b"\r#")
                    + (line_start and chunk[:1] == b"#")):
                return False
            line_start = chunk[-1:] in (b"\n", b"\r")
    return True


def _byte_rows(fields: np.ndarray) -> np.ndarray | None:
    """The used byte positions of (n, width) NUL-padded fields as (used, n)
    contiguous rows, or None when all are used: such a field may have been
    cut. The text has no NUL, so the used positions are a prefix, ending
    before the first all-NUL one."""
    rows = np.empty(fields.shape[::-1], dtype=np.uint8)
    for width in range(fields.shape[1]):
        rows[width] = fields[:, width]
        if not rows[width].any():
            return rows[:width].copy()  # frees the unused rows on return
    return None


def _canonical_ints(fields: np.ndarray) -> np.ndarray | None:
    """int64 values of (n, width) NUL-padded byte fields that are canonical
    decimal integers between optional spaces and tabs, or None if any is not."""
    cols = _byte_rows(fields)
    if cols is None:
        return None
    digit = cols - np.uint8(ord("0"))
    is_digit = digit < 10
    run_start = is_digit.copy()
    run_start[1:] &= ~is_digit[:-1]
    if not ((is_digit | (cols == ord(" ")) | (cols == ord("\t")) | (cols == 0)).all()
            and (run_start.sum(axis=0, dtype=np.uint8) == 1).all()  # one digit run
            and not (run_start[:-1] & (digit[:-1] == 0) & is_digit[1:]).any()):
        return None
    digit *= is_digit
    scale = is_digit * np.uint8(9) + np.uint8(1)  # 10 at a digit, 1 at a blank
    value = np.zeros(cols.shape[1], dtype=np.int64)
    for d, m in zip(digit, scale):  # Horner over byte positions, skipping blanks
        value *= m
        value += d
    return value


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


def edges_from_arrays(src, dst, timestamp, weight=None, node_count=None) -> TemporalEdgeList:
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
                            node_count=node_count)


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
    features are (weight, (t - window_start) / period). The edges are
    time-sorted, so the bins do not decrease and the edges keep their order;
    the graph gets copies, so freezing them leaves the edge list writable.
    """
    period = period_seconds(frequency)
    if len(edges) == 0:
        raise EmptyInputError("cannot partition an empty edge list")

    start = float(edges.timestamp.min())
    bins = np.floor((edges.timestamp - start) / period).astype(np.int64)
    offsets = np.searchsorted(bins, np.arange(bins[-1] + 2))
    # binning and this division can disagree by one ulp at boundaries
    tnorm = np.clip((edges.timestamp - (start + bins * period)) / period,
                    0.0, np.nextafter(1.0, 0.0))
    freq_name = frequency if isinstance(frequency, str) else f"{period:.17g}s"
    return DynamicGraph(offsets, edges.src.copy(), edges.dst.copy(),
                        np.column_stack([edges.weight, tnorm]),
                        start, period, edges.node_count, frequency=str(freq_name))


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
    pairs = np.stack([nxt.edge_src, nxt.edge_dst], axis=1)
    positives = np.unique(pairs, axis=0)  # dedup multi-edges, sorted

    n_pos = positives.shape[0]
    n_val = int(round(val_fraction * n_pos))
    perm = rng.permutation(n_pos)
    val_pos = positives[np.sort(perm[:n_val])]
    train_pos = positives[np.sort(perm[n_val:])]

    n_nodes = g.node_count
    eval_negatives: dict[int, np.ndarray] = {}
    srcs, starts = np.unique(positives[:, 0], return_index=True)
    bounds = [*starts.tolist(), n_pos]
    for src, lo, hi in zip(srcs.tolist(), bounds, bounds[1:]):
        pos_dsts = positives[lo:hi, 1]  # sorted, unique
        pool_size = n_nodes - pos_dsts.size
        ranks = rng.choice(pool_size, size=min(k_neg, pool_size), replace=False)
        # pos_dsts[j] - j pool nodes lie below pos_dsts[j], so the positives
        # below the rank-th pool node are those with pos_dsts[j] - j <= rank
        below = np.searchsorted(pos_dsts - np.arange(pos_dsts.size), ranks,
                                side="right")
        eval_negatives[src] = ranks + below
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
    bad = collides(srcs, dsts)
    for _ in range(100):
        if not bad.any():
            break
        dsts[bad] = rng.integers(0, n_nodes, size=int(bad.sum()))
        bad = collides(srcs, dsts)
    return np.stack([srcs[~bad], dsts[~bad]], axis=1)


# ---------------------------------------------------------------------------
# Archives: the snapshot cache, and the run archive of `evaluate.RunState`
# ---------------------------------------------------------------------------

# what `load_archive`, and a loader over it, raise on a damaged archive: a cut
# or corrupt zip, or a member that is compressed, encrypted, named otherwise in
# its local header, runs past the file's end or fails its CRC (BadZipFile); a
# zip version `zipfile` does not read (NotImplementedError); a missing entry
# (KeyError); a member that is not a plain `.npy` array, a wrong format tag, or
# meta or arrays a loader rejects (ValueError)
DAMAGED_ARCHIVE_ERRORS = (zipfile.BadZipFile, NotImplementedError, KeyError, ValueError)

CACHE_FORMAT = "snaplink-snapshots-v2"
CACHE_ARRAYS = ("offsets", "src", "dst", "edge_features")

# a zip local file header: signature, version, flags, method, time, date, CRC,
# sizes, name and extra-field lengths
_LOCAL_HEADER = struct.Struct("<4s5H3L2H")
_LOCAL_SIGNATURE = b"PK\x03\x04"
# general-purpose flag bits: encrypted, compressed patched data, strong encryption
_UNREADABLE_FLAGS = 0x01 | 0x20 | 0x40
_UTF8_NAME_FLAG = 0x800


def save_archive(path, fmt: str, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write `arrays` bit-exactly as one uncompressed .npz, plus a `__meta__`
    entry: `meta` and `"format": fmt` as sorted-key JSON. The write goes
    through `replacing`, so a reader sees the old file or the whole new one."""
    header = json.dumps({**meta, "format": fmt}, sort_keys=True).encode()
    with replacing(Path(path)) as tmp, open(tmp, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(header, np.uint8), **arrays)


def load_archive(path, fmt: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read an archive written by `save_archive`: (arrays but `__meta__`,
    meta). The file is mapped read-only, not copied: each array is a
    read-only view of the mapping, which stays open (one file descriptor)
    while any of them lives. Replace or delete a mapped file; never truncate
    or rewrite it in place, or a read past its new end faults (SIGBUS).

    A file that `zipfile` cannot read as a zip raises BadZipFile, or
    NotImplementedError for a zip version it does not know. Each member must
    be stored (not compressed), unencrypted, with a local header that names
    it as the central directory does and bytes inside the file, else
    BadZipFile; its bytes must match the directory's CRC-32 before they are
    parsed (BadZipFile). It must then be a `.npy` array of format
    1.0 or 2.0 within numpy's header-size limit, of no object dtype, whose
    data fills the member exactly (ValueError). A missing `__meta__` raises
    KeyError, and a format tag other than `fmt` ValueError."""
    with open(path, "rb") as fh:
        with zipfile.ZipFile(fh) as zf:
            members = zf.infolist()
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    arrays = {info.filename.removesuffix(".npy"): _member_array(mapped, info)
              for info in members}
    meta = json.loads(arrays.pop("__meta__").tobytes().decode())
    if meta.get("format") != fmt:
        raise ValueError(f"archive format {meta.get('format')!r}, expected {fmt!r}")
    return arrays, meta


def _member_array(mapped: mmap.mmap, info: zipfile.ZipInfo) -> np.ndarray:
    """The `.npy` array a stored member of the mapped archive holds, as a
    read-only view of the mapping; checked as `load_archive` says."""
    name, start = info.orig_filename, info.header_offset
    if not 0 <= start <= len(mapped) - _LOCAL_HEADER.size:
        raise zipfile.BadZipFile(f"{name}: truncated local header")
    sig, _, flags, method, *_, n_name, n_extra = _LOCAL_HEADER.unpack_from(mapped, start)
    if sig != _LOCAL_SIGNATURE:
        raise zipfile.BadZipFile(f"{name}: bad local header signature")
    if (flags | info.flag_bits) & _UNREADABLE_FLAGS:
        raise zipfile.BadZipFile(f"{name}: encrypted or patched")
    if method != zipfile.ZIP_STORED or info.compress_type != zipfile.ZIP_STORED \
            or info.compress_size != info.file_size:
        raise zipfile.BadZipFile(f"{name}: not stored uncompressed")
    lo = start + _LOCAL_HEADER.size
    local_name = mapped[lo:lo + n_name].decode("utf-8" if flags & _UTF8_NAME_FLAG else "cp437")
    if local_name != name:
        raise zipfile.BadZipFile(f"{name}: local header names {local_name!r}")
    lo += n_name + n_extra
    hi = lo + info.compress_size
    if hi > len(mapped):
        raise zipfile.BadZipFile(f"{name}: data runs past the end of the file")
    if zlib.crc32(memoryview(mapped)[lo:hi]) != info.CRC:
        raise zipfile.BadZipFile(f"{name}: bad CRC-32")

    mapped.seek(lo)
    version = np.lib.format.read_magic(mapped)
    if version == (1, 0):
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(mapped)
    elif version == (2, 0):
        shape, fortran_order, dtype = np.lib.format.read_array_header_2_0(mapped)
    else:
        raise ValueError(f"{name}: unsupported .npy format {version}")
    if dtype.hasobject:
        raise ValueError(f"{name}: object arrays cannot be loaded")
    offset, count = mapped.tell(), math.prod(shape)
    if count * dtype.itemsize != hi - offset:  # a header read past the member fails too
        raise ValueError(f"{name}: {hi - offset} data bytes for shape {shape}")
    array = np.frombuffer(mapped, dtype, count, offset)
    return array.reshape(shape[::-1]).T if fortran_order else array.reshape(shape)


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
              schema: EdgeSchema) -> str:
    """Cache file stem for one (source, period, schema); the archive format
    is part of the key, so an archive of another format is never opened.
    The period is written with 17 significant digits, which round-trip every
    float, so two periods never share a key."""
    raw = (f"{CACHE_FORMAT}|{source_fingerprint}|{period_seconds(frequency):.17g}"
           f"|{schema.tag()}")
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
    which checks the arrays (a damaged archive raises ValueError). The
    graph's arrays are views of the mapped archive (`load_archive`). Windows
    start at the first stored window.
    A missing entry of `CACHE_ARRAYS` raises KeyError; others are ignored."""
    arrays, meta = load_archive(path, CACHE_FORMAT)
    return DynamicGraph(*(arrays[k] for k in CACHE_ARRAYS), start=meta["windows"][0][0],
                        period_seconds=meta["period_seconds"],
                        node_count=meta["node_count"], frequency=meta["frequency"],
                        source_fingerprint=meta["source_fingerprint"])
