"""`load_edge_list` against a reference copy of the per-line parser.

The vectorised parse must give the same arrays (bytes and dtypes) and node
count as the per-line loop, or the same exception, on every input; and it
must be the path a clean canonical-integer file takes.
"""

import gzip
import math
import os
import warnings

import numpy as np
import pytest

from snaplink import snapshots as sn
from snaplink.errors import EmptyInputError, ParseError


def reference_load(path, schema=sn.EdgeSchema()):
    """The per-line parser as it was before the vectorised path existed."""
    col_index = {c: i for i, c in enumerate(schema.columns)}
    n_cols = len(schema.columns)
    has_weight = "weight" in col_index

    ids = {}
    src_l, dst_l, w_l, t_l = [], [], [], []
    with sn._open_text(path) as fh:
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

    src = np.asarray(src_l, dtype=np.int64)
    dst = np.asarray(dst_l, dtype=np.int64)
    weight = np.asarray(w_l, dtype=np.float64)
    ts = np.asarray(t_l, dtype=np.float64)
    order = np.argsort(ts, kind="stable")
    return sn.TemporalEdgeList(src[order], dst[order], weight[order], ts[order],
                               node_count=len(ids))


def outcome(load, path, schema):
    try:
        e = load(path, schema)
    except Exception as exc:  # the comparison covers the exception too
        return ("raised", type(exc), str(exc), getattr(exc, "line_number", None))
    return ("loaded", e.node_count,
            [(a.dtype.str, a.tobytes()) for a in (e.src, e.dst, e.weight, e.timestamp)])


def assert_same_as_reference(path, schema=sn.EdgeSchema()):
    got = outcome(sn.load_edge_list, path, schema)
    assert got == outcome(reference_load, path, schema)
    return got


def write(tmp_path, text, name="edges.csv"):
    path = tmp_path / name
    if name.endswith(".gz"):
        with gzip.open(path, "wb") as fh:
            fh.write(text.encode())
    else:
        path.write_bytes(text.encode())  # no newline translation
    return path


WS = sn.EdgeSchema(delimiter=None, columns=("src", "dst", "weight", "timestamp"))
NO_WEIGHT = sn.EdgeSchema(delimiter=",", columns=("src", "dst", "timestamp"))
REORDERED = sn.EdgeSchema(delimiter=";", columns=("timestamp", "dst", "weight", "src"))

# (id, text, schema): inputs the vectorised parse takes
TAKEN = [
    ("plain", "900,7,0.5,30\n7,900,2.0,10\n42,900,1.5,20\n", None),
    ("zero-id", "0,10,1,5\n10,0,1,4\n", None),
    ("ids-padded-with-spaces", " 7 ,\t12,1,5\n12 , 7 ,1,6\n", None),
    ("18-digit-ids", "999999999999999999,1,1,5\n1,999999999999999999,1,6\n", None),
    ("float-1e3", "1,2,1e3,1e3\n", None),
    ("float-padded", "1,2, 5 , 7 \n", None),
    ("negative-zero", "1,2,-0.0,-0.0\n2,1,0.0,0.0\n", None),
    ("float-forms", "1,2,+.5,5.\n2,3,1E-300,4.9e-324\n3,4,1e308,0.1000000000000000055511\n",
     None),
    ("blank-lines", "\n1,2,1,5\n\n\n2,3,1,6\n\n", None),
    ("crlf", "1,2,1,5\r\n2,3,1,6\r\n", None),
    ("cr-only", "1,2,1,5\r2,3,1,6\r", None),
    ("no-trailing-newline", "1,2,1,5\n2,3,1,6", None),
    ("single-line", "5,6,1,7\n", None),
    ("same-timestamps", "3,1,1,5\n1,3,2,5\n2,3,3,5\n", None),
    ("ws", "1 2 1 5\n  2\t3  1 6  \n\t\n3 1 1 4\n", WS),
    ("no-weight", "1,2,5\n2,3,6\n", NO_WEIGHT),
    ("reordered", "5;2;1;1\n6;3;1;2\n", REORDERED),
    ("tab-delimited", "1\t2\t1\t5\n2\t3\t1\t6\n",
     sn.EdgeSchema(delimiter="\t", columns=sn.EDGE_COLUMNS)),
    ("comment-line", "# header\n1,2,1,5\n", None),
    ("comment-crlf", "# a, b\r\n1,2,1,5\r\n#\r\n2,3,1,6\r\n# end", None),
    ("comment-cr-only", "# a\r1,2,1,5\r# b\r2,3,1,6\r", None),
    ("ws-comment", "# a b c d\n1 2 1 5\n", WS),
]

# inputs it declines and leaves to the per-line parser
DECLINED = [
    ("leading-zero-id", "7,1,1,5\n007,1,1,6\n", None),
    ("negative-id", "-3,1,1,5\n", None),
    ("plus-id", "+3,1,1,5\n", None),
    ("19-digit-id", "1000000000000000000,1,1,5\n", None),
    ("20-digit-id", "99999999999999999999,1,1,5\n", None),
    ("padded-id-fills-the-field", "1," + " " * 18 + "2,1,5\n", None),
    ("padded-id-wider-than-the-field", "1," + " " * 30 + "2,1,5\n", None),
    ("letter-id", "a1,1,1,5\n", None),
    ("empty-id", ",1,1,5\n", None),
    ("space-inside-id", "1 2,1,1,5\n", None),
    ("non-ascii-id", "\u00e91,1,1,5\n", None),
    ("non-ascii-digit-id", "\u0663,1,1,5\n", None),
    ("underscore-float", "1,2,1_0,5\n", None),
    ("hex-float", "1,2,0x1p3,5\n", None),
    ("nan-weight", "1,2,1,5\n2,3,nan,6\n", None),
    ("inf-weight", "1,2,inf,5\n", None),
    ("nan-timestamp", "1,2,1,nan\n", None),
    ("inf-timestamp", "1,2,1,inf\n", None),
    ("negative-timestamp", "1,2,1,-5\n", None),
    ("overflowing-timestamp", "1,2,1,1e400\n", None),
    ("text-timestamp", "1,2,1,oops\n", None),
    ("whitespace-only-line", "1,2,1,5\n   \n2,3,1,6\n", None),
    ("indented-comment", "1,2,1,5\n  # note\n", None),
    ("mid-line-hash", "1,2,1,5 # note\n", None),
    ("empty-file", "", None),
    ("only-blank-lines", "\n\n\n", None),
    ("only-comments", "# a\n\n#1,2,1,5\r\n#", None),
    ("ws-only-comments", "# a\n\n", WS),
    ("hash-inside-comment", "# a # b\n1,2,1,5\n", None),
    ("hash-delimiter", "1#2#1#5\n", sn.EdgeSchema(delimiter="#", columns=sn.EDGE_COLUMNS)),
    ("too-few-fields", "1,2,1,5\n1,2\n", None),
    ("too-many-fields", "1,2,1,5,9\n", None),
    ("trailing-delimiter", "1,2,1,5,\n", None),
    ("separator-char-in-float", "1,2,1\x1c,5\n", None),
    ("form-feed-in-float", "1,2,\x0c1,5\n", None),
    ("nul-in-id", "1\x00,2,1,5\n1,2,1,6\n", None),
    ("ws-too-few-fields", "1 2 1\n", WS),
    ("ws-unicode-space", "1\u20032 1 5\n", WS),
    ("multi-char-delimiter", "1::2::1::5\n",
     sn.EdgeSchema(delimiter="::", columns=sn.EDGE_COLUMNS)),
    ("no-weight-nan-timestamp", "1,2,nan\n", NO_WEIGHT),
]


def ids(cases):
    return [c[0] for c in cases]


@pytest.mark.parametrize("name,text,schema", TAKEN + DECLINED, ids=ids(TAKEN + DECLINED))
@pytest.mark.parametrize("suffix", [".csv", ".csv.gz", ".csv.bz2", ".csv.xz"])
def test_matches_the_per_line_parser(tmp_path, name, text, schema, suffix):
    path = write(tmp_path, text, "edges" + suffix)
    assert_same_as_reference(path, schema or sn.EdgeSchema())


@pytest.mark.parametrize("name,text,schema", TAKEN, ids=ids(TAKEN))
def test_clean_files_never_reach_the_per_line_parser(tmp_path, monkeypatch,
                                                     name, text, schema):
    path = write(tmp_path, text)
    expected = outcome(reference_load, path, schema or sn.EdgeSchema())

    def refuse(*args):
        raise AssertionError("the per-line parser ran")

    monkeypatch.setattr(sn, "_parse_lines", refuse)
    assert outcome(sn.load_edge_list, path, schema or sn.EdgeSchema()) == expected


@pytest.mark.parametrize("name,text,schema", DECLINED, ids=ids(DECLINED))
def test_declined_files_reach_the_per_line_parser(tmp_path, monkeypatch,
                                                  name, text, schema):
    path = write(tmp_path, text)
    calls = []
    real = sn._parse_lines

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sn, "_parse_lines", counting)
    outcome(sn.load_edge_list, path, schema or sn.EdgeSchema())
    assert len(calls) == 1


NO_EDGES = [c for c in DECLINED
            if c[0] in ("empty-file", "only-blank-lines", "only-comments", "ws-only-comments")]


@pytest.mark.parametrize("name,text,schema", NO_EDGES, ids=ids(NO_EDGES))
@pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
def test_a_file_with_no_edges_raises_no_numpy_warning(tmp_path, name, text, schema, suffix):
    path = write(tmp_path, text, "edges" + suffix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would raise in place of EmptyInputError
        with pytest.raises(EmptyInputError, match="no edges found"):
            sn.load_edge_list(path, schema or sn.EdgeSchema())


@pytest.mark.parametrize("suffix", [".bz2", ".xz", ".lzma"])
def test_suffixes_only_numpy_decompresses_are_declined(tmp_path, suffix):
    # numpy's opener would read these names through bz2 or lzma, the per-line
    # parser reads them as plain text
    path = write(tmp_path, "1,2,1,5\n2,3,1,6\n", "edges.csv" + suffix)
    assert sn._parse_canonical(path, sn.EdgeSchema()) is None
    assert_same_as_reference(path)


@pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
def test_loadtxt_is_handed_a_path(tmp_path, monkeypatch, suffix):
    # numpy reads in blocks only from a path; a file object or an iterator of
    # lines is read one Python line at a time
    path = write(tmp_path, "1,2,1,5\n2,3,1,6\n", "edges" + suffix)
    seen = []
    real = np.loadtxt

    def spy(fname, *args, **kwargs):
        seen.append(fname)
        return real(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    assert sn._parse_canonical(path, sn.EdgeSchema()) is not None
    assert len(seen) == 1 and isinstance(seen[0], (str, os.PathLike))


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8])
def test_prescan_chunk_boundaries(tmp_path, monkeypatch, chunk):
    # every case decides the same with the prescan cut at every few bytes
    for name, text, schema in TAKEN + DECLINED:
        schema = schema or sn.EdgeSchema()
        path = write(tmp_path, text)
        taken = sn._parse_canonical(path, schema) is not None
        with monkeypatch.context() as m:
            m.setattr(sn, "_PRESCAN_CHUNK", chunk)
            assert (sn._parse_canonical(path, schema) is not None) == taken, name
            assert_same_as_reference(path, schema)


@pytest.mark.parametrize("text,taken", [
    ("1,2,1,5\n" * (sn._PRESCAN_CHUNK // 8) + "# tail\n2,3,1,6\n", True),
    ("1,2,1,5\n" * (sn._PRESCAN_CHUNK // 8 - 1) + "1,2,1,5 # tail\n", False),
    ("#" + "x" * (sn._PRESCAN_CHUNK + 8) + "\n1,2,1,5\n", True),
    ("#" + "x" * (sn._PRESCAN_CHUNK - 1) + "1,2,1,5\n", False),  # only a comment
], ids=["comment-at-the-boundary", "mid-line-hash-at-the-boundary",
        "comment-across-the-boundary", "comment-cut-into-a-data-look"])
def test_one_mebibyte_boundary(tmp_path, text, taken):
    path = write(tmp_path, text)
    assert (sn._parse_canonical(path, sn.EdgeSchema()) is not None) == taken
    assert_same_as_reference(path)


ID_SPELLINGS = ["0", "7", "12", "007", "-3", "+3", " 7 ", "\t8", "a1", "1234567890123456789",
                "999999999999999999", "é", "1 2", ""]
FLOAT_SPELLINGS = ["1", "0", "2.5", "1e3", " 5 ", "-0.0", "nan", "inf", "-inf", "1_0",
                   "0x1p3", "1e400", "-1", "+.5", "", "x", "4.9e-324", "0.30000000000000004"]


def random_file(rng, clean, n_lines, delim, n_cols, id_range):
    lines = []
    for _ in range(n_lines):
        fields = []
        for c in range(n_cols):
            if c < 2:  # ids
                if clean or rng.random() > 0.03:
                    fields.append(str(int(rng.integers(id_range))))
                else:
                    fields.append(ID_SPELLINGS[rng.integers(len(ID_SPELLINGS))])
            elif clean or rng.random() > 0.03:
                fields.append(repr(float(rng.uniform(0, 1e6))))
            else:
                fields.append(FLOAT_SPELLINGS[rng.integers(len(FLOAT_SPELLINGS))])
        sep = delim if delim is not None else [" ", "\t", "  "][rng.integers(3)]
        line = sep.join(fields)
        end = "\n" if clean else ["\n", "\r\n", "\n"][rng.integers(3)]
        if not clean:
            r = rng.random()
            if r < 0.01:
                line = "# comment"
            elif r < 0.02:
                line = "  "
            elif r < 0.03:
                line = line.rsplit(sep, 1)[0]
        lines.append(line + end)
    text = "".join(lines)
    if rng.random() < 0.3:
        text = text.rstrip("\n")
    return text


@pytest.mark.parametrize("seed", range(12))
def test_random_files_match_the_per_line_parser(tmp_path, seed):
    rng = np.random.default_rng(seed)
    delim = [",", ";", "\t", None][seed % 4]
    schema = sn.EdgeSchema(delimiter=delim,
                           columns=(sn.EDGE_COLUMNS, ("dst", "src", "timestamp"))[seed % 2])
    for trial in range(6):
        clean = trial % 2 == 0
        id_range = [50, 10**6, 10**18][trial % 3]
        text = random_file(rng, clean, int(rng.integers(1, 300)), delim,
                           len(schema.columns), id_range)
        name = "edges.csv.gz" if trial >= 4 else "edges.csv"
        path = write(tmp_path, text, name)
        assert_same_as_reference(path, schema)
        if clean:
            assert sn._parse_canonical(path, schema) is not None
