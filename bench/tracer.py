"""Call tracing for the benchmark's per-layer metrics, from outside the package.

`Tracer.install` wraps the public functions of each snaplink module. Modules
import functions by name (`from .snapshots import build_labels`), so one
function can be bound under several module attributes; every attribute of a
loaded `snaplink.*` module that is the original function object is replaced,
and traced methods are patched on their class. `uninstall` restores them.

Spans live in memory as (name, start, end, parent index) tuples; the caller
writes them out when the run ends. For the tape ops of `diffcore`, the
backward closure (`Var._vjp`) of every Var an op returns is wrapped too, so
backward time is split per op. Vars made by the untraced elementwise helpers
(`add`, `sub`, `mul`) inside a traced op count toward that op's backward.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict

# Tape ops whose forward self time and backward time are reported.
DIFFCORE_OPS = ("affine", "aggregate", "gather_rows", "concat_cols", "batch_norm",
                "gru_cell", "sigmoid", "tanh", "relu", "bce_with_logits")
# Untraced helpers: no span, but their Vars' backward is charged to the
# enclosing traced op (gru_cell's gate arithmetic, for example).
DIFFCORE_HELPERS = ("add", "sub", "mul")

# (module, attribute, span name). A dotted attribute is a method on a class.
TARGETS = (
    ("runner", "load_dataset", "runner.load_dataset"),
    ("runner", "run_experiment", "runner.run_experiment"),
    ("snapshots", "load_edge_list", "snapshots.load_edge_list"),
    ("snapshots", "partition_snapshots", "snapshots.partition_snapshots"),
    ("snapshots", "save_snapshot_cache", "snapshots.save_snapshot_cache"),
    ("snapshots", "load_snapshot_cache", "snapshots.load_snapshot_cache"),
    ("snapshots", "build_labels", "snapshots.build_labels"),
    ("snapshots", "sample_training_negatives", "snapshots.sample_training_negatives"),
    ("evaluate", "mrr", "evaluate.mrr"),
    ("model", "forward", "model.forward"),
    ("model", "gnn_layer", "model.gnn_layer"),
    ("model", "update_state", "model.update_state"),
    ("model", "PairScorer.scores_against", "model.PairScorer.scores_against"),
    ("train", "fine_tune", "train.fine_tune"),
    ("train", "meta_update", "train.meta_update"),
    ("train", "Adam.step", "train.Adam.step"),
    ("diffcore", "backward", "diffcore.backward"),
) + tuple(("diffcore", op, f"diffcore.{op}") for op in DIFFCORE_OPS)

PACKAGE = "snaplink"
MODULES = ("runner", "snapshots", "evaluate", "model", "train", "diffcore",
           "config", "cli", "synthetic")


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append((sid, name))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, t0, t1, parent)

    def _inside(self, name: str) -> bool:
        return any(n == name for _, n in self._stack)

    def _time_vjp(self, var, name: str) -> None:
        vjp = var._vjp
        if vjp is None or getattr(vjp, "traced", False):
            return
        timed = lambda g: self._call(name, vjp, (g,), {})  # noqa: E731
        timed.traced = True
        var._vjp = timed

    # -- per-target wrappers ------------------------------------------------

    def _wrapper(self, name: str, fn):
        """A traced stand-in for `fn`, with the counts its span name needs."""
        tracer = self

        if name == "model.forward":
            def wrapper(*args, **kwargs):
                mode = kwargs.get("mode", args[5] if len(args) > 5 else "eval")
                pairs = kwargs.get("pairs", args[4] if len(args) > 4 else None)
                if mode == "train" and pairs is not None:
                    tracer.counts["train.train_pairs"] += len(pairs)
                return tracer._call(f"model.forward[{mode}]", fn, args, kwargs)
        elif name == "evaluate.mrr":
            def wrapper(*args, **kwargs):
                labels = kwargs.get("labels", args[1] if len(args) > 1 else None)
                tracer.counts["evaluate.ranked_pairs"] += _ranked_pairs(labels)
                kind = "val" if tracer._inside("train.fine_tune") else "test"
                return tracer._call(f"evaluate.mrr[{kind}]", fn, args, kwargs)
        elif name == "snapshots.build_labels":
            def wrapper(*args, **kwargs):
                out = tracer._call(name, fn, args, kwargs)
                tracer.counts["snapshots.label_sources"] += len(out.eval_negatives)
                return out
        elif name == "train.fine_tune":
            def wrapper(*args, **kwargs):
                out = tracer._call(name, fn, args, kwargs)
                tracer.counts["train.epochs"] += out.epochs_run
                return out
        elif name.startswith("diffcore.") and name != "diffcore.backward":
            def wrapper(*args, **kwargs):
                out = tracer._call(name, fn, args, kwargs)
                tracer._time_vjp(out, name + ".bwd")
                return out
        else:
            def wrapper(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def _helper_wrapper(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer._stack:
                top = tracer._stack[-1][1]
                if top.startswith("diffcore.") and not top.endswith(".bwd") \
                        and top != "diffcore.backward":
                    tracer._time_vjp(out, top + ".bwd")
            return out
        return functools.wraps(fn)(wrapper)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target in the loaded package."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = _package_modules()
        plans = [(mods[m], attr, self._wrapper(name, _resolve(mods[m], attr)))
                 for m, attr, name in TARGETS]
        plans += [(mods["diffcore"], h, self._helper_wrapper(getattr(mods["diffcore"], h)))
                  for h in DIFFCORE_HELPERS]
        for owner_mod, attr, wrapper in plans:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner_mod, cls_name)
                self._undo.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, wrapper)
                continue
            original = getattr(owner_mod, attr)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ---------------------------------------------------------------

    def dump(self, fh, phase: str) -> None:
        """One header line (phase, counts), then one JSON line per span:
        [id, name, start, end, parent id]."""
        fh.write(json.dumps({"phase": phase, "counts": dict(self.counts)}) + "\n")
        for sid, (name, t0, t1, parent) in enumerate(self.spans):
            fh.write(json.dumps([sid, name, t0, t1, parent]) + "\n")


def _package_modules() -> dict:
    import importlib

    return {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}


def _resolve(module, attr: str):
    obj = module
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _ranked_pairs(labels) -> int:
    """Positive x negative comparisons one `evaluate.mrr` call makes."""
    if labels is None or labels.skip:
        return 0
    total = 0
    counts = Counter(labels.positives[:, 0].tolist())
    for src, n_pos in counts.items():
        total += n_pos * labels.eval_negatives[int(src)].size
    return total


# ---------------------------------------------------------------------------
# Span summaries -> per-layer metrics
# ---------------------------------------------------------------------------

# Per-layer metrics, in report order: name -> unit.
PER_LAYER = {
    "runner.load_dataset.cold_s": "s",
    "runner.load_dataset.warm_s": "s",
    "runner.run_experiment.self_s": "s",
    "snapshots.load_edge_list.s": "s",
    "snapshots.partition_snapshots.s": "s",
    "snapshots.save_snapshot_cache.s": "s",
    "snapshots.load_snapshot_cache.s": "s",
    "snapshots.graph_mb": "MB",
    "snapshots.build_labels.s": "s",
    "snapshots.build_labels.calls": "count",
    "snapshots.label_sources": "count",
    "snapshots.sample_training_negatives.s": "s",
    "evaluate.mrr.val_s": "s",
    "evaluate.mrr.test_s": "s",
    "evaluate.mrr.calls": "count",
    "evaluate.ranked_pairs": "count",
    "model.forward.train_s": "s",
    "model.forward.eval_s": "s",
    "model.forward.calls": "count",
    "model.gnn_layer.s": "s",
    "model.update_state.s": "s",
    "model.PairScorer.scores_against.s": "s",
    "model.PairScorer.scores_against.calls": "count",
    "train.fine_tune.s": "s",
    "train.epochs": "count",
    "train.train_pairs": "count",
    "train.Adam.step.s": "s",
    "train.meta_update.s": "s",
    "diffcore.backward.s": "s",
    "diffcore.backward.calls": "count",
    **{f"diffcore.{op}.{kind}": "s" for op in DIFFCORE_OPS for kind in ("s", "bwd_s")},
    "evaluate.mean_mrr": "1",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}
# Per-layer metrics of the traced cold load (the first one is its total).
SETUP_METRICS = ("runner.load_dataset.cold_s", "snapshots.load_edge_list.s",
                 "snapshots.partition_snapshots.s", "snapshots.save_snapshot_cache.s")


def span_table(spans) -> dict[str, dict[str, float]]:
    """name -> {"calls", "s" (inclusive), "self_s"}; a runner.load_dataset span
    that wrote the cache is renamed runner.load_dataset[cold], else [warm]."""
    child_time = defaultdict(float)
    wrote_cache = set()
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
            if name == "snapshots.save_snapshot_cache":
                wrote_cache.add(parent)
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for sid, (name, t0, t1, parent) in enumerate(spans):
        if name == "runner.load_dataset":
            name += "[cold]" if sid in wrote_cache else "[warm]"
        row = table[name]
        row["calls"] += 1
        row["s"] += t1 - t0
        row["self_s"] += t1 - t0 - child_time[sid]
    return dict(table)


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced phase (no graph or trace.* entries)."""
    t = span_table(spans)

    def get(name, key):
        return t.get(name, {}).get(key, 0)

    m = {
        "runner.load_dataset.cold_s": get("runner.load_dataset[cold]", "s"),
        "runner.load_dataset.warm_s": get("runner.load_dataset[warm]", "s"),
        "runner.run_experiment.self_s": get("runner.run_experiment", "self_s"),
        "snapshots.build_labels.calls": get("snapshots.build_labels", "calls"),
        "snapshots.label_sources": counts.get("snapshots.label_sources", 0),
        "evaluate.mrr.val_s": get("evaluate.mrr[val]", "s"),
        "evaluate.mrr.test_s": get("evaluate.mrr[test]", "s"),
        "evaluate.mrr.calls": get("evaluate.mrr[val]", "calls")
        + get("evaluate.mrr[test]", "calls"),
        "evaluate.ranked_pairs": counts.get("evaluate.ranked_pairs", 0),
        "model.forward.train_s": get("model.forward[train]", "s"),
        "model.forward.eval_s": get("model.forward[eval]", "s"),
        "model.forward.calls": get("model.forward[train]", "calls")
        + get("model.forward[eval]", "calls"),
        "model.PairScorer.scores_against.calls":
            get("model.PairScorer.scores_against", "calls"),
        "train.epochs": counts.get("train.epochs", 0),
        "train.train_pairs": counts.get("train.train_pairs", 0),
        "diffcore.backward.calls": get("diffcore.backward", "calls"),
    }
    for name in ("snapshots.load_edge_list", "snapshots.partition_snapshots",
                 "snapshots.save_snapshot_cache", "snapshots.load_snapshot_cache",
                 "snapshots.build_labels", "snapshots.sample_training_negatives",
                 "model.gnn_layer", "model.update_state",
                 "model.PairScorer.scores_against", "train.fine_tune",
                 "train.Adam.step", "train.meta_update", "diffcore.backward"):
        m[name + ".s"] = get(name, "s")
    for op in DIFFCORE_OPS:
        m[f"diffcore.{op}.s"] = get(f"diffcore.{op}", "self_s")
        m[f"diffcore.{op}.bwd_s"] = get(f"diffcore.{op}.bwd", "s")
    return m


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    """Element-wise median over reps (counts repeat exactly across reps)."""
    return {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
