"""One workload measured inside one process.

`run.py` starts this in a fresh interpreter after the input file exists, so
the peak resident set it reports belongs to the workload alone.

- Set-up is a cold `runner.load_dataset` into an empty cache directory. The
  first one fills the snapshot cache that the main operation then reads.
- One untimed warm-up of the main operation follows (caches fill, the
  allocator grows); its outputs are checked like every other repetition.
- The main operation repeats until the time budget is spent:
  `runner.run_experiment` under a fresh run name (a completed run would be
  skipped) for the model workloads, a cache-hit `runner.load_dataset` for
  ingest-long. More set-up repetitions run between them, so set-up and main
  samples cover the same stretch of time on a machine whose speed drifts.

With tracing on, set-up runs once traced, and the main operation alternates
untraced and traced repetitions; the difference of their medians is the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

from checks import (check_counts, check_model_run, check_same_graph, check_same_mrr,
                    graph_counts, read_mean_mrr, read_step_seconds)
from tracer import Tracer, layer_metrics, median_metrics, span_table

MIN_SETUP_REPS = 3
MAX_SETUP_REPS = 20
SETUP_BURST = 4        # set-up repetitions in a row between main repetitions
SETUP_SHARE = 0.4      # of the elapsed time, at most, spent in set-up
MIN_MAIN_REPS = 3


class Attempts:
    """Counts attempted and failed operations and collects failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self, label: str, fn):
        """Run fn() -> (value, problems). A raise or a problem fails the attempt
        and yields None; the attempt is still counted."""
        self.attempted += 1
        try:
            value, problems = fn()
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        if problems:
            self.failed += 1
            self.failures += [f"{label}: {p}" for p in problems]
            return None
        return value

    def fail_all(self, problems: list[str]) -> None:
        """A failed check on the run as a whole fails every operation in it."""
        if problems:
            self.failed = self.attempted
            self.failures += problems


def graph_mb(g) -> float:
    """Total nbytes of the arrays a DynamicGraph holds, in MB (1e6 bytes)."""
    return sum(s.edge_src.nbytes + s.edge_dst.nbytes + s.edge_features.nbytes
               + s.node_features.nbytes for s in g.snapshots) / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run(workload, seed: int, seconds: float, trace: bool, smoke: bool,
        in_dir: Path, work_dir: Path, totals: dict) -> dict:
    from snaplink import runner
    from snaplink.config import ExperimentConfig

    start = time.perf_counter()
    deadline = start + seconds
    _, overrides = workload.params(smoke)
    name = f"{workload.name}-{workload.key(smoke)}-s{seed}"
    root = Path(work_dir) / "runs" / f"{name}-p{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    cfg = replace(ExperimentConfig(), dataset=str(Path(in_dir) / "edges.csv"),
                  seeds=(seed,), run_root=str(root), **overrides)
    cache = root / ".cache"
    attempts = Attempts()
    tracers: list[tuple[str, Tracer]] = []
    out: dict = {"samples": {}, "mean_mrr": None}

    def cold(i: int):
        d = root / f"cold{i}"
        t0 = time.perf_counter()
        g = runner.load_dataset(cfg, cache_dir=d)
        dt = time.perf_counter() - t0
        return (dt, g, d), check_counts(g, totals)

    def model_rep(i: int):
        rep_cfg = replace(cfg, run_name=f"rep{i:03d}")
        t0 = time.perf_counter()
        run_dir = runner.run_experiment(rep_cfg)
        dt = time.perf_counter() - t0
        problems = check_model_run(run_dir, seed, workload.n_evaluated, cfg.k_neg)
        if problems:
            return None, problems
        return (dt, read_step_seconds(run_dir, seed), read_mean_mrr(run_dir)), []

    def ingest_rep(i: int):
        t0 = time.perf_counter()
        g = runner.load_dataset(cfg, cache_dir=cache)
        dt = time.perf_counter() - t0
        problems = check_counts(g, totals)
        if not plain:  # the warm-up
            problems += check_same_graph(graphs[0], g)
        return (dt, [dt / len(g)], None), problems

    main_rep = model_rep if workload.kind == "model" else ingest_rep
    setup, plain, traced, steps, per_rep, mrrs = [], [], [], [], [], []
    graphs: list = []  # the first cold graph: the warm cache holds it

    def do_cold(tracer: Tracer | None = None) -> None:
        n = attempts.attempted
        with tracer or contextlib.nullcontext():
            res = attempts.attempt(f"set-up {n}", lambda: cold(n))
        if tracer is not None:
            tracers.append(("setup", tracer))
        if res is None:
            if attempts.failed > MIN_SETUP_REPS:
                raise RuntimeError("set-up keeps failing")
            return
        dt, g, d = res
        setup.append(dt)
        if graphs:
            shutil.rmtree(d, ignore_errors=True)
        else:
            graphs.append(g)
            os.replace(d, cache)

    def do_main(into: list, tracer: Tracer | None = None) -> None:
        n = attempts.attempted
        with tracer or contextlib.nullcontext():
            res = attempts.attempt(f"rep {n}", lambda: main_rep(n))
        if tracer is not None:
            tracers.append((f"rep{n}", tracer))
        if res is None:
            if attempts.failed > MIN_MAIN_REPS:
                raise RuntimeError("repetitions keep failing")
            return
        into.append(res[0])
        if res[2] is not None:
            mrrs.append(res[2])
        if tracer is not None:
            per_rep.append(layer_metrics(tracer.spans, tracer.counts))
        elif into is plain:
            steps.extend(res[1])

    def over(durations: list, n_min: int, per_round: int = 1) -> bool:
        """At least n_min done and the next round would end past the deadline."""
        return len(durations) >= n_min and time.perf_counter() \
            + per_round * statistics.median(durations) > deadline

    try:
        while not graphs:
            do_cold(Tracer() if trace else None)
        g_cold = graphs[0]
        out["totals"] = graph_counts(g_cold)
        do_main([])  # warm-up: checked, not timed
        if trace:
            # rounds of one untraced and one traced repetition
            n_min = 1 if workload.kind == "model" else MIN_MAIN_REPS
            while not over(traced, n_min, per_round=2):
                do_main(plain)
                do_main(traced, Tracer())
        else:
            # set-up repetitions are spread over the run, so that setup_s and
            # run_s sample the same stretch of machine time
            while True:
                burst = 0
                while len(setup) < MAX_SETUP_REPS and burst < SETUP_BURST and \
                        sum(setup) < SETUP_SHARE * (time.perf_counter() - start):
                    do_cold()
                    burst += 1
                if over(plain, MIN_MAIN_REPS):
                    break
                do_main(plain)
            while len(setup) < MIN_SETUP_REPS:
                do_cold()
        out["samples"] = {"setup_s": setup, "run_s": plain, "step_s": steps,
                          "traced_run_s": traced}
        attempts.fail_all(check_same_mrr(mrrs))
        out["mean_mrr"] = mrrs[0] if mrrs else None
        out["graph_mb"] = graph_mb(g_cold)
        if trace:
            if not plain:
                raise RuntimeError("no untraced repetition succeeded")
            out["per_layer"] = traced_metrics(tracers, per_rep, plain, traced,
                                              out["graph_mb"])
            attempts.fail_all([f"traced wrapper {span} recorded no calls"
                              for span in missing_spans(tracers, workload.expected_spans)])
            trace_dir = Path(work_dir) / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            write_spans(trace_dir / f"{name}.spans.jsonl", tracers)
    except RuntimeError as exc:
        attempts.failures.append(str(exc))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    out["peak_rss_mb"] = peak_rss_mb()
    out["elapsed_s"] = time.perf_counter() - start
    out.update(attempted=attempts.attempted, failed=attempts.failed,
               failures=attempts.failures)
    return out


def traced_metrics(tracers, per_rep, plain, traced, g_mb) -> dict[str, float]:
    """Set-up phase metrics plus the per-metric median over traced reps."""
    setup = [t for phase, t in tracers if phase == "setup"]
    m = median_metrics(per_rep)
    for tracer in setup:
        for k, v in layer_metrics(tracer.spans, tracer.counts).items():
            m[k] += v / len(setup)
    m["snapshots.graph_mb"] = g_mb
    m["trace.run_s"] = statistics.median(traced)
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return m


def missing_spans(tracers, expected) -> list[str]:
    seen = set()
    for _, tracer in tracers:
        seen |= set(span_table(tracer.spans))
    return [name for name in expected if name not in seen]


def write_spans(path: Path, tracers) -> None:
    """All spans of the traced run, one JSON line each, per phase."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        for phase, tracer in tracers:
            tracer.dump(fh, phase)
    os.replace(tmp, path)
