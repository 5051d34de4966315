"""snaplink benchmark: seeded inputs, three workloads, checked outputs.

    python3 bench/run.py --workload live-train --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload
    python3 bench/run.py --workload fixed-eval --trace 1    # per-layer metrics
    python3 bench/run.py --workload all --smoke --seconds 1 # toy sizes

Run it from anywhere inside a checkout of the repository; it reads the
package from `src/` and writes only under `.bench_work/` at the checkout
root. Per workload and seed the input file is generated once, in its own
process, and reused. Each measurement then runs in a fresh process that runs
only that workload (see measure.py). With `--trace 0` the end-to-end metrics
are reported, with `--trace 1` the per-layer metrics of a traced run.

Human-readable lines go first; the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170          # a run must end within 180 s

sys.path.insert(0, str(HERE))
from tracer import PER_LAYER, SETUP_METRICS  # noqa: E402
from workloads import WORKLOADS, generate, input_dir  # noqa: E402

END_TO_END = {"run_s": "s", "step_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measurement budget of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy sizes, for tests")
    p.add_argument("--role", choices=("main", "gen", "worker"), default="main",
                   help=argparse.SUPPRESS)
    p.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("SNAPLINK_RUN_ROOT", None)  # would redirect the run directories
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def _child(args, role: str, timeout: float, out: Path | None = None) -> int:
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if out is not None:
        cmd += ["--out", str(out)]
    try:
        return subprocess.run(cmd, env=_child_env(), stdout=sys.stderr,
                              timeout=max(timeout, 1.0)).returncode
    except subprocess.TimeoutExpired:
        print(f"{role} process exceeded {timeout:.0f} s and was killed", file=sys.stderr)
        return -1


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _git(*cmd) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", *cmd], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def code_id() -> str:
    """Hash of the package sources: identifies the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = _git("rev-parse", "HEAD")
    dirty = None
    if sha is not None:
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    return {
        "git_sha": sha, "git_dirty": dirty, "code_id": code_id(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy_version,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(), "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def _stats(values: list[float]) -> str:
    if not values:
        return "no samples"
    return (f"median of {len(values)}  [min {min(values):.4g}, max {max(values):.4g}]")


def check_mrr_record(key: str, mrr: float) -> list[str]:
    """mean_mrr must repeat bit for bit across runs of one code and seed."""
    path = WORK / "mean_mrr.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    if key in record:
        if record[key] != mrr.hex():
            return [f"mean_mrr {mrr!r} differs from an earlier run of this code and "
                    f"seed ({float.fromhex(record[key])!r})"]
        return []
    record[key] = mrr.hex()
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return []


def run_one(args, name: str) -> dict:
    """Generate the input if needed, measure in a fresh process, check, report."""
    w = WORKLOADS[name]
    args = argparse.Namespace(**{**vars(args), "workload": name})
    t_start = time.perf_counter()
    in_dir = input_dir(WORK, w, args.seed, args.smoke)
    failures: list[str] = []
    if not (in_dir / "input.json").exists():
        t0 = time.perf_counter()
        if _child(args, "gen", RUN_LIMIT_S / 2) != 0:
            failures.append("input generation failed")
        print(f"generated input in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    res: dict = {}
    if not failures:
        out_path = WORK / "results" / f"{name}-s{args.seed}-p{os.getpid()}.worker.json"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        rc = _child(args, "worker", RUN_LIMIT_S - (time.perf_counter() - t_start),
                    out_path)
        if rc == 0 and out_path.exists():
            res = json.loads(out_path.read_text())
            out_path.unlink()
        else:
            failures.append(f"measuring process exited with {rc}")
    failures += res.get("failures", [])
    attempted = max(1, res.get("attempted", 0))
    failed = res.get("failed", 0) + (1 if not res else 0)
    totals = json.loads((in_dir / "input.json").read_text())["totals"] \
        if (in_dir / "input.json").exists() else {}

    metrics: dict = {}
    notes: dict = {}
    samples = res.get("samples", {})
    mrr = res.get("mean_mrr")
    if mrr is not None:
        key = f"{code_id()}|{name}-{w.key(args.smoke)}|s{args.seed}"
        problems = check_mrr_record(key, mrr)
        failures += problems
        if problems:  # every operation of the run gave the suspect value
            failed = attempted
    if args.trace == 0 and res:
        for key in ("run_s", "step_s", "setup_s"):
            if samples.get(key):
                metrics[key] = statistics.median(samples[key])
                notes[key] = _stats(samples[key])
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        notes["peak_rss_mb"] = "peak of the measuring process"
        if w.kind == "ingest":
            notes["step_s"] = "warm load time per window, " + notes.get("step_s", "")
        units = END_TO_END
    elif res.get("per_layer"):
        merged = {**res["per_layer"], "evaluate.mean_mrr": mrr or 0.0}
        metrics = {k: merged[k] for k in PER_LAYER if k in merged}
        units = PER_LAYER
    else:
        units = {}
    missing = [k for k in units if k not in metrics]
    if missing and not failures:
        failures.append(f"no value for {', '.join(missing)}")
    correct = not failures and failed == 0

    report = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "correct": correct,
        "attempted": attempted, "failed": failed, "failures": failures,
        "input_totals": totals, "loaded_totals": res.get("totals"), "mean_mrr": mrr,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": samples, "elapsed_s": time.perf_counter() - t_start,
        "provenance": provenance(args.seed),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    (results / f"{name}{suffix}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print_report(report, w, notes)
    return report


def print_report(report: dict, w, notes: dict) -> None:
    t = report["loaded_totals"] or report["input_totals"]
    print(f"== {report['workload']}  seed {report['seed']}  trace {report['trace']}"
          f"{'  smoke' if report['smoke'] else ''}")
    if t:
        print(f"   input: {t['nodes']} nodes, {t['edges']} edges, {t['windows']} windows")
    run_s = report["metrics"].get("trace.run_s", {}).get("value")
    cold_s = report["metrics"].get("runner.load_dataset.cold_s", {}).get("value")
    for key, m in report["metrics"].items():
        line = f"   {key:<40} {m['value']:>14.6g} {m['unit']:<6}"
        if key in notes:
            line += f" {notes[key]}"
        elif key in SETUP_METRICS:
            if key != SETUP_METRICS[0] and cold_s:
                line += f" {m['value'] / cold_s:6.1%} of traced cold load"
        elif m["unit"] == "s" and run_s and not key.startswith("trace."):
            line += f" {m['value'] / run_s:6.1%} of traced run_s"
        if m["value"] == 0:
            reason = next((r for p, r in w.zero_by_design.items()
                           if key.startswith(p)), None)
            line += f" (zero: {reason})" if reason else " (zero)"
        print(line)
    if report["trace"] == 1:
        print(f"   repetitions: {len(report['samples'].get('traced_run_s', []))} traced, "
              f"{len(report['samples'].get('run_s', []))} untraced, after one warm-up")
    elif report["mean_mrr"] is not None:
        print(f"   {'mean_mrr (checked, not a timed metric)':<40} "
              f"{report['mean_mrr']:>14.6g} 1      bitwise identical over all runs")
    print(f"   checks: {report['attempted']} operations attempted, "
          f"{report['failed']} failed")
    for f in report["failures"]:
        print(f"   FAILED: {f}")
    p = report["provenance"]
    print(f"   provenance: git {p['git_sha'] or 'n/a'}"
          f"{' (dirty)' if p['git_dirty'] else ''}, code {p['code_id']}, "
          f"nproc {p['nproc']}, python {p['python']}, numpy {p['numpy']}, "
          f"scipy {p['scipy']}, blas {p['blas']} x{p['blas_threads']} threads")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "snaplink" / "__init__.py").exists():
        print(f"snaplink sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.role == "gen":
        w = WORKLOADS[args.workload]
        generate(w, args.seed, args.smoke, input_dir(WORK, w, args.seed, args.smoke))
        return 0
    if args.role == "worker":
        import measure

        w = WORKLOADS[args.workload]
        in_dir = input_dir(WORK, w, args.seed, args.smoke)
        totals = json.loads((in_dir / "input.json").read_text())["totals"]
        out = measure.run(w, args.seed, args.seconds, bool(args.trace), args.smoke,
                          in_dir, WORK, totals)
        tmp = args.out.with_name(args.out.name + ".tmp")
        tmp.write_text(json.dumps(out) + "\n")
        os.replace(tmp, args.out)
        return 0

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_one(args, n) for n in names]
    prefix = len(reports) > 1  # --workload all: metric names carry the workload
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {(f"{r['workload']}." if prefix else "") + k: v
                    for r in reports for k, v in r["metrics"].items()},
    }))
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
