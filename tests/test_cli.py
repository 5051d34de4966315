"""Exit-code contract of the command-line interface."""

import gzip
import json
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest
from helpers import block, over_blocked_run_paths, tree

from snaplink import cli, synthetic
from snaplink.cli import _build_config, build_parser, main
from snaplink.config import ExperimentConfig


@pytest.fixture
def twelve_window_file(tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    path = tmp_path / "edges.csv"
    edges = synthetic.generate_edges(n_nodes=30, n_steps=12, edges_per_step=40,
                                     period=1000.0, seed=2)
    synthetic.write_edge_file(path, edges)
    return path


@pytest.mark.parametrize("verb,flags,field", [
    ("run-fixed", ["--frequency", "1000", "--set", "test_fraction=0.9"], "test_fraction"),
    ("run-live", ["--frequency", "100000"], "frequency"),
])
def test_protocol_split_error_exits_2_with_one_line(twelve_window_file, tmp_path,
                                                    capsys, verb, flags, field):
    runs = tmp_path / "runs"
    argv = [verb, "--dataset", str(twelve_window_file),
            "--run-root", str(runs), "--seeds", "0", *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"{verb}: {field}: ")
    # the rejected run leaves only the snapshot cache, no run directory
    assert sorted(p.name for p in runs.iterdir()) == [".cache"]


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_ingest_non_finite_weight_exits_2_naming_the_line(tmp_path, capsys, monkeypatch,
                                                          weight):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    path = tmp_path / "edges.csv"
    path.write_text(f"0,1,1.0,100\n1,2,{weight},200\n2,0,1.0,300\n")
    argv = ["ingest", "--dataset", str(path), "--run-root", str(tmp_path / "runs")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ingest: line 2: bad weight")


def test_ingest_reports_a_late_bad_weight_on_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    lines = [f"{i % 997},{(i * 7) % 991},1,{i}\n" for i in range(1, 20_001)]
    lines[18_999] = "5,6,nan,19000\n"  # line 19000; the lines before it are clean
    path = tmp_path / "edges.csv"
    path.write_text("".join(lines))
    argv = ["ingest", "--dataset", str(path), "--run-root", str(tmp_path / "runs")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ingest: line 19000: bad weight nan")


def gzip_edges() -> bytes:
    """A gzip stream of 3,000 edge lines."""
    return gzip.compress(b"".join(b"%d,%d,1,%d\n" % (i % 97, i % 89, i) for i in range(3000)))


def flipped(data: bytes, lo: int, hi: int) -> bytes:
    """`data` with the bits of bytes lo..hi-1 inverted."""
    return data[:lo] + bytes(b ^ 0xFF for b in data[lo:hi]) + data[hi:]


@pytest.mark.parametrize("verb,name,make,message", [
    ("run-live", "missing.csv", None, "dataset: not a file"),
    ("ingest", "edges", Path.mkdir, "dataset: not a file"),
    ("run-live", "edges.csv", lambda p: p.write_bytes(b"0,1,1,100\n\xff,2,1,200\n"),
     "unreadable text"),
    ("run-fixed", "edges.csv.gz", lambda p: p.write_bytes(b"0,1,1,100\n"),
     "unreadable text"),
    ("ingest", "edges.csv.gz", lambda p: p.write_bytes(gzip_edges()[:2000]),
     "unreadable text"),  # cut short: EOFError
    ("ingest", "edges.csv.gz", lambda p: p.write_bytes(flipped(gzip_edges(), 20, 60)),
     "unreadable text"),  # a corrupt deflate stream: zlib.error
    ("ingest", "edges.csv", lambda p: p.write_bytes(b"# header\n"), "no edges found"),
], ids=["missing", "directory", "undecodable", "not-gzip", "cut-gzip", "corrupt-gzip",
        "only-a-comment"])
def test_malformed_dataset_exits_2_with_one_line(tmp_path, capsys, monkeypatch, verb, name,
                                                 make, message):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    path = tmp_path / name
    if make is not None:
        make(path)
    runs = tmp_path / "runs"
    assert main([verb, "--dataset", str(path), "--run-root", str(runs)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"{verb}: ") and message in err and str(path) in err
    assert not runs.exists()  # no run directory, no cache archive


def test_grid_records_a_missing_dataset_as_failed_cells(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    path, runs = tmp_path / "missing.csv", tmp_path / "runs"
    argv = ["grid", "--dataset", str(path), "--run-root", str(runs), "--axis", "alpha=0.5,1"]
    assert main(argv) == 0
    assert "2 cells, 2 failed" in capsys.readouterr().out
    index = json.loads((runs / "grid" / "index.json").read_text())
    assert [c["error"] for c in index["cells"]] == \
        [f"ConfigError: dataset: not a file: {path}"] * 2


@pytest.mark.parametrize("verb,make", [
    ("run-live", None),
    ("grid", Path.mkdir),
    ("ingest", lambda p: p.write_bytes(b"alpha = 0.5\n\xff\n")),
], ids=["missing", "directory", "undecodable"])
def test_unreadable_config_file_exits_2_with_one_line(tmp_path, capsys, monkeypatch,
                                                      verb, make):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    path = tmp_path / "exp.cfg"
    if make is not None:
        make(path)
    runs = tmp_path / "runs"
    axis = ["--axis", "alpha=0.5"] if verb == "grid" else []
    argv = [verb, "--config", str(path), "--dataset", str(tmp_path / "edges.csv"),
            "--run-root", str(runs), *axis]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"{verb}: config: ") and str(path) in err
    assert not runs.exists()


def test_grid_follows_the_config_file_protocol_unless_the_flag_is_given(tmp_path,
                                                                        monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    config = tmp_path / "f.cfg"
    config.write_text("protocol = fixed_split\n")

    def protocol(*flags):
        args = build_parser().parse_args(["grid", "--config", str(config),
                                          "--axis", "alpha=0.5", *flags])
        return _build_config(args, args.protocol).protocol

    assert protocol() == "fixed_split"
    assert protocol("--protocol", "live_update") == "live_update"
    assert build_parser().parse_args(["grid"]).protocol is None


def test_ingest_rebuilds_a_damaged_cache_archive(twelve_window_file, tmp_path, capsys):
    argv = ["ingest", "--dataset", str(twelve_window_file), "--frequency", "1000",
            "--run-root", str(tmp_path / "runs")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    cache = tmp_path / "runs" / ".cache"
    (archive,) = cache.glob("*.npz")
    assert sorted(p.name for p in cache.iterdir()) == [archive.name, "fingerprints.json"]
    archive.write_bytes(archive.read_bytes()[:100])
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_every_named_flag_reaches_the_config(monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)

    def parse(*flags):
        return _build_config(build_parser().parse_args(["run-live", *flags]), "live_update")

    cfg = parse("--dataset", "d.csv", "--schema", "ws:src,dst,timestamp",
                "--frequency", "daily", "--update", "mlp", "--alpha", "0.5",
                "--seeds", "4,5", "--k-neg", "30", "--run-root", "rr", "--run-name", "nm",
                "--workers", "2", "--force", "--set", "hidden_dim=16")
    assert (cfg.dataset, cfg.schema, cfg.frequency) == ("d.csv", "ws:src,dst,timestamp", "daily")
    assert (cfg.update, cfg.alpha, cfg.seeds, cfg.k_neg) == ("mlp", 0.5, (4, 5), 30)
    assert (cfg.run_root, cfg.run_name, cfg.workers, cfg.force) == ("rr", "nm", 2, True)
    assert (cfg.hidden_dim, cfg.protocol) == (16, "live_update")
    # a falsy value is still given
    cfg = parse("--alpha", "0", "--workers", "0")
    assert (cfg.alpha, cfg.workers) == (0.0, 0)
    # a flag left out keeps the default
    assert parse() == ExperimentConfig(protocol="live_update")


@pytest.mark.parametrize("verb,flag,key,value", [
    ("run-live", "--alpha", "alpha", "abc"),
    ("run-live", "--k-neg", "k_neg", "x"),
    ("run-live", "--workers", "workers", "x"),
    ("run-live", "--update", "update", "foo"),
    ("ingest", "--k-neg", "k_neg", "0"),
])
def test_a_bad_named_flag_fails_as_its_set_form(tmp_path, capsys, monkeypatch, verb, flag,
                                                key, value):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    runs = tmp_path / "runs"
    common = [verb, "--dataset", str(tmp_path / "edges.csv"), "--run-root", str(runs)]
    assert main([*common, "--set", f"{key}={value}"]) == 2
    expected = capsys.readouterr().err
    assert expected.startswith(f"{verb}: {key}: ") and expected.count("\n") == 1
    assert main([*common, flag, value]) == 2
    assert capsys.readouterr().err == expected
    assert not runs.exists()


def readme_commands() -> list[str]:
    """Each `snaplink ...` command line of README.md, `\\` continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands, pending = [], ""
    for line in text.splitlines():
        line = pending + line.strip()
        pending = line[:-1] if line.endswith("\\") else ""
        if not pending and line.startswith("snaplink "):
            commands.append(line)
    return commands


def readme_config_file() -> str:
    """The README's `# exp.cfg` block, dedented."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("    # exp.cfg\n", 1)[1].split("\n\n", 1)[0]
    return "\n".join(line.strip() for line in block.splitlines()) + "\n"


def test_every_readme_command_parses_and_builds_a_valid_config(tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(readme_config_file())
    commands = readme_commands()
    assert len(commands) == 7
    protocols = {"run-live": "live_update", "run-fixed": "fixed_split"}
    for command in commands:
        args = build_parser().parse_args(shlex.split(command)[1:])
        if hasattr(args, "sets"):  # a verb that takes config flags
            _build_config(args, protocols.get(args.command)).validate()


def test_ingest_and_run_share_the_cache_under_the_env_run_root(twelve_window_file, tmp_path,
                                                               monkeypatch):
    env_root = tmp_path / "envroot"
    monkeypatch.setenv("SNAPLINK_RUN_ROOT", str(env_root))
    monkeypatch.chdir(tmp_path)
    flags = ["--dataset", str(twelve_window_file), "--frequency", "1000"]
    assert main(["ingest", *flags]) == 0
    assert main(["run-live", *flags, "--seeds", "0", "--k-neg", "5",
                 "--set", "hidden_dim=4", "--set", "max_epochs=1"]) == 0
    archives = [p for p in tmp_path.rglob("*.npz") if p.parent.name == ".cache"]
    assert len(archives) == 1
    assert archives[0].parent == env_root / ".cache"


def test_run_root_flag_wins_over_the_env_which_wins_over_the_config_file(
        twelve_window_file, tmp_path, monkeypatch):
    config = tmp_path / "exp.cfg"
    config.write_text(f"run_root = {tmp_path / 'from_file'}\n")
    monkeypatch.setenv("SNAPLINK_RUN_ROOT", str(tmp_path / "from_env"))
    flags = ["--dataset", str(twelve_window_file), "--frequency", "1000"]
    assert main(["ingest", *flags, "--config", str(config),
                 "--run-root", str(tmp_path / "from_flag")]) == 0
    assert main(["ingest", *flags, "--set", f"run_root={tmp_path / 'from_set'}"]) == 0
    assert main(["run-live", *flags, "--run-root", str(tmp_path / "from_flag"),
                 "--seeds", "0", "--k-neg", "5", "--run-name", "r",
                 "--set", "hidden_dim=4", "--set", "max_epochs=1"]) == 0
    assert main(["ingest", *flags, "--config", str(config)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("from_")) == [
        "from_env", "from_flag", "from_set"]
    assert sorted(p.name for p in (tmp_path / "from_flag").iterdir()) == [".cache", "r"]

    def run_root(*flags):
        args = build_parser().parse_args(["run-live", "--config", str(config), *flags])
        return _build_config(args, "live_update").run_root

    assert run_root("--run-root", "flag") == "flag"
    assert run_root() == str(tmp_path / "from_env")
    monkeypatch.delenv("SNAPLINK_RUN_ROOT")
    assert run_root() == str(tmp_path / "from_file")
    assert build_parser().parse_args(["run-live"]).run_root is None  # no flag, no default


def test_repeated_seeds_exit_2_with_one_line(twelve_window_file, tmp_path, capsys):
    runs = tmp_path / "runs"
    argv = ["run-live", "--dataset", str(twelve_window_file), "--run-root", str(runs),
            "--frequency", "1000", "--seeds", "1,1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("run-live: seeds: ")
    assert not runs.exists()  # rejected before anything is written


def run_live_argv(dataset, runs):
    return ["run-live", "--dataset", str(dataset), "--run-root", str(runs),
            "--frequency", "1000", "--seeds", "1", "--run-name", "r", "--k-neg", "5",
            "--set", "hidden_dim=4", "--set", "max_epochs=1"]


def test_report_lists_a_seed_directory_as_skipped(twelve_window_file, tmp_path, capsys):
    runs = tmp_path / "runs"
    assert main(run_live_argv(twelve_window_file, runs)) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["report", str(runs / "r" / "seed1"), str(runs / "r"), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["reported 1 runs to " + str(out),
                       "skipped (missing/corrupt report): " + str(runs / "r" / "seed1")]


def test_report_skips_a_steps_line_that_holds_no_object(twelve_window_file, tmp_path, capsys):
    runs, out = tmp_path / "runs", tmp_path / "out"
    assert main(run_live_argv(twelve_window_file, runs)) == 0
    assert main(["report", str(runs / "r"), "--out", str(out)]) == 0
    series = (out / "r.steps.tsv").read_text()
    assert len(series.splitlines()) > 2  # the header lines and some step rows
    with open(runs / "r" / "seed1" / "steps.ndjson", "a") as fh:
        fh.write("not json\n[1]\n")
    capsys.readouterr()
    assert main(["report", str(runs / "r"), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "r.steps.tsv").read_text() == series


@pytest.mark.parametrize("record", [
    {"record": "step", "mrr": 0.5},  # no t, n_positives or epochs_run
    {"record": "step", "t": 0, "mrr": "0.5", "n_positives": 1, "epochs_run": 1},
    {"record": "step", "t": 0, "mrr": True, "n_positives": 1, "epochs_run": 1},
    {"record": "step", "t": 0.5, "mrr": 0.5, "n_positives": 1, "epochs_run": 1},
])
def test_report_skips_a_step_record_it_cannot_print(twelve_window_file, tmp_path, capsys,
                                                    record):
    runs, out = tmp_path / "runs", tmp_path / "out"
    assert main(run_live_argv(twelve_window_file, runs)) == 0
    assert main(["report", str(runs / "r"), "--out", str(out)]) == 0
    series = (out / "r.steps.tsv").read_text()
    assert len(series.splitlines()) > 2  # the header lines and some step rows
    with open(runs / "r" / "seed1" / "steps.ndjson", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    capsys.readouterr()
    assert main(["report", str(runs / "r"), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "r.steps.tsv").read_text() == series


@pytest.mark.parametrize("field,value", [
    ("alpha", "x"), ("mean_mrr", None), ("std_mrr", True), ("protocol", 5),
    ("seeds", ["1"]), ("seeds", 1),
])
def test_report_lists_a_report_it_cannot_print_as_skipped(twelve_window_file, tmp_path,
                                                          capsys, field, value):
    runs, out = tmp_path / "runs", tmp_path / "out"
    assert main(run_live_argv(twelve_window_file, runs)) == 0
    assert main(["report", str(runs / "r"), "--out", str(out)]) == 0
    summary = (out / "summary_table.tsv").read_text()
    shutil.copytree(runs / "r", runs / "bad")
    report = json.loads((runs / "bad" / "report.json").read_text())
    (runs / "bad" / "report.json").write_text(json.dumps({**report, field: value}))
    capsys.readouterr()
    assert main(["report", str(runs / "r"), str(runs / "bad"), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"reported 1 runs to {out}", f"skipped (missing/corrupt report): {runs / 'bad'}"]
    assert (out / "summary_table.tsv").read_text() == summary


@pytest.mark.parametrize("damage", ["directory", "too-deep"])
def test_report_lists_a_run_with_a_damaged_report_as_skipped(tmp_path, capsys, damage):
    report = tmp_path / "r" / "report.json"
    if damage == "directory":
        report.mkdir(parents=True)
    else:
        report.parent.mkdir()
        report.write_text("[" * 100_000)  # too deep for the JSON decoder
    out = tmp_path / "out"
    assert main(["report", str(report.parent), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"reported 0 runs to {out}", f"skipped (missing/corrupt report): {report.parent}"]


def test_a_run_whose_report_cannot_be_read_back_exits_2_with_one_line(tmp_path, capsys,
                                                                      monkeypatch):
    run_dir = tmp_path / "r"
    (run_dir / "report.json").mkdir(parents=True)
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: run_dir)
    assert main(["run-live", "--dataset", "unused", "--run-root", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"run-live: no readable run report in {run_dir}\n"


@over_blocked_run_paths
def test_a_blocked_run_path_exits_2_before_any_seed_trains(twelve_window_file, tmp_path,
                                                           capsys, target, kind):
    runs = tmp_path / "runs"
    path = block(runs / target, kind)
    made = tree(runs)
    assert main(run_live_argv(twelve_window_file, runs)) == 2
    problem = "is a directory" if kind == "dir" else "is not a directory"
    assert capsys.readouterr().err == f"run-live: cannot write the run: {path} {problem}\n"
    assert tree(runs) == made  # no seed ran: nothing but the dataset cache was written


@pytest.mark.parametrize("text", ["[1, 2]", "\udcff",
                                  pytest.param("[" * 100_000, id="too-deep")])
def test_run_live_replaces_a_report_that_is_not_a_run_report(twelve_window_file, tmp_path,
                                                             text):
    runs = tmp_path / "runs"
    (runs / "r").mkdir(parents=True)
    (runs / "r" / "report.json").write_text(text, errors="surrogateescape")
    assert main(run_live_argv(twelve_window_file, runs)) == 0
    report = json.loads((runs / "r" / "report.json").read_text())
    assert report["seeds"] == [1] and report["protocol"] == "live_update"


def test_synth_writes_a_file_that_ingest_reads_back(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    path = tmp_path / "f.csv"
    argv = ["synth", "--out", str(path), "--nodes", "40", "--steps", "5",
            "--edges-per-step", "30", "--period", "1000"]
    assert main(argv) == 0
    made = synthetic.generate_edges(n_nodes=40, n_steps=5, edges_per_step=30,
                                    period=1000.0, seed=0)
    endpoints = np.unique(np.concatenate([made.src, made.dst]))  # the nodes with an edge
    assert endpoints.size < 40  # the generator's universe holds a node with no edge
    assert capsys.readouterr().out == (
        f"wrote {len(made)} edges over {endpoints.size} nodes to {path}\n")
    argv = ["ingest", "--dataset", str(path), "--frequency", "1000",
            "--run-root", str(tmp_path / "runs")]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:4] == [f"nodes: {endpoints.size}", f"edges: {len(made)}", "snapshots: 5 (1000)"]


def test_grid_prints_its_best_cell(twelve_window_file, tmp_path, capsys):
    argv = ["grid", "--dataset", str(twelve_window_file), "--run-root", str(tmp_path / "runs"),
            "--frequency", "1000", "--seeds", "0", "--k-neg", "5", "--set", "hidden_dim=4",
            "--set", "max_epochs=1", "--axis", "alpha=0.5,1"]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "grid: 2 cells, 0 failed"
    assert out[1].startswith("best cell: ") and "overrides={'alpha': " in out[1]
    assert out[2].startswith("  val MRR ") and " -> test MRR " in out[2]


@pytest.mark.parametrize("argv,line", [
    (["ingest"], "ingest: dataset: a dataset path is required"),
    (["run-live", "--set", "alpha"], "run-live: --set expects KEY=VALUE, got 'alpha'"),
    (["grid", "--axis", "alpha"], "grid: --axis expects KEY=V1,V2,..., got 'alpha'"),
    (["grid"], "grid: grid needs at least one --axis"),
], ids=["ingest-without-dataset", "set-without-equals", "axis-without-equals",
        "grid-without-axis"])
def test_a_command_line_it_cannot_use_exits_2_with_one_line(tmp_path, capsys, monkeypatch,
                                                             argv, line):
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    runs = tmp_path / "runs"
    assert main([*argv, "--run-root", str(runs)]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not runs.exists()
