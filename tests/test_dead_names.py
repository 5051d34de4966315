"""Every top-level function and class in the package is named somewhere
else, every method and property is read as an attribute in `src/` code, and
one that only tests name is listed in TEST_ONLY. The benchmark's tracer
finds every name it wraps, a train step calls every tape op it expects to
time, its graph size and cache check still read a graph, and its run check
passes a run."""

import ast
import importlib
import importlib.util
import io
import re
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

from conftest import fresh_state, make_synth_graph, toy_model, toy_snapshot
from snaplink import diffcore as dc
from snaplink import model as md
from snaplink import snapshots as sn
from snaplink.config import ExperimentConfig
from snaplink.runner import run_experiment

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "snaplink"
SEARCHED = ("src", "tests", "bench")


# top-level names that only tests use, and methods ("Class.name") that no
# src/ code reads as an attribute, each on purpose
TEST_ONLY = {
    "GraphSnapshot.node_features",  # bench/ reads it until ROADMAP item 1 changes the benchmark
    "RunState.load",  # ROADMAP item 4's resume calls it
    "GraphSnapshot.n_edges",  # bench/checks.py counts a graph's edges with it
    "Var._vjp",  # bench/tracer.py wraps it to time each op's backward
}


def words(label: str, text: str):
    """(word, line) for each name `text` uses. Under `src/` only code counts:
    the NAME tokens, not comments, docstrings or other strings. Before
    Python 3.12 an f-string is one string token, so a name used only inside
    its braces reads as unused there: the test fails, it never passes
    wrongly. Elsewhere every whole word on a line counts, so a reference
    inside a string (a tracer's target table, a test id) is a use."""
    if label.startswith("src/"):
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                yield tok.string, tok.start[0]
        return
    for lineno, line in enumerate(text.splitlines(), 1):
        for word in set(re.findall(r"\w+", line)):
            yield word, lineno


def name_uses(sources: dict[str, str], modules: list[str]) -> list[tuple[str, str, set[str]]]:
    """For each top-level `def`/`class` of `modules`, in definition order:
    ("label:line", name, labels of the `sources` (label -> text, which
    includes the modules) whose `words` name it, apart from the name's own
    definition line).
    """
    seen: dict[str, set[tuple[str, int]]] = {}
    for label, text in sources.items():
        for word, lineno in words(label, text):
            seen.setdefault(word, set()).add((label, lineno))
    out = []
    for label in modules:
        for node in ast.parse(sources[label]).body:
            if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
                uses = seen.get(node.name, set()) - {(label, node.lineno)}
                out.append((f"{label}:{node.lineno}", node.name, {l for l, _ in uses}))
    return out


def attribute_uses(text: str) -> set[str]:
    """Each `name` that `text` reads as `receiver.name`, unless the receiver
    is a module the file imports: `np.load(...)` uses no method `load`."""
    tree = ast.parse(text)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:  # from . import x
            modules.update(a.asname or a.name for a in node.names)
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and not (isinstance(node.value, ast.Name) and node.value.id in modules)}


def methods_src_does_not_name(sources: dict[str, str], modules: list[str]) -> list[str]:
    """"Class.name" for each method or property of a top-level class of
    `modules` that no `src/` source reads as an attribute (`attribute_uses`),
    once each (a property's setter shares its name). Dunder methods are
    called by the language, not by name."""
    used = set().union(*(attribute_uses(text) for label, text in sources.items()
                         if label.startswith("src/")))
    out = []
    for label in modules:
        for cls in ast.parse(sources[label]).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) \
                        and not node.name.startswith("__") and node.name not in used:
                    out.append(f"{cls.name}.{node.name}")
    return list(dict.fromkeys(out))


def dead_names(sources: dict[str, str], modules: list[str]) -> list[str]:
    """Top-level names that nothing names, as "label:line: name"."""
    return [f"{where}: {name}" for where, name, uses in name_uses(sources, modules)
            if not uses]


def names_only_tests_use(sources: dict[str, str], modules: list[str]) -> list[str]:
    """Top-level names that only sources under `tests/` name."""
    return [name for _, name, uses in name_uses(sources, modules)
            if uses and all(label.startswith("tests/") for label in uses)]


def package_sources() -> tuple[dict[str, str], list[str]]:
    sources = {str(p.relative_to(ROOT)): p.read_text()
               for d in SEARCHED for p in sorted((ROOT / d).rglob("*.py"))}
    modules = [str(p.relative_to(ROOT)) for p in sorted(PACKAGE.glob("*.py"))]
    assert modules and set(modules) <= set(sources)
    return sources, modules


def test_package_has_no_dead_top_level_names():
    assert dead_names(*package_sources()) == []


def test_every_test_only_name_is_listed():
    """A name in src/ that only tests use, or a method that src/ never
    names, is kept on purpose, or deleted."""
    sources, modules = package_sources()
    assert sorted(names_only_tests_use(sources, modules)
                  + methods_src_does_not_name(sources, modules)) == sorted(TEST_ONLY)


def test_dead_name_detector():
    module = ("import numpy as np\n"
              "def used(x):\n"
              "    return helper(x)\n"
              "def helper(x):\n"
              "    return x\n"
              "@staticmethod\n"
              "def unused_decorated():\n"
              "    pass\n"
              "class Orphan:\n"
              "    def method(self):\n"
              "        return 'Orphan_ish'\n"
              "def named_in_a_string():\n"
              "    pass\n"
              "def named_in_tests():\n"
              "    pass\n"
              "def used_prefix():\n"
              "    pass\n"
              "def named_in_a_comment():\n"
              "    pass\n"
              "# named_in_a_comment is not a use under src/,\n"
              "x = 'and neither is named_in_a_comment in a string'\n")
    sources = {"src/mod.py": module,
               "tracer.py": 'TARGETS = (("mod", "named_in_a_string"),)\n',
               "test_mod.py": "from mod import named_in_tests, used\n"
                              "used(1); used_prefix_not()\n"}
    assert dead_names(sources, ["src/mod.py"]) == ["src/mod.py:7: unused_decorated",
                                                  "src/mod.py:9: Orphan",
                                                  "src/mod.py:16: used_prefix",
                                                  "src/mod.py:18: named_in_a_comment"]
    assert names_only_tests_use(sources, ["src/mod.py"]) == []
    sources["tests/test_mod.py"] = sources.pop("test_mod.py")
    assert names_only_tests_use(sources, ["src/mod.py"]) == ["used", "named_in_tests"]
    # outside src/ the match stays textual: a comment there is a use
    sources["bench/notes.py"] = "# named_in_a_comment\n"
    assert "src/mod.py:18: named_in_a_comment" not in dead_names(sources, ["src/mod.py"])


def test_method_detector():
    module = ("import numpy as np\n"
              "class Record:\n"
              "    def __len__(self):\n"
              "        return 0\n"
              "    def used(self):\n"
              "        return self.helper()\n"
              "    def helper(self):\n"
              "        return 1\n"
              "    @property\n"
              "    def only_tests(self):\n"
              "        return 2\n"
              "    @only_tests.setter\n"
              "    def only_tests(self, value):\n"
              "        pass\n"
              "    def only_a_comment(self):\n"
              "        return 3\n"
              "    # only_a_comment is not a use under src/\n"
              "    @classmethod\n"
              "    def load(cls, path):\n"
              "        return cls()\n"
              "def caller(r):\n"
              "    return r.used(), np.load('x.npz')\n")
    sources = {"src/mod.py": module,
               "tests/test_mod.py": "def test(r):\n    assert r.only_tests == 2\n",
               "bench/notes.py": "r.only_a_comment()\n"}
    # np.load reads an attribute of a module, not of a Record; a setter is
    # listed with its property
    assert methods_src_does_not_name(sources, ["src/mod.py"]) == [
        "Record.only_tests", "Record.only_a_comment", "Record.load"]
    # a call from another src/ module is a use, also through the class
    sources["src/other.py"] = ("from mod import Record\n"
                               "def f(r):\n    return r.only_tests, Record.load('y')\n")
    assert methods_src_does_not_name(sources, ["src/mod.py"]) == ["Record.only_a_comment"]


def load_bench(name: str, monkeypatch):
    """`bench/<name>.py` as a module, read and never written; registered in
    `sys.modules` for the test's duration, as its dataclasses need."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_still_finds_every_target(monkeypatch):
    """`bench/tracer.py` wraps its targets by name when a run is traced; one
    that a change in src/ removed or renamed would crash the benchmark."""
    tracer = load_bench("tracer", monkeypatch)
    modules = {m: importlib.import_module(f"{tracer.PACKAGE}.{m}") for m in tracer.MODULES}
    for module, attr, _ in tracer.TARGETS:
        if "." in attr:  # patched on the class that defines it
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(modules[module], cls_name)).get(meth)), attr
        else:
            assert callable(getattr(modules[module], attr, None)), f"{module}.{attr}"
    for helper in tracer.DIFFCORE_HELPERS:
        assert callable(getattr(modules["diffcore"], helper, None)), helper


@pytest.mark.parametrize("update", ["moving_average", "gru"])
def test_a_train_step_calls_every_tape_op_the_benchmark_expects(monkeypatch, update):
    """A traced benchmark run fails when a tape op it expects records no
    span, forward or backward; a refactor that stops calling one fails here
    first. One train-mode forward and backward of each update kind a model
    workload runs, under the program's default aggregation."""
    tracer = load_bench("tracer", monkeypatch)
    workloads = load_bench("workloads", monkeypatch)
    expected = {span for w in workloads.WORKLOADS.values()
                if w.kind == "model" and w.config["update"] == update
                for span in w.expected_spans if span.startswith("diffcore.")}
    assert expected
    model = toy_model(update=update, aggregation="sum")
    snap = toy_snapshot()
    pairs = np.column_stack([snap.edge_src, snap.edge_dst])
    with tracer.Tracer() as t:
        result = md.forward(snap, fresh_state(model, snap.n_nodes), model,
                            pairs=pairs, mode="train")
        dc.backward(dc.bce_with_logits(result.scores, np.ones((len(pairs), 1))))
    assert expected - {span[0] for span in t.spans} == set()


def test_the_benchmark_still_reads_a_graph(monkeypatch, tmp_path):
    """`bench/measure.py:graph_mb` sizes every ingest-long graph and
    `bench/checks.py:check_same_graph` compares each cache load with the
    cold ingest; both read snapshot attributes by name, so a change in src/
    that drops one would fail every ingest-long run."""
    checks = load_bench("checks", monkeypatch)
    monkeypatch.setitem(sys.modules, "checks", checks)  # measure imports both by name
    monkeypatch.setitem(sys.modules, "tracer", load_bench("tracer", monkeypatch))
    measure = load_bench("measure", monkeypatch)
    cold = make_synth_graph()
    cold.source_fingerprint = "f" * 64
    sn.save_snapshot_cache(tmp_path / "cache.npz", cold)
    assert measure.graph_mb(cold) > 0
    assert checks.check_same_graph(cold, sn.load_snapshot_cache(tmp_path / "cache.npz")) == []


def test_the_benchmark_still_checks_a_run(monkeypatch, tmp_path, synth_graph):
    """`bench/checks.py:check_model_run` reads a seed's reports and its
    `model.npz` by name, and the benchmark's own tests make a float "arr:"
    entry of that archive non-finite; a change in src/ that renamed the
    file or its entries would fail every model run."""
    monkeypatch.delenv("SNAPLINK_RUN_ROOT", raising=False)
    checks = load_bench("checks", monkeypatch)
    cfg = ExperimentConfig(dataset="synthetic", seeds=(0,), k_neg=20, hidden_dim=8,
                           update="gru", max_epochs=2, patience=2, run_root=str(tmp_path))
    run_dir = run_experiment(cfg, graph=synth_graph)
    assert checks.check_model_run(run_dir, 0, len(synth_graph) - 1, cfg.k_neg) == []
    with np.load(run_dir / "seed0" / "model.npz") as data:
        assert any(k.startswith("arr:") and data[k].dtype.kind == "f" for k in data.files)
