"""Every top-level function and class in the package is named somewhere
else, and one that only tests name is listed in TEST_ONLY."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "snaplink"
SEARCHED = ("src", "tests", "bench")


# top-level names that only tests use, each on purpose
TEST_ONLY = {
    "mean_all",         # the scalar loss that diffcore's gradient checks reduce to
    "load_checkpoint",  # reads what runs write; resume will call it
}


def name_uses(sources: dict[str, str], modules: list[str]) -> list[tuple[str, str, set[str]]]:
    """For each top-level `def`/`class` of `modules`, in definition order:
    ("label:line", name, labels of the `sources` (label -> text, which
    includes the modules) whose lines name it as a whole word, apart from
    the name's own definition line).

    The match is textual, so a reference inside a string (a tracer's target
    table, a test id) counts as a use.
    """
    seen: dict[str, set[tuple[str, int]]] = {}
    for label, text in sources.items():
        for lineno, line in enumerate(text.splitlines(), 1):
            for word in set(re.findall(r"\w+", line)):
                seen.setdefault(word, set()).add((label, lineno))
    out = []
    for label in modules:
        for node in ast.parse(sources[label]).body:
            if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
                uses = seen.get(node.name, set()) - {(label, node.lineno)}
                out.append((f"{label}:{node.lineno}", node.name, {l for l, _ in uses}))
    return out


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
    """A name in src/ that only tests use is kept on purpose, or deleted."""
    assert sorted(names_only_tests_use(*package_sources())) == sorted(TEST_ONLY)


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
              "    pass\n")
    sources = {"mod.py": module,
               "tracer.py": 'TARGETS = (("mod", "named_in_a_string"),)\n',
               "test_mod.py": "from mod import named_in_tests, used\n"
                              "used(1); used_prefix_not()\n"}
    assert dead_names(sources, ["mod.py"]) == ["mod.py:7: unused_decorated",
                                              "mod.py:9: Orphan",
                                              "mod.py:16: used_prefix"]
    assert names_only_tests_use(sources, ["mod.py"]) == []
    sources["tests/test_mod.py"] = sources.pop("test_mod.py")
    assert names_only_tests_use(sources, ["mod.py"]) == ["used", "named_in_tests"]
