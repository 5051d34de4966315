"""Every top-level function and class in the package is named somewhere else."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "snaplink"
SEARCHED = ("src", "tests", "bench")


def dead_names(sources: dict[str, str], modules: list[str]) -> list[str]:
    """Top-level `def`/`class` names of `modules` that no line of `sources`
    (label -> text, which includes the modules) names as a whole word, apart
    from the name's own definition line; as "label:line: name", in
    definition order.

    The match is textual, so a reference inside a string (a tracer's target
    table, a test id) counts as a use.
    """
    seen: dict[str, set[tuple[str, int]]] = {}
    for label, text in sources.items():
        for lineno, line in enumerate(text.splitlines(), 1):
            for word in set(re.findall(r"\w+", line)):
                seen.setdefault(word, set()).add((label, lineno))
    dead = []
    for label in modules:
        for node in ast.parse(sources[label]).body:
            if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
                if not seen.get(node.name, set()) - {(label, node.lineno)}:
                    dead.append(f"{label}:{node.lineno}: {node.name}")
    return dead


def test_package_has_no_dead_top_level_names():
    sources = {str(p.relative_to(ROOT)): p.read_text()
               for d in SEARCHED for p in sorted((ROOT / d).rglob("*.py"))}
    modules = [str(p.relative_to(ROOT)) for p in sorted(PACKAGE.glob("*.py"))]
    assert modules and set(modules) <= set(sources)
    assert dead_names(sources, modules) == []


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
