"""Every top-level function and class in the package is named somewhere
else, and one that only tests name is listed in TEST_ONLY."""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "snaplink"
SEARCHED = ("src", "tests", "bench")


# top-level names that only tests use, each on purpose
TEST_ONLY = {
    "mean_all",         # the scalar loss that diffcore's gradient checks reduce to
    "load_checkpoint",  # reads what runs write; resume will call it
    "grad_check",       # the finite-difference reference the gradient tests compare against
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
