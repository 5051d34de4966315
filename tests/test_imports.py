"""Every module-level import in the package is used by its module, and no
module imports, even inside a function, a module that imports it back."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "snaplink"


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing reads, as
    "line N: name", sorted by name.

    A name is read when it appears as a `Name` anywhere in the module, inside
    a quoted annotation such as `-> "LabelSet"`, or in `__all__`.
    `from __future__` imports bind nothing and are ignored.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, ast.Import | ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                quoted = ast.parse(const.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detector():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "from .model import Quoted, Listed\n"
              "__all__ = ['Listed']\n"
              "@dataclass\n"
              "class A:\n"
              "    x: 'list[Quoted]'\n"
              "def f() -> 'np.ndarray':\n"
              "    return 'os'\n")
    assert unused_imports(source) == ["line 4: field", "line 2: os"]


def package_imports(sources: dict[str, str], package: str = "snaplink") -> dict[str, set[str]]:
    """Module name -> the package modules it imports, from every import
    statement in it, also those inside functions: `from . import x`,
    `from .x import y`, `import package.x` and `from package.x import y`."""
    graph = {}
    for name, source in sources.items():
        deps = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                if node.level:  # relative to the package
                    deps.update([node.module.split(".")[0]] if node.module
                                else (a.name for a in node.names))
                elif node.module and node.module.startswith(package + "."):
                    deps.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                deps.update(a.name.split(".")[1] for a in node.names
                            if a.name.startswith(package + "."))
        graph[name] = deps & set(sources)
    return graph


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of `graph` as [a, b, ..., a], or [] when it has none."""
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return []
        path.append(name)
        for dep in sorted(graph[name]):
            if cycle := visit(dep):
                return cycle
        path.pop()
        done.add(name)
        return []

    for name in sorted(graph):
        if cycle := visit(name):
            return cycle
    return []


def test_package_imports_have_no_cycle():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    graph = package_imports(sources)
    assert graph["evaluate"] >= {"model", "train"}  # the graph is read, not empty
    assert import_cycle(graph) == []


def test_import_cycle_detector():
    sources = {"a": "from . import b\n",
               "b": "import numpy as np\nfrom .c import f\n",
               "c": "def f():\n    from . import a  # inside a function\n",
               "d": "import snaplink.a\nfrom snaplink.b import g\n"}
    graph = package_imports(sources)
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a", "b"}}
    assert import_cycle(graph) == ["a", "b", "c", "a"]
    sources["c"] = "def f():\n    pass\n"
    assert import_cycle(package_imports(sources)) == []
