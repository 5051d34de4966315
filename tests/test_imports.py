"""Every module-level import in the package is used by its module."""

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
