"""Every import in the package and its tests is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope):
    """Nodes of ``scope`` outside its nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES + (ast.Lambda,)):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[str]:
    """Names a scope imports but never reads, as ``line: name``; a module's
    ``__all__`` counts as a read."""
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    found = []
    for scope in (n for n in ast.walk(tree) if isinstance(n, SCOPES)):
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        if scope is tree:
            used |= exported
        for node in _own_nodes(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = ("import os\nimport a.b\nfrom x import y as z\n__all__ = ['z']\n"
              "def f():\n    import sys\n    return a\n")
    assert unused_imports(source) == ["1: os", "6: sys"]
