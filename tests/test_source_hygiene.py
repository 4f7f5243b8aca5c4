"""Every import in ``src/blockselect`` is used, and every module-level
private name is used somewhere in the package, so a helper that only the
tests call, or one left behind by a refactor, does not stay in the source."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "blockselect"
_MODULES = sorted(_SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _read(tree: ast.AST) -> set[str]:
    """The names ``tree`` reads: loaded names and attributes."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _imported_names(tree: ast.Module) -> set[str]:
    """The names that the module's own ``from ... import`` statements
    import, at any depth."""
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _module_imports(tree: ast.Module) -> list[str]:
    """The names the module-level imports bind, ``__future__`` aside."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    return bound


def _module_privates(tree: ast.Module) -> list[str]:
    """The single-underscore names a module defines at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_import_is_read_in_its_module(path):
    tree = _tree(path)
    assert [name for name in _module_imports(tree) if name not in _read(tree)] == []


def test_every_private_name_is_used_in_the_package():
    trees = {path.name: _tree(path) for path in _MODULES}
    used = set().union(*(_read(t) | _imported_names(t) for t in trees.values()))
    unused = [f"{name}: {private}" for name, tree in trees.items()
              for private in _module_privates(tree) if private not in used]
    assert unused == []
