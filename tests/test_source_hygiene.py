"""Source hygiene of the package: no unused import, no orphaned private name.

A stand-in for a linter: each module under src/scalekit is parsed with ``ast``.
An import counts as used when its name is read in the module or listed in
``__all__``; ``__init__`` is exempt, because its imports are the package's
public surface.  A private top-level name (one leading underscore) counts as
used when any module of the package reads it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "scalekit"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}


def _read_names(tree) -> set:
    """Names the module reads, as bare names or as attributes of another object."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _imported(tree) -> list:
    """(bound name, line) of every module-level or nested import except __future__."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _private_definitions(tree) -> list:
    """(name, line) of top-level functions, classes and assignments named _x."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                out += [(t.id, node.lineno) for t in elts if isinstance(t, ast.Name)]
    return [(name, line) for name, line in out
            if name.startswith("_") and not name.startswith("__")]


def test_modules_found():
    assert {"__init__.py", "gtsc.py", "scale.py", "special.py"} <= set(TREES)


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_no_unused_import(module):
    tree = TREES[module]
    used = _read_names(tree) | _exported(tree)
    unused = [f"{module}:{line} {name}" for name, line in _imported(tree) if name not in used]
    assert not unused, f"unused imports: {unused}"


def test_no_orphaned_private_name():
    read = set().union(*(_read_names(tree) for tree in TREES.values()))
    imported = {name for tree in TREES.values() for name, _ in _imported(tree)}
    orphans = [f"{module}:{line} {name}" for module, tree in TREES.items()
               for name, line in _private_definitions(tree)
               if name not in read and name not in imported]
    assert not orphans, f"private names nothing references: {orphans}"
