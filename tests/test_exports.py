"""Every name a module exports in ``__all__`` exists on it, no source file
imports a name it never uses, and every private module-level definition of
the package is read somewhere in it outside its own definition."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

MODULES = [
    "blurshift",
    "blurshift.cli",
    "blurshift.diagnostics",
    "blurshift.engine",
    "blurshift.experiments",
    "blurshift.fileio",
    "blurshift.kernels",
    "blurshift.shrinkage",
]

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/blurshift/*.py")) + sorted(ROOT.glob("tests/*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def unused_imports(tree: ast.Module) -> list:
    """Names bound by an import in ``tree`` that nothing in it reads, apart
    from ``__future__`` imports and names listed in the module's ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def reads(node: ast.AST) -> Counter:
    """How often each name is read in ``node``: by name, as an attribute,
    or by importing it."""
    read = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            read[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            read.update(alias.name for alias in sub.names)
    return read


def unread_privates(trees: dict) -> list:
    """Private module-level functions, classes and constants of the modules
    in ``trees`` (path to parsed module) that no code of theirs reads
    outside the definition itself."""
    read = sum(map(reads, trees.values()), Counter())
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            own = reads(node)
            unread += [
                f"{path.name}: {name} (line {node.lineno})"
                for name in names
                if name.startswith("_") and not name.startswith("__") and read[name] <= own[name]
            ]
    return sorted(unread)


def test_no_unread_private_definitions():
    paths = sorted(ROOT.glob("src/blurshift/*.py"))
    assert unread_privates({p: ast.parse(p.read_text(), str(p)) for p in paths}) == []
