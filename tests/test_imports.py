"""Every imported name in src/, tests/ and scripts/ is used, and every
private module-level name in src/kerndep/ is used by the library.

The repository runs no linter, so this reads each module's syntax tree: a
name bound by an import must appear as a name (a bare name or the base of an
attribute chain) somewhere in the same module, or be listed in its __all__.
`from __future__` imports are directives, not names, and are skipped.

A module-level function, class or constant of src/kerndep/ whose name starts
with one underscore must be read somewhere in src/kerndep/ outside its own
definition, as a name or an attribute; one that only tests use belongs in
tests/.
"""

import ast
from pathlib import Path

import pytest

import kerndep

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for top in ("src", "tests", "scripts") for p in (ROOT / top).rglob("*.py"))
LIBRARY = sorted((ROOT / "src" / "kerndep").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_check_sees_unused_and_exported_names():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, a.b\nfrom x import y as z, w\nfrom q import e\n"
                     "__all__ = ['e']\nprint(w, a.b)\n")
    assert unused_imports(tree) == ["line 2: os", "line 3: z"]


def unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    """module.name for each module-level _private definition that no module
    of trees reads outside the definition itself."""
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[module, name] = node
    unread = []
    for (module, name), definition in sorted(defined.items()):
        inside = {id(n) for n in ast.walk(definition)}
        if not any(id(node) not in inside
                   and ((isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                         and node.id == name)
                        or (isinstance(node, ast.Attribute) and node.attr == name))
                   for tree in trees.values() for node in ast.walk(tree)):
            unread.append(f"{module}.{name}")
    return unread


def test_every_private_library_name_is_used_by_the_library():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in LIBRARY}
    assert unreferenced_privates(trees) == []


def test_unreferenced_private_check_sees_unused_and_used_names():
    trees = {
        "a": ast.parse("_LIMIT = 3\n_spare = 1\nclass _Box: pass\n"
                       "def _loop(n):\n    return _loop(n - 1)\n"
                       "def _used():\n    return _LIMIT\n__all__ = []\n"),
        "b": ast.parse("from a import _used\nimport a\n_used()\na._Box()\n"),
    }
    assert unreferenced_privates(trees) == ["a._loop", "a._spare"]


def test_export_list_is_sorted_unique_and_resolves():
    names = kerndep.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(kerndep, name)] == []
