"""Every imported name in src/, tests/ and scripts/ is used.

The repository runs no linter, so this reads each module's syntax tree: a
name bound by an import must appear as a name (a bare name or the base of an
attribute chain) somewhere in the same module, or be listed in its __all__.
`from __future__` imports are directives, not names, and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for top in ("src", "tests", "scripts") for p in (ROOT / top).rglob("*.py"))


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
