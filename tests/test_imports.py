"""Every name a runtime module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import legknots

MODULES = sorted(
    path for path in Path(legknots.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded elsewhere."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in loaded]


def test_finds_an_unused_import():
    source = "import json\nfrom .cf import neg_cf, honda_count\n\nprint(neg_cf(8, 5))\n"
    assert unused_imports(source) == ["json (line 1)", "honda_count (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
