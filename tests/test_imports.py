"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

import vfree

SOURCES = sorted(Path(vfree.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names the module's import statements bind and nothing reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os, os.path\n"
              "import json as j\nfrom a import b, c as d\nprint(b, os)\n")
    assert unused_imports(source) == ["d", "j"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
