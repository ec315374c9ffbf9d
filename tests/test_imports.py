"""Every module of the package uses each name it imports, and importing
the CLI loads nothing outside the standard library."""

import ast
import json
import os
import subprocess
import sys
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


def test_cli_imports_only_the_standard_library():
    """pyproject.toml declares no dependency, so every top-level module
    that importing vfree.cli adds to sys.modules is the standard library's
    or vfree itself.  The snapshot is taken inside the fresh interpreter
    just before the import, so modules its start-up already loaded (site
    .pth hooks among them) are not counted."""
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import vfree.cli\n"
            "print(json.dumps(sorted({name.partition('.')[0] for name in "
            "set(sys.modules) - before})))\n")
    src = str(Path(vfree.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    added = json.loads(proc.stdout)
    assert "vfree" in added
    assert [name for name in added if name != "vfree"
            and name not in sys.stdlib_module_names] == []
