"""Every module of the package uses each name it imports, every private
module-level name is read somewhere in the package, no name from typing
is subscripted at run time, importing the CLI loads nothing outside the
standard library, and a dropped copy of the package is freed."""

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


def runtime_typing_subscripts(source: str) -> list[str]:
    """Subscripts, outside annotations, of names imported from typing
    (or read off typing itself), as "line: code".  typing caches the
    arguments of each such subscript for the life of the process."""
    tree = ast.parse(source)
    names = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "typing"
             for a in node.names}
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name == "typing"}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    skipped = {id(n) for a in annotations if a is not None
               for n in ast.walk(a)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Subscript) or id(node) in skipped:
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in names \
                or isinstance(base, ast.Attribute) \
                and isinstance(base.value, ast.Name) \
                and base.value.id in modules:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_runtime_typing_subscripts_are_found():
    source = ("from __future__ import annotations\n"
              "import typing as t\nfrom typing import Optional, Union\n"
              "A = Union[int, str]\nB: Optional[int] = None\n"
              "def f(x: Union[int, str], *a: t.List[int]) -> Optional[A]:\n"
              "    return t.Dict[str, int], x[0]\n")
    assert runtime_typing_subscripts(source) == [
        "4: Union[int, str]", "7: t.Dict[str, int]"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_subscripts_nothing_from_typing_at_run_time(path):
    assert runtime_typing_subscripts(path.read_text()) == []


def private_definitions(tree: ast.Module) -> set[str]:
    """Private names a module binds at its top level: functions, classes
    and assignment targets starting with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def reads(tree: ast.Module) -> set[str]:
    """Names a module reads, as a bare name, an attribute or an import,
    outside the top-level definition of the same name (so a recursive
    helper does not count as read by itself)."""
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.ImportFrom):
                found.update(a.name for a in node.names)
                continue
            else:
                continue
            if name != own:
                found.add(name)
    return found


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """module.name for each private top-level name that no module of
    sources reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = set().union(*map(reads, trees.values()))
    return sorted(f"{mod}.{name}" for mod, tree in trees.items()
                  for name in private_definitions(tree) - read)


def test_unread_private_names_are_found():
    sources = {"a": "_kept = 1\n_gone = 2\ndef _self():\n    _self()\n"
                    "class _Used:\n    pass\n",
               "b": "from a import _Used\nprint(a._kept)\n"}
    assert unread_private_names(sources) == ["a._gone", "a._self"]


def test_every_private_name_is_read_in_the_package():
    # A helper kept alive by tests alone belongs in tests/.
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert unread_private_names(sources) == []


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


def test_cli_start_up_loads_no_heavy_standard_modules():
    """Importing vfree.cli builds no class through dataclasses (which pulls
    in inspect), and loading the builtin groups does not go through
    importlib.resources (which pulls in pathlib, tempfile and zipfile).
    The interpreter runs with -S, so no site .pth hook has loaded any of
    them first."""
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import vfree.cli\n"
            "for name in vfree.cli.BUILTIN_GROUPS:\n"
            "    vfree.cli.load_group(name)\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    src = str(Path(vfree.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          check=True, env=dict(os.environ, PYTHONPATH=src))
    added = set(json.loads(proc.stdout))
    assert "vfree.cli" in added
    assert added & {"dataclasses", "inspect", "importlib.resources",
                    "pathlib", "tempfile", "zipfile"} == set()


def test_a_dropped_copy_of_the_package_is_freed():
    """Dropping every vfree module from sys.modules and importing again
    leaves nothing holding the old modules' classes: no cache outside
    the package (typing's, for one) keeps them alive."""
    code = ("import gc, sys, weakref\n"
            "import vfree.folog\n"
            "old = weakref.ref(vfree.folog.Word)\n"
            "for name in [n for n in sys.modules\n"
            "             if n == 'vfree' or n.startswith('vfree.')]:\n"
            "    del sys.modules[name]\n"
            "import vfree.folog\n"
            "gc.collect()\n"
            "print(old() is None)\n")
    src = str(Path(vfree.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.strip() == "True"
