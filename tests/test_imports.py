"""Every module-level import in the package and the tests is used, and
no function imports a module that `import flipdyn` has already loaded.

No linter runs on this code, so an import left behind by a refactor
would otherwise go unnoticed.  __init__.py files are skipped by the
first check: their imports are the package's exports.  A function-local
import is worth having only for a module the package does not load
anyway (scipy, multiprocessing, csv, array); of one it does load, it
only hides a dependency.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "flipdyn").glob("*.py"))
MODULES = sorted(
    p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")] if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    A name counts as read when it appears as an identifier anywhere in
    the module, including inside a quoted annotation.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    nodes = list(ast.walk(tree))
    for node in nodes[:]:
        ann = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            nodes += ast.walk(ast.parse(ann.value, mode="eval"))
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    src = (
        "from __future__ import annotations\n"
        "import os\n"
        "import json as j\n"
        "from x import a, b\n"
        "def f(v: 'a') -> None:\n"
        "    return j.dumps(v)\n"
    )
    assert unused_imports(src) == ["line 2: os", "line 4: b"]


def local_imports(source: str, package: str) -> list[tuple[int, str]]:
    """(line, module) of every import inside a function body, with a
    relative import resolved against package."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Import):
                found.update((node.lineno, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                name = node.module or ""
                if node.level:
                    name = f"{package}.{name}" if name else package
                found.add((node.lineno, name))
    return sorted(found)


@pytest.fixture(scope="module")
def loaded_by_import() -> set[str]:
    """The modules in sys.modules after `import flipdyn` in a fresh interpreter."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, flipdyn; print(*sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    return set(proc.stdout.split())


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_local_import_of_a_loaded_module(path, loaded_by_import):
    pointless = [f"line {line}: {name}"
                 for line, name in local_imports(path.read_text(), "flipdyn")
                 if name in loaded_by_import]
    assert pointless == []


def test_detects_a_local_import():
    src = (
        "import json\n"
        "def f():\n"
        "    import numpy as np, csv\n"
        "    from .lp import solve\n"
        "    def g():\n"
        "        from scipy.optimize import linprog\n"
        "class C:\n"
        "    def m(self):\n"
        "        from . import errors\n"
    )
    assert local_imports(src, "pkg") == [
        (3, "csv"), (3, "numpy"), (4, "pkg.lp"), (6, "scipy.optimize"), (9, "pkg")
    ]
