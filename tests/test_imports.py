"""Every module-level import in the package and the tests is used.

No linter runs on this code, so an import left behind by a refactor
would otherwise go unnoticed.  __init__.py files are skipped: their
imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in [*(ROOT / "src" / "flipdyn").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
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
