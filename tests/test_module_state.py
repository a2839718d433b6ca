"""No function in the package keeps state in a module-level name, apart
from the three that are meant to.

A module-level name that a function rebinds or mutates carries state from
one call to the next, so a result can depend on what ran before it.  Three
such names remain, each for a reason: coupling._FLIPS, the sigma side's
identity moves for the last (graph, sigma, vector) that
greedy_coupling_distribution saw, which an exhaustive sweep calling it
once per pair has no other way to reuse; graphs._TABLES, the flip tables
of the colorings enumerate_flips has searched on the last graph, which
the coupled law and the single-chain law of one sweep read for the same
coloring through separate public calls; and experiments._CONTEXT, the
running experiment's replica context, which forked workers inherit.
Everything else travels as arguments.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "flipdyn").glob("*.py"))
# the methods that change a list, dict or set in place
MUTATORS = {"append", "clear", "discard", "extend", "insert", "pop", "remove", "setdefault",
            "update", "add"}
ALLOWED = {"coupling._FLIPS", "experiments._CONTEXT", "graphs._TABLES"}


def module_state(source: str) -> set[str]:
    """Module-level names that some function rebinds (global) or mutates
    in place: item or slice assignment or deletion, or a mutating method
    call.  A name the function binds itself, without global, is local."""
    tree = ast.parse(source)
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        inner = list(ast.walk(fn))
        declared = {name for node in inner if isinstance(node, ast.Global) for name in node.names}
        local = {node.id for node in inner
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        local |= {arg.arg for arg in ast.walk(fn.args) if isinstance(arg, ast.arg)}
        local -= declared
        found |= declared & names
        for node in inner:
            base = None
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                base = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS):
                base = node.func.value
            if isinstance(base, ast.Name) and base.id in names and base.id not in local:
                found.add(base.id)
    return found


def test_only_the_allowed_module_state():
    found = {f"{path.stem}.{name}" for path in PACKAGE
             for name in module_state(path.read_text())}
    assert found == ALLOWED


def test_detects_module_state():
    src = (
        "A = []\n"
        "B: dict = {}\n"
        "C = D = [None]\n"
        "E = 0\n"
        "F = []\n"
        "G = {}\n"
        "def f(x, G):\n"
        "    A.append(x)\n"
        "    B[x] = 1\n"
        "    C[:] = [x]\n"
        "    F = []\n"
        "    F.append(x)\n"
        "    G.update(x)\n"
        "    return D[0]\n"
        "class K:\n"
        "    def m(self):\n"
        "        global E\n"
        "        E += 1\n"
        "        del G[0]\n"
    )
    assert module_state(src) == {"A", "B", "C", "E", "G"}
