"""One target parser, and an engine that dials the address it is given.

``records.split_target`` reads every ``host:port`` form the package
accepts, IPv6 included. This parses each source file and looks for another
colon splitter, a ``.rpartition(":")`` or ``.rsplit(":", ...)`` call, so a
second parser that reads ``::1`` as ``":"`` port 1 cannot come back. The
engine takes a ``(host, port)`` address, so it has no reason to ask a
socket for its peer either.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tlsaudit"


def _colon_splits(tree: ast.Module) -> list[str]:
    """The enclosing function of each ``.rpartition(":")`` and
    ``.rsplit(":", ...)`` call."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif (isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Attribute)
                  and child.func.attr in ("rpartition", "rsplit")
                  and child.args and isinstance(child.args[0], ast.Constant)
                  and child.args[0].value == ":"):
                out.append(func)
            visit(child, inner)

    visit(tree, None)
    return out


def test_split_target_is_the_only_colon_splitter():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(path.name, func) for func in _colon_splits(tree)]
    assert found == [("records.py", "split_target")]


def test_engine_never_asks_for_its_peer():
    path = SRC / "engine.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree)
             if isinstance(node, (ast.Attribute, ast.Name))}
    assert "getpeername" not in names
