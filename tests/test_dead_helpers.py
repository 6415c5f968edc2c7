"""Every private helper in the package is used.

A private function, method or class (``_name``, not ``__dunder__``) is
reachable only from its own module, so one that the module never names
outside its own definition is dead code. This parses each source file and
looks for such a name, read as a variable or an attribute, elsewhere.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tlsaudit"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_read(node: ast.AST) -> list[str]:
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def _unreferenced_private_defs(tree: ast.Module) -> list[str]:
    everywhere: dict[str, int] = {}
    for name in _names_read(tree):
        everywhere[name] = everywhere.get(name, 0) + 1
    dead = []
    for node in ast.walk(tree):
        if not isinstance(node, _DEFS):
            continue
        name = node.name
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        inside = sum(1 for n in _names_read(node) if n == name)
        if everywhere.get(name, 0) - inside == 0:
            dead.append(f"line {node.lineno}: {name}")
    return dead


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unreferenced_private_helpers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unreferenced_private_defs(tree) == []
