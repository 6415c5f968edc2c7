"""The engine and the fixture server call the traced codec functions through
the ``wire`` module.

The benchmark's ``--trace 1`` wraps ``read_record``, ``iter_handshake_messages``
and ``parse_certificate`` as attributes of ``tlsaudit.wire``. A module that
imports one of them by name keeps the unwrapped function, and the trace then
silently counts none of its calls (``wire.read_record_calls``, codec self
time). This parses each caller and fails on such an import.

No caller parses a certificate any more (the negotiated suite fixes its key
type), so only the other two must be reached; ``parse_certificate`` stays
traced and may still not be imported by name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tlsaudit"
TRACED = frozenset({"read_record", "iter_handshake_messages", "parse_certificate"})
CALLERS = ("engine.py", "fixtures.py")
CALLED = TRACED - {"parse_certificate"}


def _tree(name: str) -> ast.Module:
    path = SRC / name
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _wire_imports_by_name(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module == "wire")
                or node.module == "tlsaudit.wire"):
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names
                      if alias.name in TRACED or alias.name == "*"]
    return found


def _wire_attributes(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "wire"}


@pytest.mark.parametrize("name", CALLERS)
def test_traced_codec_functions_are_not_imported_by_name(name):
    assert _wire_imports_by_name(_tree(name)) == []


def test_callers_reach_every_traced_function_through_wire():
    used = set().union(*(_wire_attributes(_tree(name)) for name in CALLERS))
    assert CALLED <= used
