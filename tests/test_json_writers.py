"""No ``json.dump``/``json.dumps`` call in the package passes ``indent=``.

With ``indent`` the ``json`` module gives up its C encoder for the
pure-Python one, four to five times slower on a probe trace. The package's
writers emit one line per JSON value instead.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tlsaudit"


def _indented_json_writes(tree: ast.Module) -> list[str]:
    return [f"line {node.lineno}: json.{node.func.attr}(..., indent=...)"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
            and any(kw.arg == "indent" for kw in node.keywords)]


def test_the_check_sees_an_indented_write():
    tree = ast.parse("import json\nx = json.dumps({}, indent=1)\n")
    assert _indented_json_writes(tree) == ["line 2: json.dumps(..., indent=...)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_indented_json_writes(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _indented_json_writes(tree) == []
