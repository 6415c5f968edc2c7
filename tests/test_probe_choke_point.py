"""Every ProbeTrace entry comes from one path in the orchestrator.

``SiteProber._record`` paces, makes one engine call and appends the one
trace entry that call earns. This parses ``orchestrator.py`` and checks that
``self._pace()`` is called, and ``TraceEntry`` constructed, in exactly one
place each, and that the place is the same function, so a new probe phase
cannot pace, call the engine and append an entry by hand.
"""

import ast
from pathlib import Path

ORCHESTRATOR = (Path(__file__).resolve().parent.parent / "src" / "tlsaudit"
                / "orchestrator.py")


def _calls_by_function(tree: ast.Module) -> list[tuple[str, str]]:
    """(enclosing function, callee) for each ``self._pace()`` call and each
    ``TraceEntry(...)`` construction."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.Call):
                callee = child.func
                if isinstance(callee, ast.Name) and callee.id == "TraceEntry":
                    out.append((func, "TraceEntry"))
                elif (isinstance(callee, ast.Attribute) and callee.attr == "_pace"
                      and isinstance(callee.value, ast.Name)
                      and callee.value.id == "self"):
                    out.append((func, "_pace"))
            visit(child, inner)

    visit(tree, None)
    return out


def test_one_pace_and_one_trace_entry_in_one_function():
    tree = ast.parse(ORCHESTRATOR.read_text(encoding="utf-8"),
                     filename=str(ORCHESTRATOR))
    calls = _calls_by_function(tree)
    paces = [func for func, callee in calls if callee == "_pace"]
    entries = [func for func, callee in calls if callee == "TraceEntry"]
    assert len(paces) == 1, paces
    assert len(entries) == 1, entries
    assert paces == entries
