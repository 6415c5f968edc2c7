"""Every reply of a fixture endpoint goes out through one write.

``FixtureEndpoint._serve`` reads each client record and writes the one reply
that ``_hello_reply`` or ``_record_reply`` returns for it. This parses
``fixtures.py`` and checks that ``sendall`` is called in ``_serve`` alone,
so a new reaction cannot write to the socket by hand, and a per-reply
change (a delay, a byte count) has one place to go.
"""

import ast
from pathlib import Path

FIXTURES = (Path(__file__).resolve().parent.parent / "src" / "tlsaudit"
            / "fixtures.py")


def _sendall_callers(tree: ast.Module) -> list[str]:
    """The enclosing function of each ``<anything>.sendall(...)`` call."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif (isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Attribute)
                  and child.func.attr == "sendall"):
                out.append(func)
            visit(child, inner)

    visit(tree, None)
    return out


def test_only_serve_writes_to_a_client():
    tree = ast.parse(FIXTURES.read_text(encoding="utf-8"),
                     filename=str(FIXTURES))
    assert _sendall_callers(tree) == ["_serve"]


def test_the_check_sees_a_write_in_any_function():
    tree = ast.parse("class E:\n"
                     "    def _serve(self, sock):\n"
                     "        sock.sendall(b'')\n"
                     "    def _reply(self, sock):\n"
                     "        if True:\n"
                     "            self.sock.sendall(b'')\n"
                     "def helper(sock):\n"
                     "    sock.sendall(b'')\n")
    assert _sendall_callers(tree) == ["_serve", "_reply", "helper"]
