"""``src/tlsaudit/cli.py`` reads no file itself, and no module but
``records`` and ``pipeline`` writes one.

Every input file is opened through ``records.open_input``, which turns an
unreadable or non-UTF-8 file into the one input error that ``cli.main``
reports with exit 1. A ``read_text``, ``read_bytes`` or reading ``open`` call
in ``cli.py`` would bring back a per-command reader with its own errors.
Every output file is opened through ``records.open_output``, which replaces
the file only once it is whole and turns a write error into one error line;
another writer would bring back a file truncated on error. The scan's own
sink and traces are written by ``pipeline``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tlsaudit"
CLI = SRC / "cli.py"


def _mode(call: ast.Call):
    """The mode argument of an ``open`` call, or ``"r"`` when absent."""
    # builtin open(file, mode, ...) or Path.open(mode, ...)
    index = 1 if isinstance(call.func, ast.Name) else 0
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    if len(call.args) > index:
        return call.args[index]
    return ast.Constant("r")


def _writes(mode) -> bool:
    return (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            and any(c in mode.value for c in "wax"))


def _file_reads(tree: ast.Module) -> list[str]:
    reads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name in ("read_text", "read_bytes") and isinstance(func, ast.Attribute):
            reads.append(f"line {node.lineno}: {name}()")
        elif name == "open" and not _writes(_mode(node)):
            reads.append(f"line {node.lineno}: open() without a write mode")
    return reads


def test_the_check_sees_each_kind_of_read():
    tree = ast.parse(
        "open(p)\n"
        "open(p, 'rb')\n"
        "open(p, mode=m)\n"
        "Path(p).read_text()\n"
        "p.read_bytes()\n"
        "p.open()\n"
        "open(p, 'w')\n"
        "open(p, mode='a', encoding='utf-8')\n"
        "p.open('x')\n"
        "records.open_input(p, 'x')\n"
        "p.write_text(s)\n")
    assert _file_reads(tree) == [
        "line 1: open() without a write mode",
        "line 2: open() without a write mode",
        "line 3: open() without a write mode",
        "line 4: read_text()",
        "line 5: read_bytes()",
        "line 6: open() without a write mode",
    ]


def test_cli_reads_no_file_itself():
    tree = ast.parse(CLI.read_text(encoding="utf-8"), filename=str(CLI))
    assert _file_reads(tree) == []


def _file_writes(tree: ast.Module) -> list[str]:
    """Each ``write_text``/``write_bytes`` call, and each ``open`` call in
    a ``w``, ``a``, ``x`` or ``+`` mode or in a mode not written out."""
    writes = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
            writes.append(f"line {node.lineno}: {name}()")
        elif name == "open":
            mode = _mode(node)
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not any(c in mode.value for c in "wax+")):
                writes.append(f"line {node.lineno}: open() in a write mode")
    return writes


def test_the_check_sees_each_kind_of_write():
    tree = ast.parse(
        "open(p, 'w')\n"
        "open(p, mode='a', encoding='utf-8')\n"
        "p.open('x')\n"
        "open(p, 'r+b')\n"
        "open(p, mode=m)\n"
        "Path(p).write_text(s)\n"
        "p.write_bytes(b)\n"
        "open(p)\n"
        "open(p, 'rb')\n"
        "p.open()\n"
        "p.read_text()\n"
        "records.open_output(p, 'x')\n"
        "fh.write(s)\n")
    assert _file_writes(tree) == [
        "line 1: open() in a write mode",
        "line 2: open() in a write mode",
        "line 3: open() in a write mode",
        "line 4: open() in a write mode",
        "line 5: open() in a write mode",
        "line 6: write_text()",
        "line 7: write_bytes()",
    ]


def test_no_module_but_records_and_pipeline_writes_a_file():
    writes = [f"{path.name} {write}" for path in sorted(SRC.glob("*.py"))
              if path.name not in ("records.py", "pipeline.py")
              for write in _file_writes(ast.parse(
                  path.read_text(encoding="utf-8"), filename=str(path)))]
    assert writes == []
