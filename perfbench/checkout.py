"""Locate the checkout the benchmark runs in and import tlsaudit from it.

The benchmark measures the source tree next to it, never an installed copy:
``import_tlsaudit`` fails when the checkout has no ``src/tlsaudit``.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch space for generated inputs and program outputs; removed at teardown.
WORK = ROOT / ".bench_work"
# Span dumps of traced runs; kept after the run.
OUT = ROOT / ".bench_out"


class CheckoutError(RuntimeError):
    pass


def import_tlsaudit():
    package = SRC / "tlsaudit"
    if not (package / "__init__.py").is_file():
        raise CheckoutError(f"no tlsaudit source tree at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tlsaudit
    if Path(tlsaudit.__file__).resolve().parent != package:
        raise CheckoutError(
            f"imported tlsaudit from {tlsaudit.__file__}, not from {package}")
    return tlsaudit
