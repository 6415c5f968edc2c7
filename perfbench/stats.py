"""Order statistics for reported timings."""
from __future__ import annotations

_TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile ``p`` (0-100) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(n: int):
    """The highest tail percentile level (p75 and up) with at least ten
    samples beyond it, or None when the sample is too small for any."""
    for level in _TAIL_LEVELS:
        if n * (100.0 - level) / 100.0 >= 10:
            return level
    return None


def describe(values, unit: str) -> str:
    """``n=... pNN=...`` for a timing sample: its size and the highest
    percentile with at least ten samples beyond it, when there is one."""
    n = len(values)
    text = f"n={n}"
    level = tail_level(n)
    if level is not None:
        text += f" p{level:g}={percentile(values, level):.4g} {unit}"
    return text
