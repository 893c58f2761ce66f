"""Order statistics and the paired comparison rule used by the benchmark.

Stdlib only, so the rule can be tested and applied without numpy.
"""

from __future__ import annotations

import math
import statistics

# percentile levels a tail may be reported at, highest first
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10  # a tail level needs at least this many samples beyond it
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], level: float) -> float:
    """Nearest-rank percentile: the smallest value with ``level`` % at or below it."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = max(math.ceil(level / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def tail_level(count: int) -> float | None:
    """Highest listed percentile with at least ``TAIL_BEYOND`` samples beyond it."""
    for level in TAIL_LEVELS:
        if count - math.ceil(level / 100.0 * count) >= TAIL_BEYOND:
            return level
    return None


def summarize(values: list[float]) -> dict:
    """Median, sample count and, where the count allows one, the tail."""
    out = {"median": statistics.median(values), "samples": len(values)}
    level = tail_level(len(values))
    if level is not None:
        out["tail_pct"] = level
        out["tail"] = percentile(values, level)
    return out


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Verdict for one (metric, workload) from paired runs.

    ``parent[i]`` and ``change[i]`` form pair ``i``.  The change is
    ``improved`` when it wins at least 9 of 10 pairs (ties count for
    neither) and its median beats the parent's by more than the parent's
    interquartile spread; ``worse`` when its median is worse than the
    parent's by more than ``bound`` times the parent median; ``unresolved``
    with fewer than ten pairs, or when the parent's spread exceeds the bound
    and not every change run beats every parent run; else ``unchanged``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = p_q3 - p_q1
    gain = sign * (c_med - p_med)  # positive when the change reads better
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if len(pairs) < MIN_PAIRS:
        verdict = "unresolved"
    elif wins >= WIN_SHARE * len(pairs) and gain > spread:
        verdict = "improved"
    elif -gain > bound * abs(p_med):
        verdict = "worse"
    elif spread > bound * abs(p_med) and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "verdict": verdict,
        "pairs": len(pairs),
        "wins": wins,
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "ratio": c_med / p_med if p_med else math.inf,
    }
