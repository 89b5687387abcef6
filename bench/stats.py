"""Order statistics and the regression verdict shared by run.py and compare.py.

Stdlib only, so ``compare.py`` can judge run files without importing
the program under test.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: A tail percentile is reported only where at least this many samples
#: lie beyond it, so one outlier cannot be the tail.
TAIL_BEYOND = 10

#: Share of pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9

#: Fewest parent/change pairs a gain may rest on.
MIN_PAIRS = 10


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the sample at rank ``ceil(q * n)``."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(
    samples: Sequence[float], q: float = 0.99, window: int = 1000
) -> tuple[float, float]:
    """The highest percentile up to ``q`` with ``TAIL_BEYOND`` samples beyond.

    Returns ``(value, quantile)``.  With ``window`` (1000) samples this
    is the nearest-rank p99; with fewer, the rank steps down until ten
    samples lie beyond it, and never below the median.  With two
    windows or more, ``samples`` (in arrival order) are cut into
    consecutive windows and the value is the median of their tails, so
    a burst of host noise inside one window does not set the tail.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    if n >= 2 * window:
        size = n // (n // window)
        cuts = [samples[i : i + size] for i in range(0, n - size + 1, size)]
        return statistics.median([tail(cut, q, window)[0] for cut in cuts]), q
    rank = min(math.ceil(q * n), n - TAIL_BEYOND)
    rank = max(rank, math.ceil(n / 2))
    return sorted(samples)[rank - 1], min(q, rank / n)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` cuts them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> dict[str, object]:
    """Judge one metric on one workload from paired runs.

    ``parent[i]`` and ``change[i]`` are one pair.  A gain needs at
    least ``MIN_PAIRS`` pairs, wins in ``WIN_SHARE`` of them and a
    median difference above the parent's quartile distance.  A change whose
    median is worse than the parent's by more than ``bound`` (a share
    of the parent median) regressed.  Where the parent's own spread is
    wider than ``bound`` nothing else can be concluded, unless every
    change run reads better than every parent run.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need equal, non-empty parent and change samples")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = sign * (c_med - p_med)
    worse_share = -gain / abs(p_med) if p_med else 0.0
    spread = relative_spread(parent)
    if better == "higher":
        every_better = min(change) > max(parent)
    else:
        every_better = max(change) < min(parent)
    pairs = len(parent)
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gain > p_q3 - p_q1:
        result = "improved"
    elif spread > bound and not every_better:
        result = "unresolved"
    elif worse_share > bound:
        result = "regressed"
    else:
        result = "unchanged"
    return {
        "verdict": result,
        "pairs": pairs,
        "wins": wins,
        "parent_median": p_med,
        "change_median": c_med,
        "change_share": (c_med - p_med) / abs(p_med) if p_med else 0.0,
        "parent_spread": spread,
    }
