"""Order statistics and the compare-mode verdicts.

Quartiles follow ``statistics.quantiles(values, n=4)`` (the "exclusive"
method), so a spread computed here matches the one a reader computes by hand
from the same run values.
"""

from __future__ import annotations

import statistics

from gates import HIT_TOL

BETTER = "better"
NO_WORSE = "no worse"
WORSE = "worse"
UNRESOLVED = "unresolved"

# Share of all (parent, change) run pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(n=4) gives them."""
    data = list(values)
    if not data:
        raise ValueError("quartiles of an empty sample")
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def ratio(new: float, base: float) -> float:
    """new / base; inf when only the base is zero, 1 when both are."""
    if base == 0:
        return 1.0 if new == 0 else float("inf")
    return new / base


def worsening(new: float, base: float, better: str) -> float:
    """How much worse new is than base, as a share of base (negative = better)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    change = ratio(new, base) - 1.0
    return change if better == "lower" else -change


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """Classify a change against the parent's runs by the benchmark's rules.

    Unresolved when either side spreads wider than the bound, unless every
    run of the change beats every run of the parent. Worse when the median
    worsens by more than the bound. Better when the median improves by more
    than the parent's own spread and the change wins at least WIN_SHARE of
    all run pairs (ties count for neither). Otherwise no worse.
    """
    base_med, new_med = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(b, n) for b in base for n in new]
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if max(spread(base), spread(new)) > bound:
        return BETTER if wins == len(pairs) else UNRESOLVED
    worse_by = worsening(new_med, base_med, better)
    if worse_by > bound:
        return WORSE
    if -worse_by > spread(base) and wins >= WIN_SHARE * len(pairs):
        return BETTER
    return NO_WORSE


def accuracy_verdict(base_gaps: list[float], new_gaps: list[float]) -> str:
    """Classify the VQE gaps of one seed's runs, before and after a change.

    Worse when the change loses a hit (a gap within HIT_TOL) or its median gap
    grows by more than HIT_TOL. Better when it gains a hit or its median gap
    shrinks by more than HIT_TOL, and is not worse. Otherwise no worse.
    """
    hits_base = sum(1 for g in base_gaps if g <= HIT_TOL)
    hits_new = sum(1 for g in new_gaps if g <= HIT_TOL)
    grown = statistics.median(new_gaps) - statistics.median(base_gaps)
    if hits_new < hits_base or grown > HIT_TOL:
        return WORSE
    if hits_new > hits_base or grown < -HIT_TOL:
        return BETTER
    return NO_WORSE
