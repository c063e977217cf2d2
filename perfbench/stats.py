"""Summary statistics for repeated host-time measurements."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Percentiles tried for the tail figure, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def tail_percentile(values: Sequence[float], higher_is_better: bool) -> Optional[Tuple[float, float]]:
    """The highest percentile on the *worse* side with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it, as ``(p, value)`` by the
    nearest-rank rule; None when there are too few samples."""
    n = len(values)
    ordered = sorted(values, reverse=higher_is_better)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def summarize(values: Sequence[float], higher_is_better: bool = False) -> Dict:
    """Median, quartiles, tail percentile and sample count."""
    n = len(values)
    out: Dict = {"n": n, "median": statistics.median(values)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    tail = tail_percentile(values, higher_is_better)
    if tail is not None:
        out["tail_p"], out["tail"] = tail
    return out


def describe(name: str, unit: str, summary: Dict) -> str:
    """One human-readable line for a summarized metric."""
    line = f"{name:<20} {summary['median']:>14.6g} {unit:<6} median of {summary['n']} run(s)"
    if "q1" in summary:
        line += f", quartiles {summary['q1']:.6g}..{summary['q3']:.6g}"
    if "tail_p" in summary:
        line += f", p{summary['tail_p']:g} (worse side) {summary['tail']:.6g}"
    else:
        line += f"; no tail percentile (needs >= {2 * TAIL_MIN_BEYOND} runs)"
    return line
