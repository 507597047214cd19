"""Percentiles, medians and the result line the benchmark prints."""

from __future__ import annotations

import json
import math
import re
from typing import Dict, Optional, Sequence, Tuple

#: Metric names: letters, digits, ``_``, ``.`` and ``-``; at most 64
#: characters, starting with a letter or a digit.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Units: at most 16 of letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``.
METRIC_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: A tail percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with ``p``% at or below."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n: int, want: int = 99) -> Optional[int]:
    """The highest whole percentile <= ``want`` with at least ten samples
    beyond it, or ``None`` when ``n`` samples support none."""
    if n <= MIN_TAIL_SAMPLES:
        return None
    # Samples beyond the p-th percentile: n * (1 - p/100) >= 10.
    best = math.floor(100.0 * (n - MIN_TAIL_SAMPLES) / n + 1e-9)
    best = min(want, best)
    return best if best >= 1 else None


def tail(values: Sequence[float], want: int = 99) -> Tuple[Optional[int], float]:
    """``(p, value)`` at the highest percentile the sample supports.

    With too few samples for any percentile, the maximum is returned
    with ``p = None`` so the caller can say so.
    """
    p = tail_percentile(len(values), want)
    if p is None:
        return None, max(values)
    return p, percentile(values, p)


def check_metrics(metrics: Dict[str, Tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        if not METRIC_UNIT.fullmatch(unit):
            raise ValueError(f"bad unit {unit!r} for {name}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise ValueError(f"metric {name} is not a finite number: {value!r}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    """The one-line JSON object that ends the benchmark's output."""
    check_metrics(metrics)
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })

