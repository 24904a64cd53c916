"""Descriptive statistics in the shapes the paper reports.

Three consumers:

* The Finject-style fault-injection campaign (paper Table I) reports the
  count, minimum, maximum, mean, median, mode, and population standard
  deviation of injections-to-victim-failure — :func:`summarize` produces
  exactly those fields.
* xSim prints per-virtual-process timing statistics (minimum, maximum,
  average) at simulator shutdown — :class:`TimingStats` accumulates those
  online without storing every sample.
* The explorer's bootstrap: numpy's :func:`row_means` and :func:`quantile`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, Sequence


@dataclass(frozen=True)
class SummaryStats:
    """Table-I-style summary of a sample (population standard deviation)."""

    count: int
    total: float
    minimum: float
    maximum: float
    mean: float
    median: float
    mode: float
    stddev: float

    def rows(self) -> list[tuple[str, str]]:
        """Render the Table I field/value rows (values like the paper's)."""

        def num(x: float) -> str:
            return f"{int(x)}" if float(x).is_integer() else f"{x:.2f}"

        return [
            ("Victims", num(self.count)),
            ("Injections", num(self.total)),
            ("Minimum", num(self.minimum)),
            ("Maximum", num(self.maximum)),
            ("Mean", f"{self.mean:.2f}"),
            ("Median", num(self.median)),
            ("Mode", num(self.mode)),
            ("Std.Dev.", f"{self.stddev:.2f}"),
        ]


def _median(sorted_xs: Sequence[float]) -> float:
    n = len(sorted_xs)
    mid = n // 2
    if n % 2 == 1:
        return float(sorted_xs[mid])
    return (sorted_xs[mid - 1] + sorted_xs[mid]) / 2.0


def summarize(samples: Iterable[float]) -> SummaryStats:
    """Compute the Table-I statistics for ``samples``.

    ``mode`` is the smallest most-frequent value (deterministic tie-break).
    ``stddev`` is the population standard deviation, matching the paper's
    reported sigma for its 100-victim campaign.

    Degenerate inputs yield well-defined zero-variance stats instead of
    raising or propagating NaN (adaptive exploration batches routinely
    produce empty and single-sample strata): an empty sample returns
    all-zero fields with ``count=0``, and a single sample returns that
    value for min/max/mean/median/mode with ``stddev=0.0``.
    """
    xs = sorted(float(x) for x in samples)
    if not xs:
        return SummaryStats(
            count=0, total=0.0, minimum=0.0, maximum=0.0,
            mean=0.0, median=0.0, mode=0.0, stddev=0.0,
        )
    n = len(xs)
    total = math.fsum(xs)
    mean = total / n
    # max(0.0, ...) guards the sqrt against tiny negative rounding residue.
    var = max(0.0, math.fsum((x - mean) ** 2 for x in xs) / n)
    counts = Counter(xs)
    best = max(counts.values())
    mode = min(x for x, c in counts.items() if c == best)
    return SummaryStats(
        count=n,
        total=total,
        minimum=xs[0],
        maximum=xs[-1],
        mean=mean,
        median=_median(xs),
        mode=mode,
        stddev=math.sqrt(var),
    )


def _add(a: list[float], b: list[float]) -> list[float]:
    return list(map(add, a, b))


def _pairwise(columns: list[list[float]], lo: int, n: int) -> list[float]:
    """Row totals of ``columns[lo:lo + n]`` by numpy's pairwise sum (in order
    below 8, 8 accumulators to 128, else halves split at a multiple of 8)."""
    if n < 8:
        return reduce(_add, columns[lo:lo + n])
    if n <= 128:
        end = lo + n - n % 8
        a, b, c, d, e, f, g, h = (reduce(_add, columns[j:end:8]) for j in range(lo, lo + 8))
        total = _add(_add(_add(a, b), _add(c, d)), _add(_add(e, f), _add(g, h)))
        return reduce(_add, columns[end:lo + n], total)
    half = n // 2 - n // 2 % 8
    return _add(_pairwise(columns, lo, half), _pairwise(columns, lo + half, n - half))


def row_means(columns: list[list[float]]) -> list[float]:
    """numpy's float64 ``mean(axis=1)`` of these (one or more) columns, bit
    for bit: never ``sum()``, which compensates on Python 3.12."""
    n = len(columns)
    return [(0.0 + total) / n for total in _pairwise(columns, 0, n)]


def quantile(samples: Sequence[float], q: float) -> float:
    """numpy's ``quantile(samples, q)`` (``"linear"``): the lerp, from the
    nearer end, of the order statistics either side of ``(n - 1) * q``."""
    xs = sorted(samples)
    at = (len(xs) - 1) * q
    lo = -1 if at >= len(xs) - 1 else math.floor(at)
    a, b, g = xs[lo], xs[lo + 1 if lo >= 0 else -1], at - lo
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def format_timing(minimum: float, maximum: float, average: float, count: int) -> str:
    """The min/max/avg VP timing line xSim prints at shutdown."""
    return (
        f"simulated MPI process timing: min={minimum:.6f}s "
        f"max={maximum:.6f}s avg={average:.6f}s ({count} processes)"
    )


class TimingStats:
    """Online min/max/average accumulator for per-VP timing statistics.

    xSim prints these three values during simulator shutdown both for
    normal termination and after a simulated :func:`MPI_Abort`.
    """

    __slots__ = ("count", "minimum", "maximum", "_total")

    def __init__(self) -> None:
        self.count = 0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._total = 0.0

    def add(self, value: float) -> None:
        """Fold one sample into the accumulator."""
        self.count += 1
        self._total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def average(self) -> float:
        return self._total / self.count if self.count else math.nan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimingStats(count={self.count}, min={self.minimum!r}, "
            f"max={self.maximum!r}, avg={self.average!r})"
        )
