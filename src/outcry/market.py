"""Equity impact statistics: daily returns, moments, z-scores, histograms.

Mirrors a simple event-day analysis: simple (not log) returns, sample
moments over a trailing window, and the event-day return expressed in
standard deviations from the mean.
"""

from __future__ import annotations

import csv
import math
from datetime import date
from typing import NamedTuple


class InsufficientData(ValueError):
    """Not enough points for the requested computation."""


class ZeroVariance(ValueError):
    """z-score is undefined when the return spread is zero."""


class PriceSeries(NamedTuple("PriceSeries", [
        ("symbol", str),
        ("points", tuple[tuple[date, float], ...]),
])):
    """Dated closing prices, strictly increasing dates, positive prices."""

    __slots__ = ()

    def __new__(cls, symbol: str, points: tuple[tuple[date, float], ...]):
        last = None
        for day, close in points:
            if last is not None and day <= last:
                raise ValueError(f"dates must be strictly increasing at {day}")
            if not (math.isfinite(close) and close > 0):
                raise ValueError(f"price must be finite and positive on {day}: {close}")
            last = day
        return super().__new__(cls, symbol, points)


def load_price_csv(path, symbol: str | None = None) -> PriceSeries:
    """Read a "date,close" CSV (ISO dates, one row per trading day)."""
    points = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            if reader.fieldnames is None or "date" not in reader.fieldnames or "close" not in reader.fieldnames:
                raise ValueError(f"{path}: expected a 'date,close' header")
            for row in reader:
                day, close = row["date"], row["close"]
                if day is None or close is None:
                    raise ValueError(f"{path}: line {reader.line_num} needs a date and a close")
                points.append((date.fromisoformat(day.strip()), float(close)))
        except csv.Error as exc:  # a field longer than csv.field_size_limit(), say
            raise ValueError(f"{path}: {exc}") from exc
    return PriceSeries(symbol=symbol or str(path), points=tuple(points))


def daily_returns(series: PriceSeries) -> list[tuple[date, float]]:
    """Simple day-over-day returns, dated by the later day."""
    points = series.points
    if len(points) < 2:
        raise InsufficientData("need at least 2 price points")
    out = []
    for (_, prev_close), (day, close) in zip(points, points[1:]):
        out.append((day, (close - prev_close) / prev_close))
    return out


class ReturnStats(NamedTuple):
    mean: float
    std: float  # sample standard deviation (n-1 denominator)
    n: int


def return_stats(returns) -> ReturnStats:
    values = [float(r) for r in returns]
    n = len(values)
    if n < 2:
        raise InsufficientData("need at least 2 returns for sample moments")
    mean = math.fsum(values) / n
    std = math.sqrt(math.fsum((x - mean) ** 2 for x in values) / (n - 1))
    return ReturnStats(mean=mean, std=std, n=n)


def event_day_zscore(r: float, stats: ReturnStats) -> float:
    """How many sample standard deviations the return sits from the mean."""
    if stats.std <= 0:
        raise ZeroVariance("standard deviation is zero")
    return (r - stats.mean) / stats.std


def return_histogram(returns, bins: int) -> list[tuple[float, float, int]]:
    """Equal-width bins spanning [min, max]; right-open except the last bin,
    which is closed, so counts always sum to len(returns)."""
    values = list(returns)
    if not values:
        raise InsufficientData("no returns to bin")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo = min(values)
    hi = max(values)
    width = (hi - lo) / bins
    counts = [0] * bins
    for x in values:
        if width > 0:
            idx = min(int((x - lo) / width), bins - 1)
        else:
            idx = 0
        counts[idx] += 1
    return [
        (lo + i * width, hi if i == bins - 1 else lo + (i + 1) * width, counts[i])
        for i in range(bins)
    ]


def paired_returns(series: PriceSeries, index: PriceSeries) -> list[tuple[date, float, float]]:
    """Inner-join two return series by date; for overlaying an index."""
    base = dict(daily_returns(series))
    other = dict(daily_returns(index))
    return [(day, base[day], other[day]) for day in sorted(base.keys() & other.keys())]
