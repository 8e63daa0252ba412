"""Confidence intervals for trial aggregates.

The paper reports every data point as the mean of 10 trials with a 95%
confidence interval (vertical bars in the figures, ``±`` values in Table I),
and calls two measurements different only when their intervals are disjoint.
This module provides the same machinery: Student-t confidence intervals over
small samples, and the disjoint-interval comparison rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "ConfidenceInterval",
    "intervals_disjoint",
    "mean_confidence_interval",
    "significantly_greater",
]


@dataclass(frozen=True, slots=True)
class ConfidenceInterval:
    """A sample mean with its symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    sample_size: int

    @property
    def low(self) -> float:
        """Lower end of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper end of the interval."""
        return self.mean + self.half_width

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """True when the two intervals share any point (the paper's
        "statistically identical")."""
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"{self.mean:.3f} ± {self.half_width:.3f}"


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval of the mean of ``values``.

    A single observation (or identical observations) yields a zero-width
    interval; an empty sample is rejected.
    """
    if not values:
        raise ValueError("cannot compute a confidence interval of no samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return ConfidenceInterval(mean, 0.0, confidence, n)
    # scipy.stats costs about a second to import, and most processes never
    # build an interval, so it loads here on first use.
    from scipy import stats

    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    std_error = math.sqrt(variance / n)
    t_critical = float(stats.t.ppf((1.0 + confidence) / 2.0, n - 1))
    return ConfidenceInterval(mean, t_critical * std_error, confidence, n)


def intervals_disjoint(a: ConfidenceInterval, b: ConfidenceInterval) -> bool:
    """The paper's "better/worse" criterion: disjoint 95% intervals."""
    return not a.overlaps(b)


def significantly_greater(
    a: ConfidenceInterval, b: ConfidenceInterval, *, margin: float = 0.0
) -> bool:
    """True when ``a`` lies entirely above ``b`` by more than ``margin``.

    This is the paper's one-sided "better" criterion with an optional slack:
    the science gate uses ``margin`` to encode "matches" claims, so a
    hair's-breadth mean difference at single-trial scales (where intervals
    have zero width) does not read as a significant ordering.
    """
    return a.low > b.high + margin
