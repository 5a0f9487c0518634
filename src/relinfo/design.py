"""Regression-design comparison via the sum-of-squares information proxy.

For through-the-origin regression y = beta*x + eps, the least-squares
estimator's variance is inversely proportional to S_x = sum_i x_i^2, so
ratios of S_x compare competing design-point layouts directly.  Points
may be ``fractions.Fraction`` values, in which case S_x is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

from .errors import DomainError, ValidationError


@dataclass(frozen=True)
class Design:
    """Covariate design points, with multiplicity."""

    points: tuple

    def __post_init__(self):
        if not self.points:
            raise ValidationError("a design needs at least one point")
        for x in self.points:
            if not isinstance(x, (Real, Fraction)):
                raise ValidationError(f"design point {x!r} is not a number")
            if x != x or abs(x) == math.inf:
                raise ValidationError("design points must be finite")


def sx(design: Design, *, centered: bool = False) -> float | Fraction:
    """S_x = sum of squared points (optionally centered; off by default)."""
    pts = design.points
    if centered:
        mean = sum(pts) / len(pts)
        return sum((x - mean) ** 2 for x in pts)
    return sum(x * x for x in pts)


def variance_ratio(a: Design, b: Design, *, centered: bool = False):
    """sx(b) / sx(a): the inverse ratio of the two estimator variances."""
    denom = sx(a, centered=centered)
    if denom == 0:
        raise DomainError("reference design has zero S_x")
    return sx(b, centered=centered) / denom


def base_design() -> Design:
    """Ten equispaced points i/9, i = 0..9."""
    return Design(points=tuple(Fraction(i, 9) for i in range(10)))


def doubled_design() -> Design:
    """The base design with every point duplicated."""
    base = base_design().points
    return Design(points=base + base)


def interlaced_design() -> Design:
    """The base design plus the ten interlacing points i/12, i = 1..5, 7..11."""
    extra = tuple(Fraction(i, 12) for i in (*range(1, 6), *range(7, 12)))
    return Design(points=base_design().points + extra)


PRESETS = {
    "base": base_design,
    "base-doubled": doubled_design,
    "interlaced": interlaced_design,
}
