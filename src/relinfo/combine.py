"""Combining relative information across independent studies.

With log-likelihoods additive across independent studies and every
per-study lod evaluated at one shared hypothesis pair, the lod-weighted
harmonic mean of the per-study measures equals the pooled measure
exactly:

    (sum_i w_i / RI1_i)^-1  =  (sum_i lod_i) / (sum_i E[lod_co,i]),
    w_i = lod_i / sum_j lod_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Sequence

from .errors import DomainError, ValidationError


@dataclass(frozen=True)
class StudySummary:
    lod_observed: float
    ri1: float
    label: str = ""

    def __post_init__(self):
        for name in ("lod_observed", "ri1"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
                raise ValidationError(
                    f"study {self.label!r}: {name} must be a finite number; got {value!r}")
        if not 0.0 < self.ri1 <= 1.0:
            raise ValidationError(f"ri1 must lie in (0, 1]; got {self.ri1}")


def combine_weighted_harmonic(studies: Sequence[StudySummary]) -> float:
    """Lod-weighted harmonic combination of per-study RI1 values.

    Valid only when every study's lod uses the same hypothesis pair (for
    instance the pooled observed-data MLE against a common null); with
    study-wise MLEs the additivity identity underlying the rule breaks.
    """
    if not studies:
        raise ValidationError("at least one study is required")
    for s in studies:
        if s.lod_observed <= 0.0:
            raise DomainError(
                f"study {s.label!r} has nonpositive observed lod; cannot combine")
    total_lod = sum(s.lod_observed for s in studies)
    total_expected = sum(s.lod_observed / s.ri1 for s in studies)
    return total_lod / total_expected
