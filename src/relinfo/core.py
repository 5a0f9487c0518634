"""Model-agnostic lod-score and relative-information measures.

The measures are parameterized by a :class:`ModelContract`, which the
binomial module supplies, and every Monte Carlo one draws its completions
through one path, ``_completions``; the Cox measures evaluate their own
completion lods and call :func:`ri1_monte_carlo` directly.  The central
quantity is the lod score, the natural-log likelihood ratio between an
alternative and a null parameter value.  Relative information compares
the observed-data lod with the expected lod of the complete data.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from . import mc
from .errors import (
    BoundaryError,
    DomainError,
    InstabilityError,
    UndefinedMeasureError,
    ValidationError,
)
from .mc import MCConfig, MCEstimate


class Method(str, enum.Enum):
    CLOSED_FORM = "closed_form"
    SUFFICIENT_STAT = "sufficient_stat_imputation"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class HypothesisPair:
    """Null and alternative parameter values at which lods are evaluated.

    Each is one value, a number or a one-element array; the measures check
    both against the model's domain.
    """

    theta_null: Any
    theta_alt: Any


@dataclass(frozen=True)
class ModelContract:
    """Pluggable likelihood machinery a model must provide.

    ``draw_completions_batch(observed, theta, n_draws, seed, start=0)``
    returns completions ``start`` .. ``start + n_draws - 1`` as a histogram
    ``(support, counts)``: ``support`` is one data object whose fields are
    arrays over rows, the distinct completions the block reaches, and
    ``counts[r]`` is the number of draws whose completion is row r.
    Measures evaluate a functional of the complete data once per row and
    reduce it with the counts as weights (see
    :func:`relinfo.mc.estimate_from_values`), which equals reducing it over
    the draws.  Draw i's completion must derive from the counter block
    owned by i (see :func:`relinfo.mc.open_stream`), so any range of
    draws gives the same completions as those draws of a run from draw 0,
    and the histograms of two ranges add up to the histogram of their
    union.  ``impute_completion(observed, theta)`` returns pseudo-complete
    data whose sufficient statistic equals the conditional expectation of
    the complete-data sufficient statistic given the observed data at
    ``theta``; the model is an exponential family, so a lod is linear in
    that statistic and its expectation is the imputed data's lod.
    ``in_domain(theta)``
    is true on the open parameter domain; its complement is the boundary,
    and a measure refuses an observed-data MLE there.
    """

    name: str
    log_likelihood: Callable[[Any, Any], Any]
    mle: Callable[[Any], Any]
    draw_completions_batch: Callable[..., Any]
    impute_completion: Callable[[Any, Any], Any]
    in_domain: Callable[[Any], bool]


@dataclass(frozen=True)
class RelInfoResult:
    """A relative-information estimate with Monte Carlo provenance."""

    estimate: float
    mc_standard_error: float
    n_draws: int
    seed: int
    method: Method
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.mc_standard_error < 0:
            raise ValidationError("mc_standard_error must be nonnegative")
        if (self.n_draws == 0) != (self.method is not Method.MONTE_CARLO):
            raise ValidationError("n_draws is 0 iff the method is not Monte Carlo")


@dataclass(frozen=True)
class ExpectedLodGap:
    """Shared-draw expectations of the complete-data lod at two alternatives.

    ``at_draw_mle`` evaluates each draw's lod at that draw's own
    complete-data MLE; ``at_fixed_alt`` holds the alternative fixed at the
    observed-data MLE.  ``paired_diff`` is the per-draw difference (first
    minus second), which is nonnegative by MLE maximality.
    """

    at_draw_mle: MCEstimate
    at_fixed_alt: MCEstimate
    paired_diff: MCEstimate
    dominance_violations: int

    @property
    def gap(self) -> float:
        return self.paired_diff.mean


def _lod_value(model: ModelContract, theta_alt, theta_null, data):
    """Raw lod; broadcasts over array-valued data or parameters."""
    return model.log_likelihood(theta_alt, data) - model.log_likelihood(theta_null, data)


def _check_parameter(model: ModelContract, theta) -> float:
    """``theta`` as a float, refused unless it is one value (a one-element array is) in the domain."""
    if np.size(theta) != 1:
        raise ValidationError(f"a parameter must be one value, got shape {np.shape(theta)}")
    value = float(np.asarray(theta, dtype=float).reshape(()))
    if not model.in_domain(value):
        raise DomainError(f"parameter {theta!r} outside the domain of model {model.name!r}")
    return value


def _finite_lod(model: ModelContract, theta_alt: float, theta_null: float, data) -> float:
    """The lod of checked parameters on ``data`` as a float; a non-finite lod is refused."""
    value = float(_lod_value(model, theta_alt, theta_null, data))
    if not math.isfinite(value):
        raise DomainError("lod is not finite; parameter on a degenerate boundary")
    return value


def lod(model: ModelContract, pair: HypothesisPair, data) -> float:
    """Lod score of ``pair.theta_alt`` against ``pair.theta_null`` on ``data``."""
    theta_alt = _check_parameter(model, pair.theta_alt)
    return _finite_lod(model, theta_alt, _check_parameter(model, pair.theta_null), data)


def _observed_setup(model: ModelContract, observed, theta_null, theta_alt=None, draw_theta=None):
    """Every measure's preamble: ``(draw_theta, theta_null, theta_alt, lod_ob)``.

    The parameters come out as floats, and ``theta_alt`` and ``draw_theta``
    (where completions are drawn or imputed) default to the observed-data
    MLE.  An MLE on the parameter boundary, a parameter that is not one
    value in the domain and a zero observed lod are refused.
    """
    theta_hat = model.mle(observed)
    if not model.in_domain(theta_hat):
        raise BoundaryError("observed-data MLE lies on the parameter boundary")
    theta_alt = theta_hat if theta_alt is None else _check_parameter(model, theta_alt)
    theta_null = _check_parameter(model, theta_null)
    lod_ob = _finite_lod(model, theta_alt, theta_null, observed)
    if lod_ob == 0.0:
        raise UndefinedMeasureError("observed lod is zero; measure undefined")
    draw_theta = theta_hat if draw_theta is None else _check_parameter(model, draw_theta)
    return draw_theta, theta_null, theta_alt, lod_ob


def _completions(model: ModelContract, observed, theta_null, n_draws: int, seed: int,
                 theta_alt=None, draw_theta=None):
    """The Monte Carlo measures' one draw path: ``(theta_null, theta_alt, lod_ob, draw)``.

    It checks ``n_draws`` and ``seed`` as :class:`MCConfig` does, then runs
    ``_observed_setup``; ``draw(lo, hi)`` returns completions lo..hi-1 at the
    drawing parameter as a histogram ``(support, counts)``.
    """
    MCConfig(n_draws=n_draws, seed=seed)  # refuses n_draws < 2 and a non-uint64 seed
    draw_theta, theta_null, theta_alt, lod_ob = _observed_setup(model, observed, theta_null,
                                                                theta_alt, draw_theta)
    return theta_null, theta_alt, lod_ob, lambda lo, hi: model.draw_completions_batch(
        observed, draw_theta, hi - lo, seed, start=lo)


def _lod_at_own_mle(model: ModelContract, theta_null: float, support):
    """Each support row's lod at its own complete-data MLE against the null."""
    return _lod_value(model, model.mle(support), theta_null, support)


def ri1_monte_carlo(lod_ob: float, evaluate: Callable[[int, int], Any],
                    config: MCConfig, **diagnostics) -> RelInfoResult:
    """Observed lod over the Monte Carlo mean of the complete-data lods.

    ``evaluate(lo, hi)`` returns the complete-data lods of draws lo..hi-1,
    one per draw or as a histogram ``(lods, counts)``; the mean honours
    ``config.max_relative_se`` (see :func:`relinfo.mc.collect_blocks`).
    ``diagnostics`` are added to the result's own.
    """
    est = mc.mc_expectation(evaluate, config)
    if est.mean <= 0.0:
        raise InstabilityError(
            "Monte Carlo denominator estimate is nonpositive",
            {"denominator_mean": est.mean, "denominator_se": est.standard_error,
             "n_draws": est.n_draws},
        )
    # Delta method for a ratio with a fixed numerator; past about 1e154 the
    # square of the mean overflows, so the ratio is taken twice.
    try:
        se = abs(lod_ob) * est.standard_error / est.mean**2
    except OverflowError:
        se = abs(lod_ob) / est.mean * (est.standard_error / est.mean)
    return RelInfoResult(
        estimate=lod_ob / est.mean, mc_standard_error=se,
        n_draws=est.n_draws, seed=config.seed, method=Method.MONTE_CARLO,
        diagnostics={
            "lod_observed": lod_ob,
            "denominator_mean": est.mean,
            "denominator_se": est.standard_error,
            "se_method": "delta-method ratio, fixed numerator",
            "generator": mc.GENERATOR_ID,
            **diagnostics,
        },
    )


def ri1(model: ModelContract, observed, theta_null, engine: MCConfig | None = None,
        *, theta_alt=None, draw_theta=None) -> RelInfoResult:
    """Observed-data lod over the expected complete-data lod.

    By default both the lod's alternative and the completion-drawing
    parameter are the observed-data MLE.  ``theta_alt`` pins the lod to a
    fixed (sharp) alternative; ``draw_theta`` overrides the parameter under
    which completions are drawn or imputed (used e.g. for pooled combining).

    Without an ``engine`` the conditional expectation is exact, by
    sufficient-statistic imputation (lods are linear in the sufficient
    statistic).  An ``engine`` selects the Monte Carlo path: the mean of
    the complete-data lods of ``engine.n_draws`` drawn completions.
    """
    if engine is not None:
        theta_null, theta_alt, lod_ob, draw = _completions(
            model, observed, theta_null, engine.n_draws, engine.seed, theta_alt, draw_theta)

        def evaluate(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
            support, counts = draw(lo, hi)
            return _lod_value(model, theta_alt, theta_null, support), counts
        return ri1_monte_carlo(lod_ob, evaluate, engine)

    draw_theta, theta_null, theta_alt, lod_ob = _observed_setup(model, observed, theta_null,
                                                                theta_alt, draw_theta)
    pseudo = model.impute_completion(observed, draw_theta)
    denom = float(_lod_value(model, theta_alt, theta_null, pseudo))
    if denom <= 0.0:
        raise InstabilityError("imputed complete-data lod is nonpositive",
                               {"denominator": denom})
    return RelInfoResult(
        estimate=lod_ob / denom, mc_standard_error=0.0, n_draws=0,
        seed=0, method=Method.SUFFICIENT_STAT,
        diagnostics={"lod_observed": lod_ob, "denominator": denom},
    )


def ri0(model: ModelContract, observed, theta_null) -> RelInfoResult:
    """Null-imputation counterpart of ri1.

    The complete-data sufficient statistic is imputed at ``theta_null``;
    the pseudo-complete data are refit and their lod against the null is
    divided by the observed lod.  Orientation is chosen so the result lies
    in (0, 1] for this family; the choice is recorded in diagnostics.
    """
    _, theta_null, _, lod_ob = _observed_setup(model, observed, theta_null)
    pseudo = model.impute_completion(observed, theta_null)
    theta_imp = model.mle(pseudo)
    lod_imp = float(_lod_value(model, theta_imp, theta_null, pseudo))
    return RelInfoResult(
        estimate=lod_imp / lod_ob, mc_standard_error=0.0, n_draws=0,
        seed=0, method=Method.SUFFICIENT_STAT,
        diagnostics={
            "lod_observed": lod_ob,
            "lod_imputed": lod_imp,
            "theta_imputed": theta_imp,
            "orientation": "imputed-lod / observed-lod (kept within (0, 1])",
        },
    )


def ri_y_samples(model: ModelContract, observed, pair: HypothesisPair,
                 n_draws: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-completion ratios lod(pair | Y_ob) / lod(pair | Y_co), as a histogram.

    Returns ``(ratios, counts)``: the ratio of each distinct completion the
    draws reach, and how many of the ``n_draws`` draws reached it.
    Completions are drawn at the observed-data MLE; the hypothesis pair is
    fixed (the sharp-alternative setting).  Completions whose complete-data
    lod is exactly zero are recorded as +inf sentinels; ri-y is the one
    measure that defines them, and it sets them aside before reducing.
    """
    theta_null, theta_alt, lod_ob, draw = _completions(model, observed, pair.theta_null,
                                                       n_draws, seed, pair.theta_alt)
    support, counts = draw(0, n_draws)
    lods_co = _lod_value(model, theta_alt, theta_null, support)
    with np.errstate(divide="ignore"):
        return np.where(lods_co == 0.0, np.inf, lod_ob / lods_co), counts


def lod_ratio_variance(model: ModelContract, observed, theta_null,
                       n_draws: int, seed: int) -> RelInfoResult:
    """Conditional variance of the complete-data lod over the squared observed lod.

    Each draw's lod is evaluated at that draw's own complete-data MLE.
    """
    theta_null, _, lod_ob, draw = _completions(model, observed, theta_null, n_draws, seed)
    support, counts = draw(0, n_draws)
    var = mc.variance_from_values(_lod_at_own_mle(model, theta_null, support), counts)

    scale = lod_ob**2
    return RelInfoResult(
        estimate=var.mean / scale, mc_standard_error=var.standard_error / scale,
        n_draws=var.n_draws, seed=seed, method=Method.MONTE_CARLO,
        diagnostics={
            "lod_observed": lod_ob,
            "variance_mean": var.mean,
            "variance_se": var.standard_error,
            "generator": mc.GENERATOR_ID,
        },
    )


# Numerical guard for the draw-wise MLE dominance check: exact math gives a
# nonnegative difference, but two ~equal log-likelihood sums can invert by
# rounding when the draw's MLE coincides with the observed-data MLE.
_DOMINANCE_TOL = 1e-10


def expected_lod_gap(model: ModelContract, observed, theta_null,
                     n_draws: int, seed: int) -> ExpectedLodGap:
    """E[lod at per-draw complete-data MLE] vs E[lod at the fixed observed MLE].

    Both expectations use the same completions, so the paired difference is
    nonnegative draw by draw (MLE maximality) and its mean is the gap that
    breaks the naive identity between the two conditional expectations.
    """
    theta_null, theta_hat, _, draw = _completions(model, observed, theta_null, n_draws, seed)
    support, counts = draw(0, n_draws)
    at_mle = _lod_at_own_mle(model, theta_null, support)
    at_fixed = _lod_value(model, theta_hat, theta_null, support)
    diff = at_mle - at_fixed
    return ExpectedLodGap(
        at_draw_mle=mc.estimate_from_values(at_mle, counts),
        at_fixed_alt=mc.estimate_from_values(at_fixed, counts),
        paired_diff=mc.estimate_from_values(diff, counts),
        dominance_violations=int(counts[diff < -_DOMINANCE_TOL].sum()),
    )
