"""Binomial toy model: observed trials plus a known count of missing trials.

Missing data are n_missing additional exchangeable Bernoulli trials whose
missingness is independent of outcome, so the complete-data likelihood is
a plain binomial on n_observed + n_missing trials.  Because the family is
exponential with sufficient statistic (successes, trials), sufficient-
statistic imputation is exact for every linear functional, and instances
with a small missing count admit an exact enumeration oracle.

Monte Carlo completions draw the missing successes by exact inversion in a
table of the Binomial(n_missing, theta) cdf, over a window of counts that
brackets the block's uniforms; a guide table indexed by u * G gives each
uniform a start at or below its count (Chen and Asau 1974).  Each draw is
the smallest count k with cdf(k) >= u, so u = 0 gives 0.  A block of draws
comes back as its support table, one complete-data row per count from the
smallest to the largest the block reaches, plus each draw's row index, so
a functional of the complete data is evaluated once per distinct count and
gathered per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special, stats

from .core import ModelContract
from .errors import BoundaryError, OracleUnavailableError, ValidationError
from .mc import stream_uniforms

ENUMERATION_CAP = 25


@dataclass(frozen=True)
class BinomialObserved:
    successes: int
    n_observed: int
    n_missing: int

    def __post_init__(self):
        if self.n_observed < 1:
            raise ValidationError("n_observed must be positive")
        if not 0 <= self.successes <= self.n_observed:
            raise ValidationError("successes must lie in [0, n_observed]")
        if self.n_missing < 0:
            raise ValidationError("n_missing must be nonnegative")

    @property
    def n_total(self) -> int:
        return self.n_observed + self.n_missing


@dataclass(frozen=True)
class BinomialComplete:
    """Complete data; successes_total may be fractional (imputation) or an
    array whose rows are the support table of a block of Monte Carlo draws
    (see :class:`relinfo.core.ModelContract`)."""

    successes_total: float | np.ndarray
    n_total: int


def _counts(data):
    if isinstance(data, BinomialObserved):
        return data.successes, data.n_observed
    if isinstance(data, BinomialComplete):
        return data.successes_total, data.n_total
    raise ValidationError(f"unsupported data type {type(data).__name__}")


def _log_likelihood(p, data):
    x, n = _counts(data)
    # xlogy keeps 0*log(0) = 0 at the data boundary.
    return special.xlogy(x, p) + special.xlogy(n - x, 1.0 - p)


def _mle(data):
    x, n = _counts(data)
    return x / n


def _inverse_cdf(u: np.ndarray, n: int, theta) -> np.ndarray:
    """Binomial(n, theta) quantiles of u: the smallest count k with cdf(k) >= u.

    The cdf is tabulated over the counts that boost's quantiles of u.min()
    and u.max() bracket, widened by one count on each side; when the window
    does not bracket the extreme uniforms, the whole support 0..n is
    tabulated instead.  The cost follows the spread of the block's
    quantiles, not n.  Each uniform is placed by a guide-table search (Chen
    and Asau 1974; Devroye 1986, III.2): guide entry g is the first
    tabulated count whose cdf reaches g / G, a start at or below the answer
    of every u in [g / G, (g + 1) / G).  A draw takes one step forward if
    the cdf at its start is still below u; the few draws still below after
    that, in the tails where one guide interval spans many counts, are
    placed by binary search in the table.  G is a power of two, so u * G is
    exact: the smallest one reaching twice the window's length or the
    block's draw count, whichever is less, so that building the guide costs
    no more than about the searches it saves.  A uniform of exactly 0 maps
    to 0 (scipy's ``binom.ppf(0)`` is -1).
    """
    lo, hi = stats.binom.ppf([u.min(), u.max()], n, theta)
    lo, hi = max(int(lo) - 1, 0), min(int(hi) + 1, n)
    # Tabulated from lo - 1 so that cdf[0] checks the lower edge (cdf(-1) = 0).
    cdf = stats.binom.cdf(np.arange(lo - 1, hi + 1), n, theta)
    if (lo > 0 and cdf[0] >= u.min()) or cdf[-1] < u.max():
        lo = 0
        cdf = stats.binom.cdf(np.arange(-1, n + 1), n, theta)
    table = cdf[1:]
    size = 1 << (min(2 * table.size, u.size) - 1).bit_length()
    guide = np.searchsorted(table, np.arange(size) / size, side="left")
    k = guide[(u * size).astype(np.intp)]
    behind = np.flatnonzero(table[k] < u)
    k[behind] += 1
    behind = behind[table[k[behind]] < u[behind]]
    k[behind] = np.searchsorted(table, u[behind], side="left")
    return lo + k


def _draw_completions_batch(observed: BinomialObserved, theta, n_draws: int, seed: int,
                            start: int = 0):
    if observed.n_missing == 0 or n_draws == 0:
        counts = np.zeros(n_draws, dtype=np.intp)
    else:
        counts = _inverse_cdf(stream_uniforms(seed, n_draws, start=start),
                              observed.n_missing, theta)
    first, last = (int(counts.min()), int(counts.max())) if n_draws else (0, -1)
    support = BinomialComplete(observed.successes + np.arange(first, last + 1, dtype=float),
                               observed.n_total)
    return support, counts - first


def _impute_completion(observed: BinomialObserved, theta):
    return BinomialComplete(observed.successes + observed.n_missing * theta,
                            observed.n_total)


def binomial_model() -> ModelContract:
    """Contract for the binomial with the success probability restricted to (0, 1)."""
    return ModelContract(
        name="binomial",
        log_likelihood=_log_likelihood,
        mle=_mle,
        draw_completions_batch=_draw_completions_batch,
        impute_completion=_impute_completion,
        in_domain=lambda p: 0.0 < p < 1.0,
        is_boundary=lambda p: not 0.0 < p < 1.0,
    )


def ri1_closed_form(obs: BinomialObserved) -> float:
    """RI1 = n_observed / n_total.

    The lod is linear in the success count and imputation at the observed
    MLE preserves the success fraction, so the expected complete-data lod
    is the observed lod scaled by n_total / n_observed.
    """
    if not 0 < obs.successes < obs.n_observed:
        raise BoundaryError("observed MLE on the boundary; RI1 refused")
    return obs.n_observed / obs.n_total


def enumerate_expectation(obs: BinomialObserved, theta: float,
                          functional: Callable[[BinomialComplete], float],
                          cap: int = ENUMERATION_CAP) -> float:
    """Exact conditional expectation over the missing-success count.

    Sums functional(complete data with successes + k) against the
    Binomial(n_missing, theta) pmf; exact to floating precision.
    """
    if obs.n_missing > cap:
        raise OracleUnavailableError(
            f"n_missing={obs.n_missing} exceeds the enumeration cap {cap}")
    ks = np.arange(obs.n_missing + 1)
    weights = stats.binom.pmf(ks, obs.n_missing, theta)
    values = np.array([functional(BinomialComplete(obs.successes + int(k), obs.n_total))
                       for k in ks], dtype=float)
    return float(weights @ values)


def ri1_enumeration(obs: BinomialObserved, theta_null: float, *,
                    theta_alt: float | None = None,
                    draw_theta: float | None = None,
                    cap: int = ENUMERATION_CAP) -> float:
    """RI1 with the denominator expectation computed by exact enumeration.

    Lods are evaluated directly as x log(p1/p0) + (n - x) log((1-p1)/(1-p0))
    rather than as a difference of two log-likelihoods, which would cancel
    when p0 is close to p1.
    """
    theta_hat = _mle(obs)
    if not 0.0 < theta_hat < 1.0:
        raise BoundaryError("observed MLE on the boundary; RI1 refused")
    if theta_alt is None:
        theta_alt = theta_hat
    if draw_theta is None:
        draw_theta = theta_hat
    log_ratio_success = math.log(theta_alt / theta_null)
    log_ratio_failure = math.log((1.0 - theta_alt) / (1.0 - theta_null))

    def lod(data) -> float:
        x, n = _counts(data)
        return float(x * log_ratio_success + (n - x) * log_ratio_failure)

    return lod(obs) / enumerate_expectation(obs, draw_theta, lod, cap=cap)
