"""Binomial toy model: observed trials plus a known count of missing trials.

Missing data are n_missing additional exchangeable Bernoulli trials whose
missingness is independent of outcome, so the complete-data likelihood is
a plain binomial on n_observed + n_missing trials.  Because the family is
exponential with sufficient statistic (successes, trials), sufficient-
statistic imputation is exact for every linear functional, and instances
with a small missing count admit an exact enumeration oracle.

Monte Carlo completions invert a Binomial(n_missing, theta) cdf table built
from the pmf's ratio recursion (Devroye 1986, ch. III).  A block of draws
comes back as a histogram: its support, one complete-data row per distinct
count the block reaches, and how many draws reached each row.  Every
binomial measure is a functional of the count alone, so it is evaluated
once per row and reduced with the row counts as weights.

The block is drawn in sub-blocks of at most ``_BLOCK_DRAWS`` draws, or of
the table's row count when the table is longer, since each sub-block's
bincount costs one pass over the table.  Each sub-block's uniforms are
searched and counted into one histogram, so a block's memory follows its
table, not its draw count; draw i still reads counter block i, so the
histogram does not depend on the sub-block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ModelContract
from .errors import BoundaryError, OracleUnavailableError, ValidationError
from .mc import stream_uniforms

ENUMERATION_CAP = 25

# Most draws searched and counted at once.  A sub-block's arrays (128 KiB
# of uniforms, and the search's temporaries of about that size) stay in
# cache and are reused from freed memory; 2**15 and 2**16 took as long but
# faulted in fresh pages on every call.
_BLOCK_DRAWS = 2**14

# Most rows a pmf window may hold, 64 MiB per float64 array built over it.
# It admits n_missing up to about 4e10 at theta = 0.5; 10**8 needs 400,081.
_MAX_WINDOW_ROWS = 2**23

# Largest n_missing: a draw's count is an int64.
_MAX_COUNT = 2**63 - 1


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
    array whose rows are the support of a block of Monte Carlo draws (see
    :class:`relinfo.core.ModelContract`)."""

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
    # Masked so that 0 log(0) = 0 at the data boundary.
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.where(x == 0, 0.0, x * np.log(p))
                + np.where(x == n, 0.0, (n - x) * np.log(1.0 - p)))


def _mle(data):
    x, n = _counts(data)
    return x / n


def _pmf_window(n: int, theta) -> tuple[int, np.ndarray]:
    """Binomial(n, theta) pmf as (lo, pmf) over the counts mu +- (40 sigma + 40).

    The window is clipped to 0..n.  By Bernstein's inequality each tail it
    leaves out holds less than exp(-60) ~ 1e-26 of the mass for every n and
    theta; the + 40 keeps this so when sigma is tiny.  The log pmf is summed
    outward from the mode in steps log((n - k) / (k + 1) * theta / (1 - theta)),
    then exponentiated and normalised.  theta = 0 or 1 is a point mass at 0 or n.
    A window of more than ``_MAX_WINDOW_ROWS`` rows is refused with a
    ValidationError before anything is allocated, and so is an n above
    ``_MAX_COUNT``, whose int64 counts would overflow.
    """
    if not 0.0 < theta < 1.0:
        return (0 if theta <= 0.0 else n), np.ones(1)
    mu, half = n * theta, 40.0 * math.sqrt(n * theta * (1.0 - theta)) + 40.0
    lo, hi = max(math.ceil(mu - half), 0), min(math.floor(mu + half), n)
    if hi - lo + 1 > _MAX_WINDOW_ROWS:
        raise ValidationError(
            f"n_missing={n} needs a pmf window of {hi - lo + 1} rows at theta={theta}, "
            f"above the limit of {_MAX_WINDOW_ROWS}")
    if n > _MAX_COUNT:
        raise ValidationError(f"n_missing={n} is above {_MAX_COUNT}, the largest count a "
                              "draw holds")
    k = np.arange(lo, hi)
    with np.errstate(divide="ignore"):  # a ratio that underflows gives pmf 0
        steps = np.log((n - k) / (k + 1) * (theta / (1.0 - theta)))
    mode = min(math.floor((n + 1) * theta), n) - lo
    pmf = np.exp(np.concatenate([-np.cumsum(steps[:mode][::-1])[::-1], [0.0],
                                 np.cumsum(steps[mode:])]))
    return lo, pmf / pmf.sum()


def _cdf_table(n: int, theta) -> tuple[np.ndarray, np.ndarray]:
    """Binomial(n, theta) cdf table as (count of each row, cdf at each row).

    The table is the cumulative sum of :func:`_pmf_window`'s pmf with its
    last entry set to 1: the tail left out is below 1e-26, and no uniform
    exceeds 1 - 2**-53.  When the window starts above 0, a first row of
    cdf 0 stands for count 0, so that u = 0, and only u = 0, maps to 0.
    """
    lo, pmf = _pmf_window(n, theta)
    table = np.cumsum(pmf)
    table[-1] = 1.0
    if lo == 0:
        return np.arange(table.size), table
    return np.r_[0, lo:lo + table.size], np.r_[0.0, table]


def _guide(table: np.ndarray, n: int) -> np.ndarray:
    """Guide table for searching ``table`` with n uniforms (Chen and Asau 1974).

    Entry j is the first row whose cdf reaches j / G, for G the power of two
    (so u G is exact) that first reaches twice the table's length or n.
    """
    size = 1 << (min(2 * table.size, n) - 1).bit_length()
    return np.searchsorted(table, np.arange(size) / size, side="left")


def _quantile_rows(u: np.ndarray, table: np.ndarray, guide: np.ndarray) -> np.ndarray:
    """For each u, the first row r of the nondecreasing ``table`` with table[r] >= u.

    The :func:`_guide` of G entries starts each u at the first row whose
    cdf reaches floor(u G) / G (Devroye 1986, III.2); a draw still below u
    steps once, and the few still below after that, in tails where one
    guide interval spans many rows, are placed by binary search.  G is
    sized by the calling draw count, so one guide serves all its sub-blocks.
    """
    k = guide[(u * guide.size).astype(np.intp)]
    behind = np.flatnonzero(table[k] < u)
    k[behind] += 1
    behind = behind[table[k[behind]] < u[behind]]
    k[behind] = np.searchsorted(table, u[behind], side="left")
    return k


def _inverse_cdf(u: np.ndarray, n: int, theta) -> np.ndarray:
    """Binomial(n, theta) quantiles of u: the smallest count k with cdf(k) >= u.

    u = 0 maps to 0.  These are the per-draw counts whose histogram
    :func:`_draw_completions_batch` returns.
    """
    labels, table = _cdf_table(n, theta)
    return labels[_quantile_rows(u, table, _guide(table, u.size))]


def _draw_completions_batch(observed: BinomialObserved, theta, n_draws: int, seed: int,
                            start: int = 0):
    """Completions ``start`` .. ``start + n_draws - 1`` as a histogram (support, counts).

    ``support`` holds the distinct completions the draws reach, by
    increasing success count, and ``counts[r]`` how many draws reach row r.
    The draws are searched and counted in sub-blocks of
    max(``_BLOCK_DRAWS``, table rows) draws against one table and guide.
    """
    labels, table = _cdf_table(observed.n_missing, theta)
    guide = _guide(table, n_draws)
    step = max(_BLOCK_DRAWS, table.size)

    def count(lo):
        u = stream_uniforms(seed, min(step, start + n_draws - lo), start=lo)
        return np.bincount(_quantile_rows(u, table, guide), minlength=table.size)

    # The first sub-block's histogram is the accumulator, so a one-block
    # call (every call whose table is longer than its draws) adds nothing.
    counts = count(start)
    for lo in range(start + step, start + n_draws, step):
        counts += count(lo)
    reached = np.flatnonzero(counts)
    support = BinomialComplete(observed.successes + labels[reached].astype(float),
                               observed.n_total)
    return support, counts[reached]


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

    Sums functional(complete data with successes + k) against the weights
    of :func:`_pmf_window`, all of 0..n_missing when n_missing <= 40.
    """
    if obs.n_missing > cap:
        raise OracleUnavailableError(
            f"n_missing={obs.n_missing} exceeds the enumeration cap {cap}")
    lo, weights = _pmf_window(obs.n_missing, theta)
    values = np.array([functional(BinomialComplete(obs.successes + lo + k, obs.n_total))
                       for k in range(weights.size)], dtype=float)
    return float(np.sum(weights * values))


def ri1_enumeration(obs: BinomialObserved, theta_null: float) -> float:
    """RI1 at the observed MLE p1, with the denominator expectation computed by exact enumeration.

    Lods are evaluated directly as x log(p1/p0) + (n - x) log((1-p1)/(1-p0))
    rather than as a difference of two log-likelihoods, which would cancel
    when p0 is close to p1.
    """
    theta_hat = _mle(obs)
    if not 0.0 < theta_hat < 1.0:
        raise BoundaryError("observed MLE on the boundary; RI1 refused")
    log_ratio_success = math.log(theta_hat / theta_null)
    log_ratio_failure = math.log((1.0 - theta_hat) / (1.0 - theta_null))

    def lod(data) -> float:
        x, n = _counts(data)
        return float(x * log_ratio_success + (n - x) * log_ratio_failure)

    return lod(obs) / enumerate_expectation(obs, theta_hat, lod)
