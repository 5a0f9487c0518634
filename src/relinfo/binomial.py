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

Draw i's uniform is u = (w >> 11) 2**-53 for w, the raw 64-bit word i of
the stream :func:`relinfo.mc.open_stream` opens once per block.  The table
is searched through a guide of G buckets (Chen and Asau 1974), G a power
of two, and a draw's bucket floor(u G) is the top log2 G bits of its word.
So the words are counted into a bucket histogram, and only the draws in a
bucket that holds a cdf value are turned into uniforms and searched; every
other bucket's draws share one quantile row.  The words are read in
sub-blocks of at most ``_BLOCK_DRAWS`` draws, or of the table's row count
when the table is longer, so a block's memory follows its table, not its
draw count; draw i still reads word i, so the histogram does not depend
on the sub-block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ModelContract
from .errors import BoundaryError, OracleUnavailableError, ValidationError
from .mc import open_stream

ENUMERATION_CAP = 25

# Most draws counted at once.  A sub-block's arrays (128 KiB of words and
# 128 KiB of bucket indices) stay in cache; at 250,000 draws with
# n_missing = 500, 2**15 took as long and 2**12 and 2**16 longer.
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


def _guide(table: np.ndarray, bits: int) -> np.ndarray:
    """Guide table for searching ``table`` (Chen and Asau 1974), with G = 2**bits.

    Entry j, for j = 0..G, is the first row whose cdf reaches j / G, so it
    counts the rows before it: those whose cdf c has floor(c G) < j.  A
    power of two keeps c G and u G exact.  Only the rows with
    1 / G <= c < 1 - 1 / G are binned: the rows below them have
    floor(c G) = 0, those above them and below 1 have floor(c G) = G - 1,
    and those from the first c = 1 on are before no entry.  The cdf
    reaches 1 only at its last row or so, so this skips both tails.
    """
    size = 1 << bits
    lo, hi, top = np.searchsorted(table, [1.0 / size, 1.0 - 1.0 / size, 1.0])
    below = np.bincount((table[lo:hi] * size).astype(np.intp), minlength=size)
    below[0] += lo
    below[-1] += top - hi
    return np.concatenate(([0], np.cumsum(below)))


def _guide_bits(rows: int, n: int) -> int:
    """log2 of the guide size G for a table of ``rows`` rows searched with n uniforms.

    G is the power of two, at least 2, that first reaches the least of
    8 rows, n and the sub-block size max(``_BLOCK_DRAWS``, rows), so that
    a sub-block's bucket histogram costs about one pass over its draws.
    """
    return max((min(8 * rows, n, max(_BLOCK_DRAWS, rows)) - 1).bit_length(), 1)


def _quantile_rows(u: np.ndarray, table: np.ndarray, guide: np.ndarray) -> np.ndarray:
    """For each u, the first row r of the nondecreasing ``table`` with table[r] >= u.

    The :func:`_guide` of G + 1 entries starts each u at the first row
    whose cdf reaches floor(u G) / G (Devroye 1986, III.2); a draw still
    below u steps once, and the few still below after that, in tails where
    one guide interval spans many rows, are placed by binary search.
    """
    k = guide[(u * (guide.size - 1)).astype(np.intp)]
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
    return labels[_quantile_rows(u, table, _guide(table, _guide_bits(table.size, u.size)))]


def _draw_completions_batch(observed: BinomialObserved, theta, n_draws: int, seed: int,
                            start: int = 0):
    """Completions ``start`` .. ``start + n_draws - 1`` as a histogram (support, counts).

    ``support`` holds the distinct completions the draws reach, by
    increasing success count, and ``counts[r]`` how many draws reach row r.
    The counts are those of the draws' :func:`_quantile_rows`, found by
    bucket (see the module docstring): ``split[j]`` is true when bucket j
    holds a cdf value, i.e. guide entries j and j + 1 differ, and every
    uniform in any other bucket j has quantile row guide[j].
    """
    labels, table = _cdf_table(observed.n_missing, theta)
    guide = _guide(table, _guide_bits(table.size, n_draws))
    split = guide[1:] != guide[:-1]
    shift = 65 - guide.size.bit_length()  # 64 - log2 G
    step = max(_BLOCK_DRAWS, table.size)
    stream = open_stream(seed, start)

    def count(n):
        """Bucket and searched-row histograms of the stream's next n draws."""
        words = stream.random_raw(n)
        bucket = (words >> shift).view(np.int64)
        u = (words[split[bucket]] >> 11) * 2.0**-53
        return (np.bincount(bucket, minlength=split.size),
                np.bincount(_quantile_rows(u, table, guide), minlength=table.size))

    # The first sub-block's histograms are the accumulators, so a one-block
    # call (every call whose table is longer than its draws) adds nothing.
    buckets, counts = count(min(step, n_draws))
    for lo in range(step, n_draws, step):
        more_buckets, more_counts = count(min(step, n_draws - lo))
        buckets += more_buckets
        counts += more_counts
    # A run of equal guide entries starts at bucket 0 or after a split
    # bucket, and the draws of its other buckets all reach its row.
    buckets[split] = 0
    runs = np.flatnonzero(np.concatenate(([True], split[:-1])))
    counts[guide[runs]] += np.add.reduceat(buckets, runs)
    reached = np.flatnonzero(counts > 0)
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
