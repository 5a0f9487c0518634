"""Copy-based Monte Carlo reductions: the reference for ``relinfo.mc``'s.

Each function squares into new arrays, so no step can touch its input.
The package reductions skip those copies and must agree with these
exactly: the same mean, standard error and counts, or the same error.
Both take every draw and refuse one that is not finite.  Given a
histogram (rows and their draw counts), the package sums over the rows
instead; it is compared with these on ``np.repeat(rows, counts)``, passed
with ``counted=True`` so that a refusal names what the histogram's does
(the count of the first non-finite value in sorted order), with exact
counts and a 1e-12 tolerance on the sums.
"""

import math

import numpy as np

from relinfo.errors import DataIntegrityError, InstabilityError, ValidationError
from relinfo.mc import MCEstimate


def all_draws(values, counted=False):
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValidationError("no Monte Carlo draws to reduce")
    if counted:
        # Sorted, -inf comes first, then +inf, then NaN.
        for bad, drawn in ((-math.inf, values == -math.inf), (math.inf, values == math.inf),
                           (math.nan, np.isnan(values))):
            if drawn.any():
                raise DataIntegrityError(
                    f"non-finite Monte Carlo draw: {drawn.sum()} draws are {bad}")
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))  # the first False
        raise DataIntegrityError(f"non-finite Monte Carlo draw: draw {i} is {values[i]}")
    return values


def estimate_from_values(values, counted=False):
    values = all_draws(values, counted)
    mean = float(np.mean(values))
    se = math.inf if values.size < 2 else float(np.std(values, ddof=1) / math.sqrt(values.size))
    return MCEstimate(mean=mean, standard_error=se, n_effective=values.size)


def variance_from_values(values, counted=False):
    values = all_draws(values, counted)
    n = values.size
    if n < 2:
        return MCEstimate(mean=0.0, standard_error=math.inf, n_effective=n)
    d = values - np.mean(values)
    squares = d * d
    s2 = float(np.sum(squares) / (n - 1))
    m4 = float(np.mean(squares * squares))
    var_s2 = (m4 - (n - 3) / (n - 1) * s2 * s2) / n
    se = math.sqrt(max(var_s2, 0.0))
    return MCEstimate(mean=s2, standard_error=se, n_effective=n)


def replicate_estimate_from_values(values, replicates):
    """The mean of the draws and its SE from replicate means, draw j in replicate j % replicates.

    A loop over the replicates: each one's sum of deviations D_r from the
    mean of all draws, accumulated in draw order, gives the variance of
    the mean k / (k - 1) sum_r D_r**2 / n**2 over the k replicates that
    hold a draw, that is, the spread of the replicate means weighted by
    their shares of the draws.
    """
    values = all_draws(values)
    n = values.size
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
    if not math.isfinite(mean):
        raise InstabilityError(f"Monte Carlo mean overflows: {n} finite draws sum past the "
                               "range of doubles")
    if n < 2:
        return MCEstimate(mean=mean, standard_error=math.inf, n_effective=n)
    sums = [0.0] * min(n, replicates)
    for j, value in enumerate(values.tolist()):
        sums[j % replicates] += value - mean
    k = len(sums)
    se = math.sqrt(math.fsum(d * d for d in sums) * k / (k - 1)) / n
    if not math.isfinite(se):
        raise InstabilityError(f"Monte Carlo standard error overflows: the draws near {mean:.3g} "
                               "are too large to square")
    return MCEstimate(mean=mean, standard_error=se, n_effective=n)
