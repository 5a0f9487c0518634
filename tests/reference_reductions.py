"""Copy-based Monte Carlo reductions: the reference for ``relinfo.mc``'s.

Each function masks the finite draws into a new array and squares into new
arrays, so no step can touch its input.  The package reductions skip those
copies and must agree with these exactly: the same mean, standard error and
counts, or the same error.  Given a histogram (rows and their draw counts),
the package sums over the rows instead; it is compared with these on
``np.repeat(rows, counts)``, with exact counts and a 1e-12 tolerance on the
sums.
"""

import math

import numpy as np

from relinfo.errors import EstimationFailureError
from relinfo.mc import MCEstimate


def finite_draws(values):
    values = np.asarray(values, dtype=float)
    kept = values[np.isfinite(values)]
    if kept.size == 0:
        raise EstimationFailureError("all Monte Carlo draws were sentinels")
    return kept, values.size - kept.size


def estimate_from_values(values):
    kept, sentinels = finite_draws(values)
    mean = float(np.mean(kept))
    se = math.inf if kept.size < 2 else float(np.std(kept, ddof=1) / math.sqrt(kept.size))
    return MCEstimate(mean=mean, standard_error=se, n_effective=kept.size,
                      sentinel_count=sentinels)


def variance_from_values(values):
    kept, sentinels = finite_draws(values)
    n = kept.size
    if n < 2:
        return MCEstimate(mean=0.0, standard_error=math.inf,
                          n_effective=n, sentinel_count=sentinels)
    d = kept - np.mean(kept)
    squares = d * d
    s2 = float(np.sum(squares) / (n - 1))
    m4 = float(np.mean(squares * squares))
    var_s2 = (m4 - (n - 3) / (n - 1) * s2 * s2) / n
    se = math.sqrt(max(var_s2, 0.0))
    return MCEstimate(mean=s2, standard_error=se, n_effective=n, sentinel_count=sentinels)
