"""The partial-likelihood Newton fit with a line search that always halves 40 times.

``relinfo.cox.fit_partial_likelihood`` leaves its step-halving loop once the
step no longer moves beta, since every smaller step then rounds to beta as
well and cannot raise the likelihood.  This copy halves until its 40 tries
are spent, as the fit did before that shortcut; the two must return the
same estimate and standard errors, bit for bit.  It calls
``cox.partial_log_likelihood`` through the module, so a test can count the
evaluations of both.
"""

import numpy as np

from relinfo import cox
from relinfo.errors import EstimationFailureError, RankDeficiencyError, SeparationError


def fit_partial_likelihood(rank):
    d = rank.covariates.shape[1]
    if d == 1:
        cox._refuse_monotone(rank)
    beta = np.zeros(d)
    ll = cox.partial_log_likelihood(rank, beta)
    score_and_information = cox._score_and_information_at(rank)
    for _ in range(cox._NEWTON_MAX_ITER):
        score, info = score_and_information(beta)
        if float(np.linalg.norm(score)) < cox._NEWTON_GRAD_TOL:
            return beta, cox._standard_errors(info)
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(
                "singular partial-likelihood information (no covariate contrast)") from exc
        scale = 1.0
        for _ in range(40):
            candidate = beta + scale * step
            cand_ll = cox.partial_log_likelihood(rank, candidate)
            if cand_ll > ll:
                break
            scale /= 2.0
        else:
            if float(np.linalg.norm(score)) < 1e-6:
                return beta, cox._standard_errors(info)
            raise EstimationFailureError("Newton step failed to increase the partial likelihood")
        beta, ll = candidate, cand_ll
        if float(np.linalg.norm(beta)) > cox._SEPARATION_NORM:
            raise SeparationError("monotone partial likelihood: estimate diverges")
    raise EstimationFailureError("partial-likelihood Newton did not converge")
