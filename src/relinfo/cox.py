"""Cox proportional-hazards machinery and the conditioning contrast.

Three nested views of a survival sample are distinguished: the full
uncensored data, the observed censored data, and the partial (rank) data
actually consumed by Cox's partial likelihood.  Relative information for
an augmented study can condition either on the rank data (the correct
conditioning, which keeps the measure at or below 1) or on the censored
data with observed times held fixed (the naive conditioning, which can
push the measure above 1).  Both draw cumulative-hazard levels, not times.
The correct one needs no baseline: under Kalbfleisch and Prentice's
censoring convention the partial likelihood is the exact likelihood of the
ranks, which are all it draws.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import mc
from .core import Method, RelInfoResult, ri1_monte_carlo
from .errors import (
    DataIntegrityError,
    DegenerateDataError,
    DomainError,
    EstimationFailureError,
    InstabilityError,
    OracleUnavailableError,
    RankDeficiencyError,
    SeparationError,
    UndefinedMeasureError,
    ValidationError,
)
from .mc import MCConfig

EVENT = 1
CENSORED = 0

_NEWTON_MAX_ITER = 50
_NEWTON_GRAD_TOL = 1e-8
_SEPARATION_NORM = 50.0

# Relative hazards are exponentiated after shifting eta by its maximum.
# While eta spans at most this much, every shifted weight is a normal
# double (exp(-600) ~ 1e-261) and risk-set sums keep full precision; risk
# sets further below are summed again from their own maximum (_risk_sums).
_EXP_SPAN = 600.0

# Cap on the elements of one (draws x subjects) sub-block of the Cox
# completion kernel, which bounds its memory whatever the sample size.
_BLOCK_ELEMENTS = 2**14

# Stream tag of the Cox completion draws (see mc.stream_uniforms).
_COX_STREAM_TAG = 1

#: Most augmented orders the exact correct-conditioning oracle will sum.
PL_ENUMERATION_CAP = 20_000


@dataclass(frozen=True)
class SurvivalRecord:
    time: float
    status: int  # 1 = event, 0 = censored
    covariates: tuple[float, ...]

    def __post_init__(self):
        if not math.isfinite(self.time) or self.time <= 0:
            raise ValidationError("time must be finite and positive")
        if self.status not in (EVENT, CENSORED):
            raise ValidationError("status must be 0 (censored) or 1 (event)")
        if not all(math.isfinite(c) for c in self.covariates):
            raise ValidationError("covariates must be finite")


@dataclass(frozen=True)
class SurvivalDataset:
    records: tuple[SurvivalRecord, ...]
    covariate_dim: int

    def __post_init__(self):
        for r in self.records:
            if len(r.covariates) != self.covariate_dim:
                raise ValidationError("covariate dimension must be constant across records")

    @classmethod
    def from_arrays(cls, times, status, covariates) -> "SurvivalDataset":
        times = np.asarray(times, dtype=float)
        status = np.asarray(status, dtype=int)
        z = np.atleast_2d(np.asarray(covariates, dtype=float))
        if z.shape[0] != times.size:
            z = z.T
        if not np.all(np.isfinite(times)):
            raise ValidationError("times must be finite")
        if not np.all(np.isfinite(z)):
            raise ValidationError("covariates must be finite")
        records = tuple(
            SurvivalRecord(float(t), int(s), tuple(row))
            for t, s, row in zip(times, status, z)
        )
        return cls(records=records, covariate_dim=z.shape[1])

    @property
    def n(self) -> int:
        return len(self.records)

    def arrays(self):
        times = np.array([r.time for r in self.records])
        status = np.array([r.status for r in self.records])
        z = np.array([r.covariates for r in self.records], dtype=float)
        return times, status, z


@dataclass(frozen=True, eq=False)
class RankData:
    """Cox's partial data as one stable sort of the subjects by time.

    ``order`` lists subject indices by (time, index).  In that sorted order,
    ``tie_start[p]`` is the first position whose time equals position p's,
    so the risk set of an event at position p is ``order[tie_start[p]:]``
    (every subject with time >= its time, tied events sharing it: the
    Breslow convention), and ``event`` marks the events.
    """

    order: np.ndarray
    tie_start: np.ndarray
    event: np.ndarray
    covariates: np.ndarray  # (n_subjects, covariate_dim), in subject order

    def __post_init__(self):
        n = self.covariates.shape[0]
        if not (self.order.shape == self.tie_start.shape == self.event.shape == (n,)):
            raise ValidationError("order, tie_start and event need one entry per subject")
        if not np.array_equal(np.sort(self.order), np.arange(n)):
            raise ValidationError("order must be a permutation of the subjects")
        if np.any(self.tie_start < 0) or np.any(self.tie_start > np.arange(n)):
            raise ValidationError("each risk set must contain its failing subject")

    @property
    def failure_order(self) -> tuple[int, ...]:
        """Failing subjects in order of failure (ties by subject index)."""
        return tuple(int(i) for i in self.order[self.event])

    @property
    def risk_sets(self) -> tuple[frozenset[int], ...]:
        """The subjects at risk at each failure, in failure order."""
        return tuple(frozenset(self.order[p:].tolist())
                     for p in self.tie_start[self.event])


@dataclass(frozen=True, eq=False)
class BaselineHazard:
    """Cumulative-hazard step increments, with a continuous working version.

    The working cumulative hazard interpolates the step function linearly
    between jump times (starting from 0) and extends past the last jump at
    a constant rate equal to the last increment divided by the last gap.
    That continuous, strictly increasing version gives the naive
    completion its levels and is inverted when simulating times.  Its
    knots are computed once, at construction.
    """

    jump_times: np.ndarray
    jump_sizes: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.jump_times, dtype=float)
        s = np.asarray(self.jump_sizes, dtype=float)
        if t.size != s.size:
            raise ValidationError("jump_times and jump_sizes must align")
        if t.size and (np.any(np.diff(t) <= 0) or t[0] <= 0):
            raise ValidationError("jump_times must be increasing and positive")
        if np.any(s <= 0):
            raise ValidationError("jump_sizes must be positive")
        object.__setattr__(self, "_knot_times", np.concatenate(([0.0], t)))
        object.__setattr__(self, "_knot_hazards", np.concatenate(([0.0], np.cumsum(s))))

    @property
    def tail_rate(self) -> float:
        t = self.jump_times
        if t.size == 0:
            raise DegenerateDataError("empty baseline has no tail rate")
        last_gap = t[-1] - (t[-2] if t.size > 1 else 0.0)
        return float(self.jump_sizes[-1] / last_gap)

    def cumulative(self, times) -> np.ndarray:
        t, h = self._knot_times, self._knot_hazards
        times = np.asarray(times, dtype=float)
        inside = np.interp(times, t, h)
        return np.where(times > t[-1], h[-1] + (times - t[-1]) * self.tail_rate, inside)

    def inverse(self, hazards) -> np.ndarray:
        t, h = self._knot_times, self._knot_hazards
        hazards = np.asarray(hazards, dtype=float)
        inside = np.interp(hazards, h, t)
        return np.where(hazards > h[-1], t[-1] + (hazards - h[-1]) / self.tail_rate, inside)


def _tie_starts(sorted_times: np.ndarray) -> np.ndarray:
    """Flat index of the first entry of each entry's tie group.

    Rows are sorted along the last axis and never tie with each other; for
    one row the flat indices are positions.
    """
    flat = sorted_times.ravel()
    same = flat[1:] == flat[:-1]
    same[sorted_times.shape[-1] - 1::sorted_times.shape[-1]] = False
    pos = np.arange(flat.size)
    pos[1:][same] = 0
    return np.maximum.accumulate(pos).reshape(sorted_times.shape)


def extract_rank_data(data: SurvivalDataset) -> RankData:
    """Project observed (censored) data onto Cox's partial data.

    Risk set at an event time t is every subject with time >= t, so a
    subject censored at exactly t still counts as at risk.  Tied events
    share the joint risk set (Breslow convention) and are ordered among
    themselves by subject index.
    """
    times, status, z = data.arrays()
    if not np.any(status == EVENT):
        raise DegenerateDataError("at least one event is required")
    order = np.argsort(times, kind="stable")
    return RankData(order=order, tie_start=_tie_starts(times[order]),
                    event=status[order] == EVENT, covariates=z)


def _risk_sums(eta: np.ndarray, *values: np.ndarray):
    """Risk-set sums of exp(eta) from each position to the end of the last axis.

    Returns the log of each reverse cumulative sum and, for every array in
    ``values`` (last axis aligned with eta's), the matching exp(eta)-weighted
    means.  Weights are shifted by the maximum of eta.  Positions whose
    remaining weights all fall more than ``_EXP_SPAN`` below the shift are
    recomputed with the largest of them as the shift, level by level, so
    the sums stay exact whatever the span of eta.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        top = eta.max()
        log_total, means = _shifted_sums(eta, values, top)
        if top - eta.min() <= _EXP_SPAN:
            return log_total, means
        suffix_top = np.maximum.accumulate(eta[..., ::-1], axis=-1)[..., ::-1]
        todo = suffix_top < top - _EXP_SPAN
        while np.any(todo):
            # Weights above the new shift overflow, but they only enter the
            # sums of earlier positions, which are already done.
            top = suffix_top[todo].max()
            level_total, level_means = _shifted_sums(eta, values, top)
            here = todo & (suffix_top >= top - _EXP_SPAN)
            np.copyto(log_total, level_total, where=here)
            for out, level in zip(means, level_means):
                np.copyto(out, level, where=here)
            todo &= ~here
        return log_total, means


def _shifted_sums(eta: np.ndarray, values, top: float):
    w = np.exp(eta - top)
    total = np.cumsum(w[..., ::-1], axis=-1)[..., ::-1]
    means = [np.cumsum((w * v)[..., ::-1], axis=-1)[..., ::-1] / total for v in values]
    return np.log(total) + top, means


def _sorted_loglik(order: np.ndarray, tie_start: np.ndarray, event: np.ndarray,
                   eta: np.ndarray) -> np.ndarray:
    """Breslow partial log-likelihood of each row of a sort (last axis).

    ``order`` sorts the subjects by time, ``event`` marks the events in
    that order and ``tie_start`` holds flat first-of-tie indices (see
    ``_tie_starts``).
    """
    e = eta[order]
    log_risk, _ = _risk_sums(e)
    return np.where(event, e - np.take(log_risk, tie_start), 0.0).sum(axis=-1)


def _sort_rows(times: np.ndarray, status: np.ndarray):
    """Stable sort of each row of a (..., subjects) time array, as ``_sorted_loglik`` takes it."""
    order = np.argsort(times, axis=-1, kind="stable")
    row_offset = np.arange(0, times.size, times.shape[-1]).reshape(times.shape[:-1] + (1,))
    tie_start = _tie_starts(np.take(times, order + row_offset))
    return order, tie_start, status[order] == EVENT


def _lod_rows(times: np.ndarray, status: np.ndarray,
              eta_alt: np.ndarray, eta_null: np.ndarray) -> np.ndarray:
    """Partial-likelihood lod of each row of a (..., subjects) time array.

    One row-wise stable sort serves both parameters; subject j of every row
    has status ``status[j]`` and linear predictors ``eta_alt[j]``, ``eta_null[j]``.
    Any monotone scale serves as time, such as cumulative-hazard levels.
    """
    rows = _sort_rows(times, status)
    return _sorted_loglik(*rows, eta_alt) - _sorted_loglik(*rows, eta_null)


def _partial_lod_times(times: np.ndarray, status: np.ndarray,
                       eta_alt: np.ndarray, eta_null: np.ndarray) -> float:
    """Partial-likelihood lod computed directly from (time, status, eta) arrays.

    Equivalent to extracting rank data and evaluating the Breslow-form
    partial likelihood at both parameters, but shares one sort.
    """
    return float(_lod_rows(times, status, eta_alt, eta_null))


def partial_log_likelihood(rank: RankData, beta) -> float:
    """Breslow-form partial log-likelihood at beta."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    eta = rank.covariates @ beta
    return float(_sorted_loglik(rank.order, rank.tie_start, rank.event, eta))


def partial_lod(rank: RankData, beta_alt, beta_null) -> float:
    return partial_log_likelihood(rank, beta_alt) - partial_log_likelihood(rank, beta_null)


def _score_and_information(rank: RankData, beta):
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    # Centering the covariates leaves score and information unchanged and
    # keeps the second-moment difference below well conditioned.
    z = rank.covariates - rank.covariates.mean(axis=0)
    z = z[rank.order]
    zz = z[:, :, None] * z[:, None, :]
    _, (mean, second) = _risk_sums(z @ beta, z.T, zz.transpose(1, 2, 0))
    start = rank.tie_start[rank.event]
    m = mean[:, start]
    score = (z[rank.event].T - m).sum(axis=-1)
    info = second[:, :, start].sum(axis=-1) - m @ m.T
    return score, info


def _standard_errors(info: np.ndarray) -> np.ndarray:
    # Without covariate contrast in any risk set the information is zero up
    # to rounding: singular, or with a negative "variance".
    try:
        variance = np.diag(np.linalg.inv(info))
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("singular information at the optimum") from exc
    if not np.all(variance > 0):
        raise RankDeficiencyError("information at the optimum is not positive definite "
                                  "(no covariate contrast)")
    return np.sqrt(variance)


def fit_partial_likelihood(rank: RankData) -> tuple[np.ndarray, np.ndarray]:
    """Damped-Newton maximizer of the partial likelihood, with SEs.

    Step halving enforces a likelihood increase at every iteration; a
    diverging coefficient norm is reported as monotone-likelihood
    separation, a singular information matrix as rank deficiency.
    """
    d = rank.covariates.shape[1]
    beta = np.zeros(d)
    ll = partial_log_likelihood(rank, beta)
    for _ in range(_NEWTON_MAX_ITER):
        score, info = _score_and_information(rank, beta)
        if float(np.linalg.norm(score)) < _NEWTON_GRAD_TOL:
            return beta, _standard_errors(info)
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(
                "singular partial-likelihood information (no covariate contrast)") from exc
        scale = 1.0
        for _ in range(40):
            candidate = beta + scale * step
            cand_ll = partial_log_likelihood(rank, candidate)
            if cand_ll > ll:
                break
            scale /= 2.0
        else:
            # No step improves the likelihood: at a machine-precision
            # optimum the gradient is tiny but above the strict tolerance.
            if float(np.linalg.norm(score)) < 1e-6:
                return beta, _standard_errors(info)
            raise EstimationFailureError("Newton step failed to increase the partial likelihood")
        beta, ll = candidate, cand_ll
        if float(np.linalg.norm(beta)) > _SEPARATION_NORM:
            raise SeparationError("monotone partial likelihood: estimate diverges")
    raise EstimationFailureError("partial-likelihood Newton did not converge")


def _breslow_log_increments(data: SurvivalDataset, beta) -> tuple[np.ndarray, np.ndarray]:
    """Distinct event times and the log Breslow increments at them.

    The increment at t is d_t / sum_{at risk} exp(beta.z); its log,
    log d_t minus the log risk-set sum, is finite for any linear predictor.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if not np.all(np.isfinite(beta)):
        raise DomainError("beta must be finite")
    times, status, z = data.arrays()
    order = np.argsort(times, kind="stable")
    sorted_times = times[order]
    start = _tie_starts(sorted_times)[status[order] == EVENT]
    # One increment per distinct event time: tied events share a tie start.
    first, deaths = np.unique(start, return_counts=True)
    log_risk, _ = _risk_sums((z @ beta)[order])
    return sorted_times[first], np.log(deaths) - log_risk[first]


def breslow_baseline(data: SurvivalDataset, beta) -> BaselineHazard:
    """Breslow cumulative-hazard increments d_t / sum_{at risk} exp(beta.z)."""
    jump_times, log_sizes = _breslow_log_increments(data, beta)
    sizes = np.exp(log_sizes)
    if not np.all(np.isfinite(sizes) & (sizes > 0)):
        raise DataIntegrityError("baseline hazard increments are outside the range of doubles")
    return BaselineHazard(jump_times=jump_times, jump_sizes=sizes)


def _log_risk_rates(rank: RankData, beta) -> np.ndarray:
    """Log total relative hazard of each failure's risk set, in failure order."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    eta = rank.covariates @ beta
    log_risk, _ = _risk_sums(eta[rank.order])
    return log_risk[rank.tie_start[rank.event]]


def _relative_rates(log_rates: np.ndarray, jump_times: np.ndarray,
                    log_sizes: np.ndarray):
    """Rates exp(log_rates) and the baseline, both relative to the largest rate.

    Levels E / rate against baseline.cumulative(t), and times
    baseline.inverse(E / rate), are unchanged when every rate is scaled
    down and the baseline up by one factor.  It is applied to ``log_sizes``
    before exponentiating, which keeps both finite for large predictors.
    """
    shift = log_rates.max()
    rates = np.exp(log_rates - shift)
    sizes = np.exp(log_sizes + shift)
    if not (np.all(rates > 0) and np.all(np.isfinite(sizes))):
        raise DataIntegrityError("relative hazards span more than the range of doubles")
    return rates, BaselineHazard(jump_times, sizes)


def sample_times_given_ranks(rank: RankData, beta, baseline: BaselineHazard,
                             rng: np.random.Generator) -> np.ndarray:
    """Failure times consistent with the observed failure order.

    On the cumulative-hazard scale the k-th inter-failure gap is
    exponential with rate equal to the k-th risk set's total relative
    hazard, and the k-th failure's identity is fixed to the observed
    order; mapping the running sums back through the (continuous working)
    baseline gives the times.  Returned times re-rank to ``failure_order``
    by construction, which is asserted on every draw.  The correct Cox
    completion draws the same levels and stops before the mapping.
    """
    rates, baseline = _relative_rates(_log_risk_rates(rank, beta), baseline.jump_times,
                                      np.log(baseline.jump_sizes))
    hazards = np.cumsum(rng.standard_exponential(rates.size) / rates)
    times = baseline.inverse(hazards)
    if np.any(np.diff(hazards) <= 0) or np.any(np.diff(times) < 0):
        raise AssertionError("rank-conditional draw does not reproduce the failure order")
    return times


def _validate_new_covariates(new_covariates, n_new: int, dim: int) -> np.ndarray:
    if n_new == 0:
        return np.zeros((0, dim))
    z = np.atleast_2d(np.asarray(new_covariates, dtype=float))
    if z.shape == (1, n_new) and dim == 1:
        z = z.T
    if z.shape != (n_new, dim):
        raise ValidationError(f"new_covariates must have shape ({n_new}, {dim})")
    return z


def _augmentation_setup(data: SurvivalDataset, n_new: int, new_covariates,
                        theta_null_beta):
    rank = extract_rank_data(data)
    beta_hat, _ = fit_partial_likelihood(rank)
    dim = data.covariate_dim
    beta_null = (np.zeros(dim) if theta_null_beta is None
                 else np.atleast_1d(np.asarray(theta_null_beta, dtype=float)))
    if beta_null.shape != beta_hat.shape:
        raise ValidationError("null beta dimension mismatch")
    times, status, z = data.arrays()
    z_new = _validate_new_covariates(new_covariates, n_new, dim)
    lod_ob = _partial_lod_times(times, status, z @ beta_hat, z @ beta_null)
    if lod_ob == 0.0:
        raise UndefinedMeasureError("observed partial-likelihood lod is zero")
    return rank, beta_hat, beta_null, times, status, z, z_new, lod_ob


def _censored_slots(rank: RankData, times: np.ndarray) -> np.ndarray:
    """For each censored subject (by time), the number of failures at or before it."""
    return np.searchsorted(times[rank.order[rank.event]], times[rank.order[~rank.event]],
                           side="right")


def _kp_levels(failures: np.ndarray, slots: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Augmented levels: failures in failure order, censored subjects, new subjects.

    A subject censored between failures k and k+1 is at risk at failure k
    and leaves just after it (Kalbfleisch and Prentice), so it sits at
    failure k's level, or at 0 before the first failure.
    """
    censored = np.concatenate([np.zeros((failures.shape[0], 1)), failures], axis=1)[:, slots]
    return np.concatenate([failures, censored, new], axis=1)


@dataclass(frozen=True, eq=False)
class _Completion:
    """How one Cox augmentation turns standard exponentials into lods.

    ``draw_levels`` maps a (draws, per_draw) block of standard exponentials
    to the (draws, subjects) matrix of augmented cumulative-hazard levels;
    subject j of every row has status ``status[j]`` and linear predictors
    ``eta_alt[j]``, ``eta_null[j]``.
    """

    per_draw: int
    draw_levels: Callable[[np.ndarray], np.ndarray]
    status: np.ndarray
    eta_alt: np.ndarray
    eta_null: np.ndarray

    def lods(self, seed: int, lo: int, hi: int) -> np.ndarray:
        """Augmented lods of draws lo..hi-1, in sub-blocks of bounded size.

        Draw i's exponentials are counter block i of the Cox stream, so its
        lod does not depend on how the draws are grouped.
        """
        rows = max(1, _BLOCK_ELEMENTS // self.status.size)
        out = np.empty(hi - lo)
        for a in range(lo, hi, rows):
            b = min(a + rows, hi)
            u = mc.stream_uniforms(seed, b - a, self.per_draw, _COX_STREAM_TAG, start=a)
            levels = self.draw_levels(-np.log1p(-u.reshape(b - a, self.per_draw)))
            out[a - lo:b - lo] = _lod_rows(levels, self.status, self.eta_alt, self.eta_null)
        return out


def _correct_completion(rank: RankData, beta_hat, beta_null, times, z, z_new) -> _Completion:
    # Columns: failures in failure order, then censored subjects by time,
    # then new subjects; each row is then nearly sorted already.
    fail_ids = rank.order[rank.event]
    cens_ids = rank.order[~rank.event]
    k = fail_ids.size
    slots = _censored_slots(rank, times)
    # Only ratios of rates matter; past this span E / rate overflows.
    log_rates = np.concatenate([_log_risk_rates(rank, beta_hat), z_new @ beta_hat])
    if log_rates.max() - log_rates.min() > _EXP_SPAN:
        raise DataIntegrityError("relative hazards span more than the range of doubles")
    rates = np.exp(log_rates - log_rates.max())

    def draw_levels(exponentials):
        # Failure gaps are exponential with each risk set's total rate.
        return _kp_levels(np.cumsum(exponentials[:, :k] / rates[:k], axis=1), slots,
                          exponentials[:, k:] / rates[k:])

    merged_z = np.vstack([z[fail_ids], z[cens_ids], z_new])
    status = np.concatenate([np.ones(k, dtype=int), np.zeros(cens_ids.size, dtype=int),
                             np.ones(z_new.shape[0], dtype=int)])
    return _Completion(k + z_new.shape[0], draw_levels, status,
                       merged_z @ beta_hat, merged_z @ beta_null)


def _naive_completion(data: SurvivalDataset, rank: RankData, beta_hat, beta_null,
                      times, status, z, z_new) -> _Completion:
    # Columns: existing subjects by time, then new subjects.
    new_rates, baseline = _relative_rates(z_new @ beta_hat,
                                          *_breslow_log_increments(data, beta_hat))
    fixed_levels = baseline.cumulative(times[rank.order])

    def draw_levels(exponentials):
        fixed = np.broadcast_to(fixed_levels, (exponentials.shape[0], fixed_levels.size))
        return np.concatenate([fixed, exponentials / new_rates], axis=1)

    merged_z = np.vstack([z[rank.order], z_new])
    merged_status = np.concatenate([status[rank.order], np.ones(z_new.shape[0], dtype=int)])
    return _Completion(z_new.shape[0], draw_levels, merged_status,
                       merged_z @ beta_hat, merged_z @ beta_null)


def _no_new_subjects(lod_ob: float, mc_config: MCConfig | None,
                     conditioning: str) -> RelInfoResult:
    """Without new subjects the augmented data are the observed data: exactly 1."""
    return RelInfoResult(
        estimate=1.0, mc_standard_error=0.0, n_draws=0,
        seed=mc_config.seed if mc_config is not None else 0,
        method=Method.CLOSED_FORM,
        diagnostics={"lod_observed": lod_ob, "conditioning": conditioning},
    )


def ri1_cox_correct(data: SurvivalDataset, n_new: int, new_covariates,
                    theta_null_beta=None, mc_config: MCConfig | None = None) -> RelInfoResult:
    """Relative information with the rank-data (partial-data) conditioning.

    Each draw places cumulative-hazard levels and needs no baseline: the
    existing failures in their observed order (the k-th gap exponential
    with the k-th risk set's total relative hazard), each censored subject
    at its preceding failure's level (Kalbfleisch and Prentice), and the
    new subjects unconditionally.  The partial-likelihood lod of the
    augmented ranks is their exact likelihood, so the exact measure is at
    most 1, and it is exactly 1 with no new subjects.  Relative hazards
    spanning more than exp(``_EXP_SPAN``) raise DataIntegrityError.
    """
    if mc_config is None:
        raise ValidationError("ri1_cox_correct requires an MCConfig")
    rank, beta_hat, beta_null, times, status, z, z_new, lod_ob = _augmentation_setup(
        data, n_new, new_covariates, theta_null_beta)
    if n_new == 0:
        return _no_new_subjects(lod_ob, mc_config, "rank data (partial data)")
    completion = _correct_completion(rank, beta_hat, beta_null, times, z, z_new)
    return ri1_monte_carlo(lod_ob, lambda lo, hi: completion.lods(mc_config.seed, lo, hi),
                           mc_config, conditioning="rank data (partial data)")


def ri1_cox_naive(data: SurvivalDataset, n_new: int, new_covariates,
                  theta_null_beta=None, mc_config: MCConfig | None = None) -> RelInfoResult:
    """Relative information with the censored-data conditioning.

    Existing subjects' observed times are held fixed, as their levels
    under the Breslow cumulative hazard, computed once; only the new
    subjects' levels are simulated.  The resulting measure may exceed 1.
    """
    rank, beta_hat, beta_null, times, status, z, z_new, lod_ob = _augmentation_setup(
        data, n_new, new_covariates, theta_null_beta)
    if n_new == 0:
        return _no_new_subjects(lod_ob, mc_config, "censored data (observed times fixed)")
    if mc_config is None:
        raise ValidationError("ri1_cox_naive requires an MCConfig when n_new > 0")
    completion = _naive_completion(data, rank, beta_hat, beta_null, times, status, z, z_new)
    return ri1_monte_carlo(lod_ob, lambda lo, hi: completion.lods(mc_config.seed, lo, hi),
                           mc_config, conditioning="censored data (observed times fixed)")


def ri1_cox_correct_enumeration(data: SurvivalDataset, n_new: int, new_covariates,
                                theta_null_beta=None) -> float:
    """Exact ``ri1_cox_correct`` for data without tied times.

    Under proportional hazards the joint failure order of the K existing
    failures and m new subjects is Plackett-Luce with weights
    exp(z . beta_hat), whatever the baseline.  Each of the (K + m)! / K!
    orders that keep the observed one gives the failures levels 1..K+m,
    censored subjects placed as ``ri1_cox_correct`` places them.  Its
    probability is proportional to exp of its partial log-likelihood at
    beta_hat, so the expected augmented lod is a finite weighted sum.
    """
    times, status, _ = data.arrays()
    if np.unique(times).size != times.size:
        raise OracleUnavailableError("the enumeration oracle needs untied times")
    n_fail = int(np.count_nonzero(status == EVENT))
    n_orders = math.perm(n_fail + n_new, n_new)
    if n_orders > PL_ENUMERATION_CAP:
        raise OracleUnavailableError(
            f"{n_orders} augmented orders exceed the enumeration cap {PL_ENUMERATION_CAP}")
    rank, beta_hat, beta_null, _, _, z, z_new, lod_ob = _augmentation_setup(
        data, n_new, new_covariates, theta_null_beta)
    completion = _correct_completion(rank, beta_hat, beta_null, times, z, z_new)

    positions = np.arange(1.0, n_fail + n_new + 1)
    failures, new = np.empty((n_orders, n_fail)), np.empty((n_orders, n_new))
    orders = itertools.product(itertools.combinations(range(n_fail + n_new), n_new),
                               itertools.permutations(range(n_new)))
    for row, (slots, new_order) in enumerate(orders):
        existing = np.ones(n_fail + n_new, dtype=bool)
        existing[list(slots)] = False
        failures[row], new[row, list(new_order)] = positions[existing], positions[~existing]
    levels = _kp_levels(failures, _censored_slots(rank, times), new)
    rows = _sort_rows(levels, completion.status)
    ll_alt = _sorted_loglik(*rows, completion.eta_alt)
    ll_null = _sorted_loglik(*rows, completion.eta_null)
    weights = np.exp(ll_alt - ll_alt.max())
    return lod_ob / float(weights @ (ll_alt - ll_null) / weights.sum())


def ri_w_wald(observed_stat: float, observed_var: float, complete_stat_mean: float,
              complete_stat_var: float, theta_null: float,
              *, complete_model_var: float | None = None) -> float:
    """Wald-style relative information under associated normal models.

    Each test statistic is treated as the MLE of a normal mean with known
    variance, so the likelihood-ratio and Wald tests coincide and the
    normal lod is (stat - null)^2 / (2 * variance).  The denominator is
    the expected complete-data normal lod, decomposed as

        E[(stat_co - null)^2] = complete_stat_var + (complete_stat_mean - null)^2,

    where ``complete_stat_var`` is the conditional variance of the
    complete-data statistic given the observed data and
    ``complete_model_var`` is the normal-model variance of the
    complete-data test (defaults to ``observed_var``).  When the
    complete-data test's model variance exceeds the observed one, the
    measure can exceed 1 (the non-self-efficient case).
    """
    if observed_var <= 0:
        raise DomainError("observed_var must be positive")
    if complete_stat_var < 0:
        raise DomainError("complete_stat_var must be nonnegative")
    v_co = observed_var if complete_model_var is None else complete_model_var
    if v_co <= 0:
        raise DomainError("complete_model_var must be positive")
    numerator = (observed_stat - theta_null) ** 2 / (2.0 * observed_var)
    if numerator == 0.0:
        return 0.0
    denominator = (complete_stat_var + (complete_stat_mean - theta_null) ** 2) / (2.0 * v_co)
    if denominator <= 0.0:
        raise UndefinedMeasureError("expected complete-data lod is zero")
    return numerator / denominator


def simulate_ph_binary(n: int, beta_true: float, rng: np.random.Generator,
                       censoring_rate: float = 0.0):
    """Simulate a PH sample with one binary covariate and unit baseline hazard.

    Returns (censored dataset, uncensored variant): the variant keeps every
    subject's true failure time with no censoring applied.
    """
    z = rng.integers(0, 2, size=n).astype(float)
    t_fail = rng.exponential(size=n) / np.exp(beta_true * z)
    if censoring_rate > 0:
        c = rng.exponential(scale=1.0 / censoring_rate, size=n)
        times = np.minimum(t_fail, c)
        status = (t_fail <= c).astype(int)
    else:
        times = t_fail
        status = np.ones(n, dtype=int)
    censored = SurvivalDataset.from_arrays(times, status, z[:, None])
    uncensored = SurvivalDataset.from_arrays(t_fail, np.ones(n, dtype=int), z[:, None])
    return censored, uncensored


@dataclass(frozen=True)
class ConditioningStudy:
    """Paired naive/correct results over simulated datasets."""

    naive_estimates: np.ndarray
    naive_ses: np.ndarray
    correct_estimates: np.ndarray
    correct_ses: np.ndarray
    failures: int
    seed: int
    params: dict = field(default_factory=dict)

    @property
    def fraction_naive_above_one(self) -> float:
        ok = np.isfinite(self.naive_estimates)
        return float(np.mean(self.naive_estimates[ok] > 1.0))

    @property
    def max_correct_excess_se(self) -> float:
        """Max of (estimate - 1) / SE over correct-conditioning runs."""
        ok = np.isfinite(self.correct_estimates) & (self.correct_ses > 0)
        if not np.any(ok):
            return -math.inf
        excess = (self.correct_estimates[ok] - 1.0) / self.correct_ses[ok]
        return float(np.max(excess))


def conditioning_anomaly_study(n_datasets: int = 100, n_subjects: int = 20,
                               n_new: int = 5, beta_true: float = 0.5,
                               censoring_rate: float = 0.25, n_draws: int = 2000,
                               seed: int = mc.DEFAULT_SEED) -> ConditioningStudy:
    """Reproduce the conditioning anomaly over simulated censored datasets.

    For each simulated dataset, the naive conditioning runs on the censored
    data and the correct conditioning runs on the uncensored variant of the
    same failure times.  Datasets where the fit degenerates (separation,
    too few events) are resimulated from the next substream.
    """
    child = np.random.SeedSequence(seed).generate_state(4 * n_datasets, np.uint64)
    child = child.reshape(n_datasets, 4)
    naive_est = np.full(n_datasets, np.nan)
    naive_se = np.full(n_datasets, np.nan)
    correct_est = np.full(n_datasets, np.nan)
    correct_se = np.full(n_datasets, np.nan)
    failures = 0

    for d in range(n_datasets):
        data_seed, cov_seed, naive_seed, correct_seed = (int(s) for s in child[d])
        for attempt in range(20):
            rng = mc.substream(data_seed, attempt)
            censored, uncensored = simulate_ph_binary(
                n_subjects, beta_true, rng, censoring_rate)
            if int(sum(r.status for r in censored.records)) < 2:
                continue
            z_new = mc.substream(cov_seed, attempt).integers(0, 2, size=n_new)
            z_new = z_new.astype(float)[:, None]
            try:
                naive = ri1_cox_naive(
                    censored, n_new, z_new,
                    mc_config=MCConfig(n_draws=n_draws, seed=naive_seed))
                correct = ri1_cox_correct(
                    uncensored, n_new, z_new,
                    mc_config=MCConfig(n_draws=n_draws, seed=correct_seed))
            except (SeparationError, RankDeficiencyError, UndefinedMeasureError,
                    InstabilityError, EstimationFailureError, DegenerateDataError):
                continue
            naive_est[d], naive_se[d] = naive.estimate, naive.mc_standard_error
            correct_est[d], correct_se[d] = correct.estimate, correct.mc_standard_error
            break
        else:
            failures += 1

    return ConditioningStudy(
        naive_estimates=naive_est, naive_ses=naive_se,
        correct_estimates=correct_est, correct_ses=correct_se,
        failures=failures, seed=seed,
        params={
            "n_datasets": n_datasets, "n_subjects": n_subjects, "n_new": n_new,
            "beta_true": beta_true, "censoring_rate": censoring_rate,
            "n_draws": n_draws,
        },
    )
