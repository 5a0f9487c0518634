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

# Cap on the elements of one sub-block of the Cox completion kernel, counted
# as draws x (existing events + exponentials per draw); it bounds the
# kernel's memory whatever the sample size.
_BLOCK_ELEMENTS = 2**15

# Stream tag of the Cox completion draws (see mc.stream_uniforms).
_COX_STREAM_TAG = 1

#: Most augmented orders the exact correct-conditioning oracle will sum.
PL_ENUMERATION_CAP = 20_000


@dataclass(frozen=True, eq=False)
class SurvivalDataset:
    """The observed (censored) sample, one entry per subject.

    ``times`` are finite and positive, ``status`` is 1 for an event and 0
    for a censored subject, and ``covariates`` holds one finite row per
    subject.  Each field is a read-only copy of its input, validated here,
    once, whichever way the dataset is built.
    """

    times: np.ndarray
    status: np.ndarray
    covariates: np.ndarray  # (n_subjects, covariate_dim)

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        status = np.array(self.status)
        z = np.array(self.covariates, dtype=float, order="C")
        if not (times.ndim == 1 and status.shape == times.shape
                and z.ndim == 2 and z.shape[0] == times.size):
            raise ValidationError("times, status and covariate rows must all have length n")
        if not np.all(np.isfinite(times)):
            raise ValidationError("times must be finite")
        if not np.all(times > 0):
            raise ValidationError("time must be finite and positive")
        if not np.all(np.isin(status, (EVENT, CENSORED))):
            raise ValidationError("status must be 0 (censored) or 1 (event)")
        if not np.all(np.isfinite(z)):
            raise ValidationError("covariates must be finite")
        for name, value in (("times", times), ("status", status.astype(int)), ("covariates", z)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def from_arrays(cls, times, status, covariates) -> "SurvivalDataset":
        """A dataset from array-likes; 1-D or (dim, n) covariates become (n, dim)."""
        z = np.atleast_2d(np.asarray(covariates, dtype=float))
        if z.shape[0] != np.size(times):
            z = z.T
        return cls(times, status, z)

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def covariate_dim(self) -> int:
        return self.covariates.shape[1]

    def arrays(self):
        return self.times, self.status, self.covariates


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
    if not np.any(data.status == EVENT):
        raise DegenerateDataError("at least one event is required")
    order = np.argsort(data.times, kind="stable")
    return RankData(order=order, tie_start=_tie_starts(data.times[order]),
                    event=data.status[order] == EVENT, covariates=data.covariates)


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


def _breslow_log_increments(rank: RankData, times: np.ndarray,
                            beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct event times and the log Breslow increments at them.

    The increment at t is d_t / sum_{at risk} exp(beta.z); its log,
    log d_t minus the log risk-set sum, is finite for any linear predictor.
    """
    # One increment per distinct event time: tied events share a tie start.
    first, deaths = np.unique(rank.tie_start[rank.event], return_counts=True)
    log_risk, _ = _risk_sums((rank.covariates @ beta)[rank.order])
    return times[rank.order[first]], np.log(deaths) - log_risk[first]


def breslow_baseline(data: SurvivalDataset, beta) -> BaselineHazard:
    """Breslow cumulative-hazard increments d_t / sum_{at risk} exp(beta.z)."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if not np.all(np.isfinite(beta)):
        raise DomainError("beta must be finite")
    if not np.any(data.status == EVENT):
        return BaselineHazard(jump_times=np.zeros(0), jump_sizes=np.zeros(0))
    jump_times, log_sizes = _breslow_log_increments(extract_rank_data(data), data.times, beta)
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
    with np.errstate(over="ignore"):
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
    z_new = _validate_new_covariates(new_covariates, n_new, dim)
    lod_ob = partial_lod(rank, beta_hat, beta_null)
    if lod_ob == 0.0:
        raise UndefinedMeasureError("observed partial-likelihood lod is zero")
    return rank, beta_hat, beta_null, z_new, lod_ob


def _kp_columns(data: SurvivalDataset, rank: RankData, z_new: np.ndarray):
    """Correct mode's columns: the existing subjects in order, then the new ones.

    Failure k (in failure order) sits at anchor k + 1, and each censored
    subject directly after the last failure at or before its time, at that
    failure's anchor (0 before the first failure).  Returns every column's
    status and covariates, and the existing subjects' anchors.
    """
    fail_ids, cens_ids = rank.order[rank.event], rank.order[~rank.event]
    slots = np.searchsorted(data.times[fail_ids], data.times[cens_ids], side="right")
    # Merged by anchor, failures first: censored subject c follows c
    # censored subjects and slots[c] failures, and every subject's anchor
    # is the number of failures up to and including it.
    event = np.ones(data.n, dtype=bool)
    event[slots + np.arange(slots.size)] = False
    ids = np.empty_like(rank.order)
    ids[event], ids[~event] = fail_ids, cens_ids
    status = np.concatenate([event, np.ones(z_new.shape[0], dtype=bool)]).astype(int)
    return status, np.vstack([data.covariates[ids], z_new]), np.cumsum(event)


def _kp_levels(failures: np.ndarray, anchor_of: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Explicit augmented levels of a correct completion, in its column order.

    Existing subject i sits at anchor ``anchor_of[i]``: 0, or the level of
    failure j - 1 for anchor j.  A subject censored between failures k and
    k+1 is at risk at failure k and leaves just after it (Kalbfleisch and
    Prentice), so it shares failure k's level, or 0 before the first
    failure.  The new subjects' levels follow.
    """
    anchors = np.concatenate([np.zeros((failures.shape[0], 1)), failures], axis=1)
    return np.concatenate([anchors[:, anchor_of], new], axis=1)


def _place(anchors: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """How many anchors lie below each x, and how many at or below it.

    ``x`` is a (rows, m) array.  ``anchors`` is one sorted vector shared by
    every row, searched with ``np.searchsorted``, or one sorted row per row
    of ``x``, bisected all at once in log2(width) steps on a (rows, m)
    array.  Either is padded with +inf, rows to a power-of-two width.
    """
    if anchors.ndim == 1:
        def count(before):
            return np.searchsorted(anchors, x, "left" if before is np.less else "right")
        row_start = 0
    else:
        flat = anchors.ravel()
        row_start = np.arange(0, flat.size, anchors.shape[1])[:, None]

        def count(before):
            # Flat index of the last anchor known to lie before x (-1: none).
            last = np.repeat(row_start - 1, x.shape[1], axis=1)
            step = anchors.shape[1] // 2
            while step:
                last += step * before(flat[last + step], x)
                step //= 2
            return last + 1 - row_start

    below = count(np.less)
    # A new level equal to an anchor is rare; only then search again.
    if np.any(anchors.ravel()[below + row_start] == x):
        return below, count(np.less_equal)
    return below, below


@dataclass(frozen=True, eq=False)
class _Completion:
    """How one Cox augmentation turns standard exponentials into lods.

    Under proportional hazards only the new subjects' places among the
    existing ones are random.  The existing subjects keep one sorted order
    in every draw, each at one of J anchor levels: the fixed Breslow levels
    (naive mode, J = n), or 0 and the running failure levels (correct mode,
    J = K + 1 for K failures).  ``status``, ``eta_alt`` and ``eta_null``
    list the existing subjects in that order, then the new subjects;
    ``anchor_of`` gives each existing subject's anchor, non-decreasing.
    Naive mode passes ``fixed_levels``, correct mode the rates of the K
    failure gaps.  A draw's exponentials are the K gaps times their rates,
    then the new subjects' levels times ``new_rates``.

    What depends only on the existing subjects is computed once here, per
    parameter: their log risk sums, the events' tie starts and the partial
    log-likelihood without new subjects.  So that the linear scale of
    ``_insert`` stays exact, it refuses a new subject whose relative hazard
    exceeds another new subject's, or an existing event's risk sum, by
    more than exp(``_EXP_SPAN``).
    """

    status: np.ndarray
    eta_alt: np.ndarray
    eta_null: np.ndarray
    anchor_of: np.ndarray
    new_rates: np.ndarray
    gap_rates: np.ndarray = field(default_factory=lambda: np.zeros(0))
    fixed_levels: np.ndarray | None = None

    def __post_init__(self):
        n = self.anchor_of.size
        n_anchors = n if self.fixed_levels is not None else self.gap_rates.size + 1
        eta = np.stack([self.eta_alt, self.eta_null])
        event = self.status[:n] == EVENT
        event_anchor = self.anchor_of[event]
        # first_at[j]: position of the first existing subject at anchor j or
        # later; events_before[j]: the number of events at anchors below j.
        first_at = np.searchsorted(self.anchor_of, np.arange(n_anchors + 1))
        log_risk = np.concatenate([_risk_sums(eta[:, :n])[0], np.full((2, 1), -np.inf)], axis=1)
        tie_start = (np.arange(n_anchors) if self.fixed_levels is None
                     else _tie_starts(self.fixed_levels))
        event_log_risk = log_risk[:, first_at[tie_start[event_anchor]]]
        new_eta = eta[:, n:]
        shift = new_eta.max(axis=1, keepdims=True)
        if (np.any(shift - new_eta.min(axis=1, keepdims=True) > _EXP_SPAN)
                or np.any(shift - event_log_risk.min(axis=1, keepdims=True) > _EXP_SPAN)):
            raise DataIntegrityError("relative hazards span more than the range of doubles")
        # Existing risk sums in units of exp(shift), capped at exp(_EXP_SPAN),
        # where the new weights (at most m) vanish beside them; the log of
        # what the cap removes is kept apart, with the shift.
        capped = np.minimum(log_risk - shift, _EXP_SPAN)
        with np.errstate(invalid="ignore"):  # -inf - -inf past the last subject
            removed = np.where(capped < _EXP_SPAN, 0.0, log_risk - shift - capped)
        for name, value in {
            "_anchors": (None if self.fixed_levels is None
                         else np.append(self.fixed_levels, np.inf)),
            "_first_at": first_at,
            "_events_before": np.searchsorted(event_anchor, np.arange(n_anchors + 1)),
            "_event_anchor": event_anchor,
            "_log_risk": log_risk,
            "_event_log_risk": event_log_risk,
            "_shift": shift[:, :, None],
            "_new_weight": np.exp(new_eta - shift),
            "_event_factor": np.exp(shift - event_log_risk)[:, None, :],
            "_risk_capped": np.exp(capped),
            "_risk_removed": removed + shift,
            # Partial log-likelihood of the existing subjects alone, plus the
            # new subjects' own eta.
            "_base": (eta[:, :n][:, event].sum(axis=1) - event_log_risk.sum(axis=1)
                      + new_eta.sum(axis=1))[:, None],
        }.items():
            object.__setattr__(self, name, value)

    @property
    def per_draw(self) -> int:
        return self.gap_rates.size + self.new_rates.size

    def lods(self, seed: int, lo: int, hi: int) -> np.ndarray:
        """Augmented lods of draws lo..hi-1, in sub-blocks of bounded size.

        Draw i's exponentials are counter block i of the Cox stream, so its
        lod does not depend on how the draws are grouped.
        """
        rows = max(1, _BLOCK_ELEMENTS // (self._event_anchor.size + self.per_draw))
        out = np.empty(hi - lo)
        for a in range(lo, hi, rows):
            b = min(a + rows, hi)
            u = mc.stream_uniforms(seed, b - a, self.per_draw, _COX_STREAM_TAG, start=a)
            # -log1p(-u), in place: fresh large temporaries cost more here.
            np.negative(np.log1p(np.negative(u, out=u), out=u), out=u)
            out[a - lo:b - lo] = self._insert(u.reshape(b - a, self.per_draw))
        return out

    def _insert(self, exponentials: np.ndarray) -> np.ndarray:
        """Lods of a (draws, per_draw) block of standard exponentials.

        Equal to ``_lod_rows`` on the explicit augmented levels, Breslow
        ties included: an event's risk set is every subject at its level or
        above.  Only the m new levels x are placed.  Existing event e's risk
        sum S_e gains c_e, the new weight alive at its level, so its term
        changes by -log1p(c_e / S_e).  A new subject's risk set is the
        existing and the new subjects at its level or above.
        """
        rows, k = exponentials.shape[0], self.gap_rates.size
        m = self.new_rates.size
        anchors = self._anchors
        if anchors is None:
            anchors = np.empty((rows, 1 << (k + 1).bit_length()))
            anchors[:, 0], anchors[:, k + 1:] = 0.0, np.inf
            failures = np.divide(exponentials[:, :k], self.gap_rates, out=anchors[:, 1:k + 1])
            np.cumsum(failures, axis=1, out=failures)
        x = exponentials[:, k:] / self.new_rates
        by_level = np.argsort(x, axis=1)
        x = x.ravel()[by_level + np.arange(0, x.size, m)[:, None]]
        below, at_most = _place(anchors, x)

        factor, base = self._event_factor, self._base
        if anchors.ndim == 2 and np.any(anchors[:, 1:k + 1] == anchors[:, :k]):
            # Failures tied by a zero gap share the earlier one's risk set.
            row_start = np.arange(0, rows * (k + 1), k + 1)[:, None]
            tie_start = _tie_starts(anchors[:, :k + 1]) - row_start
            event_log_risk = self._log_risk[:, self._first_at[tie_start[:, self._event_anchor]]]
            factor = np.exp(self._shift - event_log_risk)
            base = self._base + (self._event_log_risk[:, None, :] - event_log_risk).sum(axis=2)

        # pieces[..., i]: the new weight at sorted new subject i's level or
        # above.  It is alive at the events between those that new subjects
        # i - 1 and i outlive; past the last new subject none is alive.
        pieces = np.zeros((2, rows, m + 1))
        np.cumsum(np.take(self._new_weight, by_level[:, ::-1], axis=1), axis=2,
                  out=pieces[:, :, 1:])
        pieces = pieces[:, :, ::-1]
        bounds = np.empty((rows, m + 2), dtype=np.intp)
        bounds[:, 0], bounds[:, -1] = 0, self._event_anchor.size
        bounds[:, 1:-1] = self._events_before[at_most]
        alive = np.repeat(pieces.reshape(2, -1), np.diff(bounds).ravel(), axis=1)
        alive = alive.reshape(2, rows, -1)
        event_terms = np.log1p(np.multiply(alive, factor, out=alive), out=alive).sum(axis=2)

        own = pieces[:, :, :m]
        if np.any(x[:, 1:] == x[:, :-1]):
            # New subjects tied in level share the first one's new weight.
            first = _tie_starts(x)
            own = np.take(pieces.reshape(2, -1), first + first // m, axis=1)
        at_or_above = self._first_at[below]
        new_terms = (np.take(self._risk_removed, at_or_above, axis=1)
                     + np.log(np.take(self._risk_capped, at_or_above, axis=1) + own)).sum(axis=2)
        ll = base - event_terms - new_terms
        return ll[0] - ll[1]


def _correct_completion(data: SurvivalDataset, rank: RankData, beta_hat, beta_null,
                        z_new) -> _Completion:
    k = int(np.count_nonzero(rank.event))
    # Only ratios of rates matter; past this span E / rate overflows.
    log_rates = np.concatenate([_log_risk_rates(rank, beta_hat), z_new @ beta_hat])
    if log_rates.max() - log_rates.min() > _EXP_SPAN:
        raise DataIntegrityError("relative hazards span more than the range of doubles")
    rates = np.exp(log_rates - log_rates.max())
    status, merged_z, anchor_of = _kp_columns(data, rank, z_new)
    return _Completion(status, merged_z @ beta_hat, merged_z @ beta_null, anchor_of, rates[k:],
                       gap_rates=rates[:k])


def _naive_completion(data: SurvivalDataset, rank: RankData, beta_hat, beta_null,
                      z_new) -> _Completion:
    # Existing subjects by time, each at its own fixed level.
    new_rates, baseline = _relative_rates(
        z_new @ beta_hat, *_breslow_log_increments(rank, data.times, beta_hat))
    merged_z = np.vstack([data.covariates[rank.order], z_new])
    merged_status = np.concatenate([data.status[rank.order], np.ones(z_new.shape[0], dtype=int)])
    return _Completion(merged_status, merged_z @ beta_hat, merged_z @ beta_null,
                       np.arange(data.n), new_rates,
                       fixed_levels=baseline.cumulative(data.times[rank.order]))


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
    rank, beta_hat, beta_null, z_new, lod_ob = _augmentation_setup(
        data, n_new, new_covariates, theta_null_beta)
    if n_new == 0:
        return _no_new_subjects(lod_ob, mc_config, "rank data (partial data)")
    completion = _correct_completion(data, rank, beta_hat, beta_null, z_new)
    return ri1_monte_carlo(lod_ob, lambda lo, hi: completion.lods(mc_config.seed, lo, hi),
                           mc_config, conditioning="rank data (partial data)")


def ri1_cox_naive(data: SurvivalDataset, n_new: int, new_covariates,
                  theta_null_beta=None, mc_config: MCConfig | None = None) -> RelInfoResult:
    """Relative information with the censored-data conditioning.

    Existing subjects' observed times are held fixed, as their levels
    under the Breslow cumulative hazard, computed once; only the new
    subjects' levels are simulated.  The resulting measure may exceed 1.
    """
    rank, beta_hat, beta_null, z_new, lod_ob = _augmentation_setup(
        data, n_new, new_covariates, theta_null_beta)
    if n_new == 0:
        return _no_new_subjects(lod_ob, mc_config, "censored data (observed times fixed)")
    if mc_config is None:
        raise ValidationError("ri1_cox_naive requires an MCConfig when n_new > 0")
    completion = _naive_completion(data, rank, beta_hat, beta_null, z_new)
    return ri1_monte_carlo(lod_ob, lambda lo, hi: completion.lods(mc_config.seed, lo, hi),
                           mc_config, conditioning="censored data (observed times fixed)")


def ri1_cox_correct_enumeration(data: SurvivalDataset, n_new: int, new_covariates,
                                theta_null_beta=None) -> float:
    """Exact ``ri1_cox_correct`` for data without tied event times.

    Under proportional hazards the joint failure order of the K existing
    failures and m new subjects is Plackett-Luce with weights
    exp(z . beta_hat), whatever the baseline.  Each of the (K + m)! / K!
    orders that keep the observed one gives the failures levels 1..K+m,
    censored subjects placed as ``ri1_cox_correct`` places them (one
    censored at an event time is at risk at that failure).  Its
    probability is proportional to exp of its partial log-likelihood at
    beta_hat, so the expected augmented lod is a finite weighted sum.
    """
    event_times = data.times[data.status == EVENT]
    if np.unique(event_times).size != event_times.size:
        raise OracleUnavailableError("the enumeration oracle needs untied event times")
    n_fail = event_times.size
    n_orders = math.perm(n_fail + n_new, n_new)
    if n_orders > PL_ENUMERATION_CAP:
        raise OracleUnavailableError(
            f"{n_orders} augmented orders exceed the enumeration cap {PL_ENUMERATION_CAP}")
    rank, beta_hat, beta_null, z_new, lod_ob = _augmentation_setup(
        data, n_new, new_covariates, theta_null_beta)
    status, merged_z, anchor_of = _kp_columns(data, rank, z_new)

    positions = np.arange(1.0, n_fail + n_new + 1)
    failures, new = np.empty((n_orders, n_fail)), np.empty((n_orders, n_new))
    orders = itertools.product(itertools.combinations(range(n_fail + n_new), n_new),
                               itertools.permutations(range(n_new)))
    for row, (slots, new_order) in enumerate(orders):
        existing = np.ones(n_fail + n_new, dtype=bool)
        existing[list(slots)] = False
        failures[row], new[row, list(new_order)] = positions[existing], positions[~existing]
    rows = _sort_rows(_kp_levels(failures, anchor_of, new), status)
    ll_alt = _sorted_loglik(*rows, merged_z @ beta_hat)
    ll_null = _sorted_loglik(*rows, merged_z @ beta_null)
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
        """Max of (estimate - 1) / SE over correct-conditioning runs.

        A run with SE 0 counts as +inf above 1 and as -inf at or below 1.
        """
        ok = np.isfinite(self.correct_estimates) & np.isfinite(self.correct_ses)
        estimate, se = self.correct_estimates[ok], self.correct_ses[ok]
        with np.errstate(divide="ignore", invalid="ignore"):
            excess = np.where(se > 0, (estimate - 1.0) / se,
                              np.where(estimate > 1.0, math.inf, -math.inf))
        return float(np.max(excess, initial=-math.inf))


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
    if n_datasets < 1:
        raise ValidationError("n_datasets must be >= 1")
    MCConfig(n_draws=n_draws, seed=seed)  # refuses n_draws < 2 and a non-uint64 seed
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
            if censored.status.sum() < 2:
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
