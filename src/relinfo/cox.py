"""Cox proportional-hazards machinery and the conditioning contrast.

Three nested views of a survival sample are distinguished: the full
uncensored data, the observed censored data, and the partial (rank) data
actually consumed by Cox's partial likelihood.  Relative information for
an augmented study can condition either on the rank data (the correct
conditioning, which keeps the measure at or below 1) or on the censored
data with observed times held fixed (the naive conditioning, which can
push the measure above 1).  A draw is where the new subjects fall among
the existing ones, drawn by one walk for both: the new subjects fail one
at a time, and between two of them the naive conditioning raises their
cumulative-hazard level past the fixed ones, while the correct one passes
existing failures on the Plackett-Luce lattice.  The correct one needs no
baseline: under Kalbfleisch and Prentice's censoring convention the
partial likelihood is the exact likelihood of the ranks, which are all it
draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import mc
from .core import Method, RelInfoResult, ri1_monte_carlo
from .errors import (
    DataIntegrityError,
    DegenerateDataError,
    DomainError,
    EstimationFailureError,
    InstabilityError,
    RankDeficiencyError,
    SeparationError,
    UndefinedMeasureError,
    ValidationError,
)
from .mc import MCConfig

EVENT = 1
CENSORED = 0

_DOUBLE_MAX = float(np.finfo(float).max)
_NEWTON_MAX_ITER = 50
_NEWTON_STOP = 4.0 * float(np.finfo(float).eps)  # relative to the log-likelihood

# Relative hazards are exponentiated after shifting eta by its maximum.
# While eta spans at most this much, every shifted weight is a normal
# double (exp(-600) ~ 1e-261) and risk-set sums keep full precision; risk
# sets further below are summed again from their own maximum (_risk_sums).
_EXP_SPAN = 600.0

# Cap on the elements of one sub-block of the Cox completion kernel, counted
# as draws x uniforms per draw, and of the state rows it holds at once (see
# _Completion); it bounds the kernel's memory whatever the sample size and
# the number of new subjects.
_BLOCK_ELEMENTS = 2**17

# Stream tag of the Cox completion draws (see mc.stream_uniforms).
_COX_STREAM_TAG = 1


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
        """A dataset from array-likes; 1-D covariates become one column, 2-D ones are (n, dim)."""
        z = np.asarray(covariates, dtype=float)
        return cls(times, status, z[:, None] if z.ndim == 1 else z)

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


@dataclass(frozen=True, eq=False)
class BaselineHazard:
    """Cumulative-hazard step increments, with a continuous working version.

    The working cumulative hazard interpolates the step function linearly
    between jump times (starting from 0) and extends past the last jump at
    a constant rate equal to the last increment divided by the last gap.
    That continuous, strictly increasing version gives the naive
    completion its levels, and ``inverse`` maps levels back to times.  Its
    knots are computed once, at construction.
    """

    jump_times: np.ndarray
    jump_sizes: np.ndarray

    def __post_init__(self):
        t = np.array(self.jump_times, dtype=float)
        s = np.array(self.jump_sizes, dtype=float)
        if t.size != s.size:
            raise ValidationError("jump_times and jump_sizes must align")
        if t.size and (np.any(np.diff(t) <= 0) or t[0] <= 0):
            raise ValidationError("jump_times must be increasing and positive")
        if np.any(s <= 0):
            raise ValidationError("jump_sizes must be positive")
        for name, value in (("jump_times", t), ("jump_sizes", s)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
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
    """Position of the first entry of each entry's tie group in a sorted array."""
    pos = np.arange(sorted_times.size)
    pos[1:][sorted_times[1:] == sorted_times[:-1]] = 0
    return np.maximum.accumulate(pos)


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


def partial_log_likelihood(rank: RankData, beta) -> float:
    """Breslow-form partial log-likelihood at beta."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    eta = (rank.covariates @ beta)[rank.order]
    log_risk, _ = _risk_sums(eta)
    return float(np.where(rank.event, eta - log_risk[rank.tie_start], 0.0).sum())


def partial_lod(rank: RankData, beta_alt, beta_null) -> float:
    return partial_log_likelihood(rank, beta_alt) - partial_log_likelihood(rank, beta_null)


def _newton_terms_at(rank: RankData):
    """Log-likelihood, score and information at beta, from one pass of risk-set sums.

    The arrays free of beta are built once.  Centering the covariates leaves
    all three unchanged and keeps the second-moment difference well
    conditioned.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        z = (rank.covariates - rank.covariates.mean(axis=0))[rank.order]
    # The score's squared norm, at most d (2 n max|z|)^2, bounds every sum
    # of squares and products below: it must be a double.
    n, d = z.shape
    largest = float(np.abs(z).max(initial=0.0))
    if not 2.0 * n * largest <= math.sqrt(_DOUBLE_MAX / max(d, 1)):
        raise ValidationError(f"covariates too large for the Cox fit: centred values up to "
                              f"{largest:.3g} overflow a double when squared and summed "
                              f"over {n} subjects")
    zz = (z[:, :, None] * z[:, None, :]).transpose(1, 2, 0)
    event_z, start = z[rank.event].T, rank.tie_start[rank.event]

    def at(beta: np.ndarray):
        eta = z @ beta
        log_risk, (mean, second) = _risk_sums(eta, z.T, zz)
        m = mean[:, start]
        ll = float((eta[rank.event] - log_risk[start]).sum())
        return ll, (event_z - m).sum(axis=-1), second[:, :, start].sum(axis=-1) - m @ m.T

    return at


def _refuse_monotone(rank: RankData) -> None:
    """Raise SeparationError if a one-covariate partial likelihood is monotone.

    It increases in beta (or decreases) iff every event's covariate is the
    maximum (minimum) of its risk set; it is then strictly monotone unless
    no risk set has contrast, which is left to the rank-deficiency check.
    """
    z = rank.covariates[rank.order, 0]
    top = np.maximum.accumulate(z[::-1])[::-1]
    bottom = np.minimum.accumulate(z[::-1])[::-1]
    # Tied events share their tie group's risk set.
    risk = rank.tie_start[rank.event]
    z, top, bottom = z[rank.event], top[risk], bottom[risk]
    if np.any(top > bottom) and (np.all(z == top) or np.all(z == bottom)):
        raise SeparationError("monotone partial likelihood: every event's covariate is "
                              "the extreme of its risk set")


def fit_partial_likelihood(rank: RankData) -> tuple[np.ndarray, np.ndarray]:
    """Damped-Newton maximizer of the partial likelihood, with SEs.

    Newton stops when the gain it predicts, half the Newton decrement
    s' I^-1 s, is within rounding of the log-likelihood l: at most
    4 eps max(|l|, 1).  It then takes that last full step.  Rescaling the
    covariates leaves the decrement, and so the stop, unchanged.  Until
    then, step halving enforces a likelihood increase at every iteration.
    A monotone likelihood is reported as separation, exactly and before
    Newton, for one covariate; with several covariates it is not detected
    yet, and Newton returns a large but finite estimate.  A singular
    information matrix is reported as rank deficiency.
    Covariates whose centred squares, summed over the subjects, would
    overflow a double are refused before Newton (ValidationError).
    """
    d = rank.covariates.shape[1]
    if d == 1:
        _refuse_monotone(rank)
    terms_at = _newton_terms_at(rank)
    beta = np.zeros(d)
    ll, score, info = terms_at(beta)
    for _ in range(_NEWTON_MAX_ITER):
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(
                "singular partial-likelihood information (no covariate contrast)") from exc
        if score @ step / 2.0 <= _NEWTON_STOP * max(abs(ll), 1.0):
            break
        for _ in range(40):
            terms = terms_at(beta + step)
            if terms[0] > ll:
                break
            step = step / 2.0
        else:
            raise EstimationFailureError("Newton step failed to increase the partial likelihood")
        beta, (ll, score, info) = beta + step, terms
    else:
        raise EstimationFailureError("partial-likelihood Newton did not converge")
    beta = beta + step
    # Without covariate contrast in any risk set the information is zero up
    # to rounding: singular, or with a negative "variance".
    try:
        variance = np.diag(np.linalg.inv(terms_at(beta)[2]))
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("singular information at the optimum") from exc
    if not np.all(variance > 0):
        raise RankDeficiencyError("information at the optimum is not positive definite "
                                  "(no covariate contrast)")
    return beta, np.sqrt(variance)


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
    return _relative_baseline(0.0, *_breslow_log_increments(extract_rank_data(data),
                                                            data.times, beta))


def _relative_baseline(shift: float, jump_times: np.ndarray,
                       log_sizes: np.ndarray) -> BaselineHazard:
    """The Breslow baseline scaled up by exp(shift): naive mode's largest new predictor, or 0.

    Levels E / rate against baseline.cumulative(t) are unchanged when every
    rate is scaled down and the baseline up by one factor.  It is applied
    to ``log_sizes`` before exponentiating, which keeps the increments
    finite and positive for large predictors, or refuses them.
    """
    with np.errstate(over="ignore"):
        sizes = np.exp(log_sizes + shift)
    if not np.all(np.isfinite(sizes) & (sizes > 0)):
        raise DataIntegrityError("relative hazards span more than the range of doubles")
    return BaselineHazard(jump_times, sizes)


def _validate_new_covariates(new_covariates, n_new: int, dim: int) -> np.ndarray:
    if n_new < 0:
        raise ValidationError("n_new must be >= 0")
    if n_new == 0:
        return np.zeros((0, dim))
    z = np.atleast_2d(np.asarray(new_covariates, dtype=float))
    if z.shape == (1, n_new) and dim == 1:
        z = z.T
    if z.shape != (n_new, dim):
        raise ValidationError(f"new_covariates must have shape ({n_new}, {dim})")
    if not np.all(np.isfinite(z)):
        raise ValidationError("new_covariates must be finite")
    return z


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


def _kp_lod(columns, beta_hat, beta_null) -> float:
    """The observed lod as correct mode's draws score the existing subjects.

    The rank data of the existing subjects' ``_kp_columns``, already in
    order, each subject its own tie group: tied failures one after another,
    each with its own risk set, and each censored subject at risk through
    its preceding failure.  With this numerator the measure's two lods
    share one convention, under which E[lod_co] - lod_ob is a
    Kullback-Leibler divergence.
    """
    status, z, anchor_of = columns
    every = np.arange(anchor_of.size)
    return partial_lod(RankData(every, every, status[every] == EVENT, z[every]),
                       beta_hat, beta_null)


def _count_at_most(table: np.ndarray, start: np.ndarray | int, width: int,
                   target: np.ndarray) -> np.ndarray:
    """How many entries of ``table[start[i]:start[i] + width]`` lie at or below ``target[i]``.

    Correct mode's search in the state's prefix table.  ``table`` is flat,
    and each of its rows of ``width`` entries is sorted and ends in at
    least one +inf.  The width is a power of two, so one bisection serves
    every draw at once, whatever its row.
    """
    count = start  # start plus the entries found so far
    step = width // 2
    while step:
        # Entry count + step - 1, read through a view that starts there.
        count = count + step * (np.take(table[step - 1:], count) <= target)
        step //= 2
    return count - start


def _bucket(level: np.ndarray, scale: float, n_buckets: int) -> np.ndarray:
    """Naive mode's guide bucket of each level: trunc(clip(level * scale, 0, n_buckets)).

    Nondecreasing in the level, as an IEEE product by a constant >= 0 and
    truncation are, so a level in a lower bucket lies strictly below.
    """
    # An overflow is clipped to the top bucket; inf * 0 (NaN) falls to 0.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.minimum(np.fmax(level * scale, 0), n_buckets).astype(np.intp)


class _Rows(NamedTuple):
    """What ``_lods`` reads of each alive state S."""

    prefix: np.ndarray  # (2, states, width): L_S per parameter, padded with +inf
    own: np.ndarray  # (2, states): W_S per parameter


def _state_rows(states: np.ndarray, group_weight: np.ndarray,
                event_factor: np.ndarray) -> _Rows:
    """The ``_Rows`` of the alive states ``states``, one per row of alive counts per group.

    Both parameters' prefix tables L_S(e) = sum_{e' < e} log1p(W_S f_e'),
    e = 0..K, padded with +inf to a power-of-two width that leaves at least
    one +inf, for ``_count_at_most`` (the alternative's is the walk's A_S),
    and W_S at both parameters.  A state's rows are the same doubles
    whatever other states they are built with.
    """
    k = event_factor.shape[1]
    own = (states * group_weight[:, None, :]).sum(axis=2)
    prefix = np.empty(own.shape + (1 << (k + 1).bit_length(),))
    prefix[:, :, 0] = 0.0
    prefix[:, :, k + 1:] = np.inf
    terms = np.multiply(own[:, :, None], event_factor[:, None, :], out=prefix[:, :, 1:k + 1])
    np.cumsum(np.log1p(terms, out=terms), axis=2, out=terms)
    return _Rows(prefix, own)


def _in_code_order(counts: np.ndarray):
    """The distinct states among the columns of alive counts ``counts``, in code order.

    A state's code reads its counts as the digits of one mixed-radix
    number, the last group's the most significant, so code order is
    ``np.lexsort`` order and needs no codes.  Returns the distinct states,
    one per row, each column's state among them, and the order that sorts
    the columns.
    """
    order = np.lexsort(counts)
    ranked = np.take(counts, order, axis=1)
    fresh = np.ones(order.size, dtype=bool)
    fresh[1:] = np.any(ranked[:, 1:] != ranked[:, :-1], axis=0)
    state = np.empty_like(order)
    state[order] = np.cumsum(fresh) - 1
    return ranked[:, fresh].T, state, order


def _group_new_subjects(new_eta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Groups of the new subjects with equal (eta_alt, eta_null) columns.

    Returns each group's first subject, each subject's group and each
    group's size, the groups in lexicographic order of (eta_alt, eta_null),
    as ``np.unique(new_eta.T, axis=0, return_index=True, return_inverse=True,
    return_counts=True)`` does; 0.0 and -0.0 are equal.  A stable sort of
    the m pairs as Python floats avoids np.unique's structured-array sort,
    which costs several times more for the handful of subjects a completion
    has.
    """
    keys = list(zip(*new_eta.tolist()))
    first, group = [], [0] * len(keys)
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        if not first or keys[i] != keys[first[-1]]:
            first.append(i)
        group[i] = len(first) - 1
    return np.array(first), np.array(group), np.bincount(group)


@dataclass(frozen=True, eq=False)
class _Completion:
    """How one Cox augmentation turns uniforms into lods.

    Under proportional hazards only where the m new subjects fall among the
    existing subjects is random.  The existing subjects keep one sorted
    order in every draw, each at one of J anchors: the fixed Breslow levels
    (naive mode, J = n), or 0 and the K failures (correct mode, J = K + 1).
    ``status``, ``eta_alt`` and ``eta_null`` list the existing subjects in
    that order, then the new subjects; ``anchor_of`` gives each existing
    subject's anchor, non-decreasing.  The law of a draw is read from
    ``eta_alt``, the linear predictors at beta_hat.  Both modes walk: the
    new subjects fail one at a time, each picked among the alive ones S in
    proportion to its relative hazard, V_S their total, and only where the
    walk skips to next differs.  Naive mode passes ``fixed_levels`` and
    raises the level by an Exp(1) variate over V_S: by Renyi's
    representation these are the sorted levels E_j / v_j of independent
    exponentials, v_j each new subject's relative hazard.  Correct mode
    walks the Plackett-Luce lattice (i, S) of Kalbfleisch and Prentice, i
    failures done: from (i, S) failure i comes next with probability r_i /
    (r_i + V_S), r_i its risk sum, which is the law of independent
    exponential levels, by memorylessness.  Naive mode places a new subject
    through a guide over the fixed levels (``_below``), correct mode by one
    bisection over all draws in the state's prefix table (``_count_at_most``).

    New subjects whose linear predictors are equal under both parameters
    are exchangeable, so a state S counts the alive subjects of each such
    group, and each draw carries its counts.  Each existing event e's term
    changes by -log1p(W_S f_e) while S is alive at it, W_S the alive new
    weight and f_e the inverse of its risk sum.  A state's ``_state_rows``
    hold a prefix table L_S(e) of those terms, which makes each draw's
    event terms m differences, so per-draw work depends on m, not on n.
    At the alternative W_S f_i is V_S / r_i, so the same table is correct
    mode's walk law.  When every state but the all-failed one, which no
    round reads, fits ``_BLOCK_ELEMENTS`` with its rows, the completion
    builds them all once, indexed by code (see ``_in_code_order``), and
    beside them, if the budget holds it too, each state's own term of a
    failing new subject at every number of anchors below it; otherwise
    each round builds the rows of the states its draws are in, in runs
    that fit the budget.  So that the linear scale stays exact, it
    refuses a new subject whose relative hazard exceeds another new
    subject's, or an existing event's risk sum, by more than
    exp(``_EXP_SPAN``); correct mode also refuses failures' risk sums and
    new relative hazards at beta_hat that span more than that.
    """

    status: np.ndarray
    eta_alt: np.ndarray
    eta_null: np.ndarray
    anchor_of: np.ndarray
    fixed_levels: np.ndarray | None = None

    def __post_init__(self):
        n = self.anchor_of.size
        event = self.status[:n] == EVENT
        n_anchors = n if self.fixed_levels is not None else int(event.sum()) + 1
        eta = np.stack([self.eta_alt, self.eta_null])
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
        # Correct mode's walk puts the failures' risk sums and the new
        # relative hazards at beta_hat on one scale.
        law = np.concatenate([event_log_risk[0], new_eta[0]])
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            span = (np.any(shift - new_eta.min(axis=1, keepdims=True) > _EXP_SPAN)
                    or np.any(shift - event_log_risk.min(axis=1, keepdims=True) > _EXP_SPAN)
                    or self.fixed_levels is None and law.max() - law.min() > _EXP_SPAN)
            # Partial log-likelihood of the existing subjects alone, plus the
            # new subjects' own eta.
            base = (eta[:, :n][:, event].sum(axis=1) - event_log_risk.sum(axis=1)
                    + new_eta.sum(axis=1))[:, None]
        if span:
            raise DataIntegrityError("relative hazards span more than the range of doubles")
        if not np.all(np.isfinite(base)):
            raise DataIntegrityError("the augmented partial log-likelihood's fixed terms are "
                                     "outside the range of doubles")
        # Existing risk sums in units of exp(shift), capped at exp(_EXP_SPAN),
        # where the new weights (at most m) vanish beside them; the log of
        # what the cap removes is kept apart, with the shift.
        capped = np.minimum(log_risk - shift, _EXP_SPAN)
        with np.errstate(invalid="ignore"):  # -inf - -inf past the last subject
            removed = np.where(capped < _EXP_SPAN, 0.0, log_risk - shift - capped)
        first_of, group, size = _group_new_subjects(new_eta)
        event_factor = np.exp(shift - event_log_risk)
        group_weight = np.exp(new_eta - shift)[:, first_of]
        # Per state: both parameters' prefix tables and alive weights.
        state_elements = 2 * (1 << (event_factor.shape[1] + 1).bit_length()) + 2
        radix = size + 1
        n_states = math.prod(radix.tolist()) - 1
        place = table = None
        if n_states * state_elements <= _BLOCK_ELEMENTS:
            place = np.cumprod(np.concatenate([[1], radix[:-1]]))
            codes = np.arange(1, n_states + 1)
            table = _state_rows(codes[:, None] // place % radix, group_weight, event_factor)
        guide = scale = None
        if self.fixed_levels is not None:
            # Naive mode's guide (Chen and Asau): guide[b] fixed levels lie
            # in buckets below b.  O(n) per completion, like the level
            # table, so the state budget does not count it.
            n_buckets, top = 8 << n.bit_length(), self.fixed_levels[-1]
            scale = n_buckets / top if top > n_buckets / _DOUBLE_MAX else 0.0
            guide = np.searchsorted(_bucket(self.fixed_levels, scale, n_buckets),
                                    np.arange(n_buckets + 1))
        for name, value in {
            "_first_at": first_at,
            "_events_before": np.searchsorted(event_anchor, np.arange(n_anchors + 1)),
            "_event_factor": event_factor,
            "_risk_capped": np.exp(capped),
            "_risk_removed": removed + shift,
            "_base": base,
            "_group": group,
            "_group_size": size,
            "_group_weight": group_weight,
            "_state_elements": state_elements,
            "_place": place,
            "_table": table,
            "_guide": guide,
            "_guide_scale": scale,
            "_level_table": None if self.fixed_levels is None else np.append(
                self.fixed_levels, np.inf),
        }.items():
            object.__setattr__(self, name, value)
        # (2, states, anchors + 1): the own term of a new subject failing
        # from each state with each number of anchors below it, when the
        # budget holds it beside the whole table.
        own_table, width = None, n_anchors + 1
        if table is not None and n_states * (state_elements + 2 * width) <= _BLOCK_ELEMENTS:
            own_table = self._own_terms(table.own[:, :, None].repeat(width, axis=2),
                                        first_at[None, :])
        object.__setattr__(self, "_own_table", own_table)

    @property
    def per_draw(self) -> int:
        """Uniforms per draw: two per walk round but the last."""
        return 2 * self._group.size - 1

    def lods(self, seed: int, lo: int, hi: int) -> np.ndarray:
        """Augmented lods of draws lo..hi-1, in sub-blocks of bounded size.

        Draw i's uniforms are counter block i of the Cox stream, so its lod
        does not depend on how the draws are grouped.
        """
        rows = max(1, _BLOCK_ELEMENTS // self.per_draw)
        out = np.empty(hi - lo)
        for a in range(lo, hi, rows):
            b = min(a + rows, hi)
            u = mc.stream_uniforms(seed, b - a, self.per_draw, _COX_STREAM_TAG, start=a)
            out[a - lo:b - lo] = self._walk(u.reshape(b - a, self.per_draw).T)[0]
        return out

    def _below(self, level: np.ndarray) -> np.ndarray:
        """How many fixed levels lie strictly below each level, as ``np.searchsorted`` counts them.

        The guide gives the fixed levels in lower buckets, all below the
        level; one step passes the next one if it is below too, and the
        few draws still behind it are searched.
        """
        below = np.take(self._guide, _bucket(level, self._guide_scale, self._guide.size - 1))
        below += np.take(self._level_table, below) < level
        behind = np.take(self._level_table, below) < level
        if behind.any():
            below[behind] = np.searchsorted(self.fixed_levels, level[behind])
        return below

    def _walk(self, u: np.ndarray):
        """Each draw's walk: where its new subjects fall, in the order they fail, and its lod.

        ``u`` is (2m - 1, draws), and round t reads rows 2t and 2t + 1.  The
        second, times V_S, picks the alive group that fails (the last round
        needs none).  The first, as an Exp(1) variate E, places the next new
        subject to fail.  Naive mode raises the level by E / V_S, the gap to
        the lowest of the alive subjects' exponential levels, and passes the
        fixed levels below it (``_below``).  Correct mode passes failures:
        from (i, S), the last i' with A_S(i') <= A_S(i) + E in the state's
        prefix table at the alternative, so that at least j are passed with
        probability prod_{l < j} r_{i+l} / (r_{i+l} + V_S), by one
        ``_count_at_most`` bisection over all draws.  Returns the lods, the
        group that fails in each round but the last, (m - 1, draws), and
        the anchors below each new subject, (m, draws).
        """
        m, n_draws = self._group.size, u.shape[1]
        groups = np.empty((m - 1, n_draws), dtype=np.intp)
        below = np.empty((m, n_draws), dtype=np.intp)
        return self._lods(groups, below, -np.log1p(-u[0::2]), u[1::2]), groups, below

    def _rows_of(self, counts: np.ndarray):
        """``_Rows`` for draws in the states ``counts``: (rows, each draw's row in them, draws).

        One run of every draw when the completion holds every state's rows;
        otherwise runs of the round's states in code order, each built for
        itself and within the budget.
        """
        if self._table is not None:
            yield self._table, self._place @ counts - 1, slice(None)
            return
        states, state, order = _in_code_order(counts)
        step = max(1, _BLOCK_ELEMENTS // self._state_elements)
        ranked = state[order]
        for lo in range(0, states.shape[0], step):
            a, b = np.searchsorted(ranked, [lo, lo + step])
            rows = _state_rows(states[lo:lo + step], self._group_weight, self._event_factor)
            yield rows, ranked[a:b] - lo, order[a:b]

    def _lods(self, groups: np.ndarray, below: np.ndarray, exps: np.ndarray | None = None,
              picks: np.ndarray | None = None) -> np.ndarray:
        """Lods of a block of draws, given where their new subjects fall or walking them.

        The new subjects are taken in the order they fail, one row each.
        ``groups[t]`` is the group of new subject t (rows past m - 2 are not
        read), and ``below`` (m, draws) counts the anchors below its level.
        Given ``exps`` and ``picks``, each round's Exp(1) variates and group
        uniforms, the walk fills them in (see ``_walk``).  Each draw carries
        the alive count of each group, and its running alive weights at the
        alternative are summed group by group, in ``np.cumsum``'s order; a
        new subject of group g failing takes one from count g.  A new
        subject never shares its level with an anchor or with another new
        subject (the walk's levels are continuous, or between failures).
        Equal to one stable sort of the explicit augmented levels
        (``lod_rows`` in tests/walk_oracle.py): an event's risk set is every
        subject at its level or above, tied fixed levels sharing theirs
        (Breslow).  The existing events between new subjects t - 1 and t
        see W_{S_t}, S_t the alive state before new subject t fails, and new
        subject t's own risk set is the existing subjects above its level
        plus W_{S_t}: read from the own table at S_t's row when the
        completion holds one, else formed from W_{S_t} (``_own_terms``),
        the same doubles.  Each draw's terms are summed in round order, so
        its lod does not depend on the other draws.
        """
        m, n_draws = below.shape
        walk, naive = exps is not None, self.fixed_levels is not None
        counts = np.repeat(self._group_size[:, None], n_draws, axis=1)
        labels = np.arange(counts.shape[0])[:, None]
        level = np.zeros(n_draws)
        # Each new subject's state row in the whole table, or W_S per parameter.
        if self._own_table is None:
            weight = np.empty((2, m, n_draws))
        else:
            state_row = np.empty((m, n_draws), dtype=np.intp)
        start = np.zeros(n_draws, dtype=np.intp)  # the events below the last new subject
        for t in range(m):
            if walk and (naive or t + 1 < m):
                running = counts * self._group_weight[0, :, None]
                for g in range(1, counts.shape[0]):
                    running[g] += running[g - 1]
                if naive:
                    level += exps[t] / running[-1]
                    below[t] = self._below(level)
                if t + 1 < m:
                    # The group that fails: how many of the running alive
                    # weights before V_S lie at or below pick * V_S.
                    groups[t] = (running[:-1] <= running[-1] * picks[t]).sum(axis=0)
            terms = np.empty((2, n_draws))
            for rows, row, here in self._rows_of(counts):
                width = rows.prefix.shape[2]
                table, flat = rows.prefix.reshape(2, -1), row * width
                passed = np.take(table, flat + start[here], axis=1)
                if walk and not naive:
                    # Past i failures, a new subject has the anchors 0..i below it.
                    below[t, here] = _count_at_most(table[0], flat, width, passed[0] + exps[t, here])
                bounds = self._events_before[below[t, here]]
                terms[:, here] = np.take(table, flat + bounds, axis=1) - passed
                start[here] = bounds
                if self._own_table is None:
                    weight[:, t, here] = np.take(rows.own, row, axis=1)
                else:
                    state_row[t] = row
            # Summed in round order: numpy's sum over the rounds is pairwise
            # for one draw and m >= 8.
            event_terms = terms if t == 0 else event_terms + terms
            if t + 1 < m:
                counts -= groups[t] == labels
        if self._own_table is None:
            own = self._own_terms(weight, self._first_at[below])
        else:
            width = self._own_table.shape[2]
            own = np.take(self._own_table.reshape(2, -1), state_row * width + below, axis=1)
        new_terms = own[:, 0]
        for t in range(1, m):
            new_terms = new_terms + own[:, t]
        ll = self._base - event_terms - new_terms
        return ll[0] - ll[1]

    def _own_terms(self, weight: np.ndarray, above: np.ndarray) -> np.ndarray:
        """New subjects' own terms, log(W_S + capped risk above) + removed, in place of W_S."""
        weight += np.take(self._risk_capped, above, axis=1)
        np.log(weight, out=weight)
        weight += np.take(self._risk_removed, above, axis=1)
        return weight

    def expected_lod(self) -> float:
        """The exact mean of correct mode's lods, by one forward pass over the walk's lattice.

        Round t carries the probability mass of each state (i, S) over the
        failures done, i = 0..K.  From (i, S) the walk places the next new
        subject past failures i..j - 1 with probability exp(-(A_S(j) -
        A_S(i))) q_S(j), q_S(j) = 1 - exp(-(A_S(j + 1) - A_S(j))) and q_S(K)
        = 1 (see ``_walk``): a running sum, taken in logs, of factors at most
        1.  Each row of that law sums to 1, so the round's expected event
        terms L_S(j) - L_S(i) are the arriving mass's sum of L_S less the
        carried mass's.  The new subject's own term is read as ``_lods`` reads
        it, and the arriving mass splits by the group that fails.  A round's
        states are taken in the order of their codes.
        """
        k, m = self._event_factor.shape[1], self._group.size
        states, mass = self._group_size[None, :], np.eye(1, k + 1)  # all mass at (0, S_0)
        above = self._first_at[None, 1:]
        lod = self._base[0, 0] - self._base[1, 0]
        for t in range(m):
            rows = _state_rows(states, self._group_weight, self._event_factor)
            table = rows.prefix[:, :, :k + 1]
            skip = table[0]
            with np.errstate(divide="ignore"):  # log(0) where a state has no mass
                arrive = np.exp(np.logaddexp.accumulate(np.log(mass) + skip, axis=1) - skip)
            arrive[:, :-1] *= -np.expm1(-np.diff(skip, axis=1))
            own = self._own_terms(rows.own[:, :, None].repeat(k + 1, axis=2), above)
            event_lod = table[0] - table[1]
            lod -= np.sum(arrive * (event_lod + own[0] - own[1])) - np.sum(mass * event_lod)
            if t + 1 == m:
                break
            key, group = np.nonzero(states)
            share = states[key, group] * self._group_weight[0, group] / rows.own[0, key]
            reached = states[key].T
            reached[group, np.arange(key.size)] -= 1
            states, back, _ = _in_code_order(reached)
            mass = np.zeros((states.shape[0], k + 1))
            np.add.at(mass, back, arrive[key] * share[:, None])
        return float(lod)


def _naive_completion(data: SurvivalDataset, rank: RankData, beta_hat, beta_null,
                      z_new) -> _Completion:
    # Existing subjects by time, each at its own fixed level, on the scale
    # where the largest new relative hazard is 1.
    merged_z = np.vstack([data.covariates[rank.order], z_new])
    eta_alt = merged_z @ beta_hat
    baseline = _relative_baseline(eta_alt[data.n:].max(),
                                  *_breslow_log_increments(rank, data.times, beta_hat))
    merged_status = np.concatenate([data.status[rank.order], np.ones(z_new.shape[0], dtype=int)])
    return _Completion(merged_status, eta_alt, merged_z @ beta_null, np.arange(data.n),
                       fixed_levels=baseline.cumulative(data.times[rank.order]))


def _augmentation(data: SurvivalDataset, n_new: int, new_covariates, theta_null_beta,
                  naive: bool) -> tuple[float, _Completion | None]:
    """One augmentation of ``data`` by ``n_new`` subjects: ``(lod_ob, completion)``.

    The observed lod is the mode's own: the Breslow partial-likelihood lod
    (naive) or ``_kp_lod`` (correct), at beta_hat against the null beta
    (zeros by default).  It is refused unless positive and finite, before
    any completion is built.  The completion, None without new subjects,
    draws the augmented lods.  The null beta and the new covariates are
    checked before the fit.
    """
    dim = data.covariate_dim
    beta_null = (np.zeros(dim) if theta_null_beta is None
                 else np.atleast_1d(np.asarray(theta_null_beta, dtype=float)))
    if beta_null.shape != (dim,):
        raise ValidationError("null beta dimension mismatch")
    if not np.all(np.isfinite(beta_null)):
        raise ValidationError("null beta must be finite")
    z_new = _validate_new_covariates(new_covariates, n_new, dim)
    rank = extract_rank_data(data)
    beta_hat, _ = fit_partial_likelihood(rank)
    with np.errstate(over="ignore", invalid="ignore"):  # a lod past the doubles: refused below
        if naive:
            lod_ob = partial_lod(rank, beta_hat, beta_null)
        else:
            columns = _kp_columns(data, rank, z_new)
            lod_ob = _kp_lod(columns, beta_hat, beta_null)
    if not 0.0 < lod_ob < math.inf:
        raise UndefinedMeasureError(f"observed partial-likelihood lod is {lod_ob}: not positive "
                                    "and finite")
    if n_new == 0:
        return lod_ob, None
    if naive:
        return lod_ob, _naive_completion(data, rank, beta_hat, beta_null, z_new)
    status, merged_z, anchor_of = columns
    return lod_ob, _Completion(status, merged_z @ beta_hat, merged_z @ beta_null, anchor_of)


def _ri1_cox(lod_ob: float, completion: _Completion | None, mc_config: MCConfig,
             conditioning: str) -> RelInfoResult:
    """The Monte Carlo measure of an ``_augmentation``; exactly 1 without new subjects."""
    if completion is None:  # the augmented data are the observed data
        return RelInfoResult(estimate=1.0, mc_standard_error=0.0, n_draws=0, seed=mc_config.seed,
                             method=Method.CLOSED_FORM,
                             diagnostics={"lod_observed": lod_ob, "conditioning": conditioning})
    return ri1_monte_carlo(lod_ob, lambda lo, hi: completion.lods(mc_config.seed, lo, hi),
                           mc_config, conditioning=conditioning)


def ri1_cox_correct(data: SurvivalDataset, n_new: int, new_covariates,
                    theta_null_beta=None, *, mc_config: MCConfig) -> RelInfoResult:
    """Relative information with the rank-data (partial-data) conditioning.

    Each draw keeps the existing failures in their observed order, each
    censored subject at risk through its preceding failure (Kalbfleisch and
    Prentice), and places the new subjects among the failures by a walk on
    the Plackett-Luce lattice: with i failures done and the new subjects S
    alive, failure i comes next with probability r_i / (r_i + V_S), r_i
    the total relative hazard of its risk set and V_S that of S.  It needs
    no baseline.  Tied failures are taken one after another, each with its
    own risk set, in the observed lod (``_kp_lod``) as in every draw's.
    The partial-likelihood lod of the augmented ranks is their exact
    likelihood, so the exact measure is in (0, 1], 1 with no new subjects.
    On tied data the observed lod can be negative at the Breslow beta_hat:
    UndefinedMeasureError.  Relative hazards spanning more than
    exp(``_EXP_SPAN``) raise DataIntegrityError.
    """
    return _ri1_cox(*_augmentation(data, n_new, new_covariates, theta_null_beta, naive=False),
                    mc_config, "rank data (partial data)")


def ri1_cox_naive(data: SurvivalDataset, n_new: int, new_covariates,
                  theta_null_beta=None, *, mc_config: MCConfig) -> RelInfoResult:
    """Relative information with the censored-data conditioning.

    Existing subjects' observed times are held fixed, as their levels
    under the Breslow cumulative hazard, computed once; only the new
    subjects' levels are simulated, each exponential with its relative
    hazard as rate, in the order they fail by ``ri1_cox_correct``'s walk
    (see ``_Completion``).  Tied observed times keep their Breslow risk
    sets.  The resulting measure may exceed 1.
    """
    return _ri1_cox(*_augmentation(data, n_new, new_covariates, theta_null_beta, naive=True),
                    mc_config, "censored data (observed times fixed)")


def ri1_cox_correct_exact(data: SurvivalDataset, n_new: int, new_covariates,
                          theta_null_beta=None) -> float:
    """Exact ``ri1_cox_correct``: the observed lod over the exact mean augmented lod.

    Under proportional hazards the joint failure order is Plackett-Luce with
    weights exp(z . beta_hat), whatever the baseline (Kalbfleisch and
    Prentice).  That is the law of ``ri1_cox_correct``'s walk, which
    ``_Completion.expected_lod`` sums exactly, tied event times included,
    in O(m K) work per state.  Refuses what ``ri1_cox_correct`` refuses.
    """
    lod_ob, completion = _augmentation(data, n_new, new_covariates, theta_null_beta, naive=False)
    return 1.0 if completion is None else lod_ob / completion.expected_lod()


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
        """Share of the naive measures above 1, over the datasets that gave one; NaN if none did."""
        naive = self.naive_estimates[np.isfinite(self.naive_estimates)]
        return float(np.mean(naive > 1.0)) if naive.size else math.nan

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
    if n_subjects < 2:
        raise ValidationError("n_subjects must be >= 2")
    if n_new < 0:
        raise ValidationError("n_new must be >= 0")
    if not (math.isfinite(censoring_rate) and censoring_rate >= 0):
        raise ValidationError("censoring_rate must be a finite exponential rate >= 0 (0: none)")
    if not abs(beta_true) <= math.log(_DOUBLE_MAX):
        raise ValidationError(f"beta_true must have a finite relative hazard "
                              f"exp(|beta_true|); got {beta_true!r}")
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
