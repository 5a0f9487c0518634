"""Placements of the Cox completion walk, and oracles for both conditionings.

A placement of the m new subjects, taken in the order they fail, is the
number of existing anchors passed before each one fails (failures in
correct mode, fixed levels in naive mode) and its group.  Groups are
labelled by rank among the new subjects' distinct linear predictors under
the alternative, so every side labels them alike.  The oracles draw
independent exponential levels: a rejection sampler for correct mode, and
sorted levels placed on the fixed ones for naive mode.  ``kp_levels`` lays
a correct completion's subjects out at explicit levels, for oracles that
sort them whole: ``lod_rows`` scores many rows of levels by one row-wise
stable sort, the reference for the kernel's lods and the observed lods.
"""

import math

import numpy as np

from relinfo import cox, mc


def tie_starts(sorted_times):
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


def sorted_loglik(order, tie_start, event, eta):
    """Breslow partial log-likelihood of each row of a sort (last axis).

    ``order`` sorts the subjects by time, ``event`` marks the events in
    that order and ``tie_start`` holds flat first-of-tie indices (see
    ``tie_starts``).
    """
    e = eta[order]
    log_risk, _ = cox._risk_sums(e)
    return np.where(event, e - np.take(log_risk, tie_start), 0.0).sum(axis=-1)


def sort_rows(times, status):
    """Stable sort of each row of a (..., subjects) time array, as ``sorted_loglik`` takes it."""
    order = np.argsort(times, axis=-1, kind="stable")
    row_offset = np.arange(0, times.size, times.shape[-1]).reshape(times.shape[:-1] + (1,))
    tie_start = tie_starts(np.take(times, order + row_offset))
    return order, tie_start, status[order] == cox.EVENT


def lod_rows(times, status, eta_alt, eta_null):
    """Partial-likelihood lod of each row of a (..., subjects) time array.

    One row-wise stable sort serves both parameters; subject j of every row
    has status ``status[j]`` and linear predictors ``eta_alt[j]``, ``eta_null[j]``.
    Any monotone scale serves as time, such as cumulative-hazard levels.
    """
    rows = sort_rows(times, status)
    return sorted_loglik(*rows, eta_alt) - sorted_loglik(*rows, eta_null)


def kp_levels(failures, anchor_of, new):
    """Explicit augmented levels of a correct completion, in its column order.

    Existing subject i sits at anchor ``anchor_of[i]``: 0, or the level of
    failure j - 1 for anchor j.  A subject censored between failures k and
    k+1 is at risk at failure k and leaves just after it (Kalbfleisch and
    Prentice), so it shares failure k's level, or 0 before the first
    failure.  The new subjects' levels follow.
    """
    anchors = np.concatenate([np.zeros((failures.shape[0], 1)), failures], axis=1)
    return np.concatenate([anchors[:, anchor_of], new], axis=1)


def labels_of(completion, groups):
    """Each completion group's label: its rank among the new subjects' distinct eta_alt."""
    eta_new = completion.eta_alt[completion.anchor_of.size:]
    group_eta = np.empty(completion._group_weight.shape[1])
    group_eta[completion._group] = eta_new
    return np.searchsorted(np.unique(eta_new), group_eta)[groups]


def walk_placements(completion, seed, n_draws):
    """Placements of draws 0..n_draws-1 of ``completion``'s walk on the Cox stream.

    Returns (passed, label, alive), the first two (n_draws, m) and ``alive``
    (m, n_draws, groups): each draw's alive new subjects per group before
    each round, replayed from the groups that fail.
    """
    u = mc.stream_uniforms(seed, n_draws, completion.per_draw, cox._COX_STREAM_TAG)
    _, groups, below = completion._walk(u.reshape(n_draws, completion.per_draw).T)
    alive = [np.tile(completion._group_size, (n_draws, 1))]
    for group in groups:
        alive.append(alive[-1].copy())
        alive[-1][np.arange(n_draws), group] -= 1
    alive = np.stack(alive)
    # The group that fails in a round is the one with one fewer alive after it.
    after = np.concatenate([alive[1:], np.zeros_like(alive[:1])])
    group = np.argmax(alive - after, axis=2)
    # Correct mode's anchors start with 0, below every failure.
    passed = below - 1 if completion.fixed_levels is None else below
    return passed.T, labels_of(completion, group).T, alive


def naive_placements(completion, n_draws, rng):
    """Naive-mode placements from independent exponential levels, sorted and placed.

    Each new subject's level is Exp(1) over its relative hazard, on the
    completion's scale; a placement counts the fixed levels below each
    level.  Returns (passed, label) as ``walk_placements`` returns them.
    """
    rates = completion._group_weight[0, completion._group]
    levels = rng.standard_exponential((n_draws, rates.size)) / rates
    by_level = np.argsort(levels, axis=1)
    passed = np.searchsorted(completion.fixed_levels, np.take_along_axis(levels, by_level, axis=1))
    return passed, labels_of(completion, completion._group[by_level])


def rejection_placements(times, eta, eta_new, n_accept, rng, batch=50_000):
    """Placements from independent exponential levels at rates exp(eta), exp(eta_new).

    Rows are drawn in batches and kept when the existing subjects, whose
    observed ``times`` are all failures, fail in their observed order; the
    first ``n_accept`` kept rows, in draw order, are returned as
    ``walk_placements`` returns them (without ``alive``).
    """
    target = np.argsort(times, kind="stable")
    k = eta.size
    distinct, label_of = np.unique(eta_new, return_inverse=True)
    rates = np.exp(np.concatenate([eta, eta_new]))
    passed, label = [], []
    kept = 0
    while kept < n_accept:
        levels = rng.exponential(size=(batch, rates.size)) / rates
        levels = levels[np.all(np.diff(levels[:, target], axis=1) > 0, axis=1)]
        by_level = np.argsort(levels[:, k:], axis=1)
        new = np.take_along_axis(levels[:, k:], by_level, axis=1)
        passed.append((levels[:, :k, None] < new[:, None, :]).sum(axis=1))
        label.append(label_of[by_level])
        kept += levels.shape[0]
    return np.concatenate(passed)[:n_accept], np.concatenate(label)[:n_accept]


def assert_same_moments(walk, oracle):
    """Moments 1 and 2 of each column agree within 3 standard errors."""
    for a, b in zip(walk.T, oracle.T):
        for moment in (1, 2):
            x, y = a.astype(float) ** moment, b.astype(float) ** moment
            se = math.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)
            assert abs(x.mean() - y.mean()) <= 3 * se


def assert_walk_matches_rejection(n, beta_true, seed, z_new):
    """The walk at beta_true against the oracle on uncensored PH data, 20,000 vs 4,000 draws."""
    data, _ = cox.simulate_ph_binary(n, beta_true, np.random.default_rng(seed), 0.0)
    beta = np.array([beta_true])
    status, merged_z, anchor_of = cox._kp_columns(data, cox.extract_rank_data(data), z_new)
    completion = cox._Completion(status, merged_z @ beta, merged_z @ np.zeros(1), anchor_of)
    passed, label, _ = walk_placements(completion, seed, 20_000)
    assert np.all(np.diff(passed, axis=1) >= 0) and passed.min() >= 0 and passed.max() <= n
    oracle_passed, oracle_label = rejection_placements(
        data.times, data.covariates @ beta, z_new @ beta, 4_000,
        np.random.default_rng(seed + 1))
    assert_same_moments(passed, oracle_passed)
    assert_same_moments(label, oracle_label)


def tied_naive_completion(z_new):
    """The naive completion of a censored sample with tied times (n = 12)."""
    rng = np.random.default_rng(131)
    censored, _ = cox.simulate_ph_binary(12, 0.5, rng, 0.3)
    data = cox.SurvivalDataset.from_arrays(np.round(censored.times, 1) + 0.1, censored.status,
                                           censored.covariates)
    assert np.any(data.status == 0) and np.unique(data.times).size < data.n
    return cox._augmentation(data, len(z_new), z_new, None, naive=True)[1]


def assert_naive_walk_matches_sorted_levels(completion, seed):
    """The naive walk against ``naive_placements``, 20,000 draws each."""
    passed, label, _ = walk_placements(completion, seed, 20_000)
    oracle_passed, oracle_label = naive_placements(completion, 20_000,
                                                   np.random.default_rng(seed))
    assert_same_moments(passed, oracle_passed)
    assert_same_moments(label, oracle_label)
