"""Correct-mode placements: the production walk's, and a rejection oracle's.

A placement of the m new subjects, taken in the order they fail, is the
number of existing failures passed before each one fails and its group.
Groups are labelled by rank among the new subjects' distinct linear
predictors under the alternative, so both sides label them alike.
"""

import math

import numpy as np

from relinfo import cox, mc


def walk_placements(completion, seed, n_draws):
    """Placements of draws 0..n_draws-1 of ``completion``'s walk on the Cox stream.

    Returns (passed, label, alive), the first two (n_draws, m) and ``alive``
    (m, n_draws, groups): each draw's alive new subjects per group before
    each round.
    """
    u = mc.stream_uniforms(seed, n_draws, completion.per_draw, cox._COX_STREAM_TAG)
    states, below, _, _ = completion._walk(u.reshape(n_draws, completion.per_draw).T)
    alive = np.stack([counts[key] for key, counts in states])
    # The group that fails in a round is the one with one fewer alive after it.
    after = np.concatenate([alive[1:], np.zeros_like(alive[:1])])
    group = np.argmax(alive - after, axis=2)
    eta_new = completion.eta_alt[completion.anchor_of.size:]
    group_eta = np.empty(alive.shape[2])
    group_eta[completion._group] = eta_new
    label = np.searchsorted(np.unique(eta_new), group_eta)[group]
    return (below - 1).T, label.T, alive


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
    completion = cox._correct_completion(data, cox.extract_rank_data(data), beta,
                                         np.zeros(1), z_new)
    passed, label, _ = walk_placements(completion, seed, 20_000)
    assert np.all(np.diff(passed, axis=1) >= 0) and passed.min() >= 0 and passed.max() <= n
    oracle_passed, oracle_label = rejection_placements(
        data.times, data.covariates @ beta, z_new @ beta, 4_000,
        np.random.default_rng(seed + 1))
    assert_same_moments(passed, oracle_passed)
    assert_same_moments(label, oracle_label)
