import functools
import itertools
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from relinfo import cox, mc
from relinfo.cox import (
    ConditioningStudy,
    SurvivalDataset,
    breslow_baseline,
    extract_rank_data,
    fit_partial_likelihood,
    partial_lod,
    ri1_cox_correct,
    ri1_cox_naive,
    ri_w_wald,
    simulate_ph_binary,
)
from relinfo.errors import (
    DataIntegrityError,
    DegenerateDataError,
    DomainError,
    RankDeficiencyError,
    RelInfoError,
    SeparationError,
    UndefinedMeasureError,
    ValidationError,
)
from relinfo.mc import MCConfig
from walk_oracle import (
    assert_naive_walk_matches_sorted_levels,
    assert_walk_matches_rejection,
    kp_levels,
    lod_rows,
    sort_rows,
    sorted_loglik,
    tied_naive_completion,
    walk_placements,
)


def dataset(times, status, z):
    return SurvivalDataset.from_arrays(times, status, np.asarray(z, float)[:, None])


def kp_lod(data, rank, beta_alt, beta_null):
    """Correct mode's observed lod of a sample, from its columns without new subjects."""
    columns = cox._kp_columns(data, rank, np.zeros((0, data.covariate_dim)))
    return cox._kp_lod(columns, beta_alt, beta_null)


def failure_order(rank):
    """Failing subjects in order of failure (ties by subject index)."""
    return tuple(int(i) for i in rank.order[rank.event])


def risk_sets(rank):
    """The subjects at risk at each failure, in failure order."""
    return tuple(frozenset(rank.order[p:].tolist()) for p in rank.tie_start[rank.event])


def explicit_partial_loglik(data, beta):
    """Independent oracle: the literal product over failures."""
    times, status, z = data.arrays()
    ll = 0.0
    for i in np.flatnonzero(status == 1):
        at_risk = times >= times[i]
        ll += beta * z[i, 0] - math.log(np.sum(np.exp(beta * z[at_risk, 0])))
    return ll


def monotone_by_definition(times, status, z):
    """Whether a one-covariate partial likelihood is strictly monotone, from its definition.

    Every event's covariate is the maximum of its risk set, or every one
    the minimum, and some risk set has contrast.
    """
    events = np.flatnonzero(status == 1)
    risk = [z[times >= times[i]] for i in events]
    at_max = all(z[i] == r.max() for i, r in zip(events, risk))
    at_min = all(z[i] == r.min() for i, r in zip(events, risk))
    return any(r.max() > r.min() for r in risk) and (at_max or at_min)


def philox_sample(n, censoring_rate, dim, beta, seed):
    """A PH sample on a Philox(seed, 0) stream: a binary covariate, then an N(0, 1) one if dim = 2.

    Unit baseline, each covariate's coefficient beta, and exponential
    censoring at the rate (none at 0).  With one covariate and a positive
    rate the draws are those of the benchmark's ``simulate_survival``.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    z = rng.integers(0, 2, size=n).astype(float)
    if dim == 2:
        z = np.column_stack([z, rng.normal(size=n)])
    z = z.reshape(n, dim)
    t_fail = rng.exponential(size=n) / np.exp(z @ np.full(dim, beta))
    if censoring_rate == 0:
        return SurvivalDataset(t_fail, np.ones(n, dtype=int), z)
    censor = rng.exponential(scale=1.0 / censoring_rate, size=n)
    return SurvivalDataset(np.minimum(t_fail, censor), (t_fail <= censor).astype(int), z)


def grid_search_beta(data, lo=-4.0, hi=4.0):
    grid = np.linspace(lo, hi, 2001)
    values = [explicit_partial_loglik(data, b) for b in grid]
    center = grid[int(np.argmax(values))]
    res = optimize.minimize_scalar(
        lambda b: -explicit_partial_loglik(data, b),
        bounds=(center - 0.02, center + 0.02), method="bounded",
        options={"xatol": 1e-10})
    return float(res.x)


class TestExtractRankData:
    def test_three_events_ascending(self):
        data = dataset([1.0, 2.0, 3.0], [1, 1, 1], [0.0, 1.0, 0.0])
        rank = extract_rank_data(data)
        assert failure_order(rank) == (0, 1, 2)
        assert [len(r) for r in risk_sets(rank)] == [3, 2, 1]

    def test_early_censor_leaves_risk_sets(self):
        data = dataset([0.5, 2.0, 3.0], [0, 1, 1], [0.0, 1.0, 0.0])
        rank = extract_rank_data(data)
        assert all(0 not in r for r in risk_sets(rank))

    def test_five_subject_mixed_fixture(self):
        data = dataset([2.0, 1.0, 4.0, 3.0, 5.0], [1, 0, 1, 0, 1],
                       [0.0, 1.0, 1.0, 0.0, 1.0])
        rank = extract_rank_data(data)
        assert failure_order(rank) == (0, 2, 4)
        assert risk_sets(rank) == (frozenset({0, 2, 3, 4}),
                                   frozenset({2, 4}),
                                   frozenset({4}))

    def test_no_events_rejected(self):
        with pytest.raises(DegenerateDataError):
            extract_rank_data(dataset([1.0, 2.0], [0, 0], [0.0, 1.0]))

    def test_rank_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        censored, _ = simulate_ph_binary(12, 0.7, rng, 0.2)
        times, status, z = censored.arrays()
        transformed = SurvivalDataset.from_arrays(np.exp(times), status, z)
        a = extract_rank_data(censored)
        b = extract_rank_data(transformed)
        assert failure_order(a) == failure_order(b)
        assert risk_sets(a) == risk_sets(b)


class TestFit:
    def test_constant_covariate_is_degenerate(self):
        data = dataset([1.0, 2.0, 3.0], [1, 1, 1], [1.0, 1.0, 1.0])
        with pytest.raises(RankDeficiencyError):
            fit_partial_likelihood(extract_rank_data(data))

    @pytest.mark.parametrize("z", [1e300, 1e160, 1e154])
    def test_covariates_whose_squares_overflow_are_refused(self, z):
        data = dataset([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 1, 0, 1], [0.0, z, 0.0, 1.0, 0.5])
        with pytest.raises(ValidationError, match="covariates too large for the Cox fit"):
            fit_partial_likelihood(extract_rank_data(data))

    def test_the_largest_accepted_covariates_fit_without_a_warning(self):
        # Centred, the largest is 8e152: 2 n times it is below sqrt(max double).
        data = dataset([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 1, 0, 1], [0.0, 1e153, 0.0, 1.0, 0.5])
        beta, se = fit_partial_likelihood(extract_rank_data(data))
        assert np.all(np.isfinite(beta)) and np.all(np.isfinite(se))

    def test_contrast_only_outside_every_risk_set_is_rank_deficient(self):
        # The one nonzero covariate is censored before the first event, so
        # the information is a rounding residue that once gave a NaN SE.
        data = dataset([2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0], [1, 0, 0, 0, 0, 1, 1],
                       [0.0, 0.0, 0.0, 0.0, 30.0, 0.0, 0.0])
        with pytest.raises(RankDeficiencyError):
            fit_partial_likelihood(extract_rank_data(data))

    @pytest.mark.parametrize("times, status, z, direction", [
        ([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], [1.0, 1.0, 0.0, 0.0], 1),
        ([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], [0.0, 1.0, 1.0, 2.0], -1),
        # The largest covariate is censored before every event.
        ([1.0, 2.0, 3.0, 4.0], [0, 1, 1, 1], [5.0, 1.0, 1.0, 0.0], 1),
        # Tied events at time 2, and a censoring at an event time.
        ([1.0, 2.0, 2.0, 3.0], [1, 1, 1, 1], [1.0, 1.0, 1.0, 0.0], 1),
        ([1.0, 2.0, 2.0, 3.0], [1, 1, 0, 1], [1.0, 1.0, 0.0, 0.0], 1),
    ], ids=["increasing", "decreasing", "censored", "tied", "censored at an event time"])
    def test_monotone_likelihood_is_separation(self, times, status, z, direction):
        data = dataset(times, status, z)
        steps = [explicit_partial_loglik(data, direction * b) for b in (0.0, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(steps) > 0)
        with pytest.raises(SeparationError):
            fit_partial_likelihood(extract_rank_data(data))

    def test_tied_events_share_their_risk_set_in_the_separation_check(self):
        # Read from its own position, the tied event at z = 0 would be the
        # maximum of {0, 0}; its tie group's risk set {1, 0, 0} has 1.
        data = dataset([1.0, 2.0, 2.0, 3.0], [1, 1, 1, 1], [1.0, 1.0, 0.0, 0.0])
        beta, _ = fit_partial_likelihood(extract_rank_data(data))
        assert abs(beta[0] - grid_search_beta(data)) <= 1e-6

    @given(case=st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.lists(st.integers(1, 4), min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.integers(-2, 2), min_size=n, max_size=n))))
    @settings(max_examples=300, deadline=None)
    def test_separation_check_matches_its_definition(self, case):
        times, status, z = (np.array(v, float) for v in case)
        if not np.any(status == 1):
            return
        rank = extract_rank_data(dataset(times, status.astype(int), z))
        if monotone_by_definition(times, status, z):
            with pytest.raises(SeparationError):
                cox._refuse_monotone(rank)
        else:
            cox._refuse_monotone(rank)

    def test_six_subject_fixture_matches_grid_search(self):
        data = dataset([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1, 1, 0, 1, 1, 1],
                       [1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        beta, se = fit_partial_likelihood(extract_rank_data(data))
        assert abs(beta[0] - grid_search_beta(data)) <= 1e-6
        assert se[0] > 0

    def test_random_small_fixtures_match_grid_search(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 6:
            n = int(rng.integers(4, 9))
            censored, _ = simulate_ph_binary(n, 0.5, rng, 0.15)
            try:
                beta, _ = fit_partial_likelihood(extract_rank_data(censored))
            except (SeparationError, RankDeficiencyError, DegenerateDataError):
                continue
            if abs(beta[0]) > 3.5:
                # near-separated: the grid oracle's window cannot bracket it
                continue
            assert abs(beta[0] - grid_search_beta(censored)) <= 1e-6
            checked += 1

    @pytest.mark.parametrize("z", [10.0, 1e3, 1e6, 1e20, 1e50, 1e100, 1e150])
    def test_one_large_covariate_fits_at_any_scale(self, z):
        # Its score at the optimum is rounding noise of order z; the stop
        # must not read it as a failure to converge.
        data = dataset([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 1, 0, 1], [0.0, z, 0.0, 1.0, 0.5])
        beta, se = fit_partial_likelihood(extract_rank_data(data))
        assert np.isfinite(beta[0]) and se[0] > 0
        if z >= 1e6:
            # The limit is the fit of the indicator of subject 2; at z = 1e6
            # the other covariates still move it by about 1 / z.
            rel = 1e-8 if z >= 1e20 else 1e-5
            assert beta[0] * z == pytest.approx(1.24245332, rel=rel)
            assert se[0] * z == pytest.approx(1.41787269, rel=rel)

    @pytest.mark.parametrize("factor", [1e-3, 1e-1, 1e3])
    def test_rescaled_covariates_rescale_the_estimate_inversely(self, factor):
        data = philox_sample(200, 0.25, 2, 0.5, 1001)
        beta, se = fit_partial_likelihood(extract_rank_data(data))
        scaled = SurvivalDataset(data.times, data.status, data.covariates * factor)
        beta_s, se_s = fit_partial_likelihood(extract_rank_data(scaled))
        np.testing.assert_allclose(beta_s * factor, beta, rtol=1e-9)
        np.testing.assert_allclose(se_s * factor, se, rtol=1e-9)

    def test_invariant_under_monotone_time_transform(self):
        data = dataset([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1, 1, 0, 1, 1, 1],
                       [1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        times, status, z = data.arrays()
        warped = SurvivalDataset.from_arrays(times**3 + 1.0, status, z)
        beta_a, _ = fit_partial_likelihood(extract_rank_data(data))
        beta_b, _ = fit_partial_likelihood(extract_rank_data(warped))
        assert beta_a[0] == beta_b[0]


class TestBreslowBaseline:
    def test_zero_beta_gives_nelson_aalen(self):
        data = dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1], [1.0, 0.0, 1.0, 0.0])
        bl = breslow_baseline(data, [0.0])
        np.testing.assert_allclose(bl.jump_times, [1.0, 2.0, 4.0])
        np.testing.assert_allclose(bl.jump_sizes, [1 / 4, 1 / 3, 1 / 1])

    def test_no_events_empty(self):
        data = dataset([1.0, 2.0], [0, 0], [0.0, 1.0])
        bl = breslow_baseline(data, [0.0])
        assert bl.jump_times.size == 0

    def test_hand_computed_increments_binary_covariate(self):
        data = dataset([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 0, 1, 1],
                       [1.0, 0.0, 1.0, 0.0, 1.0])
        bl = breslow_baseline(data, [math.log(2.0)])
        # weights: z=1 -> 2, z=0 -> 1
        np.testing.assert_allclose(bl.jump_times, [1.0, 2.0, 4.0, 5.0])
        np.testing.assert_allclose(bl.jump_sizes, [1 / 8, 1 / 6, 1 / 3, 1 / 2])

    def test_nonfinite_beta_rejected(self):
        data = dataset([1.0], [1], [0.0])
        with pytest.raises(DomainError):
            breslow_baseline(data, [math.inf])

    def test_baseline_from_lists(self):
        bl = cox.BaselineHazard([1.0, 2.0], [0.5, 0.5])
        np.testing.assert_array_equal(bl.cumulative([3.0]), [1.5])
        np.testing.assert_array_equal(bl.inverse(bl.cumulative([3.0])), [3.0])
        with pytest.raises(ValueError):
            bl.jump_sizes[0] = 1.0

    def test_increments_beyond_doubles_refused_without_a_warning(self):
        # exp(-800) relative hazards put every increment near exp(800).
        data = dataset([1.0, 2.0, 3.0], [1, 1, 1], [1.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataIntegrityError, match="range of doubles"):
                breslow_baseline(data, [-800.0])

    def test_cumulative_inverse_roundtrip(self):
        bl = breslow_baseline(
            dataset([1.0, 2.0, 4.0], [1, 1, 1], [0.0, 1.0, 0.0]), [0.3])
        ts = np.array([0.2, 1.0, 3.0, 4.0, 9.0])
        np.testing.assert_allclose(bl.inverse(bl.cumulative(ts)), ts, rtol=1e-12)


class TestRankConditionalSampler:
    """The correct-mode walk, as ``ri1_cox_correct`` draws it from the Cox stream."""

    def test_walk_invariants_on_censored_data(self):
        censored, _ = simulate_ph_binary(8, 0.5, np.random.default_rng(3), 0.2)
        z_new = np.array([[0.0], [1.0], [1.0]])
        _, completion = cox._augmentation(censored, 3, z_new, None, naive=False)
        n_failures = int(censored.status.sum())
        assert n_failures < censored.n
        passed, _, alive = walk_placements(completion, 77, 2_000)
        assert np.all(np.diff(passed, axis=1) >= 0)
        assert passed.min() >= 0 and passed.max() <= n_failures
        assert alive.min() >= 0
        for t in range(3):
            assert np.all(alive[t].sum(axis=1) == 3 - t)

    @pytest.mark.parametrize("m", [1, 2])
    def test_placements_are_uniform_at_zero_beta(self, m):
        # With equal rates every order of the failures and the new subjects
        # that keeps the observed one is equally likely, so the new subjects'
        # slots among the K failures are uniform over C(K + m, m) placements.
        data = dataset([1.0, 2.0, 3.0], [1, 1, 1], [0.0, 0.0, 0.0])
        z_new = np.arange(m, dtype=float)[:, None]
        status, merged_z, anchor_of = cox._kp_columns(data, extract_rank_data(data), z_new)
        completion = cox._Completion(status, merged_z @ np.zeros(1), merged_z @ np.zeros(1),
                                     anchor_of)
        n_draws = 20_000
        passed, _, _ = walk_placements(completion, 101, n_draws)
        placements = list(itertools.combinations_with_replacement(range(4), m))
        assert len(placements) == math.comb(3 + m, m)
        p = 1.0 / len(placements)
        se = math.sqrt(p * (1 - p) / n_draws)
        for placement in placements:
            frequency = np.all(passed == placement, axis=1).mean()
            assert abs(frequency - p) <= 3 * se

    @pytest.mark.parametrize("z_new", [[[1.0]], [[0.0], [1.0]]], ids=["m=1", "m=2"])
    @pytest.mark.parametrize("n, beta_true, seed", [(3, 0.8, 11), (5, 0.5, 13)])
    def test_matches_rejection_sampler_moments(self, n, beta_true, seed, z_new):
        assert_walk_matches_rejection(n, beta_true, seed, np.array(z_new))


class TestNaiveWalk:
    """Naive mode's walk, against independent exponential levels sorted and placed."""

    @pytest.mark.parametrize("z_new", [[[1.0]], [[0.0], [1.0]]], ids=["m=1", "m=2"])
    def test_matches_sorted_exponential_levels(self, z_new):
        assert_naive_walk_matches_sorted_levels(tied_naive_completion(np.array(z_new)), 139)

    def test_one_new_subject_lands_with_its_exact_probability(self):
        # A new subject at rate v passes fixed levels H_1..H_j and no more
        # with probability exp(-v H_j) - exp(-v H_{j+1}), H_0 = 0 and
        # H_{n+1} = inf: zero between tied levels.
        completion = tied_naive_completion(np.array([[1.0]]))
        n_draws = 20_000
        passed, _, _ = walk_placements(completion, 149, n_draws)
        v = completion._group_weight[0, 0]
        h = np.concatenate([[0.0], completion.fixed_levels, [np.inf]])
        for j, p in enumerate(np.exp(-v * h[:-1]) - np.exp(-v * h[1:])):
            se = math.sqrt(p * (1 - p) / n_draws)
            assert abs(np.mean(passed[:, 0] == j) - p) <= 3 * se

    # n = 2**k - 1 and 2**k: the guide has 2**(k + 3), then 2**(k + 4) buckets.
    PADDING_EDGES = [1] + [size for k in range(1, 11) for size in (2**k - 1, 2**k)]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from(PADDING_EDGES), st.integers(1, 70)),
           st.integers(0, 2**32 - 1), st.sampled_from([2, 5, None]),
           st.lists(st.floats(min_value=0.0, allow_infinity=False), max_size=20))
    def test_level_search_equals_searchsorted(self, n, seed, pool, extra):
        # Fixed levels drawn from a pool of a few values tie; queries sit on
        # the levels, one double to either side, below the first and above
        # the last, and anywhere a walk's level can be (finite, >= 0).
        rng = np.random.default_rng(seed)
        levels = np.sort(rng.integers(0, pool, n) * 0.25 if pool else rng.exponential(size=n))
        on = rng.choice(levels, 40)
        queries = np.concatenate([
            on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf),
            [-0.0, levels[0] - 1.0, levels[-1] + 1.0, np.nextafter(levels[-1], np.inf)],
            rng.uniform(levels[0] - 1.0, levels[-1] + 1.0, 40), extra])
        status = np.ones(n + 1, dtype=int)
        completion = cox._Completion(status, np.zeros(n + 1), np.zeros(n + 1), np.arange(n),
                                     fixed_levels=levels)
        np.testing.assert_array_equal(completion._below(queries),
                                      np.searchsorted(levels, queries, side="left"))

    # Fixed levels that the guide's buckets split badly: every level in
    # bucket 0 (a top level of 0), all in one bucket, or most of them in
    # bucket 0 below a long geometric tail.
    STRESSED_LEVELS = {
        "all 0": np.zeros(50),
        "all equal": np.full(50, 0.7),
        "dense near 0, geometric tail": np.concatenate(
            [np.linspace(0.0, 1e-6, 400), 1e-6 * 2.0 ** np.arange(1, 60)]),
    }

    @pytest.mark.parametrize("levels", STRESSED_LEVELS.values(), ids=STRESSED_LEVELS.keys())
    def test_level_search_on_levels_that_stress_the_guide(self, levels):
        n = levels.size
        completion = cox._Completion(np.ones(n + 1, dtype=int), np.zeros(n + 1),
                                     np.zeros(n + 1), np.arange(n), fixed_levels=levels)
        # Most of the levels share one bucket, so most queries among them
        # are found by the search past the guide's one step.
        assert np.diff(completion._guide, append=n).max() > n // 2
        queries = np.concatenate([
            levels, np.nextafter(levels, np.inf), np.nextafter(levels, -np.inf),
            [-1.0, -0.0, 0.0, 1e307, 1e308, np.finfo(float).max, np.inf],
            np.linspace(-1.0, 2 * levels[-1] + 1.0, 300), np.geomspace(1e-300, 1e308, 300)])
        np.testing.assert_array_equal(completion._below(queries),
                                      np.searchsorted(levels, queries, side="left"))

    @pytest.mark.parametrize("n", [20, 2000])
    def test_walk_places_its_levels_as_searchsorted_does(self, n):
        # The levels rebuilt from the walk's uniforms and groups, with its
        # arithmetic: V_S summed over the alive groups in group order.
        censored, _ = simulate_ph_binary(n, 0.5, np.random.default_rng(n), 0.25)
        z_new = np.array([[0.0], [1.0], [1.0], [0.0], [1.0]])
        _, completion = cox._augmentation(censored, 5, z_new, None, naive=True)
        n_draws = 4000
        u = mc.stream_uniforms(n, n_draws, completion.per_draw, cox._COX_STREAM_TAG)
        u = u.reshape(n_draws, completion.per_draw).T
        _, groups, below = completion._walk(u)
        weight = completion._group_weight[0]
        alive = np.tile(np.bincount(completion._group), (n_draws, 1))
        level = np.zeros(n_draws)
        for t in range(z_new.shape[0]):
            level += -np.log1p(-u[2 * t]) / np.cumsum(alive * weight, axis=1)[:, -1]
            np.testing.assert_array_equal(below[t],
                                          np.searchsorted(completion.fixed_levels, level))
            if t < groups.shape[0]:
                alive[np.arange(n_draws), groups[t]] -= 1
        assert np.all(alive >= 0) and np.all(alive.sum(axis=1) == 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.lists(st.sampled_from([0.0, -math.log(2.0), -math.log(4.0), -1.3]), min_size=4,
                max_size=4),
       st.sampled_from(["correct", "naive"]), st.integers(0, 2**32 - 1))
@example([1], [0.0] * 4, "naive", 1)  # m = 1: no pick
@example([3], [0.0] * 4, "correct", 2)  # one group
@example([1, 2, 1], [0.0, 0.0, -math.log(2.0), 0.0], "naive", 3)
def test_group_pick_is_searchsorted_on_the_running_weights(sizes, etas, mode, seed):
    # Group g has sizes[g] new subjects at relative hazard exp(etas[g]),
    # equal across groups or not, and its own null eta.  Picks are uniform,
    # 0, or put the target pick * V_S on a running weight; groups that have
    # failed out have zero counts, so running weights repeat.  One group
    # and m = 1 are among the inputs.
    rng = np.random.default_rng(seed)
    m, n_groups, n_draws = sum(sizes), len(sizes), 40
    eta_alt = np.repeat(etas[:n_groups], sizes)
    eta_null = np.repeat(np.arange(n_groups, dtype=float), sizes)
    n = 3
    status = np.ones(n + m, dtype=int)
    anchor_of = np.arange(n) if mode == "naive" else np.arange(1, n + 1)
    completion = cox._Completion(status, np.concatenate([np.zeros(n), eta_alt]),
                                 np.concatenate([np.zeros(n), eta_null]), anchor_of,
                                 fixed_levels=np.arange(1.0, n + 1) if mode == "naive" else None)
    weight = completion._group_weight[0]
    counts = np.tile(completion._group_size, (n_draws, 1))
    u = rng.uniform(size=(2 * m - 1, n_draws))
    expected = np.empty((m - 1, n_draws), dtype=np.intp)
    for t in range(m - 1):
        running = np.cumsum(counts * weight, axis=1)
        for d in range(n_draws):
            kind = rng.integers(3)
            if kind == 1:
                u[2 * t + 1, d] = 0.0
            elif kind == 2:
                # A pick whose target is a running weight below V_S, when one exists.
                for r in running[d, :-1][running[d, :-1] < running[d, -1]]:
                    pick = r / running[d, -1]
                    if pick * running[d, -1] == r:
                        u[2 * t + 1, d] = pick
        targets = u[2 * t + 1] * running[:, -1]
        expected[t] = [np.searchsorted(r[:-1], x, side="right") for r, x in zip(running, targets)]
        counts[np.arange(n_draws), expected[t]] -= 1
        assert counts.min() >= 0
    _, groups, _ = completion._walk(u)
    np.testing.assert_array_equal(groups, expected)


class TestAugmentationMeasures:
    @pytest.mark.parametrize("measure", [ri1_cox_naive, ri1_cox_correct])
    def test_no_new_subjects_is_exactly_one_with_the_config_seed(self, measure):
        rng = np.random.default_rng(21)
        censored, _ = simulate_ph_binary(15, 0.5, rng, 0.2)
        config = MCConfig(n_draws=200, seed=17)
        result = measure(censored, 0, None, mc_config=config)
        assert result.estimate == 1.0
        assert result.mc_standard_error == 0.0
        assert result.seed == config.seed

    @pytest.mark.parametrize("measure", [ri1_cox_naive, ri1_cox_correct])
    def test_covariates_for_no_new_subjects_are_refused(self, measure):
        censored, _ = simulate_ph_binary(15, 0.5, np.random.default_rng(21), 0.2)
        config = MCConfig(n_draws=200, seed=17)
        assert measure(censored, 0, np.zeros((0, 1)), mc_config=config).estimate == 1.0
        with pytest.raises(ValidationError, match=r"new_covariates must have shape \(0, 1\)"):
            measure(censored, 0, np.ones((3, 1)), mc_config=config)

    def test_correct_no_new_no_censoring_is_one(self):
        rng = np.random.default_rng(23)
        _, uncensored = simulate_ph_binary(15, 0.5, rng, 0.0)
        result = ri1_cox_correct(uncensored, 0, None,
                                 mc_config=MCConfig(n_draws=200, seed=1))
        # Ranks are preserved draw by draw, so the check holds exactly.
        assert abs(result.estimate - 1.0) <= max(3 * result.mc_standard_error, 1e-12)

    def test_correct_uncensored_stays_in_unit_interval(self):
        rng = np.random.default_rng(25)
        _, uncensored = simulate_ph_binary(30, 0.5, rng, 0.0)
        z_new = rng.integers(0, 2, size=10).astype(float)[:, None]
        result = ri1_cox_correct(uncensored, 10, z_new,
                                 mc_config=MCConfig(n_draws=4_000, seed=2))
        assert result.estimate > 0.0
        assert result.estimate <= 1.0 + 3 * result.mc_standard_error

    def test_naive_and_correct_differ_when_resampling_moves_mass(self):
        rng = np.random.default_rng(29)
        _, uncensored = simulate_ph_binary(20, 0.8, rng, 0.0)
        z_new = rng.integers(0, 2, size=8).astype(float)[:, None]
        naive = ri1_cox_naive(uncensored, 8, z_new,
                              mc_config=MCConfig(n_draws=20_000, seed=4))
        correct = ri1_cox_correct(uncensored, 8, z_new,
                                  mc_config=MCConfig(n_draws=20_000, seed=5))
        combined_se = math.hypot(naive.mc_standard_error, correct.mc_standard_error)
        assert abs(naive.estimate - correct.estimate) > 3 * combined_se

    def test_new_covariate_shape_validated(self):
        rng = np.random.default_rng(31)
        censored, _ = simulate_ph_binary(10, 0.5, rng, 0.2)
        with pytest.raises(ValidationError):
            ri1_cox_naive(censored, 3, np.zeros((2, 1)),
                          mc_config=MCConfig(n_draws=10, seed=1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("measure", ["correct", "naive", "exact"])
    def test_nonfinite_inputs_rejected_before_the_fit(self, monkeypatch, measure, bad):
        # They used to surface as an all-sentinel run, a span error, a NaN
        # measure or a numpy RuntimeWarning, depending on the mode.
        censored, _ = simulate_ph_binary(20, 0.5, np.random.default_rng(5), 0.25)
        config = MCConfig(n_draws=64, seed=1)
        run = {
            "correct": lambda z, beta0: ri1_cox_correct(censored, 1, z, beta0, mc_config=config),
            "naive": lambda z, beta0: ri1_cox_naive(censored, 1, z, beta0, mc_config=config),
            "exact": lambda z, beta0: cox.ri1_cox_correct_exact(censored, 1, z, beta0),
        }[measure]
        monkeypatch.setattr(cox, "fit_partial_likelihood", None)  # refused before any fit
        with pytest.raises(ValidationError, match="new_covariates must be finite"):
            run([[bad]], None)
        with pytest.raises(ValidationError, match="null beta must be finite"):
            run([[1.0]], [bad])

    def test_exact_refuses_a_negative_number_of_new_subjects(self):
        censored, _ = simulate_ph_binary(20, 0.5, np.random.default_rng(5), 0.25)
        with pytest.raises(ValidationError, match="n_new"):
            cox.ri1_cox_correct_exact(censored, -1, None)

    @pytest.mark.parametrize("measure", [ri1_cox_correct, ri1_cox_naive])
    def test_new_hazard_far_below_the_sample_is_a_span_error(self, measure):
        # Naive mode's rescaled baseline increments underflowed to 0 and were
        # refused as "jump_sizes must be positive"; both modes now refuse the
        # span itself.
        data, _ = simulate_ph_binary(8, 0.5, np.random.default_rng(5), 0.0)
        with pytest.raises(DataIntegrityError, match="span more than the range of doubles"):
            measure(data, 1, [[-1e6]], mc_config=MCConfig(n_draws=64, seed=1))

    @pytest.mark.parametrize("mode", ["correct", "naive", "exact"])
    def test_fixed_terms_past_the_doubles_are_refused_before_any_draw(self, monkeypatch, mode):
        # At a null beta of -1e308 the observed lod is about 1e308, but the
        # null's sum of the events' eta overflows.
        data = dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], [0.0, 1.0, 0.0, 1.0])
        config = MCConfig(n_draws=50, seed=1)
        measure = {"correct": functools.partial(ri1_cox_correct, mc_config=config),
                   "naive": functools.partial(ri1_cox_naive, mc_config=config),
                   "exact": cox.ri1_cox_correct_exact}[mode]
        monkeypatch.setattr(mc, "stream_uniforms", None)
        with pytest.raises(DataIntegrityError, match="fixed terms are outside the range"):
            measure(data, 1, [[1.0]], [-1e308])

    def test_exact_refuses_the_span_monte_carlo_refuses(self):
        data, _ = simulate_ph_binary(8, 0.5, np.random.default_rng(5), 0.0)
        with pytest.raises(DataIntegrityError, match="span more than the range of doubles"):
            cox.ri1_cox_correct_exact(data, 1, [[-1e6]])


def correct_study(estimates, ses):
    n = len(estimates)
    return ConditioningStudy(naive_estimates=np.ones(n), naive_ses=np.ones(n),
                             correct_estimates=np.array(estimates, float),
                             correct_ses=np.array(ses, float), failures=0, seed=0)


class TestConditioningStudy:
    def test_excess_in_standard_errors(self):
        study = correct_study([0.9, 1.02, math.nan], [0.1, 0.01, math.nan])
        assert study.max_correct_excess_se == pytest.approx(2.0)

    def test_zero_se_above_one_is_an_infinite_excess(self):
        assert correct_study([0.9, 1.2], [0.1, 0.0]).max_correct_excess_se == math.inf

    def test_zero_se_at_or_below_one_does_not_raise_the_maximum(self):
        study = correct_study([0.95, 1.0, 0.5], [0.1, 0.0, 0.0])
        assert study.max_correct_excess_se == pytest.approx(-0.5)
        assert correct_study([1.0, 0.5], [0.0, 0.0]).max_correct_excess_se == -math.inf
        assert correct_study([], []).max_correct_excess_se == -math.inf

    @pytest.mark.parametrize("beta_true", [1e3, -1e3, 710.0, math.nan])
    def test_beta_true_without_a_finite_relative_hazard_is_refused(self, monkeypatch,
                                                                   beta_true):
        monkeypatch.setattr(cox, "simulate_ph_binary", None)  # refused before any simulation
        with pytest.raises(ValidationError, match="beta_true"):
            cox.conditioning_anomaly_study(n_datasets=2, beta_true=beta_true)

    def test_no_usable_dataset_gives_a_nan_fraction(self):
        # Every two-subject fit fails; the fraction was a mean of no
        # estimates, with a numpy "Mean of empty slice" warning.
        study = cox.conditioning_anomaly_study(n_datasets=2, n_subjects=2, n_new=2, n_draws=50)
        assert study.failures == 2
        assert math.isnan(study.fraction_naive_above_one)


class TestWaldMeasure:
    def test_complete_equals_observed_gives_one(self):
        assert ri_w_wald(2.0, 1.5, 2.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_larger_complete_model_variance_exceeds_one(self):
        value = ri_w_wald(2.0, 1.0, 2.0, 0.0, 0.0, complete_model_var=2.0)
        assert value > 1.0

    def test_null_statistic_gives_zero(self):
        assert ri_w_wald(0.5, 1.0, 0.7, 0.2, 0.5) == 0.0

    def test_zero_variance_rejected(self):
        with pytest.raises(DomainError):
            ri_w_wald(1.0, 0.0, 1.0, 0.1, 0.0)
        with pytest.raises(DomainError):
            ri_w_wald(1.0, 1.0, 1.0, 0.1, 0.0, complete_model_var=0.0)


def test_lod_rows_matches_rank_computation():
    # One row through the reference sort gives the rank-data lod bit for
    # bit, on censored samples with tied times.
    rng = np.random.default_rng(33)
    beta_a, beta_0 = np.array([0.6]), np.array([0.0])
    for _ in range(20):
        censored, _ = simulate_ph_binary(14, 0.5, rng, 0.25)
        data = SurvivalDataset.from_arrays(np.round(censored.times, 1) + 0.1, censored.status,
                                           censored.covariates)
        z = data.covariates
        lod = lod_rows(data.times, data.status, z @ beta_a, z @ beta_0)
        assert float(lod) == partial_lod(extract_rank_data(data), beta_a, beta_0)


class TestInputValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_time_rejected(self, bad):
        with pytest.raises(ValidationError):
            dataset([bad], [1], [0.0])
        with pytest.raises(ValidationError):
            dataset([1.0, bad, 3.0], [1, 1, 1], [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0])
    def test_nonpositive_time_rejected(self, bad):
        with pytest.raises(ValidationError, match="positive"):
            dataset([1.0, bad, 3.0], [1, 1, 1], [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_covariate_rejected(self, bad):
        with pytest.raises(ValidationError):
            dataset([1.0], [1], [bad])
        with pytest.raises(ValidationError):
            dataset([1.0, 2.0, 3.0], [1, 1, 1], [0.0, bad, 0.0])

    @pytest.mark.parametrize("bad", [0.7, 1.5, 2, -1, math.nan])
    def test_status_other_than_zero_or_one_rejected(self, bad):
        with pytest.raises(ValidationError, match="status"):
            dataset([1.0, 2.0, 3.0], [1, bad, 0], [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("times, status, z", [
        ([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 0, 1], [0.0, 1.0, 0.0, 1.0, 0.0]),
        ([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1, 0], [0.0, 1.0, 0.0, 1.0]),
        ([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1], [0.0, 1.0, 0.0, 1.0, 0.0]),
        ([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1], [[0.0, 1.0, 0.0]] * 3),
    ])
    def test_unequal_lengths_rejected(self, times, status, z):
        with pytest.raises(ValidationError, match="length n"):
            SurvivalDataset.from_arrays(times, status, np.asarray(z))

    def test_covariate_layouts(self):
        # Covariates are one row per subject, whatever the shape: a (dim, n)
        # array is refused, and a square one is read as rows.
        rows = np.array([[0.0, 1.0], [1.0, 0.5], [2.0, 0.0]])
        data = SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [1, 0, 1], rows)
        np.testing.assert_array_equal(data.covariates, rows)
        assert (data.n, data.covariate_dim) == (3, 2)
        with pytest.raises(ValidationError, match="length n"):
            SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [1, 0, 1], rows.T)
        square = SurvivalDataset.from_arrays([1.0, 2.0], [1, 1], [[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(square.covariates, [[0.0, 1.0], [2.0, 3.0]])
        one = SurvivalDataset.from_arrays([1.0, 2.0, 3.0], [1, 0, 1], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(one.covariates, rows[:, :1])

    def test_dataset_holds_read_only_copies(self):
        times, status = np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1])
        z = np.array([[0.0], [1.0], [0.0]])
        data = SurvivalDataset.from_arrays(times, status, z)
        times[0], status[0], z[0, 0] = -1.0, 7, math.nan
        np.testing.assert_array_equal(data.times, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(data.status, [1, 0, 1])
        np.testing.assert_array_equal(data.covariates, [[0.0], [1.0], [0.0]])
        for field in data.arrays():
            with pytest.raises(ValueError):
                field[0] = 0
        with pytest.raises(AttributeError):
            data.times = times

    def test_extreme_linear_predictor_gives_finite_lod(self):
        # exp(800) overflows unless eta is shifted before exponentiating.
        data = dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], [0.0, 800.0, 0.0, 800.0])
        rank = extract_rank_data(data)
        lod = partial_lod(rank, [1.0], [0.0])
        assert math.isfinite(lod)
        # With untied events and no censoring both conventions score alike.
        assert kp_lod(data, rank, [1.0], [0.0]) == lod
        reference = float(lod_rows(data.times, data.status, data.covariates[:, 0], np.zeros(4)))
        assert lod == pytest.approx(reference, rel=1e-12)

    def test_risk_sets_far_below_the_maximum_keep_their_weight(self):
        # Once subject 0 fails, every remaining weight is exp(-800) relative
        # to the maximum, below the range of doubles.
        z = np.array([800.0, 0.0, 0.0, 0.0])
        data = dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], z)
        expected = (800.0 - (800.0 + math.log1p(3.0 * math.exp(-800.0)))
                    - math.log(3.0) - math.log(2.0) + math.log(24.0))
        rank = extract_rank_data(data)
        assert partial_lod(rank, [1.0], [0.0]) == pytest.approx(expected, rel=1e-12)
        assert kp_lod(data, rank, [1.0], [0.0]) == pytest.approx(expected, rel=1e-12)

    def test_risk_sums_are_exact_over_any_span(self):
        # Rows of one batch reach their far-below risk sets at different
        # positions; each level of shifts must serve every row.
        rng = np.random.default_rng(127)
        eta = rng.uniform(-1500.0, 1500.0, size=(40, 12))
        eta[:, -3:] = rng.uniform(-5.0, 5.0, size=(40, 3))
        log_total, (mean,) = cox._risk_sums(eta, eta)
        expected = np.logaddexp.accumulate(eta[:, ::-1], axis=-1)[:, ::-1]
        np.testing.assert_allclose(log_total, expected, rtol=1e-13, atol=1e-12)
        for row in range(40):
            for p in range(12):
                w = np.exp(eta[row, p:] - eta[row, p:].max())
                assert mean[row, p] == pytest.approx(w @ eta[row, p:] / w.sum(), rel=1e-12)

    def test_newton_terms_over_a_wide_eta_span(self):
        # At beta = 0.8 the first failure's eta is 800 above all later ones.
        z = np.array([1000.0, 30.0, 0.0, 20.0, 10.0, 25.0, 5.0, 15.0, 40.0, 35.0])
        data = dataset(np.arange(1.0, 11.0), np.ones(10, dtype=int), z)
        rank = extract_rank_data(data)
        beta, h = 0.8, 1e-7
        terms_at = cox._newton_terms_at(rank)
        ll, score, info = terms_at(np.array([beta]))
        numeric_score = (partial_log_likelihood_at(rank, beta + h)
                         - partial_log_likelihood_at(rank, beta - h)) / (2 * h)
        _, upper, _ = terms_at(np.array([beta + h]))
        _, lower, _ = terms_at(np.array([beta - h]))
        assert np.all(np.isfinite(score)) and np.all(np.isfinite(info))
        assert ll == pytest.approx(partial_log_likelihood_at(rank, beta), rel=1e-12)
        assert score[0] == pytest.approx(numeric_score, rel=1e-5, abs=1e-5)
        assert info[0, 0] == pytest.approx(-(upper[0] - lower[0]) / (2 * h), rel=1e-4, abs=1e-4)


    @pytest.mark.parametrize("eta", [720.0, 1000.0])
    @pytest.mark.parametrize("measure", [ri1_cox_correct, ri1_cox_naive])
    def test_covariate_offset_leaves_the_measure_unchanged(self, measure, eta):
        # An offset of eta / beta_hat puts eta near the target, where exp(eta)
        # overflows and the Breslow increments are subnormal (720) or zero
        # (1000); the partial likelihood and the completion times do not see
        # the offset.
        rng = np.random.default_rng(113)
        censored, _ = simulate_ph_binary(20, 0.5, rng, 0.25)
        z_new = rng.integers(0, 2, size=5).astype(float)[:, None]
        times, status, z = censored.arrays()
        offset = eta / fit_partial_likelihood(extract_rank_data(censored))[0][0]
        shifted = SurvivalDataset.from_arrays(times, status, z + offset)
        config = MCConfig(n_draws=2000, seed=7)
        a = measure(censored, 5, z_new, mc_config=config)
        b = measure(shifted, 5, z_new + offset, mc_config=config)
        assert b.estimate == pytest.approx(a.estimate, rel=1e-6)

    def test_correct_refuses_rates_whose_levels_overflow(self):
        # A new subject at z = 1000 has eta = 729, so the last risk set's
        # rate is exp(-729) relative to it: E / rate would overflow to inf,
        # tie the last failures and return a measure above 1 with SE 0.
        rng = np.random.default_rng(5049)
        n, m = int(rng.integers(5, 60)), int(rng.integers(1, 6))
        _, uncensored = simulate_ph_binary(n, 0.5, rng, 0.3)
        z_new = (rng.integers(0, 2, size=m) * 1e3)[:, None]
        assert (n, m) == (54, 1) and z_new[0, 0] == 1e3
        beta, _ = fit_partial_likelihood(extract_rank_data(uncensored))
        assert beta[0] == pytest.approx(0.7286, abs=1e-4)
        with pytest.raises(DataIntegrityError):
            ri1_cox_correct(uncensored, m, z_new, mc_config=MCConfig(n_draws=256, seed=1))

    def test_naive_refuses_new_weights_far_above_every_risk_set(self):
        # The same sample and new subject as above.  Uncensored, the Breslow
        # increments rescaled to the new subject's rate overflow (refused
        # with no numpy overflow warning).  Censored, the new subject's
        # weight exceeds an event's risk sum by more than exp(_EXP_SPAN),
        # past which the insertion kernel's linear scale would lose that
        # sum; the measure used to come out with SE 0.
        rng = np.random.default_rng(5049)
        n, m = int(rng.integers(5, 60)), int(rng.integers(1, 6))
        censored, uncensored = simulate_ph_binary(n, 0.5, rng, 0.3)
        z_new = (rng.integers(0, 2, size=m) * 1e3)[:, None]
        assert (n, m) == (54, 1) and z_new[0, 0] == 1e3
        for data in (uncensored, censored):
            with pytest.raises(DataIntegrityError):
                ri1_cox_naive(data, m, z_new, mc_config=MCConfig(n_draws=256, seed=1))


def partial_log_likelihood_at(rank, beta):
    return cox.partial_log_likelihood(rank, [beta])


def test_fit_converges_on_large_sample():
    # Step halving used to give up on this n=2000 sample without converging.
    n = 2000
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 0], dtype=np.uint64)))
    z = rng.integers(0, 2, size=n).astype(float)
    t_fail = rng.exponential(size=n) / np.exp(0.5 * z)
    censor = rng.exponential(scale=1.0 / 0.25, size=n)
    data = SurvivalDataset.from_arrays(np.minimum(t_fail, censor),
                                       (t_fail <= censor).astype(int), z[:, None])
    start = time.monotonic()
    beta, se = fit_partial_likelihood(extract_rank_data(data))
    assert time.monotonic() - start < 1.0
    res = optimize.minimize_scalar(
        lambda b: -explicit_partial_loglik(data, b), bounds=(0.0, 1.0),
        method="bounded", options={"xatol": 1e-10})
    assert abs(beta[0] - float(res.x)) <= 1e-6
    assert se[0] > 0


def sweep_cells(dims):
    """(n, censoring rate, covariates, beta, seed) of the ordinary-data sweep, 30 seeds a cell."""
    return itertools.product((20, 50, 100, 200, 500, 2000), (0.0, 0.25, 1.0), dims,
                             (0.5, 2.0), range(1000, 1030))


def test_ordinary_data_is_never_refused():
    # Every cell of n x censoring rate x covariates x beta, 30 seeds each,
    # and five n = 200 samples that a score-norm stop once refused.  A fit
    # may refuse only a one-covariate sample whose likelihood the
    # definition confirms to be monotone.
    # Both Cox measures run on every sample too, with five new subjects at
    # 64 draws (two points of each lattice replicate), and may refuse only
    # what the fit refuses.
    grid = sweep_cells((1, 2))
    named = [(200, 0.25, 1, 0.5, seed) for seed in (1038, 1046, 1047, 1056, 1064)]
    z_new = np.array([[0.0, -1.0], [1.0, 0.5], [1.0, 0.0], [0.0, 1.5], [1.0, -0.5]])
    config = MCConfig(n_draws=64, seed=1)
    refused = []
    for case in (*grid, *named):
        data = philox_sample(*case)
        try:
            beta, se = fit_partial_likelihood(extract_rank_data(data))
        except RelInfoError as exc:
            if not (isinstance(exc, SeparationError) and data.covariate_dim == 1
                    and monotone_by_definition(data.times, data.status, data.covariates[:, 0])):
                refused.append(f"(n, rate, dim, beta, seed) = {case}: {exc!r}")
            for measure in (ri1_cox_correct, ri1_cox_naive):
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    measure(data, 5, z_new[:, :data.covariate_dim], mc_config=config)
            continue
        if not (np.all(np.isfinite(beta)) and np.all(se > 0)):
            refused.append(f"(n, rate, dim, beta, seed) = {case}: beta {beta}, se {se}")
        for measure in (ri1_cox_correct, ri1_cox_naive):
            try:
                result = measure(data, 5, z_new[:, :data.covariate_dim], mc_config=config)
            except RelInfoError as exc:
                refused.append(f"(n, rate, dim, beta, seed) = {case}: {measure.__name__} {exc!r}")
                continue
            if not (math.isfinite(result.estimate) and result.mc_standard_error > 0):
                refused.append(f"(n, rate, dim, beta, seed) = {case}: {measure.__name__} "
                               f"{result.estimate} +- {result.mc_standard_error}")
    assert not refused, "\n".join(refused)


def test_small_covariates_fit_as_at_unit_scale():
    # The sweep's two-covariate cells, all fitted at unit scale, fit with
    # their covariates scaled by 1e-3 too, to the estimate scaled by 1e3:
    # no fit outcome may depend on the covariates' scale.
    # One cell, (20, 1.0, 2, 0.5, 1018), is separated (beta 35.7, SE 2e7):
    # its estimate is wherever Newton stops, so only its outcome is compared.
    for case in sweep_cells((2,)):
        data = philox_sample(*case)
        beta, se = fit_partial_likelihood(extract_rank_data(data))
        scaled = SurvivalDataset(data.times, data.status, data.covariates * 1e-3)
        beta_s, se_s = fit_partial_likelihood(extract_rank_data(scaled))
        assert np.all(np.isfinite(beta_s)) and np.all(se_s > 0), case
        if np.all(se < 1e3):
            np.testing.assert_allclose(beta_s * 1e-3, beta, rtol=1e-9, err_msg=str(case))
            np.testing.assert_allclose(se_s * 1e-3, se, rtol=1e-9, err_msg=str(case))


def brute_force_correct_ri1(data, z_new, beta, beta_null=0.0):
    """Independent oracle: every order of the failing subjects that keeps the
    observed failure order, weighted by its Plackett-Luce probability.  Tied
    failures are observed in subject order.  A censored subject is at risk
    up to and including the last observed failure at or before its time
    (Kalbfleisch and Prentice)."""
    times, status, z = data.arrays()
    n, m = times.size, z_new.size
    eta = np.concatenate([z[:, 0], z_new]) * beta
    eta0 = np.concatenate([z[:, 0], z_new]) * beta_null
    observed = [int(i) for i in np.argsort(times, kind="stable") if status[i] == 1]
    # Censored subject -> the number of observed failures at or before it.
    censored = {i: sum(times[f] <= times[i] for f in observed)
                for i in range(n) if status[i] == 0}

    def log_pl(order, e):
        total, done = 0.0, 0  # done: observed failures before this step
        for k, s in enumerate(order):
            at_risk = list(order[k:]) + [c for c, last in censored.items() if done < last]
            total += e[s] - math.log(sum(math.exp(e[r]) for r in at_risk))
            done += s < n
        return total

    total = weighted = 0.0
    for slots in itertools.combinations(range(len(observed) + m), m):
        for new in itertools.permutations(range(n, n + m)):
            existing, fresh = iter(observed), iter(new)
            order = [next(fresh) if s in slots else next(existing)
                     for s in range(len(observed) + m)]
            p = math.exp(log_pl(order, eta))
            total += p
            weighted += p * (log_pl(order, eta) - log_pl(order, eta0))
    lod_ob = log_pl(observed, eta) - log_pl(observed, eta0)
    return lod_ob / (weighted / total)


def fitted_sample(n, n_new, seed, censoring_rate=0.0):
    """A fitted PH sample; with a censoring rate, one with some censoring."""
    rng = np.random.default_rng(seed)
    while True:
        data, _ = simulate_ph_binary(n, 0.8, rng, censoring_rate)
        z_new = rng.integers(0, 2, size=n_new).astype(float)[:, None]
        if censoring_rate > 0 and np.all(data.status == 1):
            continue
        try:
            beta, _ = fit_partial_likelihood(extract_rank_data(data))
        except (SeparationError, RankDeficiencyError, DegenerateDataError):
            continue
        # Near-separated fits make every draw's lod alike; at beta_hat = 0
        # the observed lod is 0 and the measure is undefined.
        if 0.0 < abs(beta[0]) <= 3.0:
            return data, z_new, beta


def censored_at_event_times(n, n_new, seed):
    """A fitted censored sample in which censored subjects share event times.

    Each censored subject with an event after it moves to the next event's
    time, where it stays at risk (Breslow and Kalbfleisch-Prentice alike).
    """
    rng = np.random.default_rng(seed)
    while True:
        data, z_new, _ = fitted_sample(n, n_new, int(rng.integers(2**31)), 0.6)
        times, status, z = data.times.copy(), data.status, data.covariates
        events = np.sort(times[status == 1])
        later = np.searchsorted(events, times, side="right")
        moved = (status == 0) & (later < events.size)
        if not np.any(moved):
            continue
        times[moved] = events[later[moved]]
        tied = SurvivalDataset.from_arrays(times, status, z)
        try:
            beta, _ = fit_partial_likelihood(extract_rank_data(tied))
        except (SeparationError, RankDeficiencyError):
            continue
        if 0.0 < abs(beta[0]) <= 3.0:
            return tied, z_new, beta


# (n, n_new, seed) of censored samples, censoring rate 0.6.
CENSORED_CASES = [(5, 1, 211), (5, 2, 223), (6, 1, 227), (6, 2, 229),
                  (7, 1, 233), (7, 2, 239), (6, 2, 241), (7, 2, 251)]


# (times, status, covariates, new subjects' covariates), with tied event times.
TIED_WALK_CASES = {
    "uncensored": ([1, 2, 2, 2, 3, 4, 5, 6], [1] * 8, [0, 1, 0, 1, 1, 0, 1, 0], [0, 1]),
    "censored": ([1, 2, 2, 2, 3, 4, 4, 5], [1, 1, 1, 0, 1, 1, 0, 1],
                 [0, 1, 0, 1, 1, 0, 1, 0], [1, 1]),
}


def tied_sample(case):
    """A ``TIED_WALK_CASES`` entry as a fitted sample, as ``fitted_sample`` returns one."""
    times, status, z, z_new = case
    data = dataset(np.asarray(times, float), status, z)
    beta, _ = fit_partial_likelihood(extract_rank_data(data))
    return data, np.asarray(z_new, float)[:, None], beta


def correct_completion(data, z_new):
    """Correct mode's completion of a sample, at its fitted beta_hat and beta_null = 0."""
    return cox._augmentation(data, z_new.shape[0], z_new, None, naive=False)[1]


class TestCorrectExact:
    def test_matches_brute_force_over_all_orders(self):
        data, z_new, beta = fitted_sample(4, 2, 81)
        exact = cox.ri1_cox_correct_exact(data, 2, z_new)
        assert exact == pytest.approx(brute_force_correct_ri1(data, z_new[:, 0], beta[0]),
                                      rel=1e-10)

    @pytest.mark.parametrize("n, n_new, seed", [(5, 2, 83), (6, 2, 89), (7, 1, 97)])
    def test_matches_brute_force_on_censored_data(self, n, n_new, seed):
        data, z_new, beta = fitted_sample(n, n_new, seed, 0.6)
        exact = cox.ri1_cox_correct_exact(data, n_new, z_new)
        assert exact == pytest.approx(brute_force_correct_ri1(data, z_new[:, 0], beta[0]),
                                      rel=1e-10)

    @pytest.mark.parametrize("n, n_new, seed", [(5, 2, 307), (6, 2, 311), (7, 1, 313)])
    def test_matches_brute_force_with_censoring_at_event_times(self, n, n_new, seed):
        data, z_new, beta = censored_at_event_times(n, n_new, seed)
        exact = cox.ri1_cox_correct_exact(data, n_new, z_new)
        assert exact == pytest.approx(brute_force_correct_ri1(data, z_new[:, 0], beta[0]),
                                      rel=1e-10)

    @pytest.mark.parametrize("case", TIED_WALK_CASES.values(), ids=TIED_WALK_CASES.keys())
    def test_matches_brute_force_on_tied_event_times(self, case):
        data, z_new, beta = tied_sample(case)
        exact = cox.ri1_cox_correct_exact(data, 2, z_new)
        assert exact == pytest.approx(brute_force_correct_ri1(data, z_new[:, 0], beta[0]),
                                      rel=1e-10)

    @pytest.mark.parametrize("n, n_new, seed", [(6, 2, 83), (5, 2, 89), (6, 1, 97), (4, 2, 101)])
    def test_monte_carlo_within_three_se_of_exact(self, n, n_new, seed):
        data, z_new, beta = fitted_sample(n, n_new, seed)
        exact = brute_force_correct_ri1(data, z_new[:, 0], beta[0])
        result = ri1_cox_correct(data, n_new, z_new,
                                 mc_config=MCConfig(n_draws=20_000, seed=seed))
        assert abs(result.estimate - exact) <= 3 * result.mc_standard_error

    @pytest.mark.parametrize("n, n_new, seed", CENSORED_CASES)
    def test_monte_carlo_within_three_se_of_exact_on_censored_data(self, n, n_new, seed):
        data, z_new, beta = fitted_sample(n, n_new, seed, 0.6)
        exact = brute_force_correct_ri1(data, z_new[:, 0], beta[0])
        result = ri1_cox_correct(data, n_new, z_new,
                                 mc_config=MCConfig(n_draws=20_000, seed=seed))
        assert abs(result.estimate - exact) <= 3 * result.mc_standard_error

    @pytest.mark.parametrize("n, n_new, seed", [(6, 2, 317), (7, 2, 331), (7, 1, 337)])
    def test_monte_carlo_within_three_se_of_exact_with_censoring_at_event_times(
            self, n, n_new, seed):
        data, z_new, beta = censored_at_event_times(n, n_new, seed)
        exact = brute_force_correct_ri1(data, z_new[:, 0], beta[0])
        result = ri1_cox_correct(data, n_new, z_new,
                                 mc_config=MCConfig(n_draws=20_000, seed=seed))
        assert abs(result.estimate - exact) <= 3 * result.mc_standard_error

    # Far past any enumeration of the (K + m)! / K! augmented orders: 255,024
    # at n = 20, m = 4 uncensored, and the paper's design, censored with
    # m = 5 binary new subjects.
    @pytest.mark.parametrize("n, n_new, seed, censoring_rate",
                             [(20, 4, 109, 0.0), (20, 5, 401, 0.25), (200, 5, 409, 0.25)])
    def test_monte_carlo_within_three_se_of_exact_on_larger_samples(
            self, n, n_new, seed, censoring_rate):
        data, z_new, _ = fitted_sample(n, n_new, seed, censoring_rate)
        exact = cox.ri1_cox_correct_exact(data, n_new, z_new)
        result = ri1_cox_correct(data, n_new, z_new,
                                 mc_config=MCConfig(n_draws=20_000, seed=seed))
        assert abs(result.estimate - exact) <= 3 * result.mc_standard_error

    def test_exact_value_never_exceeds_one(self):
        rng = np.random.default_rng(103)
        for _ in range(25):
            n, n_new = int(rng.integers(3, 7)), int(rng.integers(1, 3))
            data, z_new, _ = fitted_sample(n, n_new, int(rng.integers(2**31)))
            assert 0.0 < cox.ri1_cox_correct_exact(data, n_new, z_new) <= 1.0

    def test_exact_value_never_exceeds_one_on_censored_data(self):
        rng = np.random.default_rng(263)
        for _ in range(25):
            n, n_new = int(rng.integers(3, 9)), int(rng.integers(1, 3))
            data, z_new, _ = fitted_sample(n, n_new, int(rng.integers(2**31)), 0.6)
            assert 0.0 < cox.ri1_cox_correct_exact(data, n_new, z_new) <= 1.0

    def test_exact_value_never_exceeds_one_up_to_n_30_with_tied_times(self):
        # Each censored sample, and its times rounded up to a quarter, which
        # ties events with events and censorings; a refused fit or a
        # non-positive tie-broken observed lod is skipped.
        rng = np.random.default_rng(419)
        checked = {False: 0, True: 0}
        for _ in range(40):
            n, n_new = int(rng.integers(3, 31)), int(rng.integers(1, 6))
            data, z_new, _ = fitted_sample(n, n_new, int(rng.integers(2**31)), 0.3)
            tied = SurvivalDataset.from_arrays(np.ceil(4 * data.times) / 4, data.status,
                                               data.covariates)
            for sample in (data, tied):
                try:
                    exact = cox.ri1_cox_correct_exact(sample, n_new, z_new)
                except (SeparationError, RankDeficiencyError, UndefinedMeasureError):
                    continue
                assert 0.0 < exact <= 1.0
                checked[sample is tied] += 1
        assert checked[False] == 40 and checked[True] >= 30

    def test_no_new_subjects_is_one(self):
        data, _, _ = fitted_sample(5, 0, 107)
        assert cox.ri1_cox_correct_exact(data, 0, None) == 1.0


# Doss-shaped samples: n = 20, five binary new subjects, censoring rate 0.25.
DOSS_SHAPED_SEEDS = (401, 403, 405, 407, 409)


@pytest.mark.parametrize("seed", DOSS_SHAPED_SEEDS)
def test_lattice_se_is_calibrated_against_the_exact_value(seed):
    # Over 200 seeds, z = (estimate - exact) / SE spreads as the SE says, at
    # 2,000 draws and adaptively: with 32 replicates z is about t with 31
    # degrees of freedom, SD 1.03 and 5.8% beyond 1.96.
    data, z_new, _ = fitted_sample(20, 5, seed, 0.25)
    exact = cox.ri1_cox_correct_exact(data, 5, z_new)
    lod_ob, completion = cox._augmentation(data, 5, z_new, None, naive=False)
    for config in (functools.partial(MCConfig, n_draws=2000),
                   functools.partial(MCConfig, n_draws=16 * 1024, max_relative_se=0.0214)):
        z = np.array([(result.estimate - exact) / result.mc_standard_error for result in (
            cox._ri1_cox(lod_ob, completion, config(seed=s), "rank data") for s in range(200))])
        assert 0.85 <= np.std(z, ddof=1) <= 1.2
        assert np.mean(np.abs(z) > 1.96) <= 0.10


@pytest.mark.parametrize("seed", DOSS_SHAPED_SEEDS)
def test_naive_lattice_mean_agrees_with_independent_draws(seed):
    # The naive mean of 2,000 lattice draws against 20,000 independent ones
    # of the same walk, at 3 combined standard errors.
    data, z_new, _ = fitted_sample(20, 5, seed, 0.25)
    result = ri1_cox_naive(data, 5, z_new, mc_config=MCConfig(n_draws=2000, seed=seed))
    completion = cox._augmentation(data, 5, z_new, None, naive=True)[1]
    n = 20_000
    u = mc.stream_uniforms(seed, n, completion.per_draw, cox._COX_STREAM_TAG)
    iid = completion._walk(u.reshape(n, completion.per_draw).T)[0]
    diff = result.diagnostics["denominator_mean"] - iid.mean()
    se = math.hypot(result.diagnostics["denominator_se"], iid.std(ddof=1) / math.sqrt(n))
    assert abs(diff) <= 3 * se


def walk_paths(completion):
    """Every path of the correct-mode walk, with its probability read from its states' rows.

    From (i, S) the walk passes failures i..j-1, then a new subject of group
    g fails, with probability (P(>= j - i) - P(>= j - i + 1)) c_g v_g / V_S:
    searching A_S(i) + E for an Exp(1) E passes at least l failures with
    probability P(>= l) = exp(-(A_S(i + l) - A_S(i))).  Returns each path's
    groups and failures passed, as (m, paths) arrays, and its probability.
    """
    k = completion._event_factor.shape[1]
    paths = []

    def extend(counts, i, steps, p):
        if not counts.any():
            paths.append((steps, p))
            return
        skip = cox._state_rows(counts[None], completion._group_weight,
                               completion._event_factor).prefix[0, 0, :k + 1]
        at_least = np.append(np.exp(-(skip[i:] - skip[i])), 0.0)
        rates = counts * completion._group_weight[0]
        for j in range(i, k + 1):
            for g in np.flatnonzero(counts):
                after = counts.copy()
                after[g] -= 1
                extend(after, j, steps + [(g, j)], p * (at_least[j - i] - at_least[j - i + 1])
                       * rates[g] / rates.sum())

    extend(completion._group_size, 0, [], 1.0)
    steps = np.array([path for path, _ in paths])
    return steps[:, :, 0].T, steps[:, :, 1].T, np.array([p for _, p in paths])


# Samples for the walk's exact law: one or two groups of new subjects.
WALK_LAW_CASES = {
    "uncensored, one group": lambda: fitted_sample(4, 2, 81),
    "uncensored, two groups": lambda: fitted_sample(6, 2, 83),
    "uncensored, one new subject": lambda: fitted_sample(6, 1, 97),
    "censored, one group": lambda: fitted_sample(5, 2, 83, 0.6),
    "censored, two groups": lambda: fitted_sample(6, 2, 241, 0.6),
    "censored at event times, one group": lambda: censored_at_event_times(5, 2, 307),
    "censored at event times, two groups": lambda: censored_at_event_times(6, 2, 317),
}


@pytest.mark.parametrize("sample", WALK_LAW_CASES.values(), ids=WALK_LAW_CASES.keys())
def test_walk_law_gives_the_exact_measure(sample):
    # Summing every walk path's lod, weighted by the sampler's own
    # transition probabilities, must give the Plackett-Luce expectation.
    data, z_new, _ = sample()
    completion = correct_completion(data, z_new)
    groups, passed, prob = walk_paths(completion)
    assert prob.sum() == pytest.approx(1.0, rel=1e-12)
    lods = completion._lods(groups, passed + 1)
    assert prob @ lods == pytest.approx(plackett_luce_expected_lod(completion), rel=1e-10)


def plackett_luce_expected_lod(completion):
    """The expected augmented lod under the Plackett-Luce law of the completion's columns.

    Brute force over every order of the K failures, kept in column order,
    and the m new subjects, each weighted by exp of its partial
    log-likelihood at ``eta_alt``.  Tied event times are taken in the
    columns' order, one after another, as the kernel's lods take them.
    """
    n = completion.anchor_of.size
    k = int(np.count_nonzero(completion.status[:n] == cox.EVENT))
    m = completion.status.size - n
    positions = np.arange(1.0, k + m + 1)
    failures, new = [], []
    for slots in itertools.combinations(range(k + m), m):
        existing = np.ones(k + m, dtype=bool)
        existing[list(slots)] = False
        for new_order in itertools.permutations(range(m)):
            levels = np.empty(m)
            levels[list(new_order)] = positions[~existing]
            failures.append(positions[existing])
            new.append(levels)
    rows = sort_rows(kp_levels(np.array(failures), completion.anchor_of, np.array(new)),
                     completion.status)
    ll_alt = sorted_loglik(*rows, completion.eta_alt)
    ll_null = sorted_loglik(*rows, completion.eta_null)
    weights = np.exp(ll_alt - ll_alt.max())
    return weights @ (ll_alt - ll_null) / weights.sum()


# Every sample of CENSORED_CASES and TIED_WALK_CASES.
CENSORED_AND_TIED_CASES = {
    **{f"censored, {n}, {m}, {seed}": functools.partial(fitted_sample, n, m, seed, 0.6)
       for n, m, seed in CENSORED_CASES},
    **{f"tied, {name}": functools.partial(tied_sample, case)
       for name, case in TIED_WALK_CASES.items()},
}
# And every sample of WALK_LAW_CASES.
EXACT_PASS_CASES = {**CENSORED_AND_TIED_CASES, **WALK_LAW_CASES}


@pytest.mark.parametrize("sample", CENSORED_AND_TIED_CASES.values(),
                         ids=CENSORED_AND_TIED_CASES.keys())
def test_kp_lod_is_the_reference_sort_of_its_columns(sample):
    # The observed lod scores the columns in their own order, each subject
    # its own tie group, as the reference sort of their positions does.
    data, z_new, _ = sample()
    rank = extract_rank_data(data)
    beta_hat, _ = fit_partial_likelihood(rank)
    beta_null = np.zeros(data.covariate_dim)
    status, z, _ = cox._kp_columns(data, rank, np.zeros((0, data.covariate_dim)))
    expected = lod_rows(np.arange(data.n), status, z @ beta_hat, z @ beta_null)
    assert kp_lod(data, rank, beta_hat, beta_null) == float(expected)


@pytest.mark.parametrize("sample", EXACT_PASS_CASES.values(), ids=EXACT_PASS_CASES.keys())
def test_exact_pass_is_the_plackett_luce_expectation(sample):
    data, z_new, _ = sample()
    completion = correct_completion(data, z_new)
    assert completion.expected_lod() == pytest.approx(plackett_luce_expected_lod(completion),
                                                      rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("case", TIED_WALK_CASES.values(), ids=TIED_WALK_CASES.keys())
def test_walk_law_on_tied_event_times_is_the_lods_plackett_luce_law(case):
    # The kernel's lods take tied failures one after another, each with its
    # own risk set, and the walk must draw from the law of those same risk
    # sets.  With the observed lod in that convention too, the exact measure
    # is at most 1.
    times, status, z, z_new = case
    data = dataset(np.asarray(times, float), status, z)
    z_new = np.asarray(z_new, float)[:, None]
    lod_ob, completion = cox._augmentation(data, 2, z_new, None, naive=False)
    groups, passed, prob = walk_paths(completion)
    lods = completion._lods(groups, passed + 1)
    assert prob @ lods == pytest.approx(plackett_luce_expected_lod(completion), rel=1e-10)
    assert 0.0 < lod_ob / (prob @ lods) <= 1.0


def kernel_case(n=30, distinct=0):
    """Censored data with tied times: tied fixed levels in naive mode.

    The new subjects are four with binary covariates, or ``distinct`` ones,
    each with its own covariate.
    """
    rng = np.random.default_rng(61)
    censored, _ = simulate_ph_binary(n, 0.5, rng, 0.3)
    times, status, z = censored.arrays()
    data = SurvivalDataset.from_arrays(np.round(times, 1) + 0.1, status, z)
    z_new = (np.linspace(-1.0, 1.0, distinct) if distinct
             else rng.integers(0, 2, size=4).astype(float))
    return data, z_new[:, None]


def kernel_completions(n=30, distinct=0):
    data, z_new = kernel_case(n, distinct)
    return {mode: cox._augmentation(data, z_new.shape[0], z_new, None, naive=mode == "naive")[1]
            for mode in ("correct", "naive")}


def benchmark_completions(n, distinct=False):
    """Both modes' completions of five new subjects with censoring 0.25, by mode.

    The new subjects have binary covariates, as in every benchmark workload,
    or five distinct ones.
    """
    censored, _ = simulate_ph_binary(n, 0.5, np.random.default_rng(n), 0.25)
    z_new = np.linspace(-1.0, 1.0, 5) if distinct else np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    return {mode: cox._augmentation(censored, 5, z_new[:, None], None, naive=mode == "naive")[1]
            for mode in ("correct", "naive")}


# (n, distinct) of kernel_case: binary new subjects, and all-distinct m = 10,
# whose 2^10 alive states a block of draws mostly reaches.
KERNEL_CASES = {"binary m=4": (30, 0), "distinct m=10, n=20": (20, 10),
                "distinct m=10, n=200": (200, 10)}


def completion_rates(completion):
    """The rates a completion's levels are exponential at, under the alternative.

    The K failures' risk sums (correct mode; none in naive mode) and the new
    subjects' relative hazards, both in the kernel's units of exp(shift).
    """
    gap_rates = (1.0 / completion._event_factor[0] if completion.fixed_levels is None
                 else np.zeros(0))
    return gap_rates, completion._group_weight[0, completion._group]


def n_levels(completion):
    """Explicit exponentials per draw: one per failure gap (correct mode), one per new subject."""
    return sum(rates.size for rates in completion_rates(completion))


def levels_of(completion, exponentials):
    """Failure gaps and new levels from exponentials at the completion's rates."""
    gap_rates, new_rates = completion_rates(completion)
    k = gap_rates.size
    return exponentials[:, :k] / gap_rates, exponentials[:, k:] / new_rates


def explicit_levels(completion, gaps, new):
    """Every augmented subject's level, in the completion's column order.

    ``gaps`` (draws, K) are correct mode's gaps between failure levels and
    ``new`` (draws, m) the new subjects' levels.  The reference for the
    kernel: ``lod_rows`` sorts these levels whole, as the kernel did
    before it placed only the new subjects.
    """
    if completion.fixed_levels is None:
        return kp_levels(np.cumsum(gaps, axis=1), completion.anchor_of, new)
    existing = np.broadcast_to(completion.fixed_levels, (new.shape[0], completion.anchor_of.size))
    return np.concatenate([existing, new], axis=1)


def kernel_placements(completion, gaps, new):
    """Where the new subjects fall among explicit levels, as ``_lods`` takes it.

    Each new level's anchors below it are counted row by row: the fixed
    levels in naive mode; 0, then the draw's own failure levels, in
    correct mode.  No new level may equal an anchor or another new level.
    """
    by_level = np.argsort(new, axis=1, kind="stable")
    new = np.take_along_axis(new, by_level, axis=1)
    if completion.fixed_levels is None:
        anchors = np.concatenate([np.zeros((new.shape[0], 1)), np.cumsum(gaps, axis=1)], axis=1)
    else:
        anchors = np.broadcast_to(completion.fixed_levels,
                                  (new.shape[0], completion.fixed_levels.size))
    below = np.array([np.searchsorted(a, x, "left") for a, x in zip(anchors, new)])
    return completion._group[by_level.T], below.T


def assert_insertion_matches_explicit_levels(completion, new, gaps=None):
    if gaps is None:
        gaps = np.zeros((new.shape[0], 0))
    groups, below = kernel_placements(completion, gaps, new)
    fast = completion._lods(groups, below)
    slow = lod_rows(explicit_levels(completion, gaps, new), completion.status,
                    completion.eta_alt, completion.eta_null)
    np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)


def censored_at_and_before_event_times(rng):
    """Two subjects censored at event times and one before the first event."""
    censored, _ = simulate_ph_binary(25, 0.5, rng, 0.5)
    times, status, z = censored.times.copy(), censored.status, censored.covariates
    cens, fails = np.flatnonzero(status == 0), np.flatnonzero(status == 1)
    times[cens[:3]] = times[fails[0]], times[fails[3]], times.min() / 2
    data = SurvivalDataset.from_arrays(times, status, z)
    return data, rng.integers(0, 2, size=3).astype(float)[:, None]


def existing_subjects_lods(data, z_new, rng):
    """Each of 500 correct draws' lods restricted to the existing subjects."""
    _, completion = cox._augmentation(data, z_new.shape[0], z_new, None, naive=False)
    levels = explicit_levels(completion, *levels_of(
        completion, rng.standard_exponential((500, n_levels(completion)))))
    n = data.n  # columns: the existing subjects, then the new ones
    lods = lod_rows(levels[:, :n], completion.status[:n],
                    completion.eta_alt[:n], completion.eta_null[:n])
    return lods


def test_correct_draws_keep_the_observed_partial_data():
    # Restricted to the existing subjects, every drawn row has the observed
    # failure order and risk sets, so its lod is the observed one.  Two
    # subjects are censored at event times and one before the first event;
    # with untied event times the tie-broken lod is the Breslow lod.
    rng = np.random.default_rng(67)
    data, z_new = censored_at_and_before_event_times(rng)
    lods = existing_subjects_lods(data, z_new, rng)
    rank = extract_rank_data(data)
    lod_ob = partial_lod(rank, fit_partial_likelihood(rank)[0], np.zeros(1))
    np.testing.assert_allclose(lods, lod_ob, rtol=1e-12)
    result = ri1_cox_correct(data, 3, z_new, mc_config=MCConfig(n_draws=64, seed=1))
    assert result.diagnostics["lod_observed"] == pytest.approx(lod_ob, rel=1e-12)


@pytest.mark.parametrize("case", TIED_WALK_CASES.values(), ids=TIED_WALK_CASES.keys())
def test_correct_draws_keep_the_tie_broken_observed_lod(case):
    # With tied event times the draws take tied failures one after another,
    # each with its own risk set, and so must the numerator.
    times, status, z, z_new = case
    data, z_new = dataset(np.asarray(times, float), status, z), np.asarray(z_new, float)[:, None]
    lods = existing_subjects_lods(data, z_new, np.random.default_rng(67))
    result = ri1_cox_correct(data, 2, z_new, mc_config=MCConfig(n_draws=64, seed=1))
    np.testing.assert_allclose(lods, result.diagnostics["lod_observed"], rtol=1e-12)


def test_negative_tie_broken_observed_lod_is_refused():
    # The Breslow beta_hat maximizes the Breslow lod, not the tie-broken one
    # correct mode divides by; here that one is negative, and the measure
    # would be too (about -0.33 at 2,000 draws).
    data = dataset(np.array([1.0, 2, 2, 3, 1, 2, 2]), [0, 1, 0, 0, 0, 0, 1],
                   [-2, 1, -1, -1, -1, 2, -2])
    rank = extract_rank_data(data)
    beta_hat, _ = fit_partial_likelihood(rank)
    assert partial_lod(rank, beta_hat, np.zeros(1)) > 0
    assert kp_lod(data, rank, beta_hat, np.zeros(1)) < 0
    with pytest.raises(UndefinedMeasureError, match="not positive"):
        ri1_cox_correct(data, 1, [[1.0]], mc_config=MCConfig(n_draws=2000, seed=1))
    assert ri1_cox_naive(data, 1, [[1.0]], mc_config=MCConfig(n_draws=200, seed=1)).estimate > 0


@pytest.mark.parametrize("measure", [
    functools.partial(ri1_cox_correct, mc_config=MCConfig(n_draws=50, seed=1)),
    functools.partial(ri1_cox_naive, mc_config=MCConfig(n_draws=50, seed=1)),
    cox.ri1_cox_correct_exact,
], ids=["correct", "naive", "exact"])
@pytest.mark.parametrize("z, lod", [([0, 1, 0, 1], "inf"), ([0, 2, 0, 2], "nan")])
def test_nonfinite_observed_lod_is_refused_before_a_completion(monkeypatch, measure, z, lod):
    # At the null beta 1e308 the null log-likelihood overflows to -inf, and
    # with covariates of 2 a linear predictor does too, so the lod is inf or nan.
    def build(*args, **kwargs):
        raise AssertionError("a completion was built")

    monkeypatch.setattr(cox, "_Completion", build)
    data = dataset(np.arange(1.0, 5.0), [1, 1, 1, 1], z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UndefinedMeasureError, match=f"^observed partial-likelihood lod is "
                                                        f"{lod}: not positive and finite$"):
            measure(data, 1, [[1.0]], [1e308])


class TestInsertionKernel:
    @pytest.mark.parametrize("case", KERNEL_CASES.values(), ids=KERNEL_CASES.keys())
    @pytest.mark.parametrize("mode", ["correct", "naive"])
    def test_matches_explicit_levels(self, mode, case):
        completion = kernel_completions(*case)[mode]
        rng = np.random.default_rng(71)
        gaps, new = levels_of(completion, rng.standard_exponential((300, n_levels(completion))))
        assert_insertion_matches_explicit_levels(completion, new, gaps)

    @pytest.mark.parametrize("mode", ["correct", "naive"])
    def test_state_codes_beyond_int64(self, mode):
        # 64 distinct new subjects have 2^64 alive states.
        completion = kernel_completions(30, 64)[mode]
        rng = np.random.default_rng(71)
        gaps, new = levels_of(completion, rng.standard_exponential((50, n_levels(completion))))
        assert_insertion_matches_explicit_levels(completion, new, gaps)
        np.testing.assert_array_equal(
            completion.lods(5, 0, 100),
            np.concatenate([completion.lods(5, 0, 37), completion.lods(5, 37, 100)]))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 70), st.sampled_from(["ties", "distinct"]))
    def test_new_subject_groups_equal_np_unique(self, seed, m, kind):
        # Equal pairs (including 0.0 against -0.0) share a group, the groups
        # in np.unique's lexicographic order, each led by its first subject.
        rng = np.random.default_rng(seed)
        if kind == "ties":
            new_eta = rng.integers(-1, 2, size=(2, m)) * 0.5
            new_eta[rng.random((2, m)) < 0.5] *= -1.0
        else:
            new_eta = rng.normal(size=(2, m))
        got = cox._group_new_subjects(new_eta)
        want = np.unique(new_eta.T, axis=0, return_index=True, return_inverse=True,
                         return_counts=True)[1:]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w.reshape(-1))
            assert g.dtype == w.dtype

    def test_new_subject_groups_merge_signed_zeros(self):
        new_eta = np.array([[0.0, -0.0, 0.5, -0.0, 0.5], [-0.0, 0.0, 1.0, -0.0, 1.0]])
        first, group, size = cox._group_new_subjects(new_eta)
        assert first.tolist() == [0, 2] and group.tolist() == [0, 0, 1, 0, 1]
        assert size.tolist() == [3, 2]

    def test_exact_ties_in_naive_mode(self):
        # Tied fixed levels, each tie group holding an event and a censoring,
        # share their Breslow risk set; new subjects fall just below and
        # just above a tie group, between levels, below every level and
        # beyond every one.  (The walk never puts a new subject on a level.)
        levels = np.array([0.25, 0.5, 0.5, 1.0, 2.0, 2.0])
        status = np.array([1, 1, 0, 1, 0, 1, 1, 1, 1])
        eta = np.array([0.3, -1.0, 2.0, 0.0, 1.5, -0.5, 0.7, -0.2, 1.1])
        completion = cox._Completion(status, eta, 0.4 * eta[::-1], np.arange(6),
                                     fixed_levels=levels)
        new_levels = np.array([[0.375, 0.625, 0.125], [4.0, 1.5, 0.1875],
                               [2.5, 0.75, 3.0], [0.4375, 2.25, 1.25]])
        assert_insertion_matches_explicit_levels(completion, new_levels)

    def test_new_weights_far_below_the_existing_risk_sums(self):
        # exp(800) overflows: the existing risk sums enter the new subjects'
        # own terms on the log scale.
        levels = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        status = np.array([1, 1, 0, 1, 1, 1, 1])
        eta = np.array([800.0, 0.0, 810.0, -5.0, 790.0, 0.0, 2.0])
        new_rates = np.array([1.0, 2.0])
        completion = cox._Completion(status, eta, 0.5 * eta, np.arange(5),
                                     fixed_levels=levels)
        exponentials = np.random.default_rng(73).standard_exponential((200, 2)) * 2.0
        assert_insertion_matches_explicit_levels(completion, exponentials / new_rates)

    def test_refuses_new_weights_spanning_more_than_the_double_range(self):
        # Each new weight is within exp(_EXP_SPAN) of every event's risk sum,
        # but not of the other new weight.
        status = np.array([1, 1, 1, 1])
        eta = np.array([0.0, 700.0, 0.0, 700.0])
        with pytest.raises(DataIntegrityError):
            cox._Completion(status, eta, np.zeros(4), np.arange(2),
                            fixed_levels=np.array([1.0, 2.0]))

    # Correct mode, two failures and one new subject; eta lists the
    # failures, then the new subject.
    @pytest.mark.parametrize("eta", [[0.0, 0.0, -700.0], [700.0, 0.0, 350.0]],
                             ids=["new far below every risk sum", "risk sums spanning 700"])
    def test_correct_mode_refuses_a_walk_law_spanning_more_than_the_double_range(self, eta):
        status, eta = np.array([1, 1, 1]), np.array(eta)
        with pytest.raises(DataIntegrityError, match="range of doubles"):
            cox._Completion(status, eta, np.zeros(3), np.array([1, 2]))

    def test_naive_mode_builds_with_risk_sums_spanning_700(self):
        # The fixed levels need no law among the failures, only the new
        # weights within exp(_EXP_SPAN) of each risk sum.
        status, eta = np.array([1, 1, 1]), np.array([700.0, 0.0, 350.0])
        completion = cox._Completion(status, eta, np.zeros(3), np.arange(2),
                                     fixed_levels=np.array([1.0, 2.0]))
        assert np.all(np.isfinite(completion.lods(1, 0, 64)))

    def test_correct_mode_builds_just_inside_the_span(self):
        status = np.array([1, 1, 1])
        eta = np.array([cox._EXP_SPAN - 1.0, 0.0, 300.0])
        completion = cox._Completion(status, eta, np.zeros(3), np.array([1, 2]))
        assert np.all(np.isfinite(completion.lods(1, 0, 64)))


class TestBlockKernelDeterminism:
    @pytest.mark.parametrize("case", KERNEL_CASES.values(), ids=KERNEL_CASES.keys())
    @pytest.mark.parametrize("mode", ["correct", "naive"])
    def test_draws_do_not_depend_on_grouping(self, monkeypatch, mode, case):
        completion = kernel_completions(*case)[mode]
        n = 300 if case[1] else 700  # draws; tiny budgets make m = 10 slow
        one_block = completion.lods(5, 0, n)
        assert np.all(np.isfinite(one_block))
        for budget in (3 * completion.status.size, 1000, 2**24):
            monkeypatch.setattr(cox, "_BLOCK_ELEMENTS", budget)
            # A new table under this budget, and the one built under the default.
            pieces = np.concatenate([completion.lods(5, 0, 123), completion.lods(5, 123, n)])
            for other in (kernel_completions(*case)[mode].lods(5, 0, n), completion.lods(5, 0, n),
                          pieces):
                np.testing.assert_array_equal(one_block, other)
        np.testing.assert_array_equal(one_block, completion.lods(5, 0, 2 * n)[:n])
        # A block of one draw sums its terms as a larger block does, m >= 8 too.
        np.testing.assert_array_equal(
            one_block[-10:], [completion.lods(5, i, i + 1)[0] for i in range(n - 10, n)])

    @pytest.mark.parametrize("capacity", [40, 300],
                             ids=["rounds beyond the budget", "rounds within it"])
    @pytest.mark.parametrize("mode", ["correct", "naive"])
    def test_per_round_rows_score_as_the_whole_lattice(self, monkeypatch, mode, capacity):
        # All 2^10 - 1 states a round reads fit the default budget at n = 20,
        # so the completion builds them all.  Under a budget for 40 states,
        # the rounds of more than 40 states build their rows in several
        # runs; under one for 300, every round's states fit one run.
        completion = kernel_completions(20, 10)[mode]
        expected = completion.lods(5, 0, 700)
        assert completion._table is not None
        monkeypatch.setattr(cox, "_BLOCK_ELEMENTS", capacity * completion._state_elements)
        small = kernel_completions(20, 10)[mode]
        assert small._table is None
        np.testing.assert_array_equal(small.lods(5, 0, 700), expected)
        if mode == "correct":
            assert small.expected_lod() == completion.expected_lod()

    @pytest.mark.parametrize("n", [20, 2000])
    @pytest.mark.parametrize("mode", ["correct", "naive"])
    def test_regimes_agree_at_the_benchmark_shape(self, monkeypatch, mode, n):
        # Binary m = 5, as the benchmark runs it: every state fits the
        # default budget.  Under a budget for two states, each round builds
        # its states' rows in runs of two.
        completion = benchmark_completions(n)[mode]
        assert completion._table is not None
        n_draws = 4000 if n == 2000 else 1000
        expected = completion.lods(5, 0, n_draws)
        monkeypatch.setattr(cox, "_BLOCK_ELEMENTS", 2 * completion._state_elements)
        per_round = benchmark_completions(n)[mode]
        assert per_round._table is None
        np.testing.assert_array_equal(per_round.lods(5, 0, n_draws), expected)
        if mode == "correct":
            assert per_round.expected_lod() == completion.expected_lod()

    @pytest.mark.parametrize("mode", ["correct", "naive"])
    def test_regimes_switch_where_the_reachable_states_fit(self, monkeypatch, mode):
        # Five distinct new subjects at n = 2000 have 32 states; the 31 a
        # round reads fit the default budget with their rows, all 32 do not.
        completion = benchmark_completions(2000, distinct=True)[mode]
        elements = completion._state_elements
        assert completion._table.own.shape[1] == 31
        assert 31 * elements <= cox._BLOCK_ELEMENTS < 32 * elements
        expected = completion.lods(5, 0, 4000)
        for budget, whole in [(31 * elements, True), (31 * elements - 1, False)]:
            monkeypatch.setattr(cox, "_BLOCK_ELEMENTS", budget)
            other = benchmark_completions(2000, distinct=True)[mode]
            assert (other._table is not None) == whole
            np.testing.assert_array_equal(other.lods(5, 0, 4000), expected)
            if mode == "correct":
                assert other.expected_lod() == completion.expected_lod()

    @pytest.mark.parametrize("mode", ["correct", "naive"])
    def test_regimes_agree_on_a_heavily_censored_sample(self, monkeypatch, mode):
        # About 90% censored at n = 200: naive mode's own terms have n + 1 =
        # 201 anchors, many times the prefix tables' width of 32.
        censored, _ = simulate_ph_binary(200, 0.5, np.random.default_rng(200), 12.0)
        assert 10 <= censored.status.sum() <= 30
        z_new = np.array([[0.0], [1.0], [1.0], [0.0], [1.0]])

        def build():
            return cox._augmentation(censored, 5, z_new, None, naive=mode == "naive")[1]

        completion = build()
        assert completion._table is not None and completion._own_table is not None
        assert completion._table.prefix.shape[2] == 32
        expected = completion.lods(5, 0, 2000)
        rng = np.random.default_rng(83)
        gaps, new = levels_of(completion, rng.standard_exponential((300, n_levels(completion))))
        assert_insertion_matches_explicit_levels(completion, new, gaps)
        monkeypatch.setattr(cox, "_BLOCK_ELEMENTS", 2 * completion._state_elements)
        per_round = build()
        assert per_round._table is None
        np.testing.assert_array_equal(per_round.lods(5, 0, 2000), expected)
        if mode == "correct":
            assert per_round.expected_lod() == completion.expected_lod()

    @pytest.mark.parametrize("measure", [ri1_cox_correct, ri1_cox_naive])
    def test_adaptive_stop_does_not_depend_on_sub_block_size(self, monkeypatch, measure):
        data, z_new = kernel_case()
        # A target the lattice rule reaches past the first batch, inside the
        # third (at 3,040 draws correct and 2,976 naive).
        config = MCConfig(n_draws=20 * 1024, seed=9, max_relative_se=0.002)
        a = measure(data, 4, z_new, mc_config=config)
        monkeypatch.setattr(cox, "_BLOCK_ELEMENTS", 1000)
        b = measure(data, 4, z_new, mc_config=config)
        assert a.n_draws == b.n_draws
        assert 1024 < a.n_draws < config.n_draws
        assert (a.estimate, a.mc_standard_error) == (b.estimate, b.mc_standard_error)


def test_kernel_memory_stays_bounded(monkeypatch):
    # All-distinct m = 12 at n = 200 reaches thousands of states, each with
    # rows of about 2 x 256 doubles: more than the budget holds.
    completion = kernel_completions(200, 12)["correct"]
    held, build = [], cox._state_rows

    def state_rows(*args):
        rows = build(*args)
        held.append(rows.prefix.size + rows.own.size)
        return rows

    monkeypatch.setattr(cox, "_state_rows", state_rows)
    tracemalloc.start()
    try:
        completion.lods(5, 0, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The kernel that built each round's tables anew peaked at 6.93e6 bytes
    # here (numpy 2.4).
    assert peak <= 1.25 * 6.93e6
    assert completion._table is None  # each round builds its states' rows
    # Every run of state rows a round builds fits the budget.
    assert held and max(held) <= cox._BLOCK_ELEMENTS


@pytest.mark.parametrize("n", [20, 2000])
@pytest.mark.parametrize("mode", ["correct", "naive"])
def test_table_regime_stays_within_the_budget(monkeypatch, mode, n):
    # A completion that holds every state's rows holds them, their alive
    # weights and their own terms within the one budget.  Naive mode's
    # guide is O(n) per completion, like its level table, and is not
    # counted per state.
    completion = benchmark_completions(n)[mode]
    table = completion._table
    held = table.prefix.size + table.own.size + completion._own_table.size
    assert held <= cox._BLOCK_ELEMENTS
    # A budget that admits the rows but not the own terms keeps the rows
    # and forms each draw's own terms from W_S, the same doubles.
    expected = completion.lods(5, 0, 1000)
    for budget, own_table in [(held, True), (held - 1, False)]:
        monkeypatch.setattr(cox, "_BLOCK_ELEMENTS", budget)
        other = benchmark_completions(n)[mode]
        assert other._table is not None and (other._own_table is not None) == own_table
        np.testing.assert_array_equal(other.lods(5, 0, 1000), expected)


# (times, status, covariates, new subjects' covariates)
EDGE_CASES = {
    "tied event times": ([1, 2, 2, 2, 3, 4, 5, 6], [1] * 8, [0, 1, 0, 1, 1, 0, 1, 0], [0, 1]),
    "censoring at event times": ([1, 2, 2, 3, 4, 4, 5, 6], [1, 1, 0, 1, 1, 0, 1, 0],
                                 [0, 1, 0, 1, 1, 0, 1, 0], [0, 1]),
    "covariates at 1e3": ([1, 2, 2, 3, 4, 4, 5, 6], [1, 1, 0, 1, 1, 0, 1, 0],
                          [0, 1e3, 0, 1e3, 1e3, 0, 1e3, 0], [0, 1e3]),
    "no new subjects, censored": ([1, 2, 2, 3, 4, 4, 5, 6], [1, 1, 0, 1, 1, 0, 1, 0],
                                  [0, 1, 0, 1, 1, 0, 1, 0], []),
    "no new subjects, uncensored": ([1, 2, 3, 4, 5, 6], [1] * 6, [0, 1, 0, 1, 1, 0], []),
    # The one event's covariate lies inside its risk set's range, so the
    # partial likelihood has an interior maximum.
    "single event": ([1, 2, 3, 4, 5], [0, 0, 1, 0, 0], [5, 5, 1, 0, 3], [1, 3]),
}


def edge_measure(measure, times, status, z, z_new):
    data = dataset(np.asarray(times, float), status, z)
    new = np.asarray(z_new, float)[:, None] if z_new else None
    return measure(data, len(z_new), new, mc_config=MCConfig(n_draws=256, seed=3))


def assert_finite_measure(result, n_new):
    # The reductions take every draw or refuse: a measure that returns was
    # taken over all its draws, none set aside as a sentinel.
    assert math.isfinite(result.estimate) and math.isfinite(result.mc_standard_error)
    assert result.n_draws == (256 if n_new else 0)
    if n_new == 0:
        assert result.estimate == pytest.approx(1.0, rel=0, abs=1e-12)


@pytest.mark.parametrize("case", EDGE_CASES.values(), ids=EDGE_CASES.keys())
@pytest.mark.parametrize("measure", [ri1_cox_correct, ri1_cox_naive])
def test_edge_cases_give_a_finite_measure(measure, case):
    assert_finite_measure(edge_measure(measure, *case), len(case[3]))


@st.composite
def edge_case_samples(draw):
    """Small samples on a coarse time grid: tied events, censoring at event
    times and single-event data are common; covariates reach 1e3."""
    n = draw(st.integers(2, 8))
    times = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    status = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
    z = [scale * v for v in draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))]
    z_new = [scale * v for v in draw(st.lists(st.integers(-2, 2), max_size=3))]
    return times, status, z, z_new


@given(case=edge_case_samples())
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("measure", [ri1_cox_correct, ri1_cox_naive])
def test_edge_cases_never_give_a_silent_sentinel(measure, case):
    try:
        result = edge_measure(measure, *case)
    except RelInfoError as exc:
        # The data may be refused, but no completion's lod may fail to be finite.
        assert "non-finite Monte Carlo draw" not in str(exc)
        return
    assert_finite_measure(result, len(case[3]))


def edge_completion(mode, case):
    """The completion of an edge-case sample; None without new subjects or when refused."""
    times, status, z, z_new = case
    if not z_new:
        return None
    data = dataset(np.asarray(times, float), status, z)
    z_new, beta_null = np.asarray(z_new, float)[:, None], np.zeros(1)
    try:  # no observed-lod refusal: the kernel does not depend on its sign
        rank = extract_rank_data(data)
        beta_hat, _ = fit_partial_likelihood(rank)
        if mode == "naive":
            return cox._naive_completion(data, rank, beta_hat, beta_null, z_new)
        status, merged_z, anchor_of = cox._kp_columns(data, rank, z_new)
        return cox._Completion(status, merged_z @ beta_hat, merged_z @ beta_null, anchor_of)
    except RelInfoError:
        return None


@given(case=edge_case_samples(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)  # most small samples fail the fit
@pytest.mark.parametrize("mode", ["correct", "naive"])
def test_insertion_kernel_matches_explicit_levels(mode, case, seed):
    completion = edge_completion(mode, case)
    if completion is None:
        return
    rng = np.random.default_rng(seed)
    gaps, new = levels_of(completion, rng.standard_exponential((64, n_levels(completion))))
    assert_insertion_matches_explicit_levels(completion, new, gaps)


@given(case=edge_case_samples())
@settings(max_examples=400, deadline=None)  # most small samples fail the fit
def test_exact_pass_is_the_plackett_luce_expectation_on_edge_cases(case):
    completion = edge_completion("correct", case)
    if completion is not None:
        assert completion.expected_lod() == pytest.approx(
            plackett_luce_expected_lod(completion), rel=1e-9, abs=1e-12)
