import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from relinfo import cox, mc
from relinfo.cox import (
    BaselineHazard,
    SurvivalDataset,
    SurvivalRecord,
    breslow_baseline,
    extract_rank_data,
    fit_partial_likelihood,
    partial_lod,
    ri1_cox_correct,
    ri1_cox_naive,
    ri_w_wald,
    sample_times_given_ranks,
    simulate_ph_binary,
)
from relinfo.errors import (
    DataIntegrityError,
    DegenerateDataError,
    DomainError,
    OracleUnavailableError,
    RankDeficiencyError,
    RelInfoError,
    SeparationError,
    ValidationError,
)
from relinfo.mc import MCConfig


def dataset(times, status, z):
    return SurvivalDataset.from_arrays(times, status, np.asarray(z, float)[:, None])


def unit_baseline():
    # Continuous working hazard equal to the identity: one knot at (1, 1)
    # plus a unit tail rate.
    return BaselineHazard(jump_times=np.array([1.0]), jump_sizes=np.array([1.0]))


def explicit_partial_loglik(data, beta):
    """Independent oracle: the literal product over failures."""
    times, status, z = data.arrays()
    ll = 0.0
    for i in np.flatnonzero(status == 1):
        at_risk = times >= times[i]
        ll += beta * z[i, 0] - math.log(np.sum(np.exp(beta * z[at_risk, 0])))
    return ll


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
        assert rank.failure_order == (0, 1, 2)
        assert [len(r) for r in rank.risk_sets] == [3, 2, 1]

    def test_early_censor_leaves_risk_sets(self):
        data = dataset([0.5, 2.0, 3.0], [0, 1, 1], [0.0, 1.0, 0.0])
        rank = extract_rank_data(data)
        assert all(0 not in r for r in rank.risk_sets)

    def test_five_subject_mixed_fixture(self):
        data = dataset([2.0, 1.0, 4.0, 3.0, 5.0], [1, 0, 1, 0, 1],
                       [0.0, 1.0, 1.0, 0.0, 1.0])
        rank = extract_rank_data(data)
        assert rank.failure_order == (0, 2, 4)
        assert rank.risk_sets == (frozenset({0, 2, 3, 4}),
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
        assert a.failure_order == b.failure_order
        assert a.risk_sets == b.risk_sets


class TestFit:
    def test_constant_covariate_is_degenerate(self):
        data = dataset([1.0, 2.0, 3.0], [1, 1, 1], [1.0, 1.0, 1.0])
        with pytest.raises(RankDeficiencyError):
            fit_partial_likelihood(extract_rank_data(data))

    def test_contrast_only_outside_every_risk_set_is_rank_deficient(self):
        # The one nonzero covariate is censored before the first event, so
        # the information is a rounding residue that once gave a NaN SE.
        data = dataset([2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0], [1, 0, 0, 0, 0, 1, 1],
                       [0.0, 0.0, 0.0, 0.0, 30.0, 0.0, 0.0])
        with pytest.raises(RankDeficiencyError):
            fit_partial_likelihood(extract_rank_data(data))

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
            except Exception:
                continue
            if abs(beta[0]) > 3.5:
                # near-separated: the grid oracle's window cannot bracket it
                continue
            assert abs(beta[0] - grid_search_beta(censored)) <= 1e-6
            checked += 1

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

    def test_cumulative_inverse_roundtrip(self):
        bl = breslow_baseline(
            dataset([1.0, 2.0, 4.0], [1, 1, 1], [0.0, 1.0, 0.0]), [0.3])
        ts = np.array([0.2, 1.0, 3.0, 4.0, 9.0])
        np.testing.assert_allclose(bl.inverse(bl.cumulative(ts)), ts, rtol=1e-12)


class TestRankConditionalSampler:
    def test_every_draw_reranks_to_conditioning_order(self):
        rng = np.random.default_rng(3)
        censored, _ = simulate_ph_binary(8, 0.5, rng, 0.2)
        rank = extract_rank_data(censored)
        beta, _ = fit_partial_likelihood(rank)
        bl = breslow_baseline(censored, beta)
        for i in range(500):
            times = sample_times_given_ranks(rank, beta, bl, mc.substream(77, i))
            assert np.all(np.diff(times) >= 0)
            order = np.array(rank.failure_order)[np.argsort(times, kind="stable")]
            np.testing.assert_array_equal(order, rank.failure_order)

    def test_gap_marginals_match_order_statistics(self):
        # n=3, beta=0, unit-rate baseline: gaps are Exp(3), Exp(2), Exp(1).
        data = dataset([1.0, 2.0, 3.0], [1, 1, 1], [0.0, 0.0, 0.0])
        rank = extract_rank_data(data)
        bl = unit_baseline()
        draws = np.array([
            sample_times_given_ranks(rank, [0.0], bl, mc.substream(101, i))
            for i in range(20_000)
        ])
        gaps = np.column_stack([draws[:, 0], np.diff(draws, axis=1)])
        for k, rate in enumerate([3.0, 2.0, 1.0]):
            mean = gaps[:, k].mean()
            se = gaps[:, k].std(ddof=1) / math.sqrt(gaps.shape[0])
            assert abs(mean - 1.0 / rate) <= 3 * se

    @pytest.mark.parametrize("n, beta_true, seed", [(3, 0.8, 11), (5, 0.5, 13)])
    def test_matches_rejection_sampler_moments(self, n, beta_true, seed):
        rng = np.random.default_rng(seed)
        data, _ = simulate_ph_binary(n, beta_true, rng, 0.0)
        rank = extract_rank_data(data)
        beta = np.array([beta_true])
        bl = unit_baseline()
        eta = rank.covariates[:, 0] * beta_true

        n_direct = 20_000
        direct = np.array([
            sample_times_given_ranks(rank, beta, bl, mc.substream(seed, i))
            for i in range(n_direct)
        ])

        # Rejection oracle: unconditional times from the same model, accepted
        # only when they reproduce the observed failure order.
        accepted = []
        oracle_rng = np.random.default_rng(seed + 1)
        target = np.array(rank.failure_order)
        while len(accepted) < 4_000:
            t = oracle_rng.exponential(size=n) / np.exp(eta)
            if np.array_equal(np.argsort(t), target):
                accepted.append(t[target])
        accepted = np.array(accepted)

        for k in range(n):
            for moment in (1, 2):
                a = direct[:, k] ** moment
                b = accepted[:, k] ** moment
                se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
                assert abs(a.mean() - b.mean()) <= 3 * se


class TestAugmentationMeasures:
    def test_naive_no_new_subjects_is_exactly_one(self):
        rng = np.random.default_rng(21)
        censored, _ = simulate_ph_binary(15, 0.5, rng, 0.2)
        result = ri1_cox_naive(censored, 0, None)
        assert result.estimate == 1.0
        assert result.mc_standard_error == 0.0

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


def test_partial_lod_times_matches_rank_computation():
    rng = np.random.default_rng(33)
    censored, _ = simulate_ph_binary(14, 0.5, rng, 0.25)
    rank = extract_rank_data(censored)
    beta_a, beta_0 = np.array([0.6]), np.array([0.0])
    times, status, z = censored.arrays()
    fast = cox._partial_lod_times(times, status, z @ beta_a, z @ beta_0)
    assert fast == pytest.approx(partial_lod(rank, beta_a, beta_0), rel=1e-12)


class TestInputValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_time_rejected(self, bad):
        with pytest.raises(ValidationError):
            SurvivalRecord(bad, 1, (0.0,))
        with pytest.raises(ValidationError):
            dataset([1.0, bad, 3.0], [1, 1, 1], [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_covariate_rejected(self, bad):
        with pytest.raises(ValidationError):
            SurvivalRecord(1.0, 1, (bad,))
        with pytest.raises(ValidationError):
            dataset([1.0, 2.0, 3.0], [1, 1, 1], [0.0, bad, 0.0])

    def test_extreme_linear_predictor_gives_finite_lod(self):
        # exp(800) overflows unless eta is shifted before exponentiating.
        z = np.array([0.0, 800.0, 0.0, 800.0])
        data = dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], z)
        times, status, _ = data.arrays()
        lod = cox._partial_lod_times(times, status, z, np.zeros(4))
        assert math.isfinite(lod)
        assert lod == pytest.approx(partial_lod(extract_rank_data(data), [1.0], [0.0]),
                                    rel=1e-12)

    def test_risk_sets_far_below_the_maximum_keep_their_weight(self):
        # Once subject 0 fails, every remaining weight is exp(-800) relative
        # to the maximum, below the range of doubles.
        z = np.array([800.0, 0.0, 0.0, 0.0])
        data = dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], z)
        expected = (800.0 - (800.0 + math.log1p(3.0 * math.exp(-800.0)))
                    - math.log(3.0) - math.log(2.0) + math.log(24.0))
        rank = extract_rank_data(data)
        times, status, _ = data.arrays()
        assert partial_lod(rank, [1.0], [0.0]) == pytest.approx(expected, rel=1e-12)
        assert cox._partial_lod_times(times, status, z, np.zeros(4)) == pytest.approx(
            expected, rel=1e-12)

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

    def test_score_and_information_over_a_wide_eta_span(self):
        # At beta = 0.8 the first failure's eta is 800 above all later ones.
        z = np.array([1000.0, 30.0, 0.0, 20.0, 10.0, 25.0, 5.0, 15.0, 40.0, 35.0])
        data = dataset(np.arange(1.0, 11.0), np.ones(10, dtype=int), z)
        rank = extract_rank_data(data)
        beta, h = 0.8, 1e-7
        score, info = cox._score_and_information(rank, [beta])
        numeric_score = (partial_log_likelihood_at(rank, beta + h)
                         - partial_log_likelihood_at(rank, beta - h)) / (2 * h)
        upper, _ = cox._score_and_information(rank, [beta + h])
        lower, _ = cox._score_and_information(rank, [beta - h])
        assert np.all(np.isfinite(score)) and np.all(np.isfinite(info))
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


def brute_force_correct_ri1(data, z_new, beta, beta_null=0.0):
    """Independent oracle: every order of the failing subjects, kept when it
    agrees with the observed failure order, weighted by its Plackett-Luce
    probability.  A censored subject is at risk up to and including the last
    observed failure at or before its time (Kalbfleisch and Prentice)."""
    times, status, z = data.arrays()
    n, m = times.size, z_new.size
    eta = np.concatenate([z[:, 0], z_new]) * beta
    eta0 = np.concatenate([z[:, 0], z_new]) * beta_null
    observed = [int(i) for i in np.argsort(times) if status[i] == 1]
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
    for order in itertools.permutations(observed + list(range(n, n + m))):
        if [s for s in order if s < n] != observed:
            continue
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
        if censoring_rate > 0 and all(r.status for r in data.records):
            continue
        try:
            beta, _ = fit_partial_likelihood(extract_rank_data(data))
        except (SeparationError, RankDeficiencyError, DegenerateDataError):
            continue
        # Near-separated fits make every draw's lod alike; at beta_hat = 0
        # the observed lod is 0 and the measure is undefined.
        if 0.0 < abs(beta[0]) <= 3.0:
            return data, z_new, beta


# (n, n_new, seed) of censored samples, censoring rate 0.6.
CENSORED_CASES = [(5, 1, 211), (5, 2, 223), (6, 1, 227), (6, 2, 229),
                  (7, 1, 233), (7, 2, 239), (6, 2, 241), (7, 2, 251)]


class TestCorrectEnumerationOracle:
    def test_matches_brute_force_over_all_orders(self):
        data, z_new, beta = fitted_sample(4, 2, 81)
        exact = cox.ri1_cox_correct_enumeration(data, 2, z_new)
        assert exact == pytest.approx(brute_force_correct_ri1(data, z_new[:, 0], beta[0]),
                                      rel=1e-10)

    @pytest.mark.parametrize("n, n_new, seed", [(5, 2, 83), (6, 2, 89), (7, 1, 97)])
    def test_matches_brute_force_on_censored_data(self, n, n_new, seed):
        data, z_new, beta = fitted_sample(n, n_new, seed, 0.6)
        exact = cox.ri1_cox_correct_enumeration(data, n_new, z_new)
        assert exact == pytest.approx(brute_force_correct_ri1(data, z_new[:, 0], beta[0]),
                                      rel=1e-10)

    @pytest.mark.parametrize("n, n_new, seed", [(6, 2, 83), (5, 2, 89), (6, 1, 97), (4, 2, 101)])
    def test_monte_carlo_within_three_se_of_exact(self, n, n_new, seed):
        data, z_new, _ = fitted_sample(n, n_new, seed)
        exact = cox.ri1_cox_correct_enumeration(data, n_new, z_new)
        result = ri1_cox_correct(data, n_new, z_new,
                                 mc_config=MCConfig(n_draws=20_000, seed=seed))
        assert abs(result.estimate - exact) <= 3 * result.mc_standard_error

    @pytest.mark.parametrize("n, n_new, seed", CENSORED_CASES)
    def test_monte_carlo_within_three_se_of_exact_on_censored_data(self, n, n_new, seed):
        data, z_new, _ = fitted_sample(n, n_new, seed, 0.6)
        exact = cox.ri1_cox_correct_enumeration(data, n_new, z_new)
        result = ri1_cox_correct(data, n_new, z_new,
                                 mc_config=MCConfig(n_draws=20_000, seed=seed))
        assert abs(result.estimate - exact) <= 3 * result.mc_standard_error

    def test_exact_value_never_exceeds_one(self):
        rng = np.random.default_rng(103)
        for _ in range(25):
            n, n_new = int(rng.integers(3, 7)), int(rng.integers(1, 3))
            data, z_new, _ = fitted_sample(n, n_new, int(rng.integers(2**31)))
            assert 0.0 < cox.ri1_cox_correct_enumeration(data, n_new, z_new) <= 1.0

    def test_exact_value_never_exceeds_one_on_censored_data(self):
        rng = np.random.default_rng(263)
        for _ in range(25):
            n, n_new = int(rng.integers(3, 9)), int(rng.integers(1, 3))
            data, z_new, _ = fitted_sample(n, n_new, int(rng.integers(2**31)), 0.6)
            assert 0.0 < cox.ri1_cox_correct_enumeration(data, n_new, z_new) <= 1.0

    def test_no_new_subjects_is_one(self):
        data, _, _ = fitted_sample(5, 0, 107)
        assert cox.ri1_cox_correct_enumeration(data, 0, None) == pytest.approx(1.0, rel=1e-12)

    def test_refuses_ties_and_large_cases(self):
        data = dataset([1.0, 2.0, 2.0, 4.0], [1, 1, 1, 1], [0.0, 1.0, 1.0, 0.0])
        with pytest.raises(OracleUnavailableError):
            cox.ri1_cox_correct_enumeration(data, 1, [[1.0]])
        data, z_new, _ = fitted_sample(20, 4, 109)  # 255,024 augmented orders
        with pytest.raises(OracleUnavailableError):
            cox.ri1_cox_correct_enumeration(data, 4, z_new)


def kernel_case():
    """Censored data with tied times, so both sort paths are exercised."""
    rng = np.random.default_rng(61)
    censored, _ = simulate_ph_binary(30, 0.5, rng, 0.3)
    times, status, z = censored.arrays()
    data = SurvivalDataset.from_arrays(np.round(times, 1) + 0.1, status, z)
    z_new = rng.integers(0, 2, size=4).astype(float)[:, None]
    return data, z_new


def kernel_completions():
    data, z_new = kernel_case()
    rank, beta_hat, beta_null, times, status, z, z_new, _ = cox._augmentation_setup(
        data, 4, z_new, None)
    return {
        "correct": cox._correct_completion(rank, beta_hat, beta_null, times, z, z_new),
        "naive": cox._naive_completion(data, rank, beta_hat, beta_null, times, status, z,
                                       z_new),
    }


def test_correct_draws_keep_the_observed_partial_data():
    # Restricted to the existing subjects, every drawn row has the observed
    # failure order and risk sets, so its lod is the observed one.  Two
    # subjects are censored at event times and one before the first event.
    rng = np.random.default_rng(67)
    censored, _ = simulate_ph_binary(25, 0.5, rng, 0.5)
    times, status, z = censored.arrays()
    cens, fails = np.flatnonzero(status == 0), np.flatnonzero(status == 1)
    times[cens[:3]] = times[fails[0]], times[fails[3]], times.min() / 2
    data = SurvivalDataset.from_arrays(times, status, z)
    z_new = rng.integers(0, 2, size=3).astype(float)[:, None]
    rank, beta_hat, beta_null, times, status, z, z_new, lod_ob = cox._augmentation_setup(
        data, 3, z_new, None)
    completion = cox._correct_completion(rank, beta_hat, beta_null, times, z, z_new)
    levels = completion.draw_levels(rng.standard_exponential((500, completion.per_draw)))
    n = data.n  # columns: failures, censored subjects, then new subjects
    lods = cox._lod_rows(levels[:, :n], completion.status[:n],
                         completion.eta_alt[:n], completion.eta_null[:n])
    np.testing.assert_allclose(lods, lod_ob, rtol=1e-12)


class TestBlockKernelDeterminism:
    @pytest.mark.parametrize("mode", ["correct", "naive"])
    def test_draws_do_not_depend_on_grouping(self, monkeypatch, mode):
        completion = kernel_completions()[mode]
        n = 700
        one_block = completion.lods(5, 0, n)
        assert np.all(np.isfinite(one_block))
        monkeypatch.setattr(cox, "_BLOCK_ELEMENTS", 3 * completion.status.size)
        small_blocks = completion.lods(5, 0, n)
        pieces = np.concatenate([completion.lods(5, 0, 123), completion.lods(5, 123, n)])
        monkeypatch.setattr(cox, "_BLOCK_ELEMENTS", 2**24)
        first_half = completion.lods(5, 0, 2 * n)[:n]
        for other in (small_blocks, pieces, first_half):
            np.testing.assert_array_equal(one_block, other)

    @pytest.mark.parametrize("measure", [ri1_cox_correct, ri1_cox_naive])
    def test_adaptive_stop_does_not_depend_on_sub_block_size(self, monkeypatch, measure):
        data, z_new = kernel_case()
        config = MCConfig(n_draws=20 * 1024, seed=9, max_relative_se=0.004)
        a = measure(data, 4, z_new, mc_config=config)
        monkeypatch.setattr(cox, "_BLOCK_ELEMENTS", 1000)
        b = measure(data, 4, z_new, mc_config=config)
        assert a.n_draws == b.n_draws
        assert 1024 < a.n_draws < config.n_draws
        assert (a.estimate, a.mc_standard_error) == (b.estimate, b.mc_standard_error)


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
    # A dropped draw would be a silent sentinel.
    assert math.isfinite(result.estimate) and math.isfinite(result.mc_standard_error)
    assert result.diagnostics.get("sentinel_count", 0) == 0
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
    except RelInfoError:
        return
    assert_finite_measure(result, len(case[3]))
