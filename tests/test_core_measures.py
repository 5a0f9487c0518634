import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from relinfo import binomial, core, mc
from relinfo.binomial import BinomialObserved, binomial_model
from relinfo.core import HypothesisPair, Method
from relinfo.errors import (
    BoundaryError,
    DomainError,
    InstabilityError,
    UndefinedMeasureError,
    ValidationError,
)

MODEL = binomial_model()


def binom_lod(theta_alt, theta_null, x, n):
    return (x * math.log(theta_alt / theta_null)
            + (n - x) * math.log((1 - theta_alt) / (1 - theta_null)))


class TestLod:
    def test_identical_hypotheses_give_zero(self):
        pair = HypothesisPair(theta_null=0.5, theta_alt=0.5)
        assert float(core.lod(MODEL, pair, BinomialObserved(5, 10, 0))) == 0.0

    def test_direct_binomial_evaluation(self):
        pair = HypothesisPair(theta_null=0.5, theta_alt=0.7)
        value = float(core.lod(MODEL, pair, BinomialObserved(7, 10, 0)))
        assert value == pytest.approx(7 * math.log(1.4) + 3 * math.log(0.6))
        assert value == pytest.approx(0.8228, abs=5e-5)

    def test_mle_dominates_grid(self):
        data = BinomialObserved(13, 40, 0)
        theta_hat = MODEL.mle(data)
        at_mle = float(core.lod(MODEL, HypothesisPair(0.5, theta_hat), data))
        for theta in np.linspace(0.01, 0.99, 99):
            assert at_mle >= float(core.lod(MODEL, HypothesisPair(0.5, theta), data))

    def test_pair_dimension_mismatch(self):
        pair = HypothesisPair(theta_null=0.5, theta_alt=np.array([0.5, 0.6]))
        with pytest.raises(ValidationError):
            core.lod(MODEL, pair, BinomialObserved(5, 10, 0))


class TestRi1:
    def test_no_missing_data_gives_one(self):
        result = core.ri1(MODEL, BinomialObserved(7, 10, 0), 0.5)
        assert result.estimate == pytest.approx(1.0, abs=1e-15)
        assert result.method is Method.SUFFICIENT_STAT
        assert result.n_draws == 0

    def test_half_missing_gives_half(self):
        obs = BinomialObserved(30, 50, 50)
        result = core.ri1(MODEL, obs, 0.5)
        assert result.estimate == pytest.approx(0.5, abs=1e-12)
        # Cross-check against exhaustive enumeration on a capped instance.
        capped = BinomialObserved(30, 50, 20)
        assert core.ri1(MODEL, capped, 0.5).estimate == pytest.approx(
            binomial.ri1_enumeration(capped, 0.5), abs=1e-12)

    def test_monte_carlo_agrees_with_closed_form(self):
        obs = BinomialObserved(30, 50, 50)
        engine = mc.MCConfig(n_draws=10_000, seed=23)
        result = core.ri1(MODEL, obs, 0.5, engine)
        assert result.method is Method.MONTE_CARLO
        assert result.n_draws == 10_000
        assert abs(result.estimate - 0.5) <= 3 * result.mc_standard_error

    def test_monte_carlo_honours_max_relative_se(self):
        obs = BinomialObserved(30, 50, 50)
        adaptive = core.ri1(MODEL, obs, 0.5,
                            mc.MCConfig(n_draws=100_000, seed=6, max_relative_se=0.05))
        assert adaptive.n_draws % 1024 == 0 and adaptive.n_draws < 100_000
        fixed = core.ri1(MODEL, obs, 0.5, mc.MCConfig(n_draws=adaptive.n_draws, seed=6))
        assert (adaptive.diagnostics["denominator_mean"]
                == fixed.diagnostics["denominator_mean"])

    def test_zero_observed_lod_rejected(self):
        with pytest.raises(UndefinedMeasureError):
            core.ri1(MODEL, BinomialObserved(25, 50, 10), 0.5)

    def test_boundary_mle_rejected(self):
        with pytest.raises(BoundaryError):
            core.ri1(MODEL, BinomialObserved(0, 10, 5), 0.5)


class TestNonpositiveDenominator:
    # 600 of 1000 tested at p0 = 0.5 against a sharp alternative of 0.3 on
    # the far side of the null: the observed lod is about -171.9, and the
    # expected complete-data lod is negative too.
    OBS = BinomialObserved(600, 1000, 500)

    def test_exact_path_refuses(self):
        with pytest.raises(InstabilityError) as info:
            core.ri1(MODEL, self.OBS, 0.5, theta_alt=0.3)
        # Imputed at the MLE 0.6: 900 successes in 1500 trials.
        denominator = info.value.diagnostics["denominator"]
        assert denominator == pytest.approx(binom_lod(0.3, 0.5, 900, 1500), rel=1e-12)
        assert denominator == pytest.approx(-257.86, abs=5e-3)

    def test_monte_carlo_path_refuses(self):
        with pytest.raises(InstabilityError) as info:
            core.ri1(MODEL, self.OBS, 0.5, mc.MCConfig(1000, seed=1), theta_alt=0.3)
        diagnostics = info.value.diagnostics
        assert set(diagnostics) == {"denominator_mean", "denominator_se", "n_effective",
                                    "sentinel_count"}
        assert (diagnostics["n_effective"], diagnostics["sentinel_count"]) == (1000, 0)
        assert abs(diagnostics["denominator_mean"] - binom_lod(0.3, 0.5, 900, 1500)) \
            <= 3 * diagnostics["denominator_se"]


def test_delta_method_se_survives_a_mean_whose_square_overflows():
    # Lods near 2e160 whose spread stays squarable: mean**2 overflows.
    lods = 2e160 * (1.0 + 1e-10 * np.random.default_rng(5).random(100))
    result = core.ri1_monte_carlo(2e160, lambda lo, hi: lods[lo:hi], mc.MCConfig(100, seed=1))
    mean, se = result.diagnostics["denominator_mean"], result.diagnostics["denominator_se"]
    assert 0.0 < se < math.inf
    assert result.mc_standard_error == pytest.approx(2e160 / mean * (se / mean), rel=1e-12)


class TestRi0:
    def test_no_missing_gives_one(self):
        assert core.ri0(MODEL, BinomialObserved(7, 10, 0), 0.5).estimate == \
            pytest.approx(1.0, abs=1e-15)

    def test_null_imputation_instance(self):
        # Imputed x_co = 30 + 50 * 0.5 = 55, pseudo MLE 0.55.
        result = core.ri0(MODEL, BinomialObserved(30, 50, 50), 0.5)
        lod_imp = binom_lod(0.55, 0.5, 55, 100)
        lod_ob = binom_lod(0.6, 0.5, 30, 50)
        assert lod_imp == pytest.approx(55 * math.log(1.1) + 45 * math.log(0.9),
                                        rel=1e-12)
        assert lod_imp == pytest.approx(0.5008, abs=1e-4)
        assert lod_ob == pytest.approx(1.0068, abs=1e-4)
        assert result.estimate == pytest.approx(lod_imp / lod_ob, rel=1e-12)
        assert result.estimate == pytest.approx(0.4975, abs=5e-5)

    def test_null_at_observed_mle_rejected(self):
        with pytest.raises(UndefinedMeasureError):
            core.ri0(MODEL, BinomialObserved(25, 50, 10), 0.5)


class TestRiYSamples:
    def test_no_missing_gives_ones(self):
        pair = HypothesisPair(theta_null=0.5, theta_alt=0.7)
        ratios, counts = core.ri_y_samples(MODEL, BinomialObserved(7, 10, 0), pair, 100, 1)
        np.testing.assert_allclose(ratios, 1.0)
        assert counts.sum() == 100

    def test_reciprocal_mean_matches_inverse_ri1(self):
        obs = BinomialObserved(550, 1000, 500)
        pair = HypothesisPair(theta_null=0.5, theta_alt=0.55)
        ratios, counts = core.ri_y_samples(MODEL, obs, pair, 20_000, 31)
        recip = mc.estimate_from_values(1.0 / ratios, counts)
        exact = core.ri1(MODEL, obs, 0.5, theta_alt=0.55)
        assert abs(recip.mean - 1.0 / exact.estimate) <= 3 * recip.standard_error

    def test_reciprocal_mean_matches_enumeration(self):
        obs = BinomialObserved(30, 50, 20)
        pair = HypothesisPair(theta_null=0.5, theta_alt=0.65)
        theta_hat = MODEL.mle(obs)
        ratios, counts = core.ri_y_samples(MODEL, obs, pair, 20_000, 37)
        recip = mc.estimate_from_values(1.0 / ratios, counts)
        lod_ob = binom_lod(0.65, 0.5, 30, 50)
        exact = binomial.enumerate_expectation(
            obs, theta_hat,
            lambda co: binom_lod(0.65, 0.5, co.successes_total, co.n_total),
        ) / lod_ob
        assert abs(recip.mean - exact) <= 3 * recip.standard_error


class TestLodRatioVariance:
    def test_no_missing_gives_zero(self):
        result = core.lod_ratio_variance(MODEL, BinomialObserved(7, 10, 0), 0.5, 100, 1)
        assert result.estimate == 0.0

    def test_nonnegative(self):
        result = core.lod_ratio_variance(MODEL, BinomialObserved(30, 50, 30), 0.5, 2_000, 3)
        assert result.estimate >= 0.0

    def test_matches_enumeration(self):
        obs = BinomialObserved(30, 50, 10)
        theta_hat = MODEL.mle(obs)

        def lod_at_own_mle(co):
            theta_co = co.successes_total / co.n_total
            return binom_lod(theta_co, 0.5, co.successes_total, co.n_total)

        mean = binomial.enumerate_expectation(obs, theta_hat, lod_at_own_mle)
        second = binomial.enumerate_expectation(obs, theta_hat,
                                                lambda co: lod_at_own_mle(co) ** 2)
        exact = (second - mean**2) / binom_lod(0.6, 0.5, 30, 50) ** 2
        result = core.lod_ratio_variance(MODEL, obs, 0.5, 20_000, 41)
        assert abs(result.estimate - exact) <= 3 * result.mc_standard_error


class TestExpectedLodGap:
    def test_no_missing_gives_zero_gap(self):
        gap = core.expected_lod_gap(MODEL, BinomialObserved(7, 10, 0), 0.5, 100, 1)
        lod_ob = binom_lod(0.7, 0.5, 7, 10)
        assert gap.at_draw_mle.mean == pytest.approx(lod_ob)
        assert gap.at_fixed_alt.mean == pytest.approx(lod_ob)
        assert gap.gap == pytest.approx(0.0, abs=1e-14)

    def test_strict_gap_with_missing_data(self):
        gap = core.expected_lod_gap(MODEL, BinomialObserved(30, 50, 50), 0.5, 10_000, 43)
        assert gap.at_draw_mle.mean > gap.at_fixed_alt.mean
        assert gap.gap > 3 * gap.paired_diff.standard_error
        assert gap.dominance_violations == 0
        # Enumeration oracle for the fixed-alternative component.
        exact_fixed = binomial.enumerate_expectation(
            BinomialObserved(30, 50, 20), 0.6,
            lambda co: binom_lod(0.6, 0.5, co.successes_total, co.n_total))
        small_gap = core.expected_lod_gap(MODEL, BinomialObserved(30, 50, 20),
                                          0.5, 10_000, 47)
        assert abs(small_gap.at_fixed_alt.mean - exact_fixed) \
            <= 3 * small_gap.at_fixed_alt.standard_error

    def test_peak_memory_is_that_of_one_histogram_draw(self):
        # The measures reduce over the support's rows, so past the draw itself
        # they hold nothing per draw.
        obs = BinomialObserved(550, 1000, 500)

        def peak(run):
            run()  # first-call allocations (lazy imports, caches) are not the measure's
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        draw = peak(lambda: MODEL.draw_completions_batch(obs, 0.55, 250_000, 1))
        gap = peak(lambda: core.expected_lod_gap(MODEL, obs, 0.5, 250_000, 1))
        # 64 KiB leaves room for interpreter objects; the draw itself peaks near 0.4 MB.
        assert gap <= draw + 64 * 1024


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        obs = BinomialObserved(30, 50, 50)
        engine = mc.MCConfig(n_draws=2_000, seed=61)
        a = core.ri1(MODEL, obs, 0.5, engine)
        b = core.ri1(MODEL, obs, 0.5, engine)
        assert a.estimate == b.estimate
        assert a.mc_standard_error == b.mc_standard_error

    def test_grouping_of_completion_draws_irrelevant(self):
        obs = BinomialObserved(30, 50, 50)
        draw = MODEL.draw_completions_batch

        def in_uneven_pieces(observed, theta, n_draws, seed, start=0):
            edges = [start, start + 1, start + 8, start + 333, start + n_draws]
            supports, counts = zip(*(draw(observed, theta, hi - lo, seed, start=lo)
                                     for lo, hi in zip(edges, edges[1:])))
            rows = [s.successes_total for s in supports]
            return (binomial.BinomialComplete(np.concatenate(rows), supports[0].n_total),
                    np.concatenate(counts))

        split_model = dataclasses.replace(MODEL, draw_completions_batch=in_uneven_pieces)
        config = mc.MCConfig(n_draws=1_000, seed=67)
        whole = core.ri1(MODEL, obs, 0.5, config)
        split = core.ri1(split_model, obs, 0.5, config)
        assert whole.estimate == split.estimate
        assert whole.mc_standard_error == split.mc_standard_error


def one_row_per_draw(model):
    """The model with one row per draw, in draw order, each counted once.

    Each row is the draw's own completion, from the shared quantile search
    on the draw's uniform.
    """
    def per_draw(observed, theta, n_draws, seed, start=0):
        u = mc.stream_uniforms(seed, n_draws, start=start)
        successes = observed.successes + binomial._inverse_cdf(u, observed.n_missing, theta)
        return (binomial.BinomialComplete(successes.astype(float), observed.n_total),
                np.ones(n_draws, dtype=np.int64))
    return dataclasses.replace(model, draw_completions_batch=per_draw)


@pytest.mark.parametrize("obs, p0, p1, seed", [
    (BinomialObserved(30, 50, 50), 0.5, 0.65, 3),
    (BinomialObserved(550, 1000, 500), 0.5, 0.55, 31),
    (BinomialObserved(7, 10, 0), 0.5, 0.7, 1),
    # Completions with 10 successes in 20 trials have a lod of exactly 0.
    (BinomialObserved(6, 10, 10), 0.25, 0.75, 5),
])
def test_gathering_from_the_support_equals_one_row_per_draw(obs, p0, p1, seed):
    per_draw = one_row_per_draw(MODEL)
    config = mc.MCConfig(n_draws=5_000, seed=seed)
    assert (core.ri1(MODEL, obs, p0, config)
            == core.ri1(per_draw, obs, p0, config))
    pair = HypothesisPair(theta_null=p0, theta_alt=p1)
    for got, want in zip(mc.histogram(*core.ri_y_samples(MODEL, obs, pair, 5_000, seed)),
                         mc.histogram(*core.ri_y_samples(per_draw, obs, pair, 5_000, seed))):
        np.testing.assert_array_equal(got, want)
    assert (core.expected_lod_gap(MODEL, obs, p0, 5_000, seed)
            == core.expected_lod_gap(per_draw, obs, p0, 5_000, seed))
    assert (core.lod_ratio_variance(MODEL, obs, p0, 5_000, seed)
            == core.lod_ratio_variance(per_draw, obs, p0, 5_000, seed))


def recording(model):
    """The model with a log of its draw calls, each as (theta, n_draws, seed, start)."""
    calls = []

    def draw(observed, theta, n_draws, seed, start=0):
        calls.append((theta, n_draws, seed, start))
        return model.draw_completions_batch(observed, theta, n_draws, seed, start=start)
    return dataclasses.replace(model, draw_completions_batch=draw), calls


@pytest.mark.parametrize("measure", [
    lambda model: core.ri_y_samples(model, BinomialObserved(30, 50, 50),
                                    HypothesisPair(0.5, 0.65), 3_000, 7),
    lambda model: core.lod_ratio_variance(model, BinomialObserved(30, 50, 50), 0.5, 3_000, 7),
    lambda model: core.expected_lod_gap(model, BinomialObserved(30, 50, 50), 0.5, 3_000, 7),
    lambda model: core.ri1(model, BinomialObserved(30, 50, 50), 0.5, mc.MCConfig(3_000, seed=7)),
], ids=["ri_y_samples", "lod_ratio_variance", "expected_lod_gap", "ri1"])
def test_each_measure_draws_one_block_at_the_observed_mle(measure):
    model, calls = recording(MODEL)
    measure(model)
    assert calls == [(0.6, 3_000, 7, 0)]
    assert type(calls[0][0]) is float


def test_adaptive_ri1_reads_consecutive_batches_from_draw_zero():
    model, calls = recording(MODEL)
    config = mc.MCConfig(100_000, seed=6, max_relative_se=0.005)
    result = core.ri1(model, BinomialObserved(550, 1000, 500), 0.5, config)
    assert 1 < len(calls) < 100_000 // 1024
    assert calls == [(0.55, 1024, 6, 1024 * k) for k in range(len(calls))]
    assert result.n_draws == 1024 * len(calls)
    assert result == core.ri1(MODEL, BinomialObserved(550, 1000, 500), 0.5, config)


@pytest.mark.parametrize("measure", [
    lambda obs: core.ri1(MODEL, obs, 0.5),
    lambda obs: core.ri0(MODEL, obs, 0.5),
    lambda obs: core.ri_y_samples(MODEL, obs, HypothesisPair(0.25, 0.75), 100, 1),
    lambda obs: core.lod_ratio_variance(MODEL, obs, 0.5, 100, 1),
    lambda obs: core.expected_lod_gap(MODEL, obs, 0.5, 100, 1),
], ids=["ri1", "ri0", "ri_y_samples", "lod_ratio_variance", "expected_lod_gap"])
@pytest.mark.parametrize("x", [0, 10])
def test_every_measure_refuses_a_boundary_mle(measure, x):
    with pytest.raises(BoundaryError):
        measure(BinomialObserved(x, 10, 10))


TWO = np.array([0.4, 0.5]), np.array([0.6, 0.6])  # a null and an alternative of two values


@pytest.mark.parametrize("call, error", [
    (lambda obs: core.ri1(MODEL, obs, 0.4, draw_theta=1.5), DomainError),
    (lambda obs: core.ri1(MODEL, obs, 0.4, mc.MCConfig(100, 1), draw_theta=1.5), DomainError),
    (lambda obs: core.lod(MODEL, HypothesisPair(*TWO), obs), ValidationError),
    (lambda obs: core.ri1(MODEL, obs, TWO[0], theta_alt=TWO[1]), ValidationError),
    (lambda obs: core.ri_y_samples(MODEL, obs, HypothesisPair(*TWO), 100, 1), ValidationError),
    (lambda obs: core.ri1(MODEL, obs, 0.4, mc.MCConfig(100, 1), draw_theta=TWO[1]),
     ValidationError),
], ids=["ri1 draw_theta out of domain", "Monte Carlo ri1 draw_theta out of domain",
        "lod", "ri1 theta_alt", "ri_y_samples", "Monte Carlo ri1 draw_theta"])
def test_every_parameter_is_one_value_in_the_domain(call, error):
    # A draw_theta outside (0, 1) used to give a measure (0.0909 exact, 0.1667
    # by Monte Carlo), and a parameter of two values a numpy ValueError.
    with pytest.raises(error, match="outside the domain" if error is DomainError else r"\(2,\)"):
        call(BinomialObserved(30, 50, 50))


@pytest.mark.parametrize("measure", [
    lambda p0: core.ri1(MODEL, BinomialObserved(30, 50, 50), p0),
    lambda p0: core.ri1(MODEL, BinomialObserved(30, 50, 50), p0, mc.MCConfig(2_000, seed=3)),
    lambda p0: core.ri0(MODEL, BinomialObserved(30, 50, 50), p0),
    lambda p0: core.lod_ratio_variance(MODEL, BinomialObserved(30, 50, 50), p0, 2_000, 3),
    lambda p0: core.expected_lod_gap(MODEL, BinomialObserved(30, 50, 50), p0, 2_000, 3),
    lambda p0: mc.histogram(*core.ri_y_samples(MODEL, BinomialObserved(30, 50, 50),
                                               HypothesisPair(p0, 0.65), 2_000, 3)),
], ids=["ri1", "Monte Carlo ri1", "ri0", "lod_ratio_variance", "expected_lod_gap",
        "ri_y_samples"])
def test_a_one_element_null_equals_the_scalar(measure):
    # The default alternative, the observed MLE, is a scalar; a one-element
    # null used to be refused as a pair of unequal dimension.
    one, scalar = measure(np.array([0.4])), measure(0.4)
    if isinstance(scalar, tuple):
        for got, want in zip(one, scalar):
            np.testing.assert_array_equal(got, want)
    else:
        assert one == scalar


def test_ri_y_refuses_an_observed_lod_of_zero():
    # 5 of 10 at p0 = 0.25 against p1 = 0.75: the observed lod is exactly 0.
    with pytest.raises(UndefinedMeasureError):
        core.ri_y_samples(MODEL, BinomialObserved(5, 10, 10), HypothesisPair(0.25, 0.75),
                          5_000, 5)


def test_ri_y_zero_lod_draws_are_sentinels():
    obs = BinomialObserved(6, 10, 10)
    ratios, counts = core.ri_y_samples(MODEL, obs, HypothesisPair(0.25, 0.75), 5_000, 5)
    support, support_counts = MODEL.draw_completions_batch(obs, 0.6, 5_000, 5)
    np.testing.assert_array_equal(counts, support_counts)
    tied = support.successes_total == 10
    assert 0 < counts[tied].sum() < 5_000
    assert np.all(np.isinf(ratios[tied])) and np.all(np.isfinite(ratios[~tied]))


@pytest.mark.parametrize("measure", [
    lambda n, seed: core.ri_y_samples(MODEL, BinomialObserved(30, 50, 50),
                                      HypothesisPair(0.5, 0.65), n, seed),
    lambda n, seed: core.lod_ratio_variance(MODEL, BinomialObserved(30, 50, 50), 0.5, n, seed),
    lambda n, seed: core.expected_lod_gap(MODEL, BinomialObserved(30, 50, 50), 0.5, n, seed),
])
@pytest.mark.parametrize("n_draws, seed", [(1, 3), (0, 3), (-3, 3), (100, -1), (100, 2**64)])
def test_draw_count_and_seed_validated(measure, n_draws, seed):
    with pytest.raises(ValidationError):
        measure(n_draws, seed)


def test_ri1_range_property_randomized():
    rng = np.random.default_rng(71)
    for _ in range(200):
        n_ob = int(rng.integers(3, 150))
        x = int(rng.integers(1, n_ob))
        n_missing = int(rng.integers(0, 200))
        p0 = float(rng.uniform(0.05, 0.95))
        if abs(p0 - x / n_ob) < 1e-6:
            continue
        est = core.ri1(MODEL, BinomialObserved(x, n_ob, n_missing), p0).estimate
        assert 0.0 < est <= 1.0 + 1e-15
