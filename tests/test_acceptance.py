"""Acceptance gate: one pass/fail line per criterion (run with ``-s``).

Each test prints ``ACCEPTANCE <n> <name>: PASS`` after its assertions;
a failing assertion surfaces through pytest as usual.
"""

import math
import time

import numpy as np
import pytest

from relinfo import core, mc
from relinfo.binomial import (
    BinomialObserved,
    binomial_model,
    ri1_closed_form,
    ri1_enumeration,
)
from relinfo.combine import StudySummary, combine_weighted_harmonic
from relinfo.cox import (
    conditioning_anomaly_study,
    extract_rank_data,
    fit_partial_likelihood,
    ri1_cox_correct,
    ri1_cox_naive,
    simulate_ph_binary,
)
from relinfo.design import base_design, doubled_design, interlaced_design, sx, variance_ratio
from relinfo.mc import MCConfig
from walk_oracle import (
    assert_naive_walk_matches_sorted_levels,
    assert_walk_matches_rejection,
    tied_naive_completion,
)

MODEL = binomial_model()


def report(number, name):
    print(f"\nACCEPTANCE {number} {name}: PASS")


def random_instance(rng, max_missing=25):
    n_ob = int(rng.integers(3, 60))
    x = int(rng.integers(1, n_ob))
    n_missing = int(rng.integers(1, max_missing + 1))
    mle = x / n_ob
    while True:
        p0 = float(rng.uniform(0.05, 0.95))
        if abs(p0 - mle) > 1e-3:
            return BinomialObserved(x, n_ob, n_missing), p0


def test_criterion_1_binomial_closed_form():
    start = time.monotonic()
    rng = np.random.default_rng(701)
    for _ in range(200):
        obs, p0 = random_instance(rng)
        assert abs(ri1_enumeration(obs, p0) - ri1_closed_form(obs)) <= 1e-12

    for seed in (1, 2, 3):
        obs, p0 = random_instance(rng)
        engine = MCConfig(n_draws=10_000, seed=seed)
        result = core.ri1(MODEL, obs, p0, engine)
        assert abs(result.estimate - ri1_closed_form(obs)) <= \
            3 * result.mc_standard_error

    assert time.monotonic() - start < 10.0
    report(1, "binomial closed form vs enumeration and Monte Carlo")


@pytest.mark.parametrize("p_alt", [0.525, 0.55, 0.65])
def test_criterion_2_per_draw_reciprocal_mean(p_alt):
    start = time.monotonic()
    obs = BinomialObserved(round(1000 * p_alt), 1000, 500)
    pair = core.HypothesisPair(theta_null=0.5, theta_alt=p_alt)
    ratios, counts = core.ri_y_samples(MODEL, obs, pair, n_draws=40_000, seed=811)
    finite = np.isfinite(ratios)

    recip = mc.estimate_from_values(1.0 / ratios, counts)
    exact = core.ri1(MODEL, obs, 0.5, theta_alt=p_alt)
    assert abs(recip.mean - 1.0 / exact.estimate) <= 3 * recip.standard_error
    assert float(np.std(np.repeat(ratios[finite], counts[finite]), ddof=1)) > 0.0

    assert time.monotonic() - start < 30.0
    report(2, f"reciprocal per-draw mean matches 1/RI1 at p_alt={p_alt}")


def test_criterion_3_expected_lod_gap():
    obs = BinomialObserved(550, 1000, 500)
    gap = core.expected_lod_gap(MODEL, obs, 0.5, n_draws=40_000, seed=813)
    assert gap.dominance_violations == 0
    assert gap.gap > 3 * gap.paired_diff.standard_error
    report(3, "per-draw-MLE lod strictly exceeds fixed-alternative lod")


def test_criterion_4_range_property():
    rng = np.random.default_rng(907)
    for _ in range(500):
        obs, p0 = random_instance(rng, max_missing=400)
        est = core.ri1(MODEL, obs, p0).estimate
        assert 0.0 < est <= 1.0 + 1e-15
    report(4, "RI1 in (0, 1] over 500 randomized instances")


def test_criterion_5_design_arithmetic():
    from fractions import Fraction

    start = time.monotonic()
    assert sx(base_design()) == Fraction(95, 27)
    assert sx(doubled_design()) == Fraction(190, 27)
    assert sx(interlaced_design()) == Fraction(1465, 216)
    ratio = float(variance_ratio(doubled_design(), interlaced_design()))
    assert abs(ratio - 0.9638) <= 0.0005
    assert f"{ratio * 100:.0f}%" == "96%"
    assert time.monotonic() - start < 1.0
    report(5, "exact design sums and the 96% precision ratio")


def test_criterion_6_conditioning_anomaly():
    start = time.monotonic()
    study = conditioning_anomaly_study(
        n_datasets=100, n_subjects=20, n_new=5, beta_true=0.5,
        censoring_rate=0.2, n_draws=2000, seed=977)
    assert study.failures == 0
    assert study.fraction_naive_above_one > 0.0
    assert study.max_correct_excess_se <= 3.0
    assert time.monotonic() - start < 600.0
    report(6, "naive conditioning exceeds 1 on some datasets; "
              "correct conditioning never does beyond 3 SE")


def test_criterion_7_rank_sampler_oracle():
    # The correct-mode walk places one and two new subjects among the
    # failures as rejection sampling of exponential levels does, and the
    # naive-mode walk among tied fixed levels as sorted exponential levels do.
    for n, beta_true, seed in [(3, 0.8, 311), (4, 0.0, 313), (5, 0.5, 317)]:
        for z_new in ([[1.0]], [[0.0], [1.0]]):
            assert_walk_matches_rejection(n, beta_true, seed, np.array(z_new))
    for z_new in ([[1.0]], [[0.0], [1.0]]):
        assert_naive_walk_matches_sorted_levels(tied_naive_completion(np.array(z_new)), 331)
    report(7, "both walks match their oracles (rejection, sorted exponential levels)")


def test_criterion_8_cox_fit_oracle():
    from scipy import optimize

    def explicit_loglik(data, b):
        times, status, z = data.arrays()
        ll = 0.0
        for i in np.flatnonzero(status == 1):
            ll += b * z[i, 0] - math.log(np.sum(np.exp(b * z[times >= times[i], 0])))
        return ll

    rng = np.random.default_rng(419)
    checked = 0
    while checked < 8:
        n = int(rng.integers(4, 9))
        data, _ = simulate_ph_binary(n, 0.5, rng, 0.15)
        try:
            beta, _ = fit_partial_likelihood(extract_rank_data(data))
        except Exception:
            continue
        if abs(beta[0]) > 3.5:
            continue
        grid = np.linspace(-4.0, 4.0, 2001)
        center = grid[int(np.argmax([explicit_loglik(data, b) for b in grid]))]
        res = optimize.minimize_scalar(
            lambda b: -explicit_loglik(data, b),
            bounds=(center - 0.02, center + 0.02), method="bounded",
            options={"xatol": 1e-10})
        assert abs(beta[0] - float(res.x)) <= 1e-6

        times, status, z = data.arrays()
        from relinfo.cox import SurvivalDataset
        warped = SurvivalDataset.from_arrays(np.exp(times), status, z)
        beta_w, _ = fit_partial_likelihood(extract_rank_data(warped))
        assert beta[0] == beta_w[0]
        checked += 1
    report(8, "partial-likelihood fit matches the grid oracle and is rank-invariant")


def test_criterion_9_combine_oracle():
    p0 = 0.5
    cases = [
        ([(30, 50, 50), (28, 50, 150)], (58, 100, 200)),
        ([(18, 30, 25), (17, 30, 25), (22, 40, 25)], (57, 100, 75)),
    ]
    for parts, (x_all, n_all, m_all) in cases:
        pooled_obs = BinomialObserved(x_all, n_all, m_all)
        p1 = pooled_obs.successes / pooled_obs.n_observed
        studies = []
        for x, n_ob, n_missing in parts:
            obs = BinomialObserved(x, n_ob, n_missing)
            r = core.ri1(MODEL, obs, p0, theta_alt=p1, draw_theta=p1)
            pair = core.HypothesisPair(theta_null=p0, theta_alt=p1)
            studies.append(StudySummary(
                lod_observed=float(core.lod(MODEL, pair, obs)), ri1=r.estimate))
        pooled = core.ri1(MODEL, pooled_obs, p0, theta_alt=p1, draw_theta=p1)
        assert abs(combine_weighted_harmonic(studies) - pooled.estimate) <= 1e-10
    report(9, "weighted harmonic combination equals the pooled measure")


def test_criterion_10_block_determinism(monkeypatch):
    obs, p0 = BinomialObserved(30, 50, 50), 0.4

    rng = np.random.default_rng(523)
    _, uncensored = simulate_ph_binary(15, 0.5, rng, 0.0)
    z_new = rng.integers(0, 2, size=4).astype(float)[:, None]

    # Record the draws each measure hands to the reduction, and its evaluator.
    # The binomial measure's draws are a histogram (lods, counts), the Cox
    # measures' one value per draw.
    recorded = []
    collect_blocks = mc.collect_blocks

    def recording(evaluate, config):
        recorded.append((collect_blocks(evaluate, config), evaluate))
        return recorded[-1][0]

    def assert_same_draws(a, b):
        a, b = ((mc.histogram(*a), mc.histogram(*b)) if isinstance(a, tuple) else ([a], [b]))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    monkeypatch.setattr(mc, "collect_blocks", recording)
    measures = [
        (5_000, lambda config: core.ri1(MODEL, obs, p0, config)),
        (2_000, lambda config: ri1_cox_correct(uncensored, 4, z_new, mc_config=config)),
        (2_000, lambda config: ri1_cox_naive(uncensored, 4, z_new, mc_config=config)),
    ]
    for n, measure in measures:
        recorded.clear()
        one_block = measure(MCConfig(n_draws=n, seed=601))
        # A target no run reaches makes collect_blocks evaluate every draw in
        # 1024-draw blocks from their own start, the last block shorter.
        blocks = measure(MCConfig(n_draws=n, seed=601, max_relative_se=1e-9))
        measure(MCConfig(n_draws=2 * n, seed=601))
        (draws_one, _), (draws_blocks, _), (draws_double, evaluate_double) = recorded
        assert_same_draws(draws_blocks, draws_one)
        if isinstance(draws_one, tuple):
            # hist(0..2N) == hist(0..N) + hist(N..2N)
            assert draws_one[1].sum() == n
            assert_same_draws(draws_double, tuple(map(
                np.concatenate, zip(draws_one, evaluate_double(n, 2 * n)))))
        else:
            assert draws_one.size == n
            np.testing.assert_array_equal(draws_double[:n], draws_one)
        assert ((blocks.estimate, blocks.mc_standard_error, blocks.n_draws)
                == (one_block.estimate, one_block.mc_standard_error, one_block.n_draws))
    report(10, "draws 0..N-1 are bit-identical in one block, in blocks and in 2N draws")
