import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from relinfo import binomial, core, mc
from relinfo.binomial import BinomialComplete, BinomialObserved, binomial_model
from relinfo.errors import BoundaryError, OracleUnavailableError, ValidationError

MODEL = binomial_model()


def binom_lod(theta_alt, theta_null, x, n):
    return (x * math.log(theta_alt / theta_null)
            + (n - x) * math.log((1 - theta_alt) / (1 - theta_null)))


def test_observed_validation():
    with pytest.raises(ValidationError):
        BinomialObserved(11, 10, 0)
    with pytest.raises(ValidationError):
        BinomialObserved(1, 0, 0)
    with pytest.raises(ValidationError):
        BinomialObserved(1, 10, -1)


def test_mle_is_sample_proportion():
    assert MODEL.mle(BinomialObserved(30, 50, 0)) == pytest.approx(0.6)
    assert MODEL.mle(BinomialComplete(55, 100)) == pytest.approx(0.55)


def drawn_successes(obs, theta, n_draws, seed, start=0):
    """Per-draw success totals: the shared quantile search on the draws' own uniforms."""
    u = mc.stream_uniforms(seed, n_draws, start=start)
    return obs.successes + binomial._inverse_cdf(u, obs.n_missing, theta)


def assert_histogram_of(support, counts, successes):
    """The histogram (support, counts) is np.bincount of the per-draw ``successes``."""
    assert np.issubdtype(counts.dtype, np.integer)
    if successes.size == 0:
        assert support.successes_total.size == counts.size == 0
        return
    first = int(successes.min())
    dense = np.bincount(successes.astype(np.int64) - first)
    reached = np.flatnonzero(dense)
    np.testing.assert_array_equal(support.successes_total, first + reached)
    np.testing.assert_array_equal(counts, dense[reached])


def as_counter(support, counts):
    return Counter(dict(zip(support.successes_total.tolist(), counts.tolist())))


def test_completion_with_no_missing_returns_data_back():
    obs = BinomialObserved(4, 9, 0)
    support, counts = MODEL.draw_completions_batch(obs, 0.4, 1, 0)
    assert support.successes_total.tolist() == [obs.successes]
    assert counts.tolist() == [1]
    assert support.n_total == obs.n_observed


def test_completion_mean_matches_binomial_mean():
    obs = BinomialObserved(30, 50, 50)
    support, counts = MODEL.draw_completions_batch(obs, 0.6, 4_000, 11)
    draws = mc.estimate_from_values(support.successes_total - 30, counts)
    assert draws.n_draws == 4_000
    assert abs(draws.mean - 30.0) <= 3 * draws.standard_error


def test_batch_completion_is_deterministic_and_reduces_correctly():
    obs = BinomialObserved(30, 50, 50)
    a, a_counts = MODEL.draw_completions_batch(obs, 0.6, 1_000, 3)
    b, b_counts = MODEL.draw_completions_batch(obs, 0.6, 1_000, 3)
    np.testing.assert_array_equal(a.successes_total, b.successes_total)
    np.testing.assert_array_equal(a_counts, b_counts)
    assert np.all(np.diff(a.successes_total) > 0) and np.all(a_counts > 0)
    assert a_counts.sum() == 1_000
    assert np.all(a.successes_total >= obs.successes)
    assert np.all(a.successes_total <= obs.n_total)


def test_batch_completion_start_selects_rows_of_one_shot_run():
    obs = BinomialObserved(30, 50, 50)
    full = drawn_successes(obs, 0.6, 100, 3)
    for lo, n in [(0, 100), (1, 5), (37, 63), (99, 1), (50, 0)]:
        block = drawn_successes(obs, 0.6, n, 3, start=lo)
        np.testing.assert_array_equal(block, full[lo:lo + n])
        assert_histogram_of(*MODEL.draw_completions_batch(obs, 0.6, n, 3, start=lo), block)


@pytest.mark.parametrize("obs, theta", [(BinomialObserved(30, 50, 50), 0.6),
                                        (BinomialObserved(550, 1000, 10**8), 0.55)])
@pytest.mark.parametrize("n_draws, start", [(1_000, 0), (1, 77), (2_048, 3_001), (0, 5)])
def test_histograms_of_adjacent_ranges_add_up(obs, theta, n_draws, start):
    # hist(start .. start + 2N) == hist(start .. start + N) + hist(start + N .. start + 2N)
    whole = as_counter(*MODEL.draw_completions_batch(obs, theta, 2 * n_draws, 9, start=start))
    first = as_counter(*MODEL.draw_completions_batch(obs, theta, n_draws, 9, start=start))
    second = as_counter(*MODEL.draw_completions_batch(obs, theta, n_draws, 9,
                                                      start=start + n_draws))
    assert whole == first + second
    assert sum(whole.values()) == 2 * n_draws


@pytest.mark.parametrize("obs, theta, n_draws, start", [
    (BinomialObserved(30, 50, 50), 0.6, 1_000, 0),
    (BinomialObserved(30, 50, 50), 0.6, 1, 77),
    (BinomialObserved(550, 1000, 500), 0.55, 20_000, 4_096),
    (BinomialObserved(550, 1000, 10**5), 0.55, 1_024, 3_001),
    (BinomialObserved(3, 10, 5), 1e-4, 2_000, 0),
    (BinomialObserved(4, 9, 0), 0.4, 100, 5),
    (BinomialObserved(30, 50, 50), 0.6, 0, 9),
    (BinomialObserved(550, 1000, 10**8), 0.55, 4_096, 1_000),
    (BinomialObserved(5, 10, 10**8), 1e-4, 2_000, 0),
])
def test_support_is_exactly_the_reached_counts(obs, theta, n_draws, start):
    support, counts = MODEL.draw_completions_batch(obs, theta, n_draws, 13, start=start)
    per_draw = stats.binom.ppf(mc.stream_uniforms(13, n_draws, start=start),
                               obs.n_missing, theta)
    assert support.n_total == obs.n_total
    assert counts.sum() == n_draws
    assert_histogram_of(support, counts, obs.successes + per_draw)


def searched_table(n, theta):
    """The cdf table that ``_inverse_cdf`` searches, with its first count."""
    lo, pmf = binomial._pmf_window(n, theta)
    table = np.cumsum(pmf)
    table[-1] = 1.0
    return lo, table


def smallest_count_reaching(u, lo, table):
    """Reference inverse cdf: a scan of the whole table for each uniform."""
    return np.array([lo + np.flatnonzero(table >= v)[0] for v in u])


class RecordedStream:
    """Stand-in for ``mc.open_stream(seed, start)`` that records each read as (first word, count).

    It serves the stream's own words, or ``words`` when given.
    """

    def __init__(self, seed, start, reads, words=None):
        self.stream = mc.open_stream(seed, start)
        self.position, self.reads, self.words = start, reads, words

    def random_raw(self, n):
        self.reads.append((self.position, n))
        self.position += n
        if self.words is None:
            return self.stream.random_raw(n)
        return self.words[self.position - n:self.position]


def test_zero_uniform_completes_within_support(monkeypatch):
    # scipy's binom.ppf(0) is -1, one success fewer than observed.
    obs = BinomialObserved(30, 50, 50)
    u = np.array([0.0, 0.25, 0.0, 0.75, 1.0 - 2.0**-53])
    words = (u * 2.0**53).astype(np.uint64) << np.uint64(11)  # (word >> 11) 2**-53 == u
    monkeypatch.setattr(binomial, "open_stream",
                        lambda seed, start=0: RecordedStream(seed, start, [], words))
    support, counts = MODEL.draw_completions_batch(obs, 0.6, u.size, 0)
    assert np.all(support.successes_total >= obs.successes)
    assert np.all(support.successes_total <= obs.n_total)
    assert support.successes_total[0] == obs.successes and counts[0] == 2
    # Below the window, zero words still complete with zero missing successes.
    large = BinomialObserved(30, 50, 10**5)
    support, counts = MODEL.draw_completions_batch(large, 0.55, u.size, 0)
    assert_histogram_of(support, counts, large.successes + binomial._inverse_cdf(u, 10**5, 0.55))
    assert support.successes_total[0] == large.successes and counts[0] == 2
    assert support.successes_total[1] > large.successes + 50_000


def test_zero_uniform_gives_zero_below_the_window():
    lo, _ = binomial._pmf_window(10**5, 0.55)
    assert lo > 0
    u = np.array([0.0, 2.0**-53, 0.5])
    expected = [0, *stats.binom.ppf(u[1:], 10**5, 0.55)]
    np.testing.assert_array_equal(binomial._inverse_cdf(u, 10**5, 0.55), expected)


@pytest.mark.parametrize("n_missing", [1, 2, 25, 500, 10**5])
@pytest.mark.parametrize("theta", [1e-4, 0.1, 0.5, 0.55, 0.9, 1 - 1e-4])
def test_inverse_cdf_equals_scipy_ppf_on_stream_uniforms(n_missing, theta):
    for seed, start, n_draws in [(0, 0, 20_000), (5, 3_001, 1_024), (9, 77, 1)]:
        u = mc.stream_uniforms(seed, n_draws, start=start)
        np.testing.assert_array_equal(binomial._inverse_cdf(u, n_missing, theta),
                                      stats.binom.ppf(u, n_missing, theta))


@pytest.mark.parametrize("n_missing, theta", [(500, 0.5), (500, 0.55), (25, 0.9), (1, 1e-4)])
def test_inverse_cdf_is_smallest_count_at_knots_and_near_one(n_missing, theta):
    # Probes sit on the searched table's own knots, where an inexact search
    # would be off by one count, and within a few ulps of 1.
    lo, table = searched_table(n_missing, theta)
    knots = table[(table > 0) & (table < 1)]
    u = np.concatenate([knots, np.nextafter(knots, 0), np.nextafter(knots, 1),
                        1.0 - 2.0**-53 * np.arange(1, 9), [0.0]])
    u = u[u < 1]
    expected = smallest_count_reaching(u, lo, table)
    np.testing.assert_array_equal(binomial._inverse_cdf(u, n_missing, theta), expected)
    singles = [binomial._inverse_cdf(u[i:i + 1], n_missing, theta)[0] for i in range(u.size)]
    np.testing.assert_array_equal(singles, expected)


TABLE_CASES = [(n, theta) for n in (1, 2, 25, 500, 10**5)
               for theta in (1e-4, 0.1, 0.5, 0.55, 0.9, 1 - 1e-4)] + [(10**6, 1e-9)]


@pytest.mark.parametrize("n_missing, theta", TABLE_CASES)
def test_searched_table_matches_scipy(n_missing, theta):
    lo, pmf = binomial._pmf_window(n_missing, theta)
    counts = lo + np.arange(pmf.size)
    reference = stats.binom.pmf(counts, n_missing, theta)
    kept = reference > 1e-300
    np.testing.assert_allclose(pmf[kept], reference[kept], rtol=1e-10, atol=0)
    _, table = searched_table(n_missing, theta)
    np.testing.assert_allclose(table, stats.binom.cdf(counts, n_missing, theta),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_missing, theta", TABLE_CASES + [(0, 0.3), (500, 0.0), (500, 1.0),
                                                   (10**8, 0.55)])
@pytest.mark.parametrize("bits", [1, 4, 10, 13, 18])
def test_guide_is_the_first_row_reaching_each_bucket_edge(n_missing, theta, bits):
    _, table = binomial._cdf_table(n_missing, theta)
    edges = np.arange(2**bits + 1) / 2**bits
    np.testing.assert_array_equal(binomial._guide(table, bits),
                                  np.searchsorted(table, edges, side="left"))


@pytest.mark.parametrize("n_missing, theta", TABLE_CASES + [
    (10**8, 1e-9), (10**8, 1e-4), (10**8, 0.5), (10**8, 1 - 1e-4)])
def test_window_leaves_out_tails_below_1e_26(n_missing, theta):
    # With +-40 sigma alone, n = 1e6 and theta = 1e-9 would give the window
    # 0..1, while P(X >= 2) is 5.0e-7.
    lo, pmf = binomial._pmf_window(n_missing, theta)
    hi = lo + pmf.size - 1
    assert stats.binom.cdf(lo - 1, n_missing, theta) < 1e-26
    assert stats.binom.sf(hi, n_missing, theta) < 1e-26


@pytest.mark.parametrize("n_missing", [1, 500, 10**8])
def test_boundary_theta_is_a_point_mass(n_missing):
    u = mc.stream_uniforms(2, 1_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(binomial._inverse_cdf(u, n_missing, 0.0) == 0)
        assert np.all(binomial._inverse_cdf(u, n_missing, 1.0) == n_missing)


@pytest.mark.parametrize("n_missing", [10**7, 10**8])
@pytest.mark.parametrize("theta", [1e-4, 0.55])
def test_inverse_cdf_equals_scipy_ppf_at_large_missing_count(n_missing, theta):
    u = mc.stream_uniforms(21, 4_096, start=1_000)
    np.testing.assert_array_equal(binomial._inverse_cdf(u, n_missing, theta),
                                  stats.binom.ppf(u, n_missing, theta))


def test_uneven_blocks_equal_one_shot_rows_at_large_missing_count():
    # The table depends only on (n_missing, theta), so a block's draws are
    # the same rows of the one-shot run wherever the block starts or ends.
    obs = BinomialObserved(550, 1000, 10**5)
    full = drawn_successes(obs, 0.55, 5_000, 8)
    edges = [0, 1, 8, 1_032, 1_033, 4_000, 5_000]
    merged = Counter()
    for lo, hi in zip(edges[:-1], edges[1:]):
        block = drawn_successes(obs, 0.55, hi - lo, 8, start=lo)
        np.testing.assert_array_equal(block, full[lo:hi])
        merged += as_counter(*MODEL.draw_completions_batch(obs, 0.55, hi - lo, 8, start=lo))
    assert merged == as_counter(*MODEL.draw_completions_batch(obs, 0.55, 5_000, 8))


@pytest.mark.parametrize("obs, theta, block, n_draws, start", [
    (BinomialObserved(3, 10, 0), 0.3, 1, 10, 3),  # a one-row table: one draw per sub-block
    (BinomialObserved(3, 10, 5), 0.3, 7, 50, 5),
    (BinomialObserved(30, 50, 50), 0.6, 7, 200, 13),  # the 51-row table sets the sub-block
    (BinomialObserved(30, 50, 50), 0.6, 1_000, 2_500, 333),
    (BinomialObserved(550, 1000, 10**6), 0.55, 1_000, 100_000, 12_345),  # 39,880 rows
])
def test_sub_blocks_leave_the_histogram_unchanged(monkeypatch, obs, theta, block, n_draws,
                                                  start):
    calls = []
    monkeypatch.setattr(binomial, "_BLOCK_DRAWS", block)
    monkeypatch.setattr(binomial, "open_stream",
                        lambda seed, start=0: RecordedStream(seed, start, calls))
    support, counts = MODEL.draw_completions_batch(obs, theta, n_draws, 4, start=start)
    # Sub-blocks hold max(block, table rows) draws; the last one holds the rest.
    step = max(block, binomial._cdf_table(obs.n_missing, theta)[1].size)
    edges = [*range(start, start + n_draws, step), start + n_draws]
    assert calls == [(lo, hi - lo) for lo, hi in zip(edges[:-1], edges[1:])]
    assert_histogram_of(support, counts, drawn_successes(obs, theta, n_draws, 4, start=start))


@pytest.mark.parametrize("n_missing", [0, 1, 50, 500, 10**6, 10**8])
@pytest.mark.parametrize("theta", [0.0, 1e-4, 0.55, 1.0])
@pytest.mark.parametrize("n_draws", [1, 2, 1_023, 1_024, 16_385, 250_000])
@pytest.mark.parametrize("start", [4_097, 2, 16_387])  # start % 4 = 1, 2, 3
def test_bucket_counts_equal_the_per_draw_quantiles(n_missing, theta, n_draws, start):
    obs = BinomialObserved(7, 10, n_missing)
    support, counts = MODEL.draw_completions_batch(obs, theta, n_draws, 19, start=start)
    assert_histogram_of(support, counts, drawn_successes(obs, theta, n_draws, 19, start=start))


@st.composite
def chosen_words(draw):
    """(n_missing, theta, words): words at and around each cdf value and each bucket edge.

    The bucket edges are those of G = 2**13, which include the edges of every
    smaller G; 600 rows or fewer never need more buckets than that.
    """
    n_missing = draw(st.integers(0, 600))
    theta = draw(st.sampled_from([0.0, 1e-4, 0.1, 0.55, 0.9, 1.0]) | st.floats(0.0, 1.0))
    _, table = binomial._cdf_table(n_missing, theta)
    knots = [int(t * 2.0**53) << 11 for t in table.tolist() if t < 1.0]
    edges = [j << 51 for j in range(1, 2**13)]
    words = ([w + d for w in knots for d in (0, 2047, 2048)]
             + edges + [w - 1 for w in edges] + [0, 2**64 - 1])
    return n_missing, theta, [w for w in words if w < 2**64]


@given(case=chosen_words())
@example(case=(500, 0.55, [0, 2**64 - 1, 1 << 51, (1 << 51) - 1]))
@settings(max_examples=30, deadline=None)
def test_bucket_counts_at_cdf_values_and_bucket_edges(case):
    n_missing, theta, words = case
    words = np.array(words, dtype=np.uint64)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(binomial, "open_stream",
                        lambda seed, start=0: RecordedStream(seed, start, [], words))
        support, counts = MODEL.draw_completions_batch(BinomialObserved(0, 1, n_missing),
                                                       theta, words.size, 0)
    # The first row whose cdf reaches each uniform, by a plain binary search.
    labels, table = binomial._cdf_table(n_missing, theta)
    u = (words >> np.uint64(11)) * 2.0**-53
    assert_histogram_of(support, counts, labels[np.searchsorted(table, u, side="left")])


def test_sub_blocks_leave_an_adaptive_run_unchanged(monkeypatch):
    # Sub-blocks of 51 draws straddle the 1024-draw adaptive batches.
    obs = BinomialObserved(30, 50, 50)
    config = mc.MCConfig(n_draws=100_000, seed=6, max_relative_se=0.005)
    default = core.ri1(MODEL, obs, 0.5, config)
    monkeypatch.setattr(binomial, "_BLOCK_DRAWS", 7)
    small = core.ri1(MODEL, obs, 0.5, config)
    assert 1024 < default.n_draws < 100_000
    assert (small.n_draws, small.estimate, small.mc_standard_error) \
        == (default.n_draws, default.estimate, default.mc_standard_error)


def test_peak_memory_does_not_grow_with_the_draw_count():
    # 10**6 uniforms alone take 8 MB; the sub-blocks hold about 0.5 MB.
    obs = BinomialObserved(550, 1000, 500)
    MODEL.draw_completions_batch(obs, 0.55, 1_000, 1)  # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, counts = MODEL.draw_completions_batch(obs, 0.55, 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert counts.sum() == 10**6
    assert peak < 4 * 2**20


def test_window_above_the_row_budget_is_refused():
    # 10**20 missing trials would need about 4e11 rows; nothing is built.
    obs = BinomialObserved(6, 10, 10**20)
    with pytest.raises(ValidationError, match=r"n_missing=10{20} needs a pmf window of \d+ rows"):
        binomial._pmf_window(obs.n_missing, 0.5)
    with pytest.raises(ValidationError, match=r"n_missing=10{20}"):
        core.ri1(MODEL, obs, 0.5, mc.MCConfig(n_draws=100, seed=1))


def test_missing_count_above_int64_is_refused():
    lo, pmf = binomial._pmf_window(2**63 - 1, 1e-18)
    assert lo == 0 and 0 < pmf.size < 200
    with pytest.raises(ValidationError, match=r"n_missing=9223372036854775808 is above"):
        binomial._pmf_window(2**63, 1e-18)


def test_enumerate_expectation_normalization():
    obs = BinomialObserved(30, 50, 10)
    assert binomial.enumerate_expectation(obs, 0.6, lambda co: 1.0) == pytest.approx(1.0)


def test_enumerate_expectation_linear_functional():
    obs = BinomialObserved(30, 50, 10)
    value = binomial.enumerate_expectation(obs, 0.6, lambda co: co.successes_total)
    assert value == pytest.approx(36.0)


def test_enumerate_expectation_lod_scales_by_sample_fraction():
    obs = BinomialObserved(30, 50, 10)
    lod_ob = binom_lod(0.6, 0.5, 30, 50)
    value = binomial.enumerate_expectation(
        obs, 0.6, lambda co: binom_lod(0.6, 0.5, co.successes_total, co.n_total))
    assert value == pytest.approx((60 / 50) * lod_ob, rel=1e-12)


def test_enumeration_cap():
    with pytest.raises(OracleUnavailableError):
        binomial.enumerate_expectation(BinomialObserved(5, 10, 26), 0.5, lambda co: 1.0)


@pytest.mark.parametrize("obs, expected", [
    (BinomialObserved(5, 10, 0), 1.0),
    (BinomialObserved(30, 50, 50), 0.5),
    (BinomialObserved(7, 20, 80), 0.2),
])
def test_ri1_closed_form(obs, expected):
    assert binomial.ri1_closed_form(obs) == pytest.approx(expected, abs=1e-15)


def test_ri1_closed_form_boundary_refused():
    with pytest.raises(BoundaryError):
        binomial.ri1_closed_form(BinomialObserved(0, 10, 5))
    with pytest.raises(BoundaryError):
        binomial.ri1_closed_form(BinomialObserved(10, 10, 5))


@st.composite
def enumeration_cases(draw):
    n_ob = draw(st.integers(3, 120))
    x = draw(st.integers(1, n_ob - 1))
    return x, n_ob, draw(st.integers(0, 20)), draw(st.floats(0.05, 0.95))


@given(case=enumeration_cases())
# p0 close to x / n_ob: lods taken as differences of log-likelihoods cancel.
@example(case=(12, 15, 1, 0.80078125))
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_enumeration(case):
    x, n_ob, n_missing, p0 = case
    obs = BinomialObserved(x, n_ob, n_missing)
    if abs(p0 - x / n_ob) < 1e-9:
        return
    assert binomial.ri1_enumeration(obs, p0) == pytest.approx(
        binomial.ri1_closed_form(obs), abs=1e-12)


def test_closed_form_matches_monte_carlo_within_three_se():
    obs = BinomialObserved(30, 50, 50)
    engine = mc.MCConfig(n_draws=20_000, seed=17)
    result = core.ri1(MODEL, obs, 0.5, engine)
    assert abs(result.estimate - 0.5) <= 3 * result.mc_standard_error


def test_imputation_exact_for_linear_functionals():
    # Expectation of any linear functional of the sufficient statistic equals
    # the functional evaluated at the imputed statistic.
    obs = BinomialObserved(12, 40, 15)
    theta = 0.3
    pseudo = MODEL.impute_completion(obs, theta)
    for a, b in [(1.0, 0.0), (2.5, -1.0), (-0.7, 0.3)]:
        exact = binomial.enumerate_expectation(
            obs, theta, lambda co: a * co.successes_total + b * co.n_total)
        assert exact == pytest.approx(a * pseudo.successes_total + b * pseudo.n_total,
                                      rel=1e-12)


@st.composite
def interior_observations(draw):
    n_ob = draw(st.integers(2, 500))
    return BinomialObserved(draw(st.integers(1, n_ob - 1)), n_ob, draw(st.integers(0, 2000)))


@given(obs=interior_observations())
@example(obs=BinomialObserved(30, 50, 50))
@example(obs=BinomialObserved(550, 1000, 500))
@settings(max_examples=60, deadline=None)
def test_em_rate_equals_fraction_of_missing_information(obs):
    # Dempster, Laird & Rubin (1977): EM's rate of convergence is the
    # fraction of missing information, here 1 - ri1.
    theta_hat = obs.successes / obs.n_observed
    rate = 1.0 - binomial.ri1_closed_form(obs)
    for theta in (0.001, 0.3, 0.999):
        error = theta - theta_hat
        while abs(error) > 1e-4:
            theta = MODEL.mle(MODEL.impute_completion(obs, theta))
            next_error = theta - theta_hat
            assert next_error / error == pytest.approx(rate, abs=1e-10)
            error = next_error
