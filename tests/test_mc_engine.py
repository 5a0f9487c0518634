import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_reductions
from relinfo import mc
from relinfo.errors import EstimationFailureError, InstabilityError, ValidationError
from relinfo.mc import MCConfig


def per_draw(seed, sample):
    """Block evaluator whose draw i is sample(substream(seed, i))."""
    return lambda lo, hi: np.array([float(sample(mc.substream(seed, i)))
                                    for i in range(lo, hi)])


def bernoulli_draw(rng):
    return rng.random() < 0.5


def constant(value):
    return lambda lo, hi: np.full(hi - lo, value)


def test_constant_functional_has_zero_se():
    est = mc.mc_expectation(constant(3.25), MCConfig(n_draws=100, seed=1))
    assert est.mean == 3.25
    assert est.standard_error == 0.0
    assert est.n_effective == 100
    assert est.sentinel_count == 0


def test_bernoulli_mean_within_three_se():
    est = mc.mc_expectation(per_draw(2, bernoulli_draw), MCConfig(n_draws=10_000, seed=2))
    assert abs(est.mean - 0.5) <= 3 * est.standard_error


def test_block_grouping_does_not_change_results():
    def evaluate(lo, hi):
        return (mc.stream_uniforms(3, hi - lo, start=lo) < 0.5).astype(float)

    def in_uneven_pieces(lo, hi):
        edges = [lo, min(lo + 1, hi), min(lo + 9, hi), min(lo + 700, hi), hi]
        return np.concatenate([evaluate(a, b) for a, b in zip(edges, edges[1:])])

    config = MCConfig(n_draws=2_000, seed=3)
    assert mc.mc_expectation(evaluate, config) == mc.mc_expectation(in_uneven_pieces, config)


def test_substreams_are_independent_of_each_other():
    # Reading draw 5's stream never depends on whether draw 4 was evaluated.
    direct = mc.substream(9, 5).random(3)
    mc.substream(9, 4).random(1000)
    again = mc.substream(9, 5).random(3)
    np.testing.assert_array_equal(direct, again)


@pytest.mark.parametrize("seed, index", [(0, 0), (9, 5), (20090417, 19), (2**64 - 1, 3)])
def test_substream_is_numpys_philox_under_its_key(seed, index):
    want = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    got = mc.substream(seed, index)
    np.testing.assert_array_equal(got.random(16), want.random(16))
    np.testing.assert_array_equal(got.integers(0, 2, size=16), want.integers(0, 2, size=16))


def test_no_stream_draws_os_entropy(monkeypatch):
    def entropy(*args):
        raise AssertionError("OS entropy drawn")

    monkeypatch.setattr(np.random.bit_generator, "randbits", entropy)
    with pytest.raises(AssertionError, match="OS entropy"):  # the patch bites Philox(key=...)
        np.random.Philox(key=np.array([1, 2], dtype=np.uint64))
    mc.substream(1, 2).random(4)
    mc.open_stream(1, 5, tag=3).random_raw(4)
    mc.stream_uniforms(1, 4, per_draw=2)


def test_stream_uniforms_shapes_and_determinism():
    u1 = mc.stream_uniforms(7, 10)
    u2 = mc.stream_uniforms(7, 10)
    np.testing.assert_array_equal(u1, u2)
    assert u1.shape == (10,)
    assert mc.stream_uniforms(7, 10, per_draw=3).shape == (10, 3)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("tag", [0, 3])
def test_stream_is_numpys_philox_under_the_vector_key(seed, tag):
    key = np.array([seed, mc._VECTOR_STREAM_BASE + tag], dtype=np.uint64)
    words = np.random.Philox(key=key).random_raw(64)
    uniforms = np.random.Generator(np.random.Philox(key=key)).random(64)
    for start in [0, 1, 2, 3, 4, 5, 13, 40]:
        np.testing.assert_array_equal(mc.open_stream(seed, start, tag).random_raw(64 - start),
                                      words[start:])
        np.testing.assert_array_equal(mc.stream_uniforms(seed, 64 - start, tag=tag, start=start),
                                      uniforms[start:])


@pytest.mark.parametrize("per_draw", [1, 3, 4, 7])
def test_stream_uniforms_start_selects_rows_of_one_shot_run(per_draw):
    full = mc.stream_uniforms(11, 40, per_draw=per_draw, tag=2)
    for lo, n in [(0, 40), (1, 5), (3, 17), (13, 27), (39, 1)]:
        block = mc.stream_uniforms(11, n, per_draw=per_draw, tag=2, start=lo)
        np.testing.assert_array_equal(block, full[lo:lo + n])


def test_collect_blocks_stops_at_a_block_boundary():
    config = MCConfig(n_draws=100_000, seed=6, max_relative_se=0.02)
    evaluate = per_draw(config.seed, lambda rng: rng.normal(10.0, 5.0))
    blocks = mc.collect_blocks(evaluate, config)
    values = mc.collect_blocks(evaluate, MCConfig(n_draws=blocks.size, seed=config.seed))
    np.testing.assert_array_equal(blocks, values)
    assert blocks.size % 1024 == 0 and blocks.size < config.n_draws


def test_sentinels_excluded_and_counted():
    values = np.array([1.0, np.inf, 2.0, np.nan, 3.0])
    est = mc.estimate_from_values(values)
    assert est.mean == 2.0
    assert est.n_effective == 3
    assert est.sentinel_count == 2


def test_all_sentinels_raise():
    with pytest.raises(EstimationFailureError):
        mc.estimate_from_values(np.array([np.inf, np.nan]))


@pytest.mark.parametrize("counts", [None, np.array([3, 1])], ids=["per draw", "histogram"])
def test_standard_error_that_overflows_is_an_instability(counts):
    # Deviations near 5e299 from a finite mean overflow when squared.
    with pytest.raises(InstabilityError, match="standard error overflows"):
        mc.estimate_from_values(np.array([1e300, 2e300]), counts)


def test_variance_excludes_and_counts_sentinels():
    est = mc.variance_from_values(np.array([1.0, np.inf, 3.0, np.nan]))
    assert (est.mean, est.n_effective, est.sentinel_count) == (2.0, 2, 2)
    with pytest.raises(EstimationFailureError):
        mc.variance_from_values(np.array([np.nan, -np.inf]))


def test_adaptive_stop_agrees_with_the_reported_standard_error():
    # The stopping rule skips sentinels and reads the SE as the estimate
    # reports it: it stops at the first block where the target is met.
    def evaluate(lo, hi):
        u = mc.stream_uniforms(8, hi - lo, 2, start=lo)
        return np.where(u[:, 0] < 0.1, np.inf, 10.0 + 20.0 * (u[:, 1] - 0.5))

    values = mc.collect_blocks(evaluate, MCConfig(n_draws=100_000, seed=8, max_relative_se=0.005))

    def relative_se(v):
        est = mc.estimate_from_values(v)
        return est.standard_error / abs(est.mean)

    assert np.any(np.isinf(values)) and values.size % 1024 == 0
    assert relative_se(values) <= 0.005 < relative_se(values[:-1024])


def test_variance_constant_is_zero():
    est = mc.variance_from_values(mc.collect_blocks(constant(1.5), MCConfig(n_draws=50, seed=4)))
    assert est.mean == 0.0


def test_variance_bernoulli_quarter():
    est = mc.variance_from_values(
        mc.collect_blocks(per_draw(5, bernoulli_draw), MCConfig(n_draws=20_000, seed=5)))
    assert abs(est.mean - 0.25) <= 3 * est.standard_error


def test_adaptive_stop_reports_at_least_two_draws():
    config = MCConfig(n_draws=100_000, seed=6, max_relative_se=0.5)
    values = mc.collect_blocks(per_draw(config.seed, lambda rng: rng.normal(10.0)), config)
    assert 2 <= values.size <= 100_000
    est = mc.estimate_from_values(values)
    assert est.n_effective >= 2
    # The target was loose, so stopping should kick in well before the cap.
    assert values.size < 100_000


def test_config_validation():
    with pytest.raises(ValidationError):
        MCConfig(n_draws=1)
    with pytest.raises(ValidationError):
        MCConfig(n_draws=10, seed=-1)
    with pytest.raises(ValidationError):
        MCConfig(n_draws=10, max_relative_se=0.0)


REDUCTIONS = [(mc.estimate_from_values, reference_reductions.estimate_from_values),
              (mc.variance_from_values, reference_reductions.variance_from_values)]

_FINITE = st.floats(-1e6, 1e6)
_SENTINEL = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def _long_draws(draw):
    """Long enough for numpy's pairwise summation to recurse, with or without sentinels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(draw(_FINITE), 10.0 ** draw(st.integers(-3, 5)),
                        draw(st.integers(2, 20_000)))
    sentinels = rng.random(values.size) < draw(st.sampled_from([0.0, 0.001, 0.3]))
    values[sentinels] = rng.choice([math.inf, -math.inf, math.nan], sentinels.sum())
    return values


_DRAWS = st.one_of(
    st.lists(_FINITE, max_size=40).map(np.array),
    st.lists(st.one_of(_FINITE, _SENTINEL), max_size=40).map(np.array),
    _long_draws(),
)


def _outcome(reduce, values):
    try:
        return reduce(values)
    except EstimationFailureError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_DRAWS)
def test_reductions_equal_the_copy_based_reference_and_keep_their_input(values):
    values = values.astype(float)
    before = values.tobytes()
    for reduce, reference in REDUCTIONS:
        assert _outcome(reduce, values) == _outcome(reference, values)
        assert values.tobytes() == before


@pytest.mark.parametrize("reduce", [mc.estimate_from_values, mc.variance_from_values])
def test_reduction_peak_memory_is_about_one_copy_of_the_draws(reduce):
    # The copy-based reference peaks at 2x (mean) and 4x (variance) the input.
    values = np.random.default_rng(12).normal(3.0, 2.0, 250_000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        reduce(values)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * values.nbytes


@st.composite
def _histograms(draw):
    """Rows (finite values and sentinels, some repeated) with positive draw counts."""
    if draw(st.booleans()):
        values = np.array(draw(st.lists(st.one_of(_FINITE, _SENTINEL), max_size=40)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pool = np.concatenate([rng.normal(draw(_FINITE), 10.0 ** draw(st.integers(-3, 5)),
                                          draw(st.integers(1, 300))),
                               [math.inf, -math.inf, math.nan]])
        p = np.full(pool.size, 1.0)
        p[-3:] = draw(st.sampled_from([0.0, 0.01, 1.0]))
        values = rng.choice(pool, size=draw(st.integers(1, 2_000)), p=p / p.sum())
    counts = rng.integers(1, draw(st.sampled_from([2, 7, 60])), size=values.size)
    return values.astype(float), counts


def _scale(values):
    finite = values[np.isfinite(values)]
    return float(np.max(np.abs(finite))) if finite.size else 0.0


@settings(max_examples=300, deadline=None)
@given(_histograms())
def test_counted_reductions_equal_the_reference_on_the_repeated_draws(histogram):
    # Counts and sentinels are exact; the mean and SE are sums in another
    # order, so they agree to 1e-12 relative, or 1e-12 of the values' own
    # scale for a mean near 0 (squared scale for the variance).  The SE is
    # compared squared, where that scale bounds its error.
    values, counts = histogram
    draws = np.repeat(values, counts)
    scale = _scale(values)
    for (reduce, reference), power in zip(REDUCTIONS, (1, 2)):
        got, want = _outcome(lambda v: reduce(v, counts), values), _outcome(reference, draws)
        if isinstance(want, str):
            assert got == want
            continue
        assert (got.n_effective, got.sentinel_count) == (want.n_effective, want.sentinel_count)
        assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=1e-12 * scale**power)
        if math.isinf(want.standard_error):
            assert got.standard_error == want.standard_error
        else:
            assert got.standard_error**2 == pytest.approx(
                want.standard_error**2, rel=1e-12, abs=1e-12 * scale ** (2 * power))


@settings(max_examples=200, deadline=None)
@given(_histograms(), st.integers(0, 2**32 - 1))
def test_counted_reductions_depend_only_on_the_draws(histogram, seed):
    # Shuffling the rows and splitting each row's draws between two rows
    # stands for the same draws, so it gives bitwise the same results.
    values, counts = histogram
    rng = np.random.default_rng(seed)
    first = rng.integers(0, counts + 1)
    split_values = np.concatenate([values, values])
    split_counts = np.concatenate([first, counts - first])
    kept = split_counts > 0
    order = rng.permutation(int(kept.sum()))
    for reduce, _ in REDUCTIONS:
        assert (_outcome(lambda v: reduce(v, counts), values)
                == _outcome(lambda v: reduce(v, split_counts[kept][order]),
                            split_values[kept][order]))


@pytest.mark.parametrize("value", [0.8717669357238895, -3.1, 1e300, 5e-324])
@pytest.mark.parametrize("count", [1, 2, 3, 49, 100, 250_000])
def test_one_row_reduces_to_its_value_exactly(value, count):
    est = mc.estimate_from_values(np.array([value]), np.array([count]))
    assert (est.mean, est.n_effective) == (value, count)
    assert est.standard_error == (0.0 if count > 1 else math.inf)
    var = mc.variance_from_values(np.array([value, math.nan]), np.array([count, 4]))
    assert (var.mean, var.n_effective, var.sentinel_count) == (0.0, count, 4)
    assert var.standard_error == (0.0 if count > 1 else math.inf)


def histogram_of(evaluate):
    """The evaluator as a histogram: each block's distinct values and their counts."""
    def rows_and_counts(lo, hi):
        return np.unique(evaluate(lo, hi), return_counts=True)
    return rows_and_counts


def test_adaptive_histograms_merge_to_the_one_block_histogram():
    # A target no run reaches evaluates every draw in 1024-draw batches.
    def evaluate(lo, hi):
        u = mc.stream_uniforms(8, hi - lo, 2, start=lo)
        return np.where(u[:, 0] < 0.1, np.inf, np.floor(20.0 * u[:, 1]))

    blocks = mc.collect_blocks(histogram_of(evaluate),
                               MCConfig(n_draws=5_000, seed=8, max_relative_se=1e-9))
    one = mc.collect_blocks(histogram_of(evaluate), MCConfig(n_draws=5_000, seed=8))
    for got, want in zip(blocks, mc.histogram(*one)):
        np.testing.assert_array_equal(got, want)
    est = mc.estimate_from_values(*one)
    assert mc.estimate_from_values(*blocks) == est
    want = reference_reductions.estimate_from_values(evaluate(0, 5_000))
    assert (est.n_effective, est.sentinel_count) == (want.n_effective, want.sentinel_count)
    assert est.mean == pytest.approx(want.mean, rel=1e-12)
    assert est.standard_error == pytest.approx(want.standard_error, rel=1e-12)


def test_adaptive_histograms_stop_where_the_draws_do():
    # The stopping rule reads the counted estimate, which agrees with the
    # per-draw one: both stop at the same batch.
    def evaluate(lo, hi):
        u = mc.stream_uniforms(8, hi - lo, 2, start=lo)
        return np.where(u[:, 0] < 0.1, np.inf, np.floor(10.0 + 20.0 * (u[:, 1] - 0.5)))

    config = MCConfig(n_draws=100_000, seed=8, max_relative_se=0.005)
    values = mc.collect_blocks(evaluate, config)
    rows, counts = mc.collect_blocks(histogram_of(evaluate), config)
    assert counts.sum() == values.size < 100_000
    assert mc.mc_expectation(histogram_of(evaluate), config).n_draws == values.size
