import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_reductions
from relinfo import mc
from relinfo.errors import DataIntegrityError, InstabilityError, ValidationError
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


@pytest.mark.parametrize("reduce", [mc.estimate_from_values, mc.variance_from_values])
def test_a_draw_that_is_not_finite_is_refused_by_name(reduce):
    # Per draw, the first such draw is named by its index and value; in a
    # histogram, the first such row in sorted order by its value and count.
    with pytest.raises(DataIntegrityError, match=r"draw: draw 1 is inf$"):
        reduce(np.array([1.0, np.inf, 2.0, np.nan, 3.0]))
    with pytest.raises(DataIntegrityError, match=r"draw: 6 draws are nan$"):
        reduce(np.array([1.0, np.nan, 2.0, np.nan]), np.array([3, 4, 5, 2]))
    with pytest.raises(DataIntegrityError, match=r"draw: 5 draws are -inf$"):
        reduce(np.array([np.nan, 2.0, -np.inf]), np.array([3, 4, 5]))
    with pytest.raises(ValidationError, match="no Monte Carlo draws"):
        reduce(np.array([]))


@pytest.mark.parametrize("as_histogram", [False, True], ids=["per draw", "histogram"])
def test_adaptive_run_stops_at_the_batch_with_a_draw_that_is_not_finite(as_histogram):
    # Draws are NaN from draw 1500 on, in the second 1024-draw batch: the
    # run stops there.
    calls = []

    def evaluate(lo, hi):
        calls.append((lo, hi))
        draws = np.arange(lo, hi, dtype=float)
        draws[draws >= 1500] = math.nan
        return draws

    message = r"548 draws are nan$" if as_histogram else r"draw 1500 is nan$"
    with pytest.raises(DataIntegrityError, match=message):
        mc.collect_blocks(histogram_of(evaluate) if as_histogram else evaluate,
                          MCConfig(n_draws=5_000, seed=1, max_relative_se=1e-9))
    assert calls == [(0, 1024), (1024, 2048)]


@pytest.mark.parametrize("counts", [None, np.array([3, 1])], ids=["per draw", "histogram"])
def test_standard_error_that_overflows_is_an_instability(counts):
    # Deviations near 5e299 from a finite mean overflow when squared.
    with pytest.raises(InstabilityError, match="standard error overflows"):
        mc.estimate_from_values(np.array([1e300, 2e300]), counts)


@pytest.mark.parametrize("counts", [None, np.array([3, 1])], ids=["per draw", "histogram"])
def test_mean_that_overflows_is_an_instability(counts):
    # Finite draws whose sum, or whose spread about the first, passes the
    # largest double: no infinite mean, and no overflow warning.
    values = np.array([1.5e308, 1.7e308]) if counts is None else np.array([-1.5e308, 1.7e308])
    with pytest.raises(InstabilityError, match="mean overflows"):
        mc.estimate_from_values(values, counts)


def test_adaptive_stop_agrees_with_the_reported_standard_error():
    # The stopping rule reads the SE as the estimate reports it: it stops
    # at the first block where the target is met.
    def evaluate(lo, hi):
        u = mc.stream_uniforms(8, hi - lo, 2, start=lo)
        return np.where(u[:, 0] < 0.1, 40.0, 10.0 + 20.0 * (u[:, 1] - 0.5))

    values = mc.collect_blocks(evaluate, MCConfig(n_draws=100_000, seed=8, max_relative_se=0.005))

    def relative_se(v):
        est = mc.estimate_from_values(v)
        return est.standard_error / abs(est.mean)

    assert np.any(values == 40.0) and values.size % 1024 == 0
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
_NONFINITE = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def _long_draws(draw):
    """Long enough for numpy's pairwise summation to recurse, with or without non-finite draws."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(draw(_FINITE), 10.0 ** draw(st.integers(-3, 5)),
                        draw(st.integers(2, 20_000)))
    bad = rng.random(values.size) < draw(st.sampled_from([0.0, 0.001, 0.3]))
    values[bad] = rng.choice([math.inf, -math.inf, math.nan], bad.sum())
    return values


_DRAWS = st.one_of(
    st.lists(_FINITE, max_size=40).map(np.array),
    st.lists(st.one_of(_FINITE, _NONFINITE), max_size=40).map(np.array),
    _long_draws(),
)


def _outcome(reduce, values):
    try:
        return reduce(values)
    except (DataIntegrityError, ValidationError) as exc:
        return f"{type(exc).__name__}: {exc}"


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
    """Rows (finite and non-finite values, some repeated) with positive draw counts."""
    if draw(st.booleans()):
        values = np.array(draw(st.lists(st.one_of(_FINITE, _NONFINITE), max_size=40)))
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
    # Counts and refusals are exact; the mean and SE are sums in another
    # order, so they agree to 1e-12 relative, or 1e-12 of the values' own
    # scale for a mean near 0 (squared scale for the variance).  The SE is
    # compared squared, where that scale bounds its error.
    values, counts = histogram
    draws = np.repeat(values, counts)
    scale = _scale(values)
    for (reduce, reference), power in zip(REDUCTIONS, (1, 2)):
        got = _outcome(lambda v: reduce(v, counts), values)
        want = _outcome(lambda v: reference(v, counted=True), draws)
        if isinstance(want, str):
            assert got == want
            continue
        assert got.n_effective == want.n_effective
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
    var = mc.variance_from_values(np.array([value]), np.array([count]))
    assert (var.mean, var.n_effective) == (0.0, count)
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
        return np.where(u[:, 0] < 0.1, 25.0, np.floor(20.0 * u[:, 1]))

    blocks = mc.collect_blocks(histogram_of(evaluate),
                               MCConfig(n_draws=5_000, seed=8, max_relative_se=1e-9))
    one = mc.collect_blocks(histogram_of(evaluate), MCConfig(n_draws=5_000, seed=8))
    for got, want in zip(blocks, mc.histogram(*one)):
        np.testing.assert_array_equal(got, want)
    est = mc.estimate_from_values(*one)
    assert mc.estimate_from_values(*blocks) == est
    want = reference_reductions.estimate_from_values(evaluate(0, 5_000))
    assert est.n_effective == want.n_effective
    assert est.mean == pytest.approx(want.mean, rel=1e-12)
    assert est.standard_error == pytest.approx(want.standard_error, rel=1e-12)


def test_adaptive_histograms_stop_where_the_draws_do():
    # The stopping rule reads the counted estimate, which agrees with the
    # per-draw one: both stop at the same batch.
    def evaluate(lo, hi):
        u = mc.stream_uniforms(8, hi - lo, 2, start=lo)
        return np.where(u[:, 0] < 0.1, 25.0, np.floor(10.0 + 20.0 * (u[:, 1] - 0.5)))

    config = MCConfig(n_draws=100_000, seed=8, max_relative_se=0.005)
    values = mc.collect_blocks(evaluate, config)
    rows, counts = mc.collect_blocks(histogram_of(evaluate), config)
    assert counts.sum() == values.size < 100_000
    assert mc.mc_expectation(histogram_of(evaluate), config).n_draws == values.size
