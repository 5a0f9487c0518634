import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_reductions
from relinfo import mc
from relinfo.errors import EstimationFailureError, ValidationError
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


def test_stream_uniforms_shapes_and_determinism():
    u1 = mc.stream_uniforms(7, 10)
    u2 = mc.stream_uniforms(7, 10)
    np.testing.assert_array_equal(u1, u2)
    assert u1.shape == (10,)
    assert mc.stream_uniforms(7, 10, per_draw=3).shape == (10, 3)


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
