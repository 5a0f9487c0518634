"""Seeded Monte Carlo estimation over blocks of draws.

Every sampler, the binomial completions and the Cox measures alike, reads
draw i's uniforms from counter block i of one keyed Philox stream, opened
at a given 64-bit word by :func:`open_stream`, where ``start`` selects the
first block, so any range of draws [lo, hi) is bit-identical to the same
rows of a one-shot run.  The Cox measures take uniforms from
:func:`stream_uniforms`; the binomial sampler reads the raw words, whose
top bits are its search buckets, and forms only the uniforms it searches.
Measures hand :func:`collect_blocks` an ``evaluate(lo, hi)`` that returns
draws lo..hi-1, as their values or as a histogram of rows and counts; it
is the one adaptive-stopping loop.  Reduction takes every draw and
refuses one that is not finite; only ri-y defines sentinel draws, and it
sets them aside before it reduces.  It uses numpy's pairwise summation
over the index-ordered values, or over a histogram's rows sorted by value
(:func:`histogram`), which likewise depends neither on the grouping nor on
the number of BLAS threads.  :func:`substream`
seeds what is not a draw, such as simulated datasets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataIntegrityError, InstabilityError, ValidationError

#: Fixed default so unseeded runs are reproducible.
DEFAULT_SEED = 20090417

#: Recorded in report provenance for reproducibility audits.
GENERATOR_ID = "philox4x64, vector key = (seed, tag) at counter block draw_index"

# Samplers read a single keyed stream at counter positions
# [i*per_draw, (i+1)*per_draw); the tag offset keeps those stream keys
# disjoint from substream keys, which use small indices.
_VECTOR_STREAM_BASE = 0xC0FFEE00_00000000

_ADAPTIVE_BATCH = 1024


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo run parameters."""

    n_draws: int
    seed: int = DEFAULT_SEED
    max_relative_se: float | None = None

    def __post_init__(self):
        if self.n_draws < 2:
            raise ValidationError("n_draws must be >= 2 (standard errors are always reported)")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
        if self.max_relative_se is not None and self.max_relative_se <= 0:
            raise ValidationError("max_relative_se must be positive when given")


@dataclass(frozen=True)
class MCEstimate:
    """Mean (or variance) estimate with its standard error.

    The reductions take every draw, so ``sentinel_count`` stays 0 (the benchmark reads it).
    """

    mean: float
    standard_error: float
    n_effective: int
    sentinel_count: int = 0

    @property
    def n_draws(self) -> int:
        return self.n_effective + self.sentinel_count


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator keyed by (seed, index), drawing no OS entropy."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_sequence()(key)))


@functools.cache
def _key_sequence() -> type:
    """Seed sequence type that hands ``np.random.Philox`` its key unchanged.

    Philox takes its key from ``generate_state(2, np.uint64)`` of the seed
    sequence it is given.  ``Philox(key=...)`` builds a ``SeedSequence``
    from OS entropy first and then discards it, which costs 5-11 us a
    stream; this one draws no entropy.  The type is made on first use, so
    that ``import relinfo`` does not import ``numpy.random``.
    """

    class KeySequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return KeySequence


def open_stream(seed: int, start: int = 0, tag: int = 0) -> np.random.Philox:
    """The samplers' keyed Philox stream, positioned at its 64-bit word ``start``.

    Every sampler opens its stream here.  Word k of the stream is the same
    whatever ``start`` it is read from, so any range of words equals those
    words of a run from word 0.
    """
    key = np.array([seed, _VECTOR_STREAM_BASE + tag], dtype=np.uint64)
    # One Philox counter step yields four 64-bit words.
    bit_generator = np.random.Philox(_key_sequence()(key), counter=start // 4)
    if start % 4:
        bit_generator.random_raw(start % 4)
    return bit_generator


def stream_uniforms(seed: int, n_draws: int, per_draw: int = 1, tag: int = 0,
                    start: int = 0) -> np.ndarray:
    """Uniforms for samplers; draw i owns a fixed counter block.

    Returns the blocks of draws ``start`` .. ``start + n_draws - 1``, equal
    to those rows of a run from draw 0.  Shape is (n_draws,) when
    per_draw == 1, else (n_draws, per_draw).  Uniform k is word k of
    :func:`open_stream` as (word >> 11) 2**-53.
    """
    gen = np.random.Generator(open_stream(seed, start * per_draw, tag))
    u = gen.random(n_draws * per_draw)
    return u if per_draw == 1 else u.reshape(n_draws, per_draw)


def histogram(values, counts) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``values`` drawn ``counts`` times each, sorted by value with equal values merged.

    This is the one form the counted reductions read, so their results
    depend only on the draws a histogram stands for: neither on the order
    of its rows nor on how the draws of one value are split among rows.
    """
    values, inverse = np.unique(np.asarray(values, dtype=float), return_inverse=True)
    merged = np.bincount(inverse, weights=counts, minlength=values.size)
    return values, merged.astype(np.int64)


def _draws(values, counts=None) -> tuple[np.ndarray, np.ndarray | None, int]:
    """(values, their counts, draws), refused at the first value that is not finite.

    Without ``counts`` the values are one per draw, in order, and their
    counts None.  Every draw is taken: a measure whose draw is not finite
    estimates nothing, so it stops with DataIntegrityError naming the draw.
    """
    if counts is None:
        values = np.asarray(values, dtype=float)
        n = values.size
    else:
        values, counts = histogram(values, counts)
        n = int(counts.sum())
    if n == 0:
        raise ValidationError("no Monte Carlo draws to reduce")
    if not np.isfinite(values).all():
        i = int(np.flatnonzero(~np.isfinite(values))[0])
        which = f"draw {i} is" if counts is None else f"{counts[i]} draws are"
        raise DataIntegrityError(f"non-finite Monte Carlo draw: {which} {values[i]}")
    return values, counts, n


def _counted_mean(values: np.ndarray, counts: np.ndarray, n: int) -> float:
    """Mean of ``n`` draws given as rows and counts, shifted by the first row's value.

    The shift makes a one-row histogram's mean that row's value exactly,
    where a plain weighted mean (c v) / c can be off in its last bit.
    """
    shift = values[0]
    return float(shift + np.sum(counts * (values - shift)) / n)


def _mean_and_se(values: np.ndarray, counts: np.ndarray | None, n: int) -> tuple[float, float]:
    """Mean of the draws and its standard error (inf below two draws).

    Raises InstabilityError when the draws' mean overflows, or when the mean
    is finite but the squared deviations from it overflow, as they do for
    draws beyond about 1e154.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values)) if counts is None else _counted_mean(values, counts, n)
    if not math.isfinite(mean):
        raise InstabilityError(f"Monte Carlo mean overflows: {n} finite draws sum past the "
                               "range of doubles", {"n_draws": n})
    if n < 2:
        return mean, math.inf
    with np.errstate(over="ignore"):
        if counts is None:
            se = float(np.std(values, ddof=1) / math.sqrt(n))
        else:
            d = values - mean
            se = math.sqrt(float(np.sum(counts * (d * d))) / (n - 1)) / math.sqrt(n)
    if not math.isfinite(se):
        raise InstabilityError(f"Monte Carlo standard error overflows: the draws near {mean:.3g} "
                               "are too large to square", {"mean": mean, "n_draws": n})
    return mean, se


def estimate_from_values(values: np.ndarray, counts: np.ndarray | None = None) -> MCEstimate:
    """Mean/SE over draw values; a draw that is not finite is refused (DataIntegrityError).

    With ``counts``, ``values`` are the rows of a histogram and ``counts[r]``
    the number of draws of row r.  Only ri-y defines sentinel draws, and it
    sets them aside before it reduces (see :func:`relinfo.core.ri_y_samples`).
    """
    values, counts, n = _draws(values, counts)
    mean, se = _mean_and_se(values, counts, n)
    return MCEstimate(mean=mean, standard_error=se, n_effective=n)


def variance_from_values(values: np.ndarray, counts: np.ndarray | None = None) -> MCEstimate:
    """Unbiased sample variance with an SE from the fourth central moment.

    ``counts`` are optional row counts, as for :func:`estimate_from_values`.
    """
    values, counts, n = _draws(values, counts)
    if n < 2:
        return MCEstimate(mean=0.0, standard_error=math.inf, n_effective=n)

    def total(a):
        return np.sum(a if counts is None else counts * a)

    d = values - (np.mean(values) if counts is None else _counted_mean(values, counts, n))
    # Squares in place, summed pairwise: a BLAS dot would split the sum
    # across threads, and its bits with the thread count.
    d *= d
    s2 = float(total(d) / (n - 1))
    d *= d
    m4 = float(total(d) / n)
    var_s2 = (m4 - (n - 3) / (n - 1) * s2 * s2) / n
    se = math.sqrt(max(var_s2, 0.0))
    return MCEstimate(mean=s2, standard_error=se, n_effective=n)


def collect_blocks(evaluate: Callable, config: MCConfig):
    """Draws 0..n-1, where ``evaluate(lo, hi)`` returns draws lo..hi-1.

    A block is either the values of its draws, in draw order, or a
    histogram ``(values, counts)`` of rows and their draw counts; this
    returns the kind ``evaluate`` returns.  When ``max_relative_se`` is
    set, evaluation proceeds in batches at fixed draw-index boundaries, so
    where it stops does not depend on how ``evaluate`` groups its draws,
    and stops once the running relative standard error falls below the
    target.  The histograms of successive batches are merged by
    :func:`histogram`.
    """
    if config.max_relative_se is None:
        return evaluate(0, config.n_draws)

    blocks: list = []
    done = 0
    while done < config.n_draws:
        hi = min(done + _ADAPTIVE_BATCH, config.n_draws)
        blocks.append(evaluate(done, hi))
        done = hi
        if isinstance(blocks[0], tuple):
            blocks = [histogram(*map(np.concatenate, zip(*blocks)))]
            drawn = blocks[0]
        else:
            drawn = (np.concatenate(blocks),)
        mean, se = _mean_and_se(*_draws(*drawn))
        if mean != 0.0 and se / abs(mean) <= config.max_relative_se:
            break
    return blocks[0] if isinstance(blocks[0], tuple) else np.concatenate(blocks)


def mc_expectation(evaluate: Callable, config: MCConfig) -> MCEstimate:
    """Monte Carlo mean over the draws that :func:`collect_blocks` evaluates."""
    block = collect_blocks(evaluate, config)
    return estimate_from_values(*block) if isinstance(block, tuple) else estimate_from_values(block)
