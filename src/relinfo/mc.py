"""Seeded Monte Carlo estimation over blocks of draws.

Every draw is a function of the seed and its draw index alone, so any
range of draws [lo, hi) is bit-identical to the same rows of a one-shot
run.  The binomial sampler reads draw i's raw words from counter block i
of one keyed Philox stream, opened at a given 64-bit word by
:func:`open_stream`; their top bits are its search buckets, and it forms
only the uniforms it searches.  The Cox measures walk the points of a
randomly shifted rank-1 lattice rule (:func:`draw_points`): draw j is
point j // R of replicate j % R, each replicate shifted by its own Philox
uniforms (:func:`stream_uniforms`), so every point is uniform and the
mean stays unbiased, while the lattice spreads the points more evenly
than independent ones.
Measures hand :func:`collect_blocks` an ``evaluate(lo, hi)`` that returns
draws lo..hi-1, as their values or as a histogram of rows and counts; it
is the one adaptive-stopping loop; it checks the target after each batch
of 1024 draws, and lattice draws after each point of the replicates.
Reduction takes every draw and
refuses one that is not finite; only ri-y defines sentinel draws, and it
sets them aside before it reduces.  It uses numpy's pairwise summation
over the index-ordered values, or over a histogram's rows sorted by value
(:func:`histogram`), which likewise depends neither on the grouping nor on
the number of BLAS threads.  The SE of independent draws is their
spread's; that of lattice draws comes from the spread of the R replicate
means (:func:`_replicate_se`).  :func:`substream` seeds what is not a
draw, such as simulated datasets.
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

#: Independently shifted replicates of the lattice rule (see
#: :func:`draw_points`); the SE of the mean of their draws comes from the
#: spread of the replicate means, with LATTICE_REPLICATES - 1 degrees of freedom.
LATTICE_REPLICATES = 32

#: Korobov multiplier of the lattice rule: coordinate k's generator is
#: KOROBOV**k mod 2**32, odd like KOROBOV, so any number of coordinates is
#: covered.  The rule of 2**b points depends only on KOROBOV mod 2**b, and
#: the bits were chosen lowest first by a beam search (64 kept) for the
#: least sum over b = 4..14 of log e2(2**b), e2 the shift-averaged squared
#: worst-case error, in the unanchored Sobolev space, of the first 27
#: coordinates (14 new subjects) with product weights 0.75**k:
#: e2 = -1 + mean_i prod_k (1 + 0.75**k B2({i a**k / 2**b})), B2(x) = x**2 - x + 1/6.
#: tests/test_mc_engine.py runs the search again.
KOROBOV = 0x1C43

#: Recorded in the Cox reports' provenance and diagnostics.
LATTICE_GENERATOR_ID = (f"randomly shifted rank-1 lattice rule, Korobov a = {KOROBOV:#x}, points "
                        f"in radical-inverse order; draw j is point j // {LATTICE_REPLICATES} "
                        f"shifted by row j % {LATTICE_REPLICATES} of philox4x64 uniforms, "
                        "vector key = (seed, tag)")


def check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2**64): the generators key on it as a uint64."""
    if seed < 0 or seed > 2**64 - 1:
        raise ValidationError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo run parameters."""

    n_draws: int
    seed: int = DEFAULT_SEED
    max_relative_se: float | None = None

    def __post_init__(self):
        if self.n_draws < 2:
            raise ValidationError("n_draws must be >= 2 (standard errors are always reported)")
        check_seed(self.seed)
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


def _radical_inverse(i: np.ndarray) -> np.ndarray:
    """The 32-bit radical inverse in base 2 of uint64 integers below 2**32, times 2**32.

    That is ``i``'s 32 low bits in reverse order, swapped in halves, bytes,
    nibbles, pairs and single bits.
    """
    for shift, mask in ((1, 0x55555555), (2, 0x33333333), (4, 0x0F0F0F0F), (8, 0x00FF00FF)):
        i = ((i & mask) << shift) | ((i >> shift) & mask)
    return ((i & 0xFFFF) << 16) | (i >> 16)


def draw_points(seed: int, lo: int, hi: int, per_draw: int, tag: int) -> np.ndarray:
    """The points of draws lo..hi-1, one column each: shape (per_draw, hi - lo).

    Draw j is point i = j // R of replicate r = j % R, R =
    ``LATTICE_REPLICATES``, of a randomly shifted rank-1 lattice rule:
    coordinate k is frac(phi(i) a**k / 2**32 + shift[r, k]), phi the 32-bit
    radical inverse and a the Korobov multiplier ``KOROBOV``, its product
    taken modulo 2**32.  The shifts are the R rows of :func:`stream_uniforms`
    under ``(seed, tag)``.  So draw j's point depends on (seed, j) alone,
    every point is uniform on [0, 1)**per_draw, and the first 2**k points of
    a replicate are a shifted lattice of 2**k points whatever k.
    """
    r = LATTICE_REPLICATES
    first, last = lo // r, -(-hi // r)
    if last > 2**32:
        raise ValidationError(f"the lattice rule has 2**32 points per replicate: draw {hi - 1} "
                              f"is past its {r * 2**32} draws")
    generator = np.array([pow(KOROBOV, k, 2**32) for k in range(per_draw)], dtype=np.uint64)
    x = _radical_inverse(np.arange(first, last, dtype=np.uint64))[:, None] * generator
    x = (x & 0xFFFFFFFF) * 2.0**-32
    shift = stream_uniforms(seed, r, per_draw, tag).reshape(r, per_draw)
    u = (x[:, None, :] + shift).reshape(-1, per_draw)[lo - first * r:hi - first * r]
    u -= u >= 1.0
    return u.T


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


def _replicate_se(deviations: np.ndarray, replicates: int) -> float:
    """SE of the mean of n draws from their deviations from it, draw j in replicate j % replicates.

    With D_r the sum of replicate r's deviations and k the number of
    replicates that hold a draw, the variance of the mean is k / (k - 1)
    sum_r D_r**2 / n**2.  That is the spread of the replicate means about
    the mean, each weighted by its share of the draws, since
    n_r / n (mean_r - mean) = D_r / n; so the replicates need not hold
    equal numbers of draws.  With equal shares it is the variance of a
    mean of k means, and at n = 2 it is the SE of two independent draws.
    """
    n = deviations.size
    k = min(n, replicates)
    padded = np.zeros(-(-n // replicates) * replicates)
    padded[:n] = deviations
    sums = padded.reshape(-1, replicates).sum(axis=0)
    return math.sqrt(float(np.sum(sums * sums)) * k / (k - 1)) / n


def _mean_and_se(values: np.ndarray, counts: np.ndarray | None, n: int,
                 replicates: int | None = None) -> tuple[float, float]:
    """Mean of the draws and its standard error (inf below two draws).

    With ``replicates``, the values are one per draw and the SE is
    :func:`_replicate_se`'s; otherwise it is that of independent draws.
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
    with np.errstate(over="ignore", invalid="ignore"):
        if replicates is not None:
            se = _replicate_se(values - mean, replicates)
        elif counts is None:
            se = float(np.std(values, ddof=1) / math.sqrt(n))
        else:
            d = values - mean
            se = math.sqrt(float(np.sum(counts * (d * d))) / (n - 1)) / math.sqrt(n)
    if not math.isfinite(se):
        raise InstabilityError(f"Monte Carlo standard error overflows: the draws near {mean:.3g} "
                               "are too large to square", {"mean": mean, "n_draws": n})
    return mean, se


def estimate_from_values(values: np.ndarray, counts: np.ndarray | None = None,
                         replicates: int | None = None) -> MCEstimate:
    """Mean/SE over draw values; a draw that is not finite is refused (DataIntegrityError).

    With ``counts``, ``values`` are the rows of a histogram and ``counts[r]``
    the number of draws of row r.  With ``replicates``, ``values`` are draws
    0..n-1 of :func:`draw_points`' replicates, in order, and the SE is taken
    from the replicate means.  Only ri-y defines sentinel draws, and it
    sets them aside before it reduces (see :func:`relinfo.core.ri_y_samples`).
    """
    values, counts, n = _draws(values, counts)
    mean, se = _mean_and_se(values, counts, n, replicates)
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


def collect_blocks(evaluate: Callable, config: MCConfig, replicates: int | None = None):
    """Draws 0..n-1, where ``evaluate(lo, hi)`` returns draws lo..hi-1.

    A block is either the values of its draws, in draw order, or a
    histogram ``(values, counts)`` of rows and their draw counts; this
    returns the kind ``evaluate`` returns.  When ``max_relative_se`` is
    set, evaluation proceeds in batches at fixed draw-index boundaries, so
    where it stops does not depend on how ``evaluate`` groups its draws,
    and stops once the running relative standard error falls below the
    target.  The histograms of successive batches are merged by
    :func:`histogram`.  ``replicates`` selects the SE of the stopping rule,
    as for :func:`estimate_from_values`, and the rule then also reads it
    after every point of the replicates inside a batch: the draws end at
    the first multiple of ``replicates`` that meets the target.  The SE of
    lattice draws falls faster than n**-0.5 and is read from few
    replicates, so a batch-end check would overshoot the target by a
    margin that varies from seed to seed.
    """
    if config.max_relative_se is None:
        return evaluate(0, config.n_draws)

    target = config.max_relative_se
    blocks: list = []
    done = 0
    while done < config.n_draws:
        lo, hi = done, min(done + _ADAPTIVE_BATCH, config.n_draws)
        blocks.append(evaluate(lo, hi))
        done = hi
        if isinstance(blocks[0], tuple):
            blocks = [histogram(*map(np.concatenate, zip(*blocks)))]
            drawn = blocks[0]
        else:
            drawn = (np.concatenate(blocks),)
        mean, se = _mean_and_se(*_draws(*drawn), replicates)
        if replicates is not None:
            n = _first_replicate_stop(drawn[0], lo, mean, target, replicates)
            if n is not None:
                return drawn[0][:n]
        if mean != 0.0 and se / abs(mean) <= target:
            break
    return blocks[0] if isinstance(blocks[0], tuple) else np.concatenate(blocks)


def _first_replicate_stop(values: np.ndarray, lo: int, mean: float, target: float,
                          replicates: int) -> int | None:
    """The first n = p * replicates in (lo, values.size) whose replicate SE meets ``target``.

    Each such n holds p draws of every replicate.  Their relative SEs are
    screened at once from running replicate sums about ``mean``, the mean
    of all the values; a prefix that passes the screen is confirmed by
    :func:`_mean_and_se`, so the stop reads the SE the estimate reports.
    """
    r = replicates
    first, last = lo // r + 1, -(-values.size // r)
    if first >= last:
        return None
    rows = values[:(last - 1) * r].reshape(-1, r) - mean
    sums = np.cumsum(rows, axis=0)[first - 1:]
    p = np.arange(first, last)
    n = p * r
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        shift = sums.sum(axis=1) / n
        deviations = sums - p[:, None] * shift[:, None]
        var = np.sum(deviations * deviations, axis=1) * r / (r - 1) / (n * n)
        relative = np.sqrt(var) / np.abs(mean + shift)
    for i in np.flatnonzero(relative <= target * (1 + 1e-9)):
        prefix_mean, se = _mean_and_se(values[:n[i]], None, int(n[i]), r)
        if prefix_mean != 0.0 and se / abs(prefix_mean) <= target:
            return int(n[i])
    return None


def mc_expectation(evaluate: Callable, config: MCConfig,
                   replicates: int | None = None) -> MCEstimate:
    """Monte Carlo mean over the draws that :func:`collect_blocks` evaluates.

    ``replicates`` is as for :func:`estimate_from_values`.
    """
    block = collect_blocks(evaluate, config, replicates)
    if isinstance(block, tuple):
        return estimate_from_values(*block)
    return estimate_from_values(block, replicates=replicates)
