"""Seeded, deterministic-parallel Monte Carlo estimation.

Draw i's randomness never depends on how draws are scheduled.  Per-draw
samplers get their own counter-based substream keyed by (seed, draw index);
vectorized samplers, the binomial completions and the Cox measures, read
draw i's uniforms from counter block i of one keyed Philox stream
(:func:`stream_uniforms`), where ``start`` selects the first block, so any
range of draws [lo, hi) is bit-identical to the same rows of a one-shot
run.  Reduction uses numpy's pairwise summation over the index-ordered
value array, which is likewise scheduling-independent.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EstimationFailureError, ValidationError

#: Fixed default so unseeded runs are reproducible.
DEFAULT_SEED = 20090417

#: Recorded in report provenance for reproducibility audits.
GENERATOR_ID = ("philox4x64, substream key = (seed, draw_index)"
                " or vector key = (seed, tag) at counter block draw_index")

# Vectorized samplers read a single keyed stream at counter positions
# [i*per_draw, (i+1)*per_draw); the tag offset keeps those stream keys
# disjoint from per-draw substream keys, which use small indices.
_VECTOR_STREAM_BASE = 0xC0FFEE00_00000000

_ADAPTIVE_BATCH = 1024


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo run parameters."""

    n_draws: int
    seed: int = DEFAULT_SEED
    worker_hint: int = 0  # 0 = auto (serial)
    max_relative_se: float | None = None

    def __post_init__(self):
        if self.n_draws < 2:
            raise ValidationError("n_draws must be >= 2 (standard errors are always reported)")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
        if self.worker_hint < 0:
            raise ValidationError("worker_hint must be >= 0")
        if self.max_relative_se is not None and self.max_relative_se <= 0:
            raise ValidationError("max_relative_se must be positive when given")


@dataclass(frozen=True)
class MCEstimate:
    """Mean (or variance) estimate with its standard error."""

    mean: float
    standard_error: float
    n_effective: int
    sentinel_count: int

    @property
    def n_draws(self) -> int:
        return self.n_effective + self.sentinel_count


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for a single draw, keyed by (seed, index)."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def stream_uniforms(seed: int, n_draws: int, per_draw: int = 1, tag: int = 0,
                    start: int = 0) -> np.ndarray:
    """Uniforms for vectorized samplers; draw i owns a fixed counter block.

    Returns the blocks of draws ``start`` .. ``start + n_draws - 1``, equal
    to those rows of a run from draw 0.  Shape is (n_draws,) when
    per_draw == 1, else (n_draws, per_draw).
    """
    key = np.array([seed, _VECTOR_STREAM_BASE + tag], dtype=np.uint64)
    bit_generator = np.random.Philox(key=key)
    skip = start * per_draw
    if skip:
        # One Philox counter step yields four 64-bit outputs, one per uniform.
        bit_generator.advance(skip // 4)
    gen = np.random.Generator(bit_generator)
    if skip % 4:
        gen.random(skip % 4)
    u = gen.random(n_draws * per_draw)
    return u if per_draw == 1 else u.reshape(n_draws, per_draw)


def estimate_from_values(values: np.ndarray) -> MCEstimate:
    """Mean/SE over draw values; non-finite sentinels are excluded and counted."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    n_eff = int(finite.sum())
    sentinels = values.size - n_eff
    if n_eff == 0:
        raise EstimationFailureError("all Monte Carlo draws were sentinels")
    kept = values[finite]
    mean = float(np.mean(kept))
    if n_eff < 2:
        se = math.inf
    else:
        se = float(np.std(kept, ddof=1) / math.sqrt(n_eff))
    return MCEstimate(mean=mean, standard_error=se, n_effective=n_eff, sentinel_count=sentinels)


def variance_from_values(values: np.ndarray) -> MCEstimate:
    """Unbiased sample variance with an SE from the fourth central moment."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    n_eff = int(finite.sum())
    sentinels = values.size - n_eff
    if n_eff == 0:
        raise EstimationFailureError("all Monte Carlo draws were sentinels")
    kept = values[finite]
    if n_eff < 2:
        return MCEstimate(mean=0.0, standard_error=math.inf,
                          n_effective=n_eff, sentinel_count=sentinels)
    d = kept - np.mean(kept)
    n = n_eff
    s2 = float(d @ d / (n - 1))
    m4 = float(np.mean(d**4))
    var_s2 = (m4 - (n - 3) / (n - 1) * s2 * s2) / n
    se = math.sqrt(max(var_s2, 0.0))
    return MCEstimate(mean=s2, standard_error=se, n_effective=n, sentinel_count=sentinels)


def _evaluate_indices(draw: Callable, functional: Callable, seed: int,
                      indices: np.ndarray, workers: int) -> np.ndarray:
    out = np.empty(indices.size, dtype=float)

    def run_chunk(lo: int, hi: int) -> None:
        for pos in range(lo, hi):
            idx = int(indices[pos])
            sample = draw(idx, substream(seed, idx))
            out[pos] = float(functional(sample))

    if workers > 1 and indices.size > 1:
        bounds = np.linspace(0, indices.size, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_chunk, int(lo), int(hi))
                       for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
            for f in futures:
                f.result()
    else:
        run_chunk(0, indices.size)
    return out


def collect_blocks(evaluate: Callable[[int, int], np.ndarray],
                   config: MCConfig) -> np.ndarray:
    """Values of draws 0..n-1, where ``evaluate(lo, hi)`` returns draws lo..hi-1.

    When ``max_relative_se`` is set, evaluation proceeds in fixed batches
    (still in index order, so stopping is scheduling-independent) and stops
    once the running relative standard error falls below the target.
    """
    if config.max_relative_se is None:
        return evaluate(0, config.n_draws)

    chunks: list[np.ndarray] = []
    done = 0
    while done < config.n_draws:
        hi = min(done + _ADAPTIVE_BATCH, config.n_draws)
        chunks.append(evaluate(done, hi))
        done = hi
        values = np.concatenate(chunks)
        kept = values[np.isfinite(values)]
        if kept.size < 2:
            continue
        mean = float(np.mean(kept))
        se = float(np.std(kept, ddof=1) / math.sqrt(kept.size))
        if mean != 0.0 and se / abs(mean) <= config.max_relative_se:
            break
    return np.concatenate(chunks)


def collect_values(draw: Callable, functional: Callable, config: MCConfig) -> np.ndarray:
    """Evaluate functional(draw(i, rng_i)) for i = 0..n-1, index-ordered."""
    workers = max(config.worker_hint, 1)
    return collect_blocks(
        lambda lo, hi: _evaluate_indices(draw, functional, config.seed,
                                         np.arange(lo, hi), workers),
        config)


def mc_expectation(draw: Callable, functional: Callable, config: MCConfig) -> MCEstimate:
    """Monte Carlo mean of functional over counter-based substream draws."""
    return estimate_from_values(collect_values(draw, functional, config))


def mc_variance(draw: Callable, functional: Callable, config: MCConfig) -> MCEstimate:
    """Monte Carlo (unbiased) variance of functional over substream draws."""
    return variance_from_values(collect_values(draw, functional, config))
