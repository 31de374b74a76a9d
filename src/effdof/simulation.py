"""Monte Carlo study of the effective-d.f. estimators on chi-square components.

Each study cell fixes a component count K and a per-component d.f. nu, draws
K independent chi-square(nu) variates per replicate, evaluates the chosen
estimator, and records the sample mean together with its standard error.
The reference value for a cell is ``K * nu``, the effective d.f. of the
synthesis when the population variances are known.

When every component has the same d.f. nu, every estimator of the family is
Satterthwaite's ratio ``(sum s)^2 / sum s^2`` times a constant of (K, nu):
the ``nu_k + 2`` denominator and the correction term depend on the d.f. alone,
and the weighted mean d.f. is nu whatever the weights. A cell therefore
keeps only that ratio per replicate and scales its mean and standard error
by the factor the estimator itself returns for K identical components.

Chi-square variates come from ``Generator.chisquare``, numpy's gamma sampler
(Marsaglia & Tsang 2000, ACM TOMS 26(3)), whose cost does not grow with nu.
The two-component single-d.f. ratio stays on squared standard normals, which
are cheaper than the gamma sampler at one d.f. It runs on every CPU in blocks
of ``_RATIO_BLOCK`` draws, block 0 from the caller's generator and block i >= 1
from the (i-1)-th child it spawns, so no thread count changes a draw.

Every table cell draws from its own random substream, derived
deterministically from ``(seed, K, nu)`` and one fixed tag shared by every
estimator variant and by the calibration study. One draw pass therefore
serves the tables of any number of variants, and those tables are perfectly
correlated: they differ cell by cell only by the estimator's factor. Tables
are bit-reproducible for a fixed seed no matter the evaluation order or the
number of worker threads, and streams are never shared across cells.

Draws are made in cache-sized chunks. A generator hands out its variates in
order, so a chunk of m rows followed by one of n rows consumes the stream
exactly as one draw of m + n rows does: the chunk sizes never change a draw.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .estimators import EstimatorVariant, VarianceComponent

__all__ = [
    "DEFAULT_REPLICATES",
    "DEFAULT_SEED",
    "CellStat",
    "MeanDfTable",
    "SimulationGrid",
    "generate_table",
    "generate_tables",
    "pseudo_x2",
    "ratio_mean_k2_nu1",
    "ratio_samples_k2_nu1",
    "sample_chi2",
    "simulate_mean_df",
    "substream",
]

DEFAULT_SEED = 1
DEFAULT_REPLICATES = 10_000

_MASK64 = (1 << 64) - 1
# Upper bound on variates drawn per cell chunk: 2^17 doubles (1 MB), small
# enough that a chunk stays in cache while it is squared and reduced.
_CHUNK_SCALARS = 1 << 17
# Rows per chunk of the two-component single-d.f. ratio (2^16 normals, 512 KB).
_RATIO_CHUNK_ROWS = 1 << 15
# Draws per block of that ratio; each block has its own generator.
_RATIO_BLOCK = 1 << 18
# Substream tag of every table and calibration cell, whatever the variant.
_CRN_TAG = "crn"


def substream(seed: int, k: int, nu: int, tag: str) -> np.random.Generator:
    """Deterministic per-cell generator, independent of evaluation order."""
    tag_id = int.from_bytes(hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest(), "big")
    entropy = [int(seed) & _MASK64, int(k), int(nu), tag_id]
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class SimulationGrid:
    """Cross product of component counts and component d.f. for one study."""

    k_values: tuple[int, ...]
    nu_values: tuple[int, ...]
    replicates: int = DEFAULT_REPLICATES
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        ks = tuple(sorted({int(k) for k in self.k_values}))
        nus = tuple(sorted({int(nu) for nu in self.nu_values}))
        if not ks or not nus:
            raise ValueError("grid value sets must be nonempty")
        if ks[0] < 2:
            raise ValueError(f"component counts must be >= 2, got {ks[0]}")
        if nus[0] < 1:
            raise ValueError(f"component d.f. must be >= 1, got {nus[0]}")
        if int(self.replicates) < 2:
            raise ValueError(f"replicates must be >= 2, got {self.replicates}")
        object.__setattr__(self, "k_values", ks)
        object.__setattr__(self, "nu_values", nus)
        object.__setattr__(self, "replicates", int(self.replicates))
        object.__setattr__(self, "seed", int(self.seed))

    def cells(self) -> list[tuple[int, int]]:
        """All (K, nu) pairs in row-major order."""
        return [(k, nu) for k in self.k_values for nu in self.nu_values]


@dataclass(frozen=True)
class CellStat:
    """Monte Carlo summary for one (K, nu) cell."""

    mean: float
    std_error: float
    expected: float


@dataclass(frozen=True)
class MeanDfTable:
    """Mean estimated d.f. per grid cell for one estimator variant."""

    grid: SimulationGrid
    method: EstimatorVariant
    cells: dict[tuple[int, int], CellStat] = field(repr=False)


def sample_chi2(df: int, rng: np.random.Generator) -> float:
    """One chi-square(df) draw.

    Consumes the stream as one element of ``sample_chi2_matrix`` does, so a
    loop over this function replays a matrix draw bit for bit.
    """
    if int(df) < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    return float(rng.chisquare(int(df)))


def sample_chi2_matrix(rng: np.random.Generator, n: int, k: int, nu: int) -> np.ndarray:
    """(n, k) matrix of independent chi-square(nu) draws from one stream."""
    return rng.chisquare(nu, (n, k))


def _factor(method: EstimatorVariant, k: int, nu: int) -> float:
    """What turns Satterthwaite's ratio into ``method`` at (K, nu).

    The estimator on K identical components is K times this factor (see the
    module docstring).
    """
    return method.evaluate([VarianceComponent(1.0, 1.0, nu)] * k).value / k


def _row_sums(s: np.ndarray) -> np.ndarray:
    """``s.sum(axis=1)``, bit for bit, without a per-row reduction below 8 columns.

    numpy sums fewer than eight terms left to right, so adding whole columns
    in that order gives the same bits; from eight terms on its pairwise order
    differs and the reduction itself is kept.
    """
    k = s.shape[1]
    if k >= 8:
        return s.sum(axis=1)
    total = s[:, 0].copy()
    for j in range(1, k):
        total += s[:, j]
    return total


def _ratio_stat(k: int, nu: int, replicates: int,
                rng: np.random.Generator) -> tuple[float, float]:
    """Mean and standard error of Satterthwaite's ratio over ``replicates`` draws."""
    ratios = np.empty(replicates)
    chunk = max(1, _CHUNK_SCALARS // k)
    for done in range(0, replicates, chunk):
        s = sample_chi2_matrix(rng, min(chunk, replicates - done), k, nu)
        # The row sums are taken before s is squared in place.
        total = _row_sums(s)
        np.square(total, out=total)
        np.divide(total, _row_sums(np.square(s, out=s)), out=ratios[done:done + len(s)])
    return float(ratios.mean()), float(ratios.std(ddof=1) / math.sqrt(replicates))


def simulate_mean_df(k: int, nu: int, method: EstimatorVariant, replicates: int,
                     rng: np.random.Generator) -> CellStat:
    """Sample mean and standard error of one estimator at a (K, nu) cell.

    Draws K independent chi-square(nu) components per replicate and evaluates
    the estimator on them with unit weights, as in the reference tables.
    """
    k, nu, replicates = int(k), int(nu), int(replicates)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    if replicates < 2:
        raise ValueError(f"replicates must be >= 2, got {replicates}")
    factor = _factor(method, k, nu)
    mean, std_error = _ratio_stat(k, nu, replicates, rng)
    return CellStat(mean * factor, std_error * factor, float(k * nu))


def _ratio_chunks_k2_nu1(replicates: int, rng: np.random.Generator):
    """The clipped two-component single-d.f. ratio, one chunk of draws at a time.

    Every chunk is computed in one reused buffer, which the caller must
    consume before asking for the next chunk.
    """
    buffer = np.empty(min(_RATIO_CHUNK_ROWS, replicates))
    for done in range(0, replicates, _RATIO_CHUNK_ROWS):
        m = min(_RATIO_CHUNK_ROWS, replicates - done)
        s = rng.standard_normal((m, 2))
        np.square(s, out=s)
        ratio = np.add(s[:, 0], s[:, 1], out=buffer[:m])
        np.square(ratio, out=ratio)
        np.square(s, out=s)
        den = np.add(s[:, 0], s[:, 1], out=s[:, 0])
        np.divide(ratio, den, out=ratio)
        yield np.clip(ratio, 1.0, 2.0, out=ratio)


def _ratio_blocks_k2_nu1(replicates: int, rng: np.random.Generator, consume) -> list:
    """``consume(first draw, chunks)`` of each block, in block order; spawns past one block."""
    starts = range(0, replicates, _RATIO_BLOCK)
    rngs = [rng, *rng.spawn(len(starts) - 1)] if len(starts) > 1 else [rng]
    return _map(lambda i: consume(starts[i], _ratio_chunks_k2_nu1(
        min(_RATIO_BLOCK, replicates - starts[i]), rngs[i])), range(len(starts)))


def ratio_samples_k2_nu1(replicates: int, rng: np.random.Generator) -> np.ndarray:
    """Raw draws of the two-component single-d.f. ratio (Z1^2+Z2^2)^2 / (Z1^4+Z2^4).

    The ratio lies in [1, 2] for every pair of reals; the clip only removes
    floating-point excursions at the equal-components boundary. The draws
    are the same for any thread count (see the module docstring).
    """
    replicates = int(replicates)
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    out = np.empty(replicates)

    def fill(start: int, chunks) -> None:
        for part in chunks:
            out[start:start + len(part)] = part
            start += len(part)

    _ratio_blocks_k2_nu1(replicates, rng, fill)
    return out


def ratio_mean_k2_nu1(replicates: int, rng: np.random.Generator) -> float:
    """Monte Carlo mean of the two-component single-d.f. ratio.

    Converges to sqrt(2): in polar coordinates the radius cancels and the
    angular average of the ratio is exactly 2^(1/2). The draws of
    ``ratio_samples_k2_nu1`` are summed chunk by chunk, then block by block in
    block order, so memory does not grow with ``replicates``.
    """
    replicates = int(replicates)
    if replicates < 2:
        raise ValueError(f"replicates must be >= 2, got {replicates}")
    return sum(_ratio_blocks_k2_nu1(replicates, rng, lambda _, chunks: sum(
        float(part.sum()) for part in chunks))) / replicates


def _pool_size(max_workers: int | None, cells: int) -> int:
    """Worker threads for ``cells`` cells: ``min(requested, available CPUs, cells)``.

    ``None`` requests every CPU this process may run on. A thread beyond the
    CPUs or the cells would only wait, so neither bound is ever exceeded.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    requested = cpus if max_workers is None else int(max_workers)
    if requested < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    return min(requested, cpus, cells)


def _map(fn, items, max_workers: int | None = None) -> list:
    """``[fn(item) for item in items]`` on ``_pool_size`` threads, inline for one."""
    workers = _pool_size(max_workers, len(items))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def generate_tables(grid: SimulationGrid, methods,
                    max_workers: int | None = None) -> list[MeanDfTable]:
    """One table per method, all from a single draw pass over ``grid``.

    Every cell is drawn once, from its own substream; each method's cell is
    the same Satterthwaite ratio mean and standard error times that method's
    factor, so the tables are perfectly correlated. This is the one place
    cells are scheduled: on at most ``max_workers`` threads, every available
    CPU by default, and never more threads than CPUs or cells; a pool of one
    runs the cells inline. The result does not depend on scheduling or
    worker count.
    """
    methods, pairs = list(methods), grid.cells()
    # Every factor first: a method that cannot run on the grid fails before any draw.
    factors = [[_factor(method, k, nu) for k, nu in pairs] for method in methods]

    def one_cell(pair: tuple[int, int]) -> tuple[float, float]:
        k, nu = pair
        return _ratio_stat(k, nu, grid.replicates, substream(grid.seed, k, nu, _CRN_TAG))

    stats = _map(one_cell, pairs, max_workers)
    return [MeanDfTable(grid, method, {
        (k, nu): CellStat(mean * f, std_error * f, float(k * nu))
        for (k, nu), (mean, std_error), f in zip(pairs, stats, fs)})
        for method, fs in zip(methods, factors)]


def generate_table(grid: SimulationGrid, method: EstimatorVariant,
                   max_workers: int | None = None) -> MeanDfTable:
    """Mean estimated d.f. per grid cell, bit-reproducible for a fixed seed.

    The one-method case of ``generate_tables``.
    """
    return generate_tables(grid, [method], max_workers)[0]


def pseudo_x2(table: MeanDfTable) -> float:
    """Discrepancy of a table from its reference values.

    Sums ``(mean - K*nu)^2 / (K*nu)`` over every grid cell; zero exactly when
    every cell mean equals its reference value.
    """
    total = 0.0
    for pair in table.grid.cells():
        try:
            cell = table.cells[pair]
        except KeyError:
            raise ValueError(f"table is missing cell {pair}") from None
        total += (cell.mean - cell.expected) ** 2 / cell.expected
    return total
