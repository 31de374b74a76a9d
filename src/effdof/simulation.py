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

Chi-square(1) variates are squared standard normals; chi-square(nu >= 2) ones are twice
numpy's gamma(nu / 2) variates (Marsaglia & Tsang 2000), whose cost does not grow with nu.
The two-component single-d.f. ratio depends only on the polar angle of its
two normals, so it is drawn from one uniform per draw and a cosine built
from IEEE basic operations alone, which gives the same bits whichever SIMD
kernels numpy dispatches. It runs on every CPU in blocks of ``_RATIO_BLOCK``
draws, block 0 from the caller's generator and block i >= 1 from the
(i-1)-th child it spawns, so no thread count changes a draw.

Every table cell draws from its own random substream, derived
deterministically from ``(seed, K, nu)`` and one fixed tag shared by every
estimator variant and by the calibration study. One draw pass therefore
serves the tables of any number of variants, and those tables are perfectly
correlated: they differ cell by cell only by the estimator's factor. Tables
are bit-reproducible for a fixed seed no matter the evaluation order or the
number of worker threads, and streams are never shared across cells.

Draws are made in chunks of bounded size. A generator hands out its variates in
order, so a chunk of m rows followed by one of n rows consumes the stream
exactly as one draw of m + n rows does: the chunk sizes never change a draw.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .estimators import (_DRAWS, DEFAULT_REPLICATES, DEFAULT_SEED, EstimatorVariant,
                         SynthesisError, VarianceComponent, _integer)

__all__ = [
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

_MASK64 = (1 << 64) - 1
# Upper bound on variates per cell chunk, which sizes a cell's draw buffer:
# 2^15 doubles (256 KB), to keep the peak memory per thread small.
_CHUNK_SCALARS = 1 << 15
# Draws per chunk of the two-component single-d.f. ratio: a (2, 2^15) buffer
# of uniforms and results (512 KB).
_RATIO_CHUNK_ROWS = 1 << 15
# Draws per block of that ratio; each block has its own generator.
_RATIO_BLOCK = 1 << 18
# Upper bound on the (K, nu) cells of a grid, as on the constants of a C grid.
_MAX_CELLS = 10**6
# Substream tag of every table and calibration cell, whatever the variant.
_CRN_TAG = "crn"
# Taylor coefficients (-1)^k / (2k)! of cos, k = 10 down to 0, for Horner's rule.
_COS_TAYLOR = tuple((-1) ** k / math.factorial(2 * k) for k in range(10, -1, -1))


def substream(seed: int, k: int, nu: int, tag: str) -> np.random.Generator:
    """Deterministic per-cell generator, independent of evaluation order."""
    if not isinstance(tag, str):
        raise SynthesisError(f"tag must be a str, got {tag!r}")
    try:
        tag_bytes = tag.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        raise SynthesisError(f"tag must be valid Unicode, got {tag!r}") from None
    tag_id = int.from_bytes(hashlib.blake2b(tag_bytes, digest_size=8).digest(), "big")
    entropy = [_integer(seed, "seed", -math.inf) & _MASK64,
               _integer(k, "k", 0), _integer(nu, "nu", 0), tag_id]
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class SimulationGrid:
    """Cross product of component counts and component d.f. for one study; at most 10^6 cells."""

    k_values: tuple[int, ...]
    nu_values: tuple[int, ...]
    replicates: int = DEFAULT_REPLICATES
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        try:  # an iterator becomes a tuple; a range keeps its len and is not walked
            ks, nus = (v if hasattr(v, "__len__") else tuple(v) for v in (self.k_values, self.nu_values))
            cells = len(ks) * len(nus)
        except TypeError:
            raise SynthesisError("grid value sets must be iterables of integers") from None
        except OverflowError:  # a range too long for len()
            raise SynthesisError(f"grid of over {sys.maxsize} cells exceeds {_MAX_CELLS}") from None
        if cells > _MAX_CELLS:
            raise SynthesisError(f"grid of {cells} cells exceeds {_MAX_CELLS}")
        ks = tuple(sorted({_integer(k, "component count", 2) for k in ks}))
        nus = tuple(sorted({_integer(nu, "component d.f.", 1) for nu in nus}))
        if not ks or not nus:
            raise SynthesisError("grid value sets must be nonempty")
        object.__setattr__(self, "k_values", ks)
        object.__setattr__(self, "nu_values", nus)
        object.__setattr__(self, "replicates", _integer(self.replicates, "replicates", 2, _DRAWS))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", -math.inf))

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
    return float(sample_chi2_matrix(rng, 1, 1, _integer(df, "df", 1))[0, 0])


def sample_chi2_matrix(rng: np.random.Generator, n: int, k: int, nu: int,
                       out: np.ndarray | None = None) -> np.ndarray:
    """(n, k) matrix of chi-square(nu) draws, into ``out`` (C-contiguous float64) if given.

    The one chi-square sampler: Z^2 at nu = 1, a third of the cost of numpy's
    shape-1/2 gamma, else twice a gamma(nu / 2) variate, as ``Generator.chisquare``.
    """
    out = np.empty((n, k)) if out is None else out
    if nu == 1:
        return np.square(rng.standard_normal(out=out), out=out)
    return np.multiply(rng.standard_gamma(nu / 2, out=out), 2.0, out=out)


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


def _ratio_stat(k: int, nu: int, replicates: int, rng: np.random.Generator) -> tuple[float, float]:
    """Mean and standard error of Satterthwaite's ratio over ``replicates`` draws."""
    ratios = np.empty(replicates)
    chunk = max(1, _CHUNK_SCALARS // k)
    buffer = np.empty(min(chunk, replicates) * k)
    for done in range(0, replicates, chunk):
        m = min(chunk, replicates - done)
        s = sample_chi2_matrix(rng, m, k, nu, out=buffer[:m * k].reshape(m, k))
        # The row sums are taken before s is squared in place.
        total = _row_sums(s)
        np.square(total, out=total)
        np.divide(total, _row_sums(np.square(s, out=s)), out=ratios[done:done + len(s)])
    return float(ratios.mean()), float(ratios.std(ddof=1) / math.sqrt(replicates))


def simulate_mean_df(k: int, nu: int, method: EstimatorVariant, replicates: int,
                     rng: np.random.Generator) -> CellStat:
    """Sample mean and standard error of one estimator at a (K, nu) cell.

    Draws K independent chi-square(nu) components per replicate, keeps their
    Satterthwaite ratio, and scales the ratio's mean and standard error by the
    estimator's factor at (K, nu) (see the module docstring). Building that
    factor checks nu, as a component d.f.
    """
    k, replicates = _integer(k, "k", 1), _integer(replicates, "replicates", 2, _DRAWS)
    factor = _factor(method, k, nu)
    mean, std_error = _ratio_stat(k, nu, replicates, rng)
    return CellStat(mean * factor, std_error * factor, float(k * nu))


def _cos_taylor(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """cos(x) for x in [0, pi/2], by Horner's rule in x^2; ``x`` is overwritten.

    The degree-20 Taylor polynomial is within 1.9e-17 of cos on that range.
    Only IEEE basic operations are used, each correctly rounded on every
    CPU, so the result does not depend on which SIMD kernels numpy picks.
    The last step adds a non-positive term to 1, so the result is at most 1.
    """
    z = np.square(x, out=x)
    np.multiply(z, _COS_TAYLOR[0], out=out)
    for coefficient in _COS_TAYLOR[1:-1]:
        out += coefficient
        out *= z
    out += 1.0
    return out


def _ratio_sums_k2_nu1(replicates: int, rng: np.random.Generator,
                       out: np.ndarray | None = None) -> list[float]:
    """Sum of each block's draws of the two-component single-d.f. ratio, in block order.

    Each draw is 2 / (1 + cos^2(pi U / 2)) for one uniform U (see
    ``ratio_samples_k2_nu1``). A block draws chunk by chunk, into ``out`` if
    given and else into one bounded buffer, and adds the chunk sums left to right.
    """
    starts = range(0, replicates, _RATIO_BLOCK)
    rngs = [rng, *rng.spawn(len(starts) - 1)] if len(starts) > 1 else [rng]

    def block(i: int) -> float:
        stop, total = min(starts[i] + _RATIO_BLOCK, replicates), 0.0
        buffer = np.empty((2, min(_RATIO_CHUNK_ROWS, stop - starts[i])))
        for done in range(starts[i], stop, _RATIO_CHUNK_ROWS):
            m = min(_RATIO_CHUNK_ROWS, stop - done)
            angle = rngs[i].random(out=buffer[0, :m])
            ratio = buffer[1, :m] if out is None else out[done:done + m]
            angle *= math.pi / 2
            np.square(_cos_taylor(angle, out=ratio), out=ratio)
            ratio += 1.0
            total += float(np.divide(2.0, ratio, out=ratio).sum())
        return total

    return _map(block, range(len(starts)))


def ratio_samples_k2_nu1(replicates: int, rng: np.random.Generator) -> np.ndarray:
    """Raw draws of the two-component single-d.f. ratio (Z1^2+Z2^2)^2 / (Z1^4+Z2^4).

    With (Z1, Z2) at polar angle a the ratio is 1 / (cos^4 a + sin^4 a)
    = 2 / (1 + cos^2 2a), and 2a folded onto [0, pi/2) is uniform, so each
    draw is 2 / (1 + c^2) with c = cos(pi U / 2) for one uniform U. The
    cosine never exceeds 1, so every draw lies in [1, 2]: U = 0 gives 1
    exactly and U near 1 gives 2. The draws are the same for any thread
    count and any CPU (see the module docstring).
    """
    replicates = _integer(replicates, "replicates", 1, _DRAWS)
    out = np.empty(replicates)
    _ratio_sums_k2_nu1(replicates, rng, out)
    return out


def ratio_mean_k2_nu1(replicates: int, rng: np.random.Generator) -> float:
    """Monte Carlo mean of the two-component single-d.f. ratio.

    Converges to sqrt(2), the average of 2 / (1 + cos^2 t) over t uniform on
    [0, pi/2). The draws of ``ratio_samples_k2_nu1`` are summed chunk by
    chunk, then block by block in block order, so memory does not grow with
    ``replicates``.
    """
    replicates = _integer(replicates, "replicates", 2, _DRAWS)
    return sum(_ratio_sums_k2_nu1(replicates, rng)) / replicates


def _pool_size(max_workers: int | None, cells: int) -> int:
    """Threads that draw ``cells`` cells, the caller included: ``min(requested, CPUs, cells)``.

    ``None`` requests every CPU this process may run on; a thread beyond either bound would wait.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    requested = cpus if max_workers is None else _integer(max_workers, "max_workers", 1)
    return min(requested, cpus, cells)


def _map(fn, items, max_workers: int | None = None) -> list:
    """``[fn(item) for item in items]`` by the caller and ``_pool_size - 1`` helper threads.

    All take indices in order from one counter; a failure, or the caller leaving, stops it.
    """
    results, failures, cursor, lock = [None] * len(items), {}, [0], threading.Lock()

    def run() -> None:
        while True:
            with lock:
                i, cursor[0] = cursor[0], cursor[0] + 1
            if i >= len(items):
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised in the caller once every helper ends
                with lock:
                    failures[i], cursor[0] = exc, len(items)

    helpers = [threading.Thread(target=run) for _ in range(_pool_size(max_workers, len(items)) - 1)]
    try:
        for helper in helpers:
            helper.start()
        run()
        for helper in helpers:
            helper.join()
    finally:
        with lock:
            cursor[0] = len(items)
    if failures:
        raise failures[min(failures)]
    return results


def generate_tables(grid: SimulationGrid, methods,
                    max_workers: int | None = None) -> list[MeanDfTable]:
    """One table per method, all from a single draw pass over ``grid``.

    Every cell is drawn once, from its own substream; each method's cell is
    the same Satterthwaite ratio mean and standard error times that method's
    factor, so the tables are perfectly correlated. This is the one place
    cells are scheduled: the caller draws them beside helper threads, on at
    most ``max_workers`` threads in all (every CPU by default, never more than
    CPUs or cells). The result does not depend on scheduling or thread count.
    """
    methods, pairs = list(methods), grid.cells()
    # Every factor first: a method that cannot run on the grid fails before any draw.
    factors = [[_factor(method, k, nu) for k, nu in pairs] for method in methods]

    def one_cell(pair: tuple[int, int]) -> tuple[float, float]:
        k, nu = pair
        return _ratio_stat(k, nu, grid.replicates, substream(grid.seed, k, nu, _CRN_TAG))

    stats = _map(one_cell, pairs, max_workers) if methods else []  # no method, no draw
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


def _x2(pairs):
    """Sum of ``(mean - expected)^2 / expected`` over (mean, expected) pairs, in order.

    A mean may be an array, giving one sum per entry. float_power is the C
    library's pow, as Python's ``** 2`` is; a product rounds differently.
    """
    total = 0.0
    for mean, expected in pairs:
        total = total + np.float_power(mean - expected, 2) / expected
    return total


def pseudo_x2(table: MeanDfTable) -> float:
    """Discrepancy of a table from its reference values.

    Sums ``(mean - K*nu)^2 / (K*nu)`` over every grid cell; zero exactly when
    every cell mean equals its reference value.
    """
    cells = [table.cells.get(pair) for pair in table.grid.cells()]
    if None in cells:
        raise SynthesisError(f"table is missing cell {table.grid.cells()[cells.index(None)]}")
    return float(_x2((cell.mean, cell.expected) for cell in cells))
