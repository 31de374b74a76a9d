"""Tests for the chi-square Monte Carlo machinery."""

import math
import os
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest

from effdof import (
    EstimatorVariant,
    SimulationGrid,
    SynthesisError,
    VarianceComponent,
    generate_table,
    generate_tables,
    pseudo_x2,
    ratio_mean_k2_nu1,
    ratio_samples_k2_nu1,
    sample_chi2,
    satterthwaite_df,
    simulate_mean_df,
    substream,
)
from effdof import simulation
from effdof.simulation import (
    CellStat,
    MeanDfTable,
    _cos_taylor,
    _ratio_stat,
    _row_sums,
    sample_chi2_matrix,
)


class _ZeroRng:
    """Stand-in generator whose normal, gamma and uniform variates are all zero."""

    def standard_normal(self, out):
        out.fill(0.0)
        return out

    def standard_gamma(self, shape, out):
        out.fill(0.0)
        return out

    def random(self, out):
        out.fill(0.0)
        return out


class _OnesRng:
    """Stand-in generator whose uniform deviates are all one."""

    def random(self, out):
        out.fill(1.0)
        return out


def angular_ratio_mean_oracle() -> float:
    """Quadrature oracle for the K=2, nu=1 ratio mean.

    In polar coordinates the radius cancels, leaving the angular average of
    1 + sin(phi)^2 / (2 - sin(phi)^2); the trapezoid rule on a periodic
    integrand converges spectrally.
    """
    phi = np.linspace(0.0, 2.0 * np.pi, 20001)
    s2 = np.sin(phi) ** 2
    values = 1.0 + s2 / (2.0 - s2)
    return float(np.trapezoid(values, phi) / (2.0 * np.pi))


class TestSampleChi2:
    def test_zero_normals_hit_support_boundary(self):
        """A generator that returns zero variates gives the support boundary 0."""
        assert sample_chi2(1, _ZeroRng()) == 0.0
        matrix = sample_chi2_matrix(_ZeroRng(), 3, 2, 4)
        assert matrix.shape == (3, 2)
        assert not matrix.any()

    def test_rejects_nonpositive_df(self):
        with pytest.raises(ValueError):
            sample_chi2(0, np.random.default_rng(0))

    @pytest.mark.parametrize("df", [0, 1.5, 2.0, True])
    def test_df_must_be_a_positive_integer(self, df):
        with pytest.raises(SynthesisError, match="df"):
            sample_chi2(df, np.random.default_rng(0))

    @pytest.mark.parametrize("nu", [1, 3, 9])
    def test_moments(self, nu):
        """Mean nu and variance 2*nu, within 5 standard errors at 10^5 draws."""
        n = 100_000
        draws = sample_chi2_matrix(substream(7, 1, nu, "moments"), n, 1, nu)[:, 0]
        se_mean = math.sqrt(2.0 * nu / n)
        # Var of the sample variance of chi-square: (mu4 - sigma^4)/n with
        # mu4 = 12*nu*(nu+4), sigma^2 = 2*nu.
        se_var = math.sqrt((12.0 * nu * (nu + 4.0) - 4.0 * nu * nu) / n)
        assert abs(float(draws.mean()) - nu) <= 5.0 * se_mean
        assert abs(float(draws.var(ddof=1)) - 2.0 * nu) <= 5.0 * se_var

    def test_scalar_and_matrix_consume_one_stream(self):
        r1 = substream(3, 1, 5, "equiv")
        r2 = substream(3, 1, 5, "equiv")
        scalar = np.array([sample_chi2(5, r1) for _ in range(500)])
        matrix = sample_chi2_matrix(r2, 500, 1, 5)[:, 0]
        assert np.array_equal(scalar, matrix)

    def test_scalar_loop_replays_squared_normals(self):
        r1, r2 = substream(3, 1, 1, "equiv"), substream(3, 1, 1, "equiv")
        scalar = np.array([sample_chi2(1, r1) for _ in range(500)])
        assert scalar.tobytes() == sample_chi2_matrix(r2, 500, 1, 1)[:, 0].tobytes()
        assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize("nu", [1, 2, 3, 80])
    @pytest.mark.parametrize("n, k", [(1, 1), (999, 7), (819, 160)])
    def test_drawing_into_out_replays_chisquare(self, nu, n, k):
        # nu = 1 draws squared normals; numpy's chi-square is twice its standard
        # gamma. Both the bits and the generator state afterwards must match.
        reference, rng = np.random.default_rng(nu * k), np.random.default_rng(nu * k)
        if nu == 1:
            expected = np.square(reference.standard_normal((n, k)))
        else:
            expected = reference.chisquare(nu, (n, k))
        out = np.empty((n, k))
        assert sample_chi2_matrix(rng, n, k, nu, out=out) is out
        assert out.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state


class TestRatioSampling:
    def test_pathwise_bounds(self):
        samples = ratio_samples_k2_nu1(200_000, substream(11, 2, 1, "bounds"))
        assert samples.min() >= 1.0
        assert samples.max() <= 2.0

    def test_equal_draws_give_two_exactly(self):
        assert ratio_samples_k2_nu1(8, _OnesRng()).tolist() == [2.0] * 8

    def test_one_component_draws_give_one_exactly(self):
        """U = 0 is the angle at which one component carries the whole synthesis."""
        assert ratio_samples_k2_nu1(8, _ZeroRng()).tolist() == [1.0] * 8

    def test_largest_uniform_gives_two_exactly(self):
        class LargestUniformRng:
            def random(self, out):
                out.fill(1.0 - 2.0 ** -53)  # the largest value Generator.random returns
                return out

        assert ratio_samples_k2_nu1(8, LargestUniformRng()).tolist() == [2.0] * 8

    def test_distribution_within_dkw_bound(self):
        """The empirical CDF of 10^6 draws against F(r) = (2/pi) arccos(sqrt(2/r - 1)).

        By the Dvoretzky-Kiefer-Wolfowitz inequality (Massart's constant) the
        sup distance exceeds sqrt(log(2/alpha) / (2n)) with probability at most
        alpha = 1e-6.
        """
        n = 1_000_000
        draws = np.sort(ratio_samples_k2_nu1(n, substream(19, 2, 1, "dkw")))
        cdf = (2.0 / np.pi) * np.arccos(np.sqrt(2.0 / draws - 1.0))
        steps = np.arange(n + 1) / n
        distance = max(float(np.max(steps[1:] - cdf)), float(np.max(cdf - steps[:-1])))
        assert distance <= math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))

    def test_mean_matches_angular_oracle(self):
        oracle = angular_ratio_mean_oracle()
        assert oracle == pytest.approx(math.sqrt(2.0), abs=1e-10)
        n = 1_000_000
        mean = ratio_mean_k2_nu1(n, substream(13, 2, 1, "mean"))
        # Per-draw standard deviation is about 0.35.
        assert abs(mean - oracle) <= 5.0 * 0.35 / math.sqrt(n)

    def test_replicate_validation(self):
        with pytest.raises(ValueError):
            ratio_samples_k2_nu1(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ratio_mean_k2_nu1(1, np.random.default_rng(0))

    @pytest.mark.parametrize("function, replicates", [
        (ratio_samples_k2_nu1, 0), (ratio_samples_k2_nu1, 3.9), (ratio_samples_k2_nu1, True),
        (ratio_mean_k2_nu1, 1), (ratio_mean_k2_nu1, 3.9),
    ], ids=["samples-0", "samples-float", "samples-bool", "mean-1", "mean-float"])
    def test_replicates_must_be_an_integer(self, function, replicates):
        with pytest.raises(SynthesisError, match="replicates"):
            function(replicates, np.random.default_rng(0))


class TestCosTaylor:
    """The exact-operation cosine behind the ratio's draws."""

    def test_matches_math_cos(self):
        x = np.linspace(0.0, math.pi / 2, 10_000)
        c = _cos_taylor(x.copy(), np.empty_like(x))
        assert max(abs(ci - math.cos(xi)) for xi, ci in zip(x.tolist(), c.tolist())) <= 4e-16
        assert c.max() <= 1.0


class TestChunkedKernels:
    """Chunk sizes and reduction kernels change no bit of any result."""

    @pytest.mark.parametrize("k", [*range(1, 13), 20, 160])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_row_sums_equal_numpy_sum(self, k, weighted):
        rng = np.random.default_rng(k)
        s = sample_chi2_matrix(rng, 999, k, 3)
        if weighted:
            s *= 10.0 ** rng.uniform(-3.0, 3.0, k)
        for m in (s, np.square(s)):
            assert _row_sums(m).tobytes() == m.sum(axis=1).tobytes()

    @pytest.mark.parametrize("k, nu", [(2, 1), (5, 3), (9, 2), (40, 7), (160, 3), (10, 80)],
                             ids=["unit-2-1", "unit-5-3", "unit-9-2", "unit-40-7",
                                  "unit-160-3", "unit-10-80"])
    def test_cell_stat_does_not_depend_on_chunk_size(self, k, nu, monkeypatch):
        whole = _ratio_stat(k, nu, 500, substream(4, k, nu, "chunks"))
        monkeypatch.setattr(simulation, "_CHUNK_SCALARS", 37)
        assert _ratio_stat(k, nu, 500, substream(4, k, nu, "chunks")) == whole

    def test_every_chunk_of_a_cell_fills_one_buffer(self, monkeypatch):
        # 2000 replicates of K=160 make 3 chunks of at most 819 rows per cell;
        # one thread draws the two cells in order, each into its own buffer.
        monkeypatch.setattr(simulation, "_CHUNK_SCALARS", 819 * 160)
        outs = []

        def recording(rng, n, k, nu, out=None):
            outs.append(out)
            return sample_chi2_matrix(rng, n, k, nu, out)

        monkeypatch.setattr(simulation, "sample_chi2_matrix", recording)
        generate_table(SimulationGrid((160,), (1, 3), replicates=2000),
                       EstimatorVariant.satterthwaite(), max_workers=1)
        assert len(outs) == 6
        assert all(out is not None for out in outs)
        for cell in (outs[:3], outs[3:]):
            assert len({out.__array_interface__["data"][0] for out in cell}) == 1

    def test_cell_peak_memory_is_bounded(self):
        """A K=160 cell at 2000 replicates peaks under 384 KiB of traced memory.

        Its 16 KB ratio vector, its draw buffer and the per-chunk row
        sums; a 1 MB buffer would exceed it.
        """
        grid = SimulationGrid((160,), (3,), replicates=2000)
        method = EstimatorVariant.satterthwaite()
        generate_table(grid, method, max_workers=1)  # warm-up: first-call imports and caches
        tracemalloc.start()
        try:
            generate_table(grid, method, max_workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 384 * 1024

    def test_ratio_samples_do_not_depend_on_chunk_size(self, monkeypatch):
        whole = ratio_samples_k2_nu1(1000, substream(4, 2, 1, "chunks"))
        monkeypatch.setattr(simulation, "_RATIO_CHUNK_ROWS", 7)
        chunked = ratio_samples_k2_nu1(1000, substream(4, 2, 1, "chunks"))
        assert chunked.tobytes() == whole.tobytes()

    def test_ratio_mean_is_the_mean_of_the_samples(self):
        # Only the summation order differs: the sum runs chunk by chunk.
        n = 100_003
        mean = ratio_mean_k2_nu1(n, substream(4, 2, 1, "mean"))
        samples = ratio_samples_k2_nu1(n, substream(4, 2, 1, "mean"))
        assert mean == pytest.approx(float(samples.mean()), rel=1e-15, abs=0.0)


class TestRatioBlocks:
    """The ratio's fixed blocks: one generator each, the same draws for any pool."""

    SIZE = 3_500  # three full blocks of 1000 draws and a partial fourth

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(simulation, "_RATIO_BLOCK", 1000)

    @staticmethod
    def rng():
        return substream(5, 2, 1, "blocks")

    def draws(self, monkeypatch, workers):
        """Samples and mean on a real pool of ``workers`` threads."""
        used = []

        def pool_size(max_workers, cells):
            used.append(min(workers, cells))
            return used[-1]

        monkeypatch.setattr(simulation, "_pool_size", pool_size)
        samples = ratio_samples_k2_nu1(self.SIZE, self.rng())
        mean = ratio_mean_k2_nu1(self.SIZE, self.rng())
        assert used == [workers, workers]
        return samples.tobytes(), mean

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_size_does_not_change_draws(self, monkeypatch, workers):
        assert self.draws(monkeypatch, workers) == self.draws(monkeypatch, 1)

    def test_block_layout(self):
        """Block 0 draws from the caller's generator, block i from its (i-1)-th child."""
        samples = ratio_samples_k2_nu1(self.SIZE, self.rng())
        first = ratio_samples_k2_nu1(1000, self.rng())
        rest = [ratio_samples_k2_nu1(n, child)
                for n, child in zip((1000, 1000, 500), self.rng().spawn(3))]
        assert samples.tobytes() == np.concatenate([first, *rest]).tobytes()

    def test_repeated_calls_draw_new_blocks(self):
        rng = self.rng()
        first = ratio_samples_k2_nu1(self.SIZE, rng).reshape(-1, 500)
        second = ratio_samples_k2_nu1(self.SIZE, rng).reshape(-1, 500)
        assert not any(np.array_equal(a, b) for a in first for b in second)

    def test_mean_is_the_mean_of_the_samples(self):
        mean = ratio_mean_k2_nu1(self.SIZE, self.rng())
        samples = ratio_samples_k2_nu1(self.SIZE, self.rng())
        assert mean == pytest.approx(float(samples.mean()), rel=1e-15, abs=0.0)

    def test_chunk_size_does_not_change_draws(self, monkeypatch):
        whole = ratio_samples_k2_nu1(self.SIZE, self.rng())
        mean = ratio_mean_k2_nu1(self.SIZE, self.rng())
        monkeypatch.setattr(simulation, "_RATIO_CHUNK_ROWS", 7)
        assert ratio_samples_k2_nu1(self.SIZE, self.rng()).tobytes() == whole.tobytes()
        assert ratio_mean_k2_nu1(self.SIZE, self.rng()) == pytest.approx(mean, rel=1e-15, abs=0.0)


class TestSimulateMeanDf:
    def test_matches_scalar_estimators_on_same_draws(self):
        """The vectorized cell evaluation is the scalar estimator per row."""
        k, nu, reps = 3, 2, 400
        for variant in (EstimatorVariant.satterthwaite(),
                        EstimatorVariant.recommended(),
                        EstimatorVariant.von_davier_2025(),
                        EstimatorVariant.adjusted(0.0, 0),
                        EstimatorVariant.adjusted(2.69, 0)):
            cell = simulate_mean_df(k, nu, variant, reps, substream(5, k, nu, variant.tag))
            draws = sample_chi2_matrix(substream(5, k, nu, variant.tag), reps, k, nu)
            values = [variant.evaluate([VarianceComponent(1.0, float(s2), nu)
                                        for s2 in row]).value for row in draws]
            assert cell.mean == pytest.approx(float(np.mean(values)), rel=1e-12)
            assert cell.std_error == pytest.approx(
                float(np.std(values, ddof=1)) / math.sqrt(reps), rel=1e-10)

    def test_factor_identity_holds_for_any_weights(self):
        """Every variant is Satterthwaite's ratio times the cell factor, whatever the weights.

        ``_factor`` scales the bare ratio (sum s)^2 / sum s^2, which is
        Satterthwaite's d.f. divided by nu.
        """
        k, nu = 3, 2
        weights = (0.5, 1.0, 2.5)
        for row in sample_chi2_matrix(substream(5, k, nu, "weights"), 50, k, nu):
            components = [VarianceComponent(w, float(s2), nu) for w, s2 in zip(weights, row)]
            ratio = satterthwaite_df(components).value / nu
            for variant in (EstimatorVariant.recommended(),
                            EstimatorVariant.von_davier_2025(),
                            EstimatorVariant.adjusted(0.0, 0),
                            EstimatorVariant.adjusted(2.69, 0)):
                assert variant.evaluate(components).value == pytest.approx(
                    ratio * simulation._factor(variant, k, nu), rel=1e-12)

    def test_expected_value_field(self):
        cell = simulate_mean_df(4, 3, EstimatorVariant.satterthwaite(), 10,
                                np.random.default_rng(0))
        assert cell.expected == 12.0

    def test_small_cell_means(self):
        cell = simulate_mean_df(2, 1, EstimatorVariant.satterthwaite(), 20_000,
                                substream(17, 2, 1, "satterthwaite"))
        assert abs(cell.mean - math.sqrt(2.0)) <= 5.0 * cell.std_error
        cell = simulate_mean_df(2, 1, EstimatorVariant.recommended(), 20_000,
                                substream(17, 2, 1, "recommended"))
        assert abs(cell.mean - 2.0) <= 0.02

    def test_offset_variant_needs_two_components(self):
        with pytest.raises(SynthesisError):
            simulate_mean_df(1, 1, EstimatorVariant.von_davier_2025(), 10,
                             np.random.default_rng(0))

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_mean_df(2, 1, EstimatorVariant.satterthwaite(), 1,
                             np.random.default_rng(0))

    @pytest.mark.parametrize("k, nu, replicates", [(0, 1, 10), (2.0, 1, 10), (2, 0, 10),
                                                   (2, 1.5, 10), (2, 1, 10.9)])
    def test_counts_rejected_with_synthesis_error(self, k, nu, replicates):
        with pytest.raises(SynthesisError):
            simulate_mean_df(k, nu, EstimatorVariant.satterthwaite(), replicates,
                             np.random.default_rng(0))


class TestSimulationGrid:
    def test_normalizes_to_sorted_unique(self):
        grid = SimulationGrid((8, 2, 2, 4), (3, 1, 3))
        assert grid.k_values == (2, 4, 8)
        assert grid.nu_values == (1, 3)
        assert grid.cells() == [(2, 1), (2, 3), (4, 1), (4, 3), (8, 1), (8, 3)]

    def test_more_than_a_million_cells_refused(self):
        with pytest.raises(SynthesisError, match="grid of 2000000 cells exceeds 1000000"):
            SimulationGrid(range(2, 2002), range(1, 1001))

    def test_range_too_long_for_len_refused(self):
        # len(range(2, 10**20)) raises OverflowError; the grid names its own limit instead.
        with pytest.raises(SynthesisError, match="cells exceeds 1000000"):
            SimulationGrid(range(2, 10 ** 20), (1,))

    @pytest.mark.parametrize("draw", [
        lambda n: SimulationGrid((2,), (1,), replicates=n),
        lambda n: simulate_mean_df(2, 1, EstimatorVariant.satterthwaite(), n,
                                   substream(1, 2, 1, "t")),
        lambda n: ratio_samples_k2_nu1(n, substream(1, 2, 1, "t")),
        lambda n: ratio_mean_k2_nu1(n, substream(1, 2, 1, "t")),
    ], ids=["grid", "simulate_mean_df", "ratio_samples", "ratio_mean"])
    def test_replicates_beyond_2_to_the_53_refused_before_drawing(self, draw):
        with pytest.raises(SynthesisError, match="replicates must be <= 9007199254740992"):
            draw(2 ** 53 + 1)

    def test_iterators_are_read_once(self):
        grid = SimulationGrid(iter([3, 2]), (k for k in (1, 2)))
        assert (grid.k_values, grid.nu_values) == ((2, 3), (1, 2))

    @pytest.mark.parametrize("k_values, nu_values", [(5, (1,)), ((2,), 5), (None, (1,)),
                                                     (np.array(5), (1,))],
                             ids=["k-int", "nu-int", "k-none", "k-0d-array"])
    def test_non_iterable_value_set_refused(self, k_values, nu_values):
        with pytest.raises(SynthesisError, match="iterables"):
            SimulationGrid(k_values, nu_values)

    def test_calibrate_1000_by_1000_admitted(self):
        grid = SimulationGrid(range(2, 1001), range(1, 1001))
        assert len(grid.k_values) * len(grid.nu_values) == 999_000

    @pytest.mark.parametrize("kwargs", [
        {"k_values": (), "nu_values": (1,)},
        {"k_values": (1, 2), "nu_values": (1,)},
        {"k_values": (2,), "nu_values": (0,)},
        {"k_values": (2,), "nu_values": (1,), "replicates": 0},
        {"k_values": (2,), "nu_values": (1,), "replicates": 1},
        {"k_values": (2.7,), "nu_values": (1,)},
        {"k_values": (2,), "nu_values": (1.5,)},
        {"k_values": (2,), "nu_values": (1,), "replicates": 10.9},
        {"k_values": (2,), "nu_values": (True,)},
        {"k_values": (2,), "nu_values": (1,), "seed": 1.9},
        {"k_values": (2,), "nu_values": (1,), "seed": True},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimulationGrid(**kwargs)


class TestGenerateTable:
    def test_same_seed_reproduces_bitwise(self):
        grid = SimulationGrid((2, 3, 5), (1, 4), replicates=2000, seed=9)
        method = EstimatorVariant.recommended()
        first = generate_table(grid, method)
        second = generate_table(grid, method)
        assert first.cells == second.cells

    def test_thread_count_does_not_change_results(self):
        grid = SimulationGrid((2, 3, 5, 8), (1, 4, 9), replicates=2000, seed=9)
        method = EstimatorVariant.satterthwaite()
        serial = generate_table(grid, method, max_workers=1)
        threaded = generate_table(grid, method, max_workers=4)
        assert serial.cells == threaded.cells

    def test_variants_share_one_draw_pass(self):
        """Each variant's cell is the Satterthwaite cell times its K-identical factor."""
        grid = SimulationGrid((2, 4, 9), (1, 3, 7), replicates=1500, seed=21)
        classic, adjusted = EstimatorVariant.satterthwaite(), EstimatorVariant.adjusted(2.69, 0)
        base = generate_table(grid, classic)
        table = generate_table(grid, adjusted)
        for (k, nu), cell in table.cells.items():
            identical = [VarianceComponent(1.0, 1.0, nu)] * k
            factor = adjusted.evaluate(identical).value / classic.evaluate(identical).value
            assert cell.mean == pytest.approx(base.cells[(k, nu)].mean * factor, rel=1e-15)
            assert cell.std_error == pytest.approx(
                base.cells[(k, nu)].std_error * factor, rel=1e-15)
        together = generate_tables(grid, [classic, adjusted], max_workers=2)
        assert [t.cells for t in together] == [base.cells, table.cells]

    def test_no_methods_draws_nothing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("generate_tables drew components for no method")

        monkeypatch.setattr(simulation, "sample_chi2_matrix", no_draw)
        assert generate_tables(SimulationGrid((2, 4, 9), (1, 3), replicates=200), []) == []

    def test_parameter_identical_variants_share_streams(self):
        grid = SimulationGrid((2, 4), (1, 3), replicates=1500, seed=21)
        by_name = generate_table(grid, EstimatorVariant.von_davier_2025())
        by_params = generate_table(grid, EstimatorVariant.adjusted(2.0, 1))
        assert by_name.cells == by_params.cells

    def test_satterthwaite_bias_pattern(self):
        """Cell means sit below K*nu and the relative deficit grows as nu shrinks."""
        grid = SimulationGrid((4,), (1, 3, 9), replicates=8000, seed=33)
        table = generate_table(grid, EstimatorVariant.satterthwaite())
        deficits = []
        for nu in (1, 3, 9):
            cell = table.cells[(4, nu)]
            assert cell.mean <= cell.expected + 3.0 * cell.std_error
            deficits.append((cell.expected - cell.mean) / cell.expected)
        assert deficits[0] > deficits[1] > deficits[2]


@pytest.fixture
def pool_sizes(monkeypatch):
    """Drawing threads (helpers plus the caller) of each ``_map`` call that starts helpers.

    Each helper runs its loop inline when started, so the caller finds no item left.
    """
    sizes, loops = [], []

    class InlineThread:
        def __init__(self, target):
            if loops[-1:] != [target]:  # the first helper of a new call
                loops.append(target)
                sizes.append(1)
            sizes[-1] += 1
            self.start = target

        def join(self):
            pass

    monkeypatch.setattr(simulation, "threading", types.SimpleNamespace(
        Thread=InlineThread, Lock=threading.Lock, local=threading.local))
    return sizes


class TestPoolSize:
    GRID = SimulationGrid((2, 3, 4), (1, 2, 3), replicates=2, seed=3)

    @pytest.mark.parametrize("cpus, expected", [(64, 9), (3, 3)])
    def test_pool_no_larger_than_cells_or_cpus(self, monkeypatch, pool_sizes, cpus, expected):
        serial = generate_table(self.GRID, EstimatorVariant.satterthwaite(), max_workers=1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        table = generate_table(self.GRID, EstimatorVariant.satterthwaite(), max_workers=10**6)
        assert pool_sizes == [expected]
        assert table.cells == serial.cells

    @pytest.mark.parametrize("workers", [None, 10**6], ids=["default", "million"])
    def test_pool_within_real_cpus(self, pool_sizes, workers):
        generate_table(self.GRID, EstimatorVariant.satterthwaite(), max_workers=workers)
        assert len(pool_sizes) <= 1
        assert all(1 < size <= min(9, os.cpu_count() or 1) for size in pool_sizes)

    def test_unknown_cpu_count_runs_serially(self, monkeypatch, pool_sizes):
        serial = generate_table(self.GRID, EstimatorVariant.satterthwaite(), max_workers=1)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simulation._pool_size(None, 9) == 1
        table = generate_table(self.GRID, EstimatorVariant.satterthwaite())
        assert pool_sizes == []
        assert table.cells == serial.cells

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_rejected(self, pool_sizes, workers):
        with pytest.raises(ValueError, match="max_workers"):
            generate_tables(self.GRID, [EstimatorVariant.satterthwaite()], max_workers=workers)
        assert pool_sizes == []

    @pytest.mark.parametrize("workers", [0, 1.7, 2.0, True])
    def test_worker_count_must_be_a_positive_integer(self, pool_sizes, workers):
        with pytest.raises(SynthesisError, match="max_workers"):
            generate_tables(self.GRID, [EstimatorVariant.satterthwaite()], max_workers=workers)
        assert pool_sizes == []


class TestMap:
    """``_map`` runs every item once, in item order, and stops at its first failure."""

    @pytest.fixture(autouse=True)
    def eight_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_every_item_runs_once_in_item_order(self, workers):
        ran = []

        def square(i):
            ran.append(i)
            return i * i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a lost update to the counter shows
        try:
            assert simulation._map(square, range(200), workers) == [i * i for i in range(200)]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == list(range(200))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_first_failure_stops_the_hand_out(self, workers):
        started = []

        def fn(i):
            started.append(i)
            if i > 3:  # slower than the hand-out's stop
                time.sleep(0.05)
            if i in (3, 7):
                raise ValueError(i)
            return i

        with pytest.raises(ValueError) as info:
            simulation._map(fn, range(100), workers)
        assert info.value.args == (3,)
        assert max(started) <= 3 + workers

    @pytest.mark.parametrize("workers", [2, 4])
    def test_lowest_index_failure_is_raised(self, workers):
        def fn(i):
            if i == 3:
                time.sleep(0.05)  # item 7 fails first
            if i in (3, 7):
                raise ValueError(i)
            return i

        with pytest.raises(ValueError) as info:
            simulation._map(fn, range(100), workers)
        assert info.value.args == (3,)

    def test_no_thread_outlives_a_call(self):
        before = set(threading.enumerate())

        def fail_at_five(i):
            if i == 5:
                raise ValueError(i)
            return i

        assert simulation._map(abs, range(50), 4) == list(range(50))
        assert set(threading.enumerate()) == before
        with pytest.raises(ValueError):
            simulation._map(fail_at_five, range(50), 4)
        assert set(threading.enumerate()) == before


class TestPseudoX2:
    def test_exact_table_scores_zero(self):
        grid = SimulationGrid((2, 4), (1, 5), replicates=10, seed=0)
        cells = {pair: CellStat(float(pair[0] * pair[1]), 0.01, float(pair[0] * pair[1]))
                 for pair in grid.cells()}
        table = MeanDfTable(grid, EstimatorVariant.satterthwaite(), cells)
        assert pseudo_x2(table) == 0.0

    def test_hand_computed_deviation(self):
        grid = SimulationGrid((2,), (1,), replicates=10, seed=0)
        table = MeanDfTable(grid, EstimatorVariant.satterthwaite(),
                            {(2, 1): CellStat(1.5, 0.01, 2.0)})
        assert pseudo_x2(table) == pytest.approx(0.5 ** 2 / 2.0, rel=1e-15)

    def test_missing_cell_detected(self):
        grid = SimulationGrid((2, 4), (1,), replicates=10, seed=0)
        table = MeanDfTable(grid, EstimatorVariant.satterthwaite(),
                            {(2, 1): CellStat(2.0, 0.01, 2.0)})
        with pytest.raises(ValueError, match="missing cell"):
            pseudo_x2(table)

    def test_missing_cell_is_a_synthesis_error(self):
        grid = SimulationGrid((2,), (1, 3), replicates=10, seed=0)
        table = MeanDfTable(grid, EstimatorVariant.satterthwaite(),
                            {(2, 3): CellStat(6.0, 0.01, 6.0)})
        with pytest.raises(SynthesisError, match=r"missing cell \(2, 1\)"):
            pseudo_x2(table)


class TestSubstream:
    def test_distinct_cells_get_distinct_streams(self):
        a = substream(1, 2, 1, "satterthwaite").standard_normal(4)
        b = substream(1, 2, 2, "satterthwaite").standard_normal(4)
        c = substream(1, 2, 1, "other-tag").standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_seed_accepted(self):
        draws = substream(-17, 2, 1, "x").standard_normal(3)
        assert np.all(np.isfinite(draws))
        assert SimulationGrid((2,), (1,), seed=-17).seed == -17

    @pytest.mark.parametrize("seed, same", [(-1, 2**64 - 1), (2**64, 0)])
    def test_seed_is_reduced_modulo_2_64(self, seed, same):
        assert np.array_equal(substream(seed, 3, 2, "x").standard_normal(4),
                              substream(same, 3, 2, "x").standard_normal(4))

    @pytest.mark.parametrize("seed", [1.9, 1.0, True, "1"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(SynthesisError, match="seed"):
            substream(seed, 2, 1, "x")

    @pytest.mark.parametrize("k, nu", [(2.7, 1.5), (2.0, 1), (2, 1.0), (True, 1), (-1, 1)])
    def test_cell_must_be_non_negative_integers(self, k, nu):
        # 2.7 and 1.5 were once truncated to the stream of (2, 1).
        with pytest.raises(SynthesisError, match="k|nu"):
            substream(1, k, nu, "x")

    @pytest.mark.parametrize("tag", [5, b"x", None])
    def test_tag_must_be_a_str(self, tag):
        with pytest.raises(SynthesisError, match="tag"):
            substream(1, 2, 1, tag)

    @pytest.mark.parametrize("tag", ["\ud800", "x\udfff"])
    def test_tag_must_be_valid_unicode(self, tag):
        # A lone surrogate once ended in a raw UnicodeEncodeError.
        with pytest.raises(SynthesisError, match="tag"):
            substream(1, 2, 1, tag)

    def test_numpy_integers_draw_the_int_stream(self):
        draws = substream(1, np.int64(2), np.int32(1), "x").random(3)
        assert np.array_equal(draws, substream(1, 2, 1, "x").random(3))
