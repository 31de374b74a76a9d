"""Tests for the constant-calibration pipeline."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyfit

from effdof import (
    CalibrationError,
    EstimatorVariant,
    SimulationGrid,
    SynthesisError,
    calibration,
    default_c_grid,
    evaluate_x2_curve,
    find_c_opt,
    fit_polynomial_cv,
    generate_table,
    pseudo_x2,
    run_calibration,
)


class TestDefaultCGrid:
    def test_covers_interval_with_even_steps(self):
        grid = default_c_grid()
        assert len(grid) == 119
        assert grid[0] == pytest.approx(2.01)
        assert grid[-1] == pytest.approx(3.19)
        steps = np.diff(grid)
        assert np.allclose(steps, 0.01)

    def test_step_larger_than_span_is_an_error(self):
        with pytest.raises(CalibrationError, match="empty C grid"):
            default_c_grid(2.1, 2.2, 0.5)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(CalibrationError):
            default_c_grid(step=0.0)

    def test_calibration_error_is_a_synthesis_error(self):
        # One error tree: the CLI maps every SynthesisError to exit 3.
        with pytest.raises(SynthesisError):
            default_c_grid(step=0.0)

    @pytest.mark.parametrize("start, stop, step", [
        (2.0, float("inf"), 0.1),
        (float("-inf"), 3.0, 0.1),
        (float("nan"), 3.0, 0.1),
        (2.0, 3.0, float("nan")),
    ])
    def test_nonfinite_bounds_rejected(self, start, stop, step):
        with pytest.raises(CalibrationError, match="finite"):
            default_c_grid(start, stop, step)

    def test_integer_bound_beyond_doubles_rejected(self):
        with pytest.raises(CalibrationError, match="stop must be finite"):
            default_c_grid(2, 10**400, 1)

    @pytest.mark.parametrize("start, stop, step", [
        (0.0, 1e308, 1e-300),  # the count overflows to inf
        (0.0, 3.0, 1e-12),  # 3e12 constants
        (-1e308, 1e308, 1.0),  # the span itself overflows
        (0.0, 1.0, 1e-6),  # one constant beyond the limit
    ])
    def test_count_beyond_the_limit_rejected_before_allocation(self, start, stop, step):
        with pytest.raises(CalibrationError, match="exceeds 1000000 constants"):
            default_c_grid(start, stop, step)

    def test_count_within_the_limit_accepted(self):
        grid = default_c_grid(0.0, 1.0, 1e-5)
        assert len(grid) == 100_001 and grid[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("start, stop, step", [
        ("a", 3.0, 0.1), (None, 3.0, 0.1), (2.0, [3.0], 0.1), (2.0, 3.0, "0.1x"),
    ], ids=["text-start", "none-start", "list-stop", "text-step"])
    def test_non_numeric_bounds_rejected(self, start, stop, step):
        with pytest.raises(CalibrationError, match="must be a number"):
            default_c_grid(start, stop, step)


class TestFitPolynomialCv:
    def test_exact_linear_data(self):
        xs = np.linspace(0.0, 4.0, 30)
        points = [(x, 2.0 + 3.0 * x) for x in xs]
        fit = fit_polynomial_cv(points, max_degree=6, folds=10, seed=0)
        assert fit.degree == 1
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-9)
        assert fit.coefficients[1] == pytest.approx(3.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_with_tiny_noise(self):
        rng = np.random.default_rng(4)
        xs = np.linspace(-1.0, 2.0, 60)
        points = [(x, x * x + rng.normal(0.0, 1e-6)) for x in xs]
        fit = fit_polynomial_cv(points, max_degree=6, folds=10, seed=0)
        assert fit.degree == 2
        assert fit.r_squared > 0.999999

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(8)
        points = [(float(x), float(np.sin(x) + rng.normal(0, 0.05)))
                  for x in np.linspace(0, 3, 40)]
        first = fit_polynomial_cv(points, max_degree=6, folds=10, seed=123)
        second = fit_polynomial_cv(points, max_degree=6, folds=10, seed=123)
        assert first == second

    def test_defaults(self):
        fit = inspect.signature(fit_polynomial_cv).parameters
        assert (fit["max_degree"].default, fit["folds"].default, fit["seed"].default) == (6, 10, 0)
        assert inspect.signature(run_calibration).parameters["folds"].default == 10

    def test_fold_seed_is_reduced_modulo_2_64(self, monkeypatch):
        # Seeds -1 and 2^64 - 1 deal the same folds, as they draw the same cells.
        seeds, default_rng = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda s: seeds.append(s) or default_rng(s))
        rng = default_rng(8)
        points = [(float(x), float(np.sin(x) + rng.normal(0, 0.05))) for x in np.linspace(0, 3, 40)]
        assert fit_polynomial_cv(points, seed=-1) == fit_polynomial_cv(points, seed=2**64 - 1)
        assert seeds == [2**64 - 1, 2**64 - 1]

    def test_r_squared_matches_recomputation(self):
        rng = np.random.default_rng(9)
        xs = np.linspace(2.0, 3.2, 50)
        points = [(float(x), float(0.1 * (x - 2.5) ** 2 + rng.normal(0, 0.01)))
                  for x in xs]
        fit = fit_polynomial_cv(points, max_degree=6, folds=10, seed=0)
        pred = Polynomial(fit.coefficients)(xs)
        ys = np.array([y for _, y in points])
        expected = 1.0 - float(np.sum((ys - pred) ** 2)) / float(np.sum((ys - ys.mean()) ** 2))
        assert fit.r_squared == pytest.approx(expected, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lo, hi", [(1e-320, 2e-320), (5e307, 1.7e308), (1.0, 1.0)],
                             ids=["subnormal", "near-the-largest-double", "one-abscissa"])
    def test_span_that_cannot_be_mapped_rejected_before_any_fit(self, lo, hi):
        points = [(float(x), 1.0) for x in np.linspace(lo, hi, 12)]
        with pytest.raises(CalibrationError, match="cannot map"):
            fit_polynomial_cv(points, max_degree=2, folds=2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [(5, "x", 1.0), (5, None, 1.0), (5, 2.5, float("nan")),
                                     (5, 2.5, "y"), (0, float("inf"), 1.0)],
                             ids=["text-c", "none-c", "nan-x2", "text-x2", "inf-c"])
    def test_points_must_be_finite_numbers(self, bad):
        # A NaN X2 once went through a RankWarning per degree to "no degree is estimable".
        points = [(2.0 + 0.1 * i, float(i)) for i in range(12)]
        points[bad[0]] = bad[1:]
        with pytest.raises(CalibrationError, match="(C|X2) must be"):
            fit_polynomial_cv(points, max_degree=2, folds=2)

    @pytest.mark.filterwarnings("error")
    def test_rank_deficient_degrees_are_skipped_without_a_warning(self):
        # Three distinct abscissas support degree 2 at most; numpy warns above it.
        points = [(float(x), float(x * x)) for x in (0, 1, 2) * 4]
        assert fit_polynomial_cv(points, max_degree=5, folds=2).degree == 2

    def test_degree_capped_by_the_smallest_training_fold(self):
        # 12 points in 4 folds leave 9 training points: degree 8 at most, which
        # an exact octic needs. A larger max_degree must change nothing.
        xs = np.linspace(-1.0, 1.0, 12)
        ys = np.polynomial.chebyshev.chebval(xs, [0] * 8 + [1])
        points = list(zip(xs.tolist(), ys.tolist()))
        fit = fit_polynomial_cv(points, max_degree=8, folds=4)
        assert fit.degree == 8
        for max_degree in (9, 10, 1000):
            assert fit_polynomial_cv(points, max_degree=max_degree, folds=4) == fit
        # Two points in two folds leave one training point: no degree at all.
        with pytest.raises(CalibrationError, match="no degree is estimable"):
            fit_polynomial_cv([(0.0, 1.0), (1.0, 2.0)], folds=2)

    @pytest.mark.parametrize("n, folds", [(7, 7), (9, 2), (10, 5), (11, 4), (12, 4), (13, 3)])
    def test_points_on_a_polynomial_of_the_cap_degree_fit_at_that_degree(self, n, folds):
        # The smallest training fold has n - ceil(n / folds) points, so it can hold
        # a polynomial of one degree less and no more. A cap one lower would miss it;
        # one higher is never reached, as the rank rule skips that degree on that fold.
        cap = n - math.ceil(n / folds) - 1
        xs = np.linspace(-1.0, 1.0, n)
        points = list(zip(xs.tolist(), np.polynomial.chebyshev.chebval(xs, [0] * cap + [1]).tolist()))
        fit = fit_polynomial_cv(points, max_degree=cap + 3, folds=folds)
        assert fit.degree == cap and fit.r_squared >= 1.0 - 1e-12

    def test_no_estimable_degree_is_an_error(self):
        # The fold that holds out x = 1 trains on x = 0 alone, so no degree fits it.
        with pytest.raises(CalibrationError, match="no degree is estimable"):
            fit_polynomial_cv([(0, 1), (0, 2), (0, 3), (1, 4)], folds=4, max_degree=3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shift", [-600, -200, -60, 60, 509, 600, 1000])
    def test_fit_scales_exactly_with_x2(self, shift):
        # X2 is fit at unit scale: a power-of-two factor on every X2 scales the
        # coefficients by that factor and changes nothing else. From 2^509 on,
        # the squares of the residuals once overflowed; at 2^-60 and below, a
        # tie of 1e-12 in X2 units once merged degrees 1 and 2. Factors near
        # 2^-1074 are left out: X2 would be subnormal and the factor inexact.
        rng = np.random.default_rng(11)
        xs = default_c_grid()
        ys = [(c - 2.5) ** 2 + 0.1 + rng.normal(0.0, 1e-3) for c in xs]
        fit = fit_polynomial_cv(list(zip(xs, ys)))
        scaled = fit_polynomial_cv([(x, math.ldexp(y, shift)) for x, y in zip(xs, ys)])
        assert (scaled.degree, scaled.r_squared) == (fit.degree, fit.r_squared)
        assert scaled.coefficients == tuple(math.ldexp(c, shift) for c in fit.coefficients)

    @pytest.mark.filterwarnings("error")
    def test_coefficients_beyond_the_doubles_rejected(self):
        # Every X2 is finite, but the constant term in powers of C is not.
        points = [(c, ((c - 2.5) ** 2 + 0.1) * 1.6e308) for c in default_c_grid()]
        with pytest.raises(CalibrationError, match="non-finite coefficients"):
            fit_polynomial_cv(points)

    def test_rank_loss_on_the_final_fit_is_an_error(self, monkeypatch):
        # The refit on all points has every row of a full-rank training fold,
        # so its rank loss is injected: R_22 of the one set of 12 rows is zeroed.
        points = [(float(i), float(i * i)) for i in range(12)]
        householder = calibration._householder

        def final_fit_rank_deficient(a):
            householder(a)
            if len(a) == 1:
                a[:, 2, 2] = 0.0
        monkeypatch.setattr(calibration, "_householder", final_fit_rank_deficient)
        with pytest.raises(CalibrationError, match="rank-deficient design at degree 2"):
            fit_polynomial_cv(points, folds=2)

    def test_span_beyond_the_power_basis_rejected(self):
        # (2/span)^5 is below the normal doubles; converting once gave R^2 < 0.
        xs = np.linspace(0.0, 1e150, 50)
        points = list(zip(xs.tolist(), np.sin(3 * (xs / 1e150 * 2 - 1)).tolist()))
        with pytest.raises(CalibrationError, match="too wide"):
            fit_polynomial_cv(points)

    def test_power_basis_guard_admits_the_widest_linear_span(self):
        # (2 / span)^1 = 2^-1022, the smallest normal double: still admitted.
        points = [(i / 11 * 2.0**1023, float(i)) for i in range(12)]
        assert fit_polynomial_cv(points).degree == 1

    @pytest.mark.parametrize("exponent, admitted", [(-511, False), (-510, True)])
    def test_power_basis_guard_on_a_narrow_quadratic(self, exponent, admitted):
        # (2 / span)^2 is 2^1024 at span 2^-511, just beyond the doubles, and 2^1022 at 2^-510.
        points = [(i / 11 * 2.0**exponent, (i / 11) ** 2) for i in range(12)]
        if admitted:
            assert fit_polynomial_cv(points).degree == 2
        else:
            with pytest.raises(CalibrationError, match="too wide or narrow for degree 2"):
                fit_polynomial_cv(points)

    @pytest.mark.parametrize("n", [12, 20, 119])
    @pytest.mark.parametrize("x2", [0.0, 0.1, 3.7, 5.0])
    def test_flat_curve_rejected(self, x2, n):
        # The mean of n copies of 0.1 is not always 0.1, so the spread about it
        # once read as a curve and the fit printed an R^2 far below 0.
        points = [(i / 10, x2) for i in range(n)]
        with pytest.raises(CalibrationError, match="flat"):
            fit_polynomial_cv(points)

    @pytest.mark.parametrize("span", [1e3, 1e10, 1e30, 1e60, 1e80, 1e100, 1e150, 1e200, 1e300])
    def test_every_admitted_span_keeps_the_fit_in_powers_of_c(self, span):
        # Reference: the same degree fitted and evaluated in the mapped domain.
        xs = np.linspace(0.0, span, 50)
        for curve in (lambda t: np.sin(3 * t), lambda t: t ** 3 - 0.5 * t, lambda t: t * t):
            points = list(zip(xs.tolist(), curve(xs / span * 2 - 1).tolist()))
            try:
                fit = fit_polynomial_cv(points)
            except CalibrationError:
                assert span > 1e60  # every narrower span converts exactly
                continue
            reference = Polynomial.fit(xs, [y for _, y in points], fit.degree)(xs)
            assert np.max(np.abs(Polynomial(fit.coefficients)(xs) - reference)) < 1e-9

    def test_fewer_points_than_folds(self):
        with pytest.raises(CalibrationError, match="at least"):
            fit_polynomial_cv([(0, 0)] * 5, max_degree=2, folds=10)

    def test_parameter_validation(self):
        points = [(float(i), float(i)) for i in range(12)]
        with pytest.raises(CalibrationError):
            fit_polynomial_cv(points, max_degree=0)
        with pytest.raises(CalibrationError):
            fit_polynomial_cv(points, folds=1)

    @pytest.mark.parametrize("kwargs", [
        {"max_degree": 2.9}, {"max_degree": True}, {"folds": 2.5}, {"folds": True},
        {"seed": 1.9},
    ], ids=["float-degree", "bool-degree", "float-folds", "bool-folds", "float-seed"])
    def test_parameters_must_be_integers(self, kwargs):
        points = [(float(i), float(i)) for i in range(12)]
        with pytest.raises(CalibrationError, match="must be an integer"):
            fit_polynomial_cv(points, **kwargs)

    @pytest.mark.parametrize("seed", range(20))
    def test_degree_matches_per_fold_polynomial_fits(self, seed):
        # Reference: each fold fitted by Polynomial.fit on its own training span.
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(2.0, 3.2, 60))
        truth = Polynomial(rng.normal(0.0, 1.0, int(rng.integers(2, 6))))
        ys = truth((xs - 2.6) / 0.6) + rng.normal(0.0, 10.0 ** rng.uniform(-4, -1), len(xs))
        points = list(zip(xs.tolist(), ys.tolist()))
        folds, max_degree = 10, 6
        fold_ids = np.empty(len(xs), dtype=int)
        fold_ids[np.random.default_rng(seed).permutation(len(xs))] = np.arange(len(xs)) % folds
        cv_rmse = []
        for degree in range(1, max_degree + 1):
            errs = []
            for f in range(folds):
                train = fold_ids != f
                fit = Polynomial.fit(xs[train], ys[train], deg=degree)
                errs.append(np.sqrt(np.mean((fit(xs[~train]) - ys[~train]) ** 2)))
            cv_rmse.append(float(np.mean(errs)))
        best = min(cv_rmse)
        expected = 1 + next(i for i, v in enumerate(cv_rmse) if v <= best + 1e-12)
        assert fit_polynomial_cv(points, max_degree, folds, seed).degree == expected


def _polyfit_cv_degree(points, seed, max_degree=6, folds=10):
    """The degree chosen by a cross validation of numpy's polyfit, fold by fold."""
    xs, ys = (np.array(v) for v in zip(*points))
    ys = np.ldexp(ys, -math.frexp(float(np.abs(ys).max()))[1])
    t = np.polynomial.polyutils.mapdomain(xs, [xs.min(), xs.max()], [-1.0, 1.0])
    fold_ids = np.empty(len(xs), dtype=int)
    fold_ids[np.random.default_rng(seed).permutation(len(xs))] = np.arange(len(xs)) % folds
    cv_rmse = []
    for degree in range(1, min(max_degree, len(xs) - math.ceil(len(xs) / folds) - 1) + 1):
        errs = []
        for f in range(folds):
            train, held = fold_ids != f, fold_ids == f
            coef, (_, rank, _, _) = polyfit(t[train], ys[train], degree, full=True)
            resid = np.polynomial.polynomial.polyval(t[held], coef) - ys[held]
            errs.append(math.sqrt(np.mean(resid ** 2)) if rank == degree + 1 else math.inf)
        cv_rmse.append(float(np.mean(errs)))
    best = min(cv_rmse)
    return 1 + next(i for i, v in enumerate(cv_rmse) if v <= best + 1e-12)


class TestLeastSquaresAgainstPolyfit:
    """numpy's polyfit, which the fit no longer calls, stays here as the referee."""

    @pytest.mark.parametrize("seed", range(5))
    def test_coefficients_match_polyfit_on_random_designs(self, seed):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(-1.0, 1.0, 40))
        y = rng.normal(0.0, 1.0, 40)
        sets = rng.random((6, 40)) < 0.8
        fits = list(calibration._least_squares(t, y, sets, 6))
        assert len(fits) == 6
        for degree, coef in enumerate(fits, start=1):
            assert (coef[:, degree + 1:] == 0.0).all()
            for rows, ours in zip(sets, coef[:, :degree + 1]):
                reference = polyfit(t[rows], y[rows], degree)
                assert np.max(np.abs(ours - reference)) <= 1e-9 * np.max(np.abs(reference))

    def test_degree_matches_a_polyfit_cross_validation_on_calibration_curves(self):
        for seed in range(1, 51):
            grid = SimulationGrid(range(2, 5), range(1, 5), replicates=300, seed=seed)
            points = evaluate_x2_curve(default_c_grid(), grid, max_workers=1)
            assert fit_polynomial_cv(points, seed=seed).degree == _polyfit_cv_degree(points, seed)

    def test_calibration_calls_no_blas_or_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("calibration reached BLAS or LAPACK")
        for name in set(np.linalg.__all__) - {"LinAlgError"}:
            monkeypatch.setattr(np.linalg, name, refuse)
        for module, name in [(np, "dot"), (np, "convolve"), (np, "polyfit"), (np, "roots"),
                             (np.polynomial.polynomial, "polyfit"),
                             (np.polynomial.polynomial, "polyroots")]:
            monkeypatch.setattr(module, name, refuse)
        curve = run_calibration(SimulationGrid((2, 3), (1, 2), replicates=200, seed=3),
                                [2.0 + 0.05 * i for i in range(24)])
        assert 2.0 <= curve.c_opt <= 3.15
        assert find_c_opt((6.25, -5.0, 1.0), (2.0, 3.2))[0] == pytest.approx(2.5)


class TestFindCOpt:
    def test_quadratic_vertex(self):
        # y = (x - 2.5)^2 expanded to ascending coefficients
        c_opt, x2_min = find_c_opt((6.25, -5.0, 1.0), (2.0, 3.2))
        assert c_opt == pytest.approx(2.5, abs=1e-8)
        assert x2_min == pytest.approx(0.0, abs=1e-12)

    def test_far_root_of_the_slope_keeps_the_near_critical_point(self):
        # The slope -5 + 2C + 1.2e-16 C^2 has roots near 2.5 and -1.7e16; with
        # its top term kept, the companion matrix put the near one at 2.0.
        c_opt, x2_min = find_c_opt((6.35, -5.0, 1.0, 4e-17), (2.01, 3.19))
        assert c_opt == pytest.approx(2.5, abs=1e-8)
        assert x2_min == pytest.approx(0.1, abs=1e-12)

    def test_a_double_root_of_the_slope_yields_no_candidate(self):
        # C^3 - 7.5 C^2 + 18.75 C has the slope 3 (C - 2.5)^2: an inflection, no extremum.
        coefficients = (0.0, 18.75, -7.5, 1.0)
        slope = [k * c for k, c in enumerate(coefficients)][1:]
        assert list(calibration._sign_changes(slope, 2.0, 3.2)) == []
        assert find_c_opt(coefficients, (2.0, 3.2)) == (2.0, float(Polynomial(coefficients)(2.0)))

    @pytest.mark.parametrize("vertex", [2.0, 3.0])
    def test_a_root_of_the_slope_at_an_end(self, vertex):
        # (C - vertex)^2: the slope is exactly 0 at the end, which is itself a candidate.
        assert find_c_opt((vertex * vertex, -2.0 * vertex, 1.0), (2.0, 3.0)) == (vertex, 0.0)

    def test_five_roots_of_the_slope_inside_the_interval(self):
        roots = (2.1, 2.3, 2.45, 2.75, 3.0)
        poly = Polynomial.fromroots(roots).integ()
        slope = poly.deriv().coef.tolist()
        found = list(calibration._sign_changes(slope, 2.0, 3.2))
        assert len(found) == 10 and found == sorted(found)
        for root, a, b in zip(roots, found[::2], found[1::2]):
            # Adjacent doubles where the evaluated slope changes sign: exact to the last bit.
            assert b == np.nextafter(a, math.inf) and abs(a - root) < 1e-10
            assert Polynomial(slope)(a) * Polynomial(slope)(b) <= 0.0
        c_opt, x2_min = find_c_opt(tuple(poly.coef), (2.0, 3.2))
        xs = np.linspace(2.0, 3.2, 10**5)
        values = poly(xs)
        assert abs(x2_min - float(values.min())) <= 1e-9
        assert abs(c_opt - float(xs[np.argmin(values)])) <= 1e-4

    def test_boundary_minimum(self):
        c_opt, x2_min = find_c_opt((0.0, -1.0), (2.0, 3.2))
        assert c_opt == 3.2
        assert x2_min == pytest.approx(-3.2)

    def test_exact_tie_resolves_to_smaller_abscissa(self):
        # A zero slope makes every evaluation bitwise equal, so the tie rule
        # decides: the smallest abscissa wins.
        c_opt, x2_min = find_c_opt((5.0, 0.0), (2.0, 3.2))
        assert c_opt == 2.0
        assert x2_min == 5.0

    def test_double_welled_quartic_finds_a_global_minimum(self):
        # (x - 2.2)^2 (x - 3.0)^2 has two zeros; rounding in the expanded
        # coefficients decides between them, but the value must be a global
        # minimum either way.
        poly = Polynomial([1.0]) * Polynomial([-2.2, 1.0]) ** 2 * Polynomial([-3.0, 1.0]) ** 2
        c_opt, x2_min = find_c_opt(tuple(poly.coef), (2.0, 3.2))
        assert min(abs(c_opt - 2.2), abs(c_opt - 3.0)) < 1e-6
        assert abs(x2_min) < 1e-12

    def test_never_above_dense_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            coefs = tuple(rng.normal(0, 1, size=5))
            c_opt, x2_min = find_c_opt(coefs, (2.0, 3.2))
            poly = Polynomial(coefs)
            xs = np.linspace(2.0, 3.2, 12001)
            assert x2_min <= float(poly(xs).min()) + 1e-12
            assert 2.0 <= c_opt <= 3.2

    @pytest.mark.parametrize("interval", [(2.01, 3.19), (0.0, 5000.0)], ids=["default", "wide"])
    def test_exact_search_never_above_dense_grid(self, interval):
        # Random polynomials of degrees 1-6 with O(1) values on the interval.
        rng = np.random.default_rng(13)
        lo, hi = interval
        xs = np.linspace(lo, hi, 12001)
        for degree in range(1, 7):
            for _ in range(10):
                poly = Polynomial(rng.normal(0, 1, degree + 1), domain=[lo, hi]).convert()
                c_opt, x2_min = find_c_opt(tuple(poly.coef), interval)
                assert lo <= c_opt <= hi and x2_min == float(poly(c_opt))
                assert x2_min <= float(poly(xs).min()) + 1e-12

    @pytest.mark.parametrize("interval", [(3.0, 3.0), (3.0, 2.0)], ids=["empty", "inverted"])
    def test_invalid_interval_rejected(self, interval):
        with pytest.raises(CalibrationError, match="invalid interval"):
            find_c_opt((1.0, 2.0), interval)

    def test_degree_zero_rejected(self):
        with pytest.raises(CalibrationError):
            find_c_opt((1.0,), (2.0, 3.2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coefficients, interval", [
        ((0.0, 1e308, -1e308), (0.0, 10.0)),
        ((1e308, 1e308), (0.0, 10.0)),
        ((0.0, 0.0, 1e308, 1e308), (0.0, 1e-3)),
    ], ids=["values", "values-linear", "slope"])
    def test_overflow_on_the_interval_is_an_error(self, coefficients, interval):
        # The first once returned (1.7977, -inf) after numpy overflow warnings.
        with pytest.raises(CalibrationError, match="overflows"):
            find_c_opt(coefficients, interval)

    @pytest.mark.parametrize("coefficients, interval, message", [
        ((float("nan"), 1.0), (0.0, 1.0), "coefficient must be finite, got nan"),
        ((1.0, "a"), (0.0, 1.0), "coefficient must be a number, got 'a'"),
        ((1.0, None), (0.0, 1.0), "coefficient must be a number, got None"),
        ((1.0, 1.0), ("x", 1.0), "interval end must be a number, got 'x'"),
        ((1.0, 1.0), (0.0, None), "interval end must be a number, got None"),
        ((1.0, 1.0), (float("nan"), 1.0), "interval end must be finite, got nan"),
        ((1.0,), (2.0, 3.2), "polynomial degree must be >= 1, got 0"),
    ], ids=["nan-coefficient", "text-coefficient", "none-coefficient", "text-start",
            "none-end", "nan-start", "degree-zero"])
    def test_non_numeric_or_non_finite_input_rejected(self, coefficients, interval, message):
        # A NaN coefficient once returned (lo, inf) without a word.
        with pytest.raises(CalibrationError) as exc:
            find_c_opt(coefficients, interval)
        assert type(exc.value) is CalibrationError and str(exc.value) == message


class TestEvaluateX2Curve:
    def test_empty_grid_rejected(self):
        grid = SimulationGrid((2, 3), (1, 2), replicates=100, seed=0)
        with pytest.raises(CalibrationError, match="empty"):
            evaluate_x2_curve([], grid)

    def test_constants_outside_interval_rejected(self):
        # The admitted constants are those of the estimator: finite and >= 0.
        grid = SimulationGrid((2, 3), (1, 2), replicates=100, seed=0)
        assert len(evaluate_x2_curve([2.5, 3.3], grid)) == 2
        for c_grid in ([-1.0, 2.0], [2.0, float("inf")], [float("nan"), 2.0], ["x", 2.0],
                       [2.0, None]):
            with pytest.raises(CalibrationError):
                evaluate_x2_curve(c_grid, grid)

    def test_curve_is_sorted_and_nonnegative(self):
        grid = SimulationGrid((2, 3), (1, 2, 3), replicates=1000, seed=5)
        points = evaluate_x2_curve([2.4, 2.2, 3.0], grid)
        assert [c for c, _ in points] == [2.2, 2.4, 3.0]
        assert all(x2 >= 0.0 for _, x2 in points)

    def test_increasing_beyond_the_minimum(self):
        grid = SimulationGrid(tuple(range(2, 4)), (1, 2, 3), replicates=2000, seed=5)
        points = evaluate_x2_curve([round(2.01 + 0.02 * i, 2) for i in range(60)], grid)
        values = [x2 for _, x2 in points]
        i_min = int(np.argmin(values))
        tail = values[i_min:]
        assert tail == sorted(tail)

    def test_worker_count_does_not_change_curve(self):
        grid = SimulationGrid((2, 3, 4), (1, 2), replicates=800, seed=5)
        serial = evaluate_x2_curve([2.2, 2.8], grid, max_workers=1)
        threaded = evaluate_x2_curve([2.2, 2.8], grid, max_workers=3)
        assert serial == threaded

    @pytest.mark.parametrize("k_values, nu_values, c_grid", [
        ((2, 3, 5, 9), (1, 2, 4, 7), default_c_grid()),
        # One cell and many constants: every X2 is a single squared term, so a
        # square that rounds unlike the scalar loop's shows at some constant.
        ((2,), (1,), [i * 0.0025 for i in range(20001)]),
    ], ids=["grid-4x4", "one-cell"])
    def test_equals_scalar_loop_bit_for_bit(self, k_values, nu_values, c_grid):
        grid = SimulationGrid(k_values, nu_values, replicates=300, seed=11)
        base = generate_table(grid, EstimatorVariant.adjusted(0.0, 0)).cells
        expected = []
        for c in sorted(set(c_grid)):
            x2 = 0.0
            for (k, nu), cell in base.items():
                reference = float(k * nu)
                mean_c = cell.mean / (1.0 + c / (k * float(nu)))
                x2 += (mean_c - reference) ** 2 / reference
            expected.append((c, x2))
        assert evaluate_x2_curve(c_grid, grid) == expected

    def test_shares_draws_with_tables(self):
        grid = SimulationGrid((2, 4, 9), (1, 3, 7), replicates=1500, seed=5)
        [(_, x2)] = evaluate_x2_curve([2.69], grid)
        table = generate_table(grid, EstimatorVariant.adjusted(2.69, 0))
        assert x2 == pytest.approx(pseudo_x2(table), rel=1e-12)


class TestRunCalibration:
    def test_curve_invariants_small_study(self):
        grid = SimulationGrid(tuple(range(2, 4)), (1, 2, 3), replicates=1500, seed=6)
        curve = run_calibration(grid, [round(2.05 + 0.05 * i, 2) for i in range(22)])
        assert curve.points[0][0] <= curve.c_opt <= curve.points[-1][0]
        assert curve.x2_min == pytest.approx(
            float(Polynomial(curve.fit.coefficients)(curve.c_opt)), abs=1e-12)
        assert 1 <= curve.fit.degree <= 6
        # Shared draws make the sampled curve smooth, so the fit is tight.
        assert curve.fit.r_squared > 0.999

    def test_curve_holds_the_stages_outputs(self):
        """The curve's points and fit are what the stages return, not copies of their parts."""
        grid = SimulationGrid((2, 3), (1, 2), replicates=300, seed=9)
        cs = [2.0 + 0.1 * i for i in range(12)]
        curve = run_calibration(grid, cs)
        assert curve.points == tuple(evaluate_x2_curve(cs, grid))
        assert curve.fit == fit_polynomial_cv(curve.points, seed=grid.seed)
        assert (curve.c_opt, curve.x2_min) == find_c_opt(
            curve.fit.coefficients, (curve.points[0][0], curve.points[-1][0]))
        assert [f.name for f in dataclasses.fields(curve)] == ["points", "fit", "c_opt", "x2_min"]

    def test_negative_seed_runs(self):
        """A negative grid seed draws its cells and deals its folds like any other."""
        grid = SimulationGrid((2, 3), (1, 2), replicates=200, seed=-3)
        curve = run_calibration(grid, [2.0 + 0.1 * i for i in range(12)])
        assert curve.points[0][0] <= curve.c_opt <= curve.points[-1][0]

    def test_study_seed_stability_at_small_size(self):
        results = []
        for seed in (60, 61):
            grid = SimulationGrid(tuple(range(2, 6)), tuple(range(1, 6)),
                                  replicates=10_000, seed=seed)
            results.append(run_calibration(grid).c_opt)
        assert abs(results[0] - results[1]) < 0.06
