"""Selection of the correction constant by minimizing a pseudo chi-square.

For a dense grid of component counts K in {2..K_max} and component d.f. nu
in {1..nu_max}, the study measures how far the p = 0 adjusted estimator's
Monte Carlo mean sits from the reference value K*nu, aggregated as

    X2(C) = sum_cells (M(C; K, nu) - K*nu)^2 / (K*nu),

then smooths the sampled (C, X2) curve with a cross-validated polynomial and
reports the constant minimizing the fitted polynomial over the span of the
sampled constants. Any finite C >= 0 may be sampled, the range the estimator
admits; the default grid runs from 2.01 to 3.19 in steps of 0.01. The study
grid's seed drives both the component draws and the cross-validation folds.

All constants are evaluated on the same component draws (common random
numbers): each cell runs once, through the cell path that also builds the
simulation tables, for the c = 0 variant. Within a cell the shrink term is
deterministic, so the mean for any C is that mean divided by
``1 + C / (K * nu)``. This makes the sampled curve smooth in C, which is what
the polynomial smoother relies on. Tables and calibration share their draws:
a cell of any table over the same grid and seed comes from the same
substream, so ``evaluate_x2_curve([c], grid)`` is ``pseudo_x2`` of the
adjusted(c, 0) table up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyvander
from numpy.polynomial.polyutils import mapdomain

from .estimators import (CalibrationError, EstimatorVariant, SynthesisError, _finite, _integer,
                         _shrink)
from .simulation import _MASK64, SimulationGrid, generate_table

__all__ = [
    "CalibrationCurve",
    "PolynomialFit",
    "default_c_grid",
    "evaluate_x2_curve",
    "find_c_opt",
    "fit_polynomial_cv",
    "run_calibration",
]


@dataclass(frozen=True)
class PolynomialFit:
    """Cross-validated least-squares polynomial, ascending powers of x."""

    degree: int
    coefficients: tuple[float, ...]
    r_squared: float


@dataclass(frozen=True)
class CalibrationCurve:
    """Sampled discrepancy curve with its polynomial smoother and minimizer."""

    c_points: tuple[float, ...]
    x2_points: tuple[float, ...]
    fitted_degree: int
    coefficients: tuple[float, ...]
    r_squared: float
    c_opt: float
    x2_min: float


def _checked(check, value, name: str, minimum: float = -math.inf):
    """``check(value, name, minimum)`` of ``estimators``, its error a ``CalibrationError``."""
    try:
        return check(value, name, minimum)
    except SynthesisError as exc:
        raise CalibrationError(str(exc)) from None


def default_c_grid(start: float = 2.01, stop: float = 3.19, step: float = 0.01) -> list[float]:
    """Evenly spaced constants covering the search interval."""
    start, stop, step = (_checked(_finite, v, name) for v, name in
                         ((start, "start"), (stop, "stop"), (step, "step")))
    if step <= 0.0:
        raise CalibrationError(f"step must be > 0, got {step}")
    if start >= stop or step > (stop - start):
        raise CalibrationError("empty C grid: step exceeds the search interval")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(n)]


def evaluate_x2_curve(c_grid, grid: SimulationGrid,
                      max_workers: int | None = None) -> list[tuple[float, float]]:
    """Pseudo chi-square of the p = 0 adjusted estimator for each constant.

    Returns (C, X2) pairs sorted by C. Every constant must be finite and
    >= 0, the constants the estimator itself admits. The component draws come
    from ``grid.seed`` and are shared across constants, so the curve is
    smooth in C.
    """
    cs = sorted({_checked(_finite, c, "constant", 0.0) for c in c_grid})
    if not cs:
        raise CalibrationError("empty c_grid")
    # Mean of the denominator-only variant (c = 0); the per-C mean is this
    # value divided by the deterministic shrink term of the cell.
    base = generate_table(grid, EstimatorVariant.adjusted(0.0, 0), max_workers).cells

    # One pass over the cells for every constant at once, adding cell by cell
    # in grid order. float_power is the C library's pow, as Python's ``** 2``
    # on a float is; squaring by multiplication rounds differently in a few
    # cases per thousand.
    constants = np.asarray(cs)
    x2 = np.zeros_like(constants)
    for (k, nu), cell in base.items():
        reference = float(k * nu)
        mean_c = cell.mean / _shrink(constants, k, float(nu))
        x2 += np.float_power(mean_c - reference, 2) / reference
    return list(zip(cs, x2.tolist()))


def fit_polynomial_cv(points, max_degree: int = 6, folds: int = 10,
                      seed: int = 0) -> PolynomialFit:
    """Least-squares polynomial with the degree chosen by k-fold cross validation.

    Candidate degrees run from 1 to ``max_degree``, less any whose design is
    rank-deficient on some fold; the winner minimizes the mean RMSE over
    folds, with ties (within 1e-12) resolved to the smallest degree. Folds
    are formed by shuffling the points once with ``seed`` and dealing them
    round-robin, so the partition is deterministic. The winning degree is
    refit on all points; reported coefficients are in the original coordinates
    (the fit itself uses a scaled abscissa for conditioning) and ``r_squared``
    is 1 - SSE/SST of that final fit.
    """
    pts = list(points)
    n = len(pts)
    max_degree = _checked(_integer, max_degree, "max_degree", 1)
    folds = _checked(_integer, folds, "folds", 2)
    seed = _checked(_integer, seed, "seed")
    if n < folds:
        raise CalibrationError(f"need at least {folds} points, got {n}")
    xs = np.asarray([_checked(_finite, p[0], "C") for p in pts])
    ys = np.asarray([_checked(_finite, p[1], "X2") for p in pts])
    # Polynomial.fit maps [lo, hi] onto [-1, 1] by x * 2/(hi-lo) - (hi+lo)/(hi-lo);
    # LAPACK would take a map that is not finite, print to stdout and then fail.
    lo, hi = float(xs.min()), float(xs.max())
    if not (hi > lo and 0.0 < 2.0 / (hi - lo) < math.inf
            and math.isfinite((hi + lo) / (hi - lo))):
        raise CalibrationError(f"cannot map the sampled span [{lo!r}, {hi!r}] onto [-1, 1]")

    # Reduced as ``substream`` reduces it, so any seed a grid admits works here.
    order = np.random.default_rng(seed & _MASK64).permutation(n)
    fold_ids = np.empty(n, dtype=int)
    fold_ids[order] = np.arange(n) % folds

    # Folds fit on the final fit's map, with polyfit's column scaling and rcond.
    vander = polyvander(mapdomain(xs, np.array([lo, hi]), np.array([-1.0, 1.0])), max_degree)
    try:
        cv_rmse = []
        for degree in range(1, max_degree + 1):
            errs = []
            for f in range(folds):
                train = fold_ids != f
                design = vander[train, :degree + 1]
                scale = np.sqrt(np.square(design).sum(axis=0))
                scale[scale == 0.0] = 1.0
                coef, _, rank, _ = np.linalg.lstsq(design / scale, ys[train],
                                                   rcond=len(design) * np.finfo(float).eps)
                if rank < degree + 1:  # rank-deficient, numpy's fit would warn
                    errs = None
                    break
                resid = vander[~train, :degree + 1] @ (coef / scale) - ys[~train]
                errs.append(math.sqrt(float(np.mean(resid ** 2))))
            cv_rmse.append(math.inf if errs is None else float(np.mean(errs)))

        best = min(cv_rmse)
        if not math.isfinite(best):
            raise CalibrationError("no degree is estimable with the given folds")
        degree = 1 + next(i for i, v in enumerate(cv_rmse) if v <= best + 1e-12)

        final, diagnostics = Polynomial.fit(xs, ys, deg=degree, full=True)
    except np.linalg.LinAlgError as exc:
        raise CalibrationError(f"polynomial fit failed: {exc}") from None
    rank = int(diagnostics[1])
    if rank < degree + 1:
        raise CalibrationError(f"rank-deficient design at degree {degree}")
    coefficients = tuple(float(c) for c in final.convert().coef)
    if not all(map(math.isfinite, coefficients)):
        raise CalibrationError(f"polynomial fit has non-finite coefficients {coefficients}")
    pred = Polynomial(coefficients)(xs)
    sst = float(np.sum((ys - ys.mean()) ** 2))
    sse = float(np.sum((ys - pred) ** 2))
    if sst == 0.0 and sse > 0.0:
        raise CalibrationError("the sampled X2 curve is flat: every constant gives the same X2")
    r_squared = 1.0 if sst == 0.0 else 1.0 - sse / sst
    return PolynomialFit(degree, coefficients, r_squared)


def find_c_opt(coefficients, interval: tuple[float, float]) -> tuple[float, float]:
    """Global minimum of a polynomial over a closed interval.

    Dense evaluation at step <= 1e-4 plus the real critical points of the
    polynomial; exact ties resolve to the smaller abscissa. The returned
    value is never larger than the polynomial at any dense-grid point. An
    interval wider than 1000 (over 10^7 + 1 dense points) is an error, as is
    a polynomial or slope that overflows there.
    """
    lo, hi = (_checked(_finite, interval[i], "interval end") for i in (0, 1))
    if not lo < hi:
        raise CalibrationError(f"invalid interval ({lo}, {hi})")
    if not hi - lo <= 1000.0:  # 10^7 dense steps of 1e-4
        raise CalibrationError(f"interval ({lo}, {hi}) wider than 1000: too many dense points")
    coefs = [_checked(_finite, c, "coefficient") for c in coefficients]
    if len(coefs) < 2:
        raise CalibrationError("polynomial degree must be >= 1")
    poly = Polynomial(coefs)

    xs = np.linspace(lo, hi, int(math.ceil((hi - lo) / 1e-4)) + 1)
    with np.errstate(all="ignore"):  # an overflow raises CalibrationError, not a warning
        dense, slope = poly(xs), poly.deriv()
        if not (np.isfinite(dense).all() and np.isfinite(slope.coef).all()):
            raise CalibrationError(f"the polynomial or its slope overflows on ({lo}, {hi})")
        candidates = [float(xs[int(np.argmin(dense))])]  # linspace returns lo and hi exactly
        for root in slope.roots():
            if abs(root.imag) < 1e-9 and lo <= root.real <= hi:
                candidates.append(float(root.real))
        values = [(float(poly(c)), c) for c in candidates]
    if not all(math.isfinite(value) for value, _ in values):
        raise CalibrationError(f"the polynomial overflows on ({lo}, {hi})")
    x2_min, c_opt = min(values)  # the smallest value, then the smallest abscissa
    return c_opt, x2_min


def run_calibration(grid: SimulationGrid, c_grid=None, folds: int = 10,
                    max_degree: int = 6, max_workers: int | None = None) -> CalibrationCurve:
    """Evaluate the discrepancy curve, smooth it, and locate the optimum."""
    cs = default_c_grid() if c_grid is None else c_grid
    points = evaluate_x2_curve(cs, grid, max_workers=max_workers)
    fit = fit_polynomial_cv(points, max_degree=max_degree, folds=folds, seed=grid.seed)
    c_opt, x2_min = find_c_opt(fit.coefficients, (points[0][0], points[-1][0]))
    return CalibrationCurve(
        c_points=tuple(c for c, _ in points),
        x2_points=tuple(v for _, v in points),
        fitted_degree=fit.degree,
        coefficients=fit.coefficients,
        r_squared=fit.r_squared,
        c_opt=c_opt,
        x2_min=x2_min,
    )
