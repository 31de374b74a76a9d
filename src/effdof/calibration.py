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
substream, and ``evaluate_x2_curve([c], grid)`` and ``pseudo_x2`` of the
adjusted(c, 0) table add their cells through one reduction; they differ only
by rounding in the cell means (divided by the shrink term here, multiplied by
the estimator's factor there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import (CalibrationError, EstimatorVariant, SynthesisError, _finite, _integer,
                         _shrink)
from .simulation import _MASK64, SimulationGrid, _x2, generate_table

__all__ = [
    "CalibrationCurve",
    "PolynomialFit",
    "default_c_grid",
    "evaluate_x2_curve",
    "find_c_opt",
    "fit_polynomial_cv",
    "run_calibration",
]

# Most constants a C grid may hold, each a row of the fit's 7-column design (56 MB at the limit).
_MAX_C_POINTS = 10**6


@dataclass(frozen=True)
class PolynomialFit:
    """Cross-validated least-squares polynomial, ascending powers of x."""

    degree: int
    coefficients: tuple[float, ...]
    r_squared: float


@dataclass(frozen=True)
class CalibrationCurve:
    """Sampled (C, X2) points, their polynomial fit, and the fit's minimizer.

    ``x2_min`` is the fitted polynomial's minimum over the sampled span, not a
    sampled X2, so it can fall below 0 where the curve touches 0.
    """

    points: tuple[tuple[float, float], ...]
    fit: PolynomialFit
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
    steps = (stop - start) / step + 1e-9  # a float: inf if the step is tiny enough
    if not steps < _MAX_C_POINTS:  # floor(steps) + 1 constants
        raise CalibrationError(f"C grid of {steps:.4g} steps exceeds {_MAX_C_POINTS} constants")
    n = int(math.floor(steps)) + 1
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

    constants = np.asarray(cs)
    x2 = _x2((cell.mean / _shrink(constants, k, float(nu)), cell.expected)
             for (k, nu), cell in base.items())
    return list(zip(cs, x2.tolist()))


def fit_polynomial_cv(points, max_degree: int = 6, folds: int = 10,
                      seed: int = 0) -> PolynomialFit:
    """Least-squares polynomial with the degree chosen by k-fold cross validation.

    Candidate degrees run from 1 to ``max_degree``, less any whose design is
    rank-deficient on some fold; the winner minimizes the mean RMSE over
    folds, with ties (within 1e-12) resolved to the smallest degree. Folds
    are formed by shuffling the points once with ``seed`` and dealing them
    round-robin, so the partition is deterministic. The winning degree is
    refit on all points; ``r_squared`` is 1 - SSE/SST of that final fit. The
    fit maps the span [lo, hi] onto [-1, 1]; in the reported powers of C the
    k-th coefficient carries ``(2 / (hi - lo))**k``, and a span that puts this
    beyond the normal doubles at the chosen degree is an error. X2 is fit
    divided by the power of two that puts its largest magnitude in [0.5, 1),
    which is exact, so any finite X2 fits; coefficients beyond the doubles are
    an error.
    """
    # Imported here, so that a process that fits nothing never loads numpy.polynomial.
    from numpy.polynomial import Polynomial
    from numpy.polynomial.polynomial import polyvander
    from numpy.polynomial.polyutils import mapdomain
    pts = list(points)
    n = len(pts)
    max_degree = _checked(_integer, max_degree, "max_degree", 1)
    folds = _checked(_integer, folds, "folds", 2)
    seed = _checked(_integer, seed, "seed")
    if n < folds:
        raise CalibrationError(f"need at least {folds} points, got {n}")
    xs = np.asarray([_checked(_finite, p[0], "C") for p in pts])
    ys = np.asarray([_checked(_finite, p[1], "X2") for p in pts])
    # Least squares is linear in ys: fit them at unit scale, so that no square
    # or sum overflows, and scale the coefficients back by the same power of two.
    shift = math.frexp(float(np.abs(ys).max()))[1]
    ys = np.ldexp(ys, -shift)
    # The fit maps [lo, hi] onto [-1, 1] by x * 2/(hi-lo) - (hi+lo)/(hi-lo);
    # LAPACK would take a map that is not finite, print to stdout and then fail.
    lo, hi = float(xs.min()), float(xs.max())
    if not (hi > lo and 0.0 < 2.0 / (hi - lo) < math.inf
            and math.isfinite((hi + lo) / (hi - lo))):
        raise CalibrationError(f"cannot map the sampled span [{lo!r}, {hi!r}] onto [-1, 1]")

    # Reduced as ``substream`` reduces it, so any seed a grid admits works here.
    order = np.random.default_rng(seed & _MASK64).permutation(n)
    fold_ids = np.empty(n, dtype=int)
    fold_ids[order] = np.arange(n) % folds
    # Above n - ceil(n / folds) - 1, the smallest training fold's design is rank-deficient.
    max_degree = min(max_degree, n - -(-n // folds) - 1)
    vander = polyvander(mapdomain(xs, np.array([lo, hi]), np.array([-1.0, 1.0])), max_degree)

    def solve(rows, degree: int):
        """polyfit's fit (unit-norm columns, rcond = rows * eps); None if rank-deficient."""
        design = vander[rows, :degree + 1]
        scale = np.sqrt(np.square(design).sum(axis=0))
        scale[scale == 0.0] = 1.0
        coef, _, rank, _ = np.linalg.lstsq(design / scale, ys[rows],
                                           rcond=len(design) * np.finfo(float).eps)
        return coef / scale if rank == degree + 1 else None

    try:
        cv_rmse = []
        for degree in range(1, max_degree + 1):
            errs = []
            for f in range(folds):
                coef = solve(fold_ids != f, degree)
                if coef is None:  # a degree some fold cannot estimate is skipped
                    errs.append(math.inf)
                    break
                resid = vander[fold_ids == f, :degree + 1] @ coef - ys[fold_ids == f]
                errs.append(math.sqrt(float(np.mean(resid ** 2))))
            cv_rmse.append(float(np.mean(errs)))

        best = min(cv_rmse, default=math.inf)
        if not math.isfinite(best):
            raise CalibrationError("no degree is estimable with the given folds")
        with np.errstate(over="ignore"):  # X2 near the subnormals: every degree ties
            tie = float(np.ldexp(1e-12, -shift))  # the 1e-12 tie at the scale of ys
        degree = 1 + next(i for i, v in enumerate(cv_rmse) if v <= best + tie)
        if not -1022 <= degree * math.log2(2.0 / (hi - lo)) < 1024:
            raise CalibrationError(f"span [{lo!r}, {hi!r}] too wide or narrow for degree {degree}")
        coef = solve(slice(None), degree)
    except np.linalg.LinAlgError as exc:
        raise CalibrationError(f"polynomial fit failed: {exc}") from None
    if coef is None:
        raise CalibrationError(f"rank-deficient design at degree {degree}")
    unit = Polynomial(coef, domain=[lo, hi]).convert().coef
    with np.errstate(over="ignore"):
        coefficients = tuple(float(c) for c in np.ldexp(unit, shift))
    if not all(map(math.isfinite, coefficients)):
        raise CalibrationError(f"polynomial fit has non-finite coefficients {coefficients}")
    pred = Polynomial(unit)(xs)
    sst = float(np.sum((ys - ys.mean()) ** 2))
    sse = float(np.sum((ys - pred) ** 2))
    if sst == 0.0 and sse > 0.0:
        raise CalibrationError("the sampled X2 curve is flat: every constant gives the same X2")
    r_squared = 1.0 if sst == 0.0 else 1.0 - sse / sst
    return PolynomialFit(degree, coefficients, r_squared)


def find_c_opt(coefficients, interval: tuple[float, float]) -> tuple[float, float]:
    """Global minimum of a polynomial over a closed interval.

    The candidates are the two ends and the real critical points inside the
    interval, which together hold the polynomial's global minimum there. The
    smallest value wins, then the smaller abscissa. A polynomial or slope
    that overflows there is an error.
    """
    lo, hi = (_checked(_finite, interval[i], "interval end") for i in (0, 1))
    if not lo < hi:
        raise CalibrationError(f"invalid interval ({lo}, {hi})")
    coefs = [_checked(_finite, c, "coefficient") for c in coefficients]
    if len(coefs) < 2:
        raise CalibrationError("polynomial degree must be >= 1")
    from numpy.polynomial import Polynomial  # as in fit_polynomial_cv
    poly = Polynomial(coefs)

    with np.errstate(all="ignore"):  # an overflow raises CalibrationError, not a warning
        slope = poly.deriv()
        if not np.isfinite(slope.coef).all():
            raise CalibrationError(f"the slope of the polynomial overflows on ({lo}, {hi})")
        candidates = [lo, hi] + [float(r.real) for r in slope.roots()
                                 if abs(r.imag) < 1e-9 and lo <= r.real <= hi]
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
    return CalibrationCurve(tuple(points), fit, c_opt, x2_min)
