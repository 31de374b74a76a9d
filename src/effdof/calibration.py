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
from functools import reduce

import numpy as np

from .estimators import CalibrationError, EstimatorVariant, _finite, _integer, _shrink
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

# Most constants a C grid may hold, each a row of the fit's 8-column design (64 MB at the limit).
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


def default_c_grid(start: float = 2.01, stop: float = 3.19, step: float = 0.01) -> list[float]:
    """Evenly spaced constants covering the search interval."""
    start, stop, step = (_finite(v, name, error=CalibrationError) for v, name in
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
    cs = sorted({_finite(c, "constant", 0.0, error=CalibrationError) for c in c_grid})
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
    folds, with ties (within 1e-12 of X2 at the unit scale below) resolved to
    the smallest degree. Folds are formed by shuffling the points once with
    ``seed`` and dealing them round-robin, so the partition is deterministic.
    Each fit solves numpy's ``polyfit`` problem on the span [lo, hi] mapped
    onto [-1, 1], by one Householder QR per group of folds (``_least_squares``),
    and ``r_squared`` is 1 - SSE/SST of the winning degree's fit on all points.
    In the reported powers of C the k-th coefficient carries ``(2 / (hi - lo))**k``,
    and a span that puts this beyond the normal doubles at the chosen degree is
    an error. X2 is fit divided by the power of two that puts its largest
    magnitude in [0.5, 1), which is exact: any finite X2 fits, and a power-of-two
    factor on X2 changes no degree. Coefficients beyond the doubles are an error.
    """
    pts = list(points)
    n = len(pts)
    max_degree = _integer(max_degree, "max_degree", 1, error=CalibrationError)
    folds = _integer(folds, "folds", 2, error=CalibrationError)
    seed = _integer(seed, "seed", -math.inf, error=CalibrationError)
    if n < folds:
        raise CalibrationError(f"need at least {folds} points, got {n}")
    xs = np.asarray([_finite(p[0], "C", error=CalibrationError) for p in pts])
    ys = np.asarray([_finite(p[1], "X2", error=CalibrationError) for p in pts])
    # Least squares is linear in ys: fit them at unit scale, so that no square
    # or sum overflows, and scale the coefficients back by the same power of two.
    shift = math.frexp(float(np.abs(ys).max()))[1]
    ys = np.ldexp(ys, -shift)
    # The fit maps [lo, hi] onto [-1, 1] by t = off + scl * C, as numpy.polynomial does.
    lo, hi = float(xs.min()), float(xs.max())
    off, scl = ((-hi - lo) / (hi - lo), 2.0 / (hi - lo)) if hi > lo else (0.0, 0.0)
    if not (0.0 < scl < math.inf and math.isfinite(off)):
        raise CalibrationError(f"cannot map the sampled span [{lo!r}, {hi!r}] onto [-1, 1]")
    if ys.min() == ys.max():  # the mean of equal doubles need not equal them, so sst may be > 0
        raise CalibrationError("the sampled X2 curve is flat: every constant gives the same X2")

    # Reduced as ``substream`` reduces it, so any seed a grid admits works here.
    order = np.random.default_rng(seed & _MASK64).permutation(n)
    fold_ids = (np.arange(n) % folds)[np.argsort(order)]  # point order[i] goes to fold i % folds
    # Above n - ceil(n / folds) - 1, the smallest training fold's design is rank-deficient.
    max_degree = min(max_degree, n - -(-n // folds) - 1)
    t = off + scl * xs
    group = max(1, 2**20 // (n * (max_degree + 2)))  # folds per QR: about 8 MB of design, or one
    # Each group's training sets, then the degrees that every group estimates.
    cv_fits = zip(*(list(_least_squares(t, ys, fold_ids != np.arange(folds)[i:i + group, None],
                                        max_degree)) for i in range(0, folds, group)))
    cv_rmse = [float(np.mean(np.sqrt(np.bincount(fold_ids, (_horner(coef[fold_ids].T, t) - ys) ** 2)
                                     / np.bincount(fold_ids))))
               for coef in map(np.concatenate, cv_fits)]  # each point under its own fold's fit
    best = min(cv_rmse, default=math.inf)
    if not math.isfinite(best):
        raise CalibrationError("no degree is estimable with the given folds")
    degree = 1 + next(i for i, v in enumerate(cv_rmse) if v <= best + 1e-12)
    if not -1022 <= degree * math.log2(scl) < 1024:
        raise CalibrationError(f"span [{lo!r}, {hi!r}] too wide or narrow for degree {degree}")
    fits = list(_least_squares(t, ys, np.ones((1, n), dtype=bool), degree))
    if len(fits) < degree:
        raise CalibrationError(f"rank-deficient design at degree {degree}")
    unit = [0.0] * (degree + 1)  # in powers of C: Horner's rule on polynomials in t
    for c in fits[-1][0, ::-1].tolist():
        unit = [c + unit[0] * off] + [u * off + v * scl for u, v in zip(unit[1:], unit)]
    with np.errstate(over="ignore"):
        coefficients = tuple(float(c) for c in np.ldexp(unit, shift))
    if not all(map(math.isfinite, coefficients)):
        raise CalibrationError(f"polynomial fit has non-finite coefficients {coefficients}")
    sse, sst = (float(np.sum((ys - fitted) ** 2)) for fitted in (_horner(unit, xs), ys.mean()))
    return PolynomialFit(degree, coefficients, 1.0 - sse / sst)


def _horner(coefficients, x):
    """The polynomial with ascending ``coefficients`` at ``x``, by Horner's rule."""
    return reduce(lambda value, c: value * x + c, coefficients[-2::-1], coefficients[-1])


def _least_squares(t, y, sets, degree: int):
    """Yield polyfit's coefficients on each row set at degree 1, 2, ... ``degree``.

    ``sets`` is a boolean (sets, points) array; rows outside a set are zeroed, which changes
    no solution. As in polyfit, each column is scaled by its 2-norm over the set, and a degree
    stops the yield when some set's |R_jj| of its block is at most rows * eps * max |R_ii|.
    Degree d solves the leading block of R and Q^T y: (sets, degree + 1) coefficients, 0 above d.
    """
    powers = np.cumprod(np.broadcast_to(t, (degree, len(t))), axis=0)  # as polyvander builds them
    a = np.vstack([np.ones_like(t), powers, y]) * sets[:, None, :]
    scale = np.sqrt((a[:, :-1] * a[:, :-1]).sum(axis=2))
    scale[scale == 0.0] = 1.0
    a[:, :-1] /= scale[:, :, None]
    _householder(a)
    diag = np.abs(np.diagonal(a, axis1=1, axis2=2))
    tol = sets.sum(axis=1) * np.finfo(float).eps
    for d in range(1, degree + 1):
        if (diag[:, :d + 1].min(axis=1) <= tol * diag[:, :d + 1].max(axis=1)).any():
            return  # a higher degree keeps this block
        coef = np.zeros((len(a), degree + 1))
        for i in range(d, -1, -1):  # back substitution; coef[:, :i + 1] is still 0
            coef[:, i] = (a[:, -1, i] - (a[:, :-1, i] * coef).sum(axis=1)) / a[:, i, i]
        yield coef / scale


def _householder(a) -> None:
    """In place, the Householder QR of each a[s], by elementwise operations and sums only.

    a[s, k] is column k; it becomes column k of R in a[s, k, :k + 1], and the last, b, Q^T b.
    """
    for j in range(a.shape[1] - 1):
        x = a[:, j, j:]
        norm = np.sqrt((x * x).sum(axis=1))
        v = x.copy()
        v[:, 0] += np.where(x[:, 0] < 0.0, -norm, norm)  # x - alpha e_1, alpha = -sign(x_0) |x|
        beta = 2.0 / np.maximum((v * v).sum(axis=1), np.finfo(float).tiny)  # v = 0 changes nothing
        for column in a[:, j:, j:].transpose(1, 0, 2):  # H = I - beta v v^T
            column -= (beta * (v * column).sum(axis=1))[:, None] * v


def _sign_changes(coefficients, lo: float, hi: float):
    """Yield the two adjacent doubles around each sign change of a polynomial in [lo, hi].

    The sign changes of its derivative, found the same way down to a linear one, split
    [lo, hi] into monotone pieces; each piece whose ends differ in sign is bisected until
    its midpoint equals an end.
    """
    n = len(coefficients) - 1  # (k / n) c_k: a multiple of the derivative whose terms stay finite
    knots = [lo, hi] if n < 2 else [
        lo, *_sign_changes([k / n * c for k, c in enumerate(coefficients)][1:], lo, hi), hi]
    for a, b in zip(knots, knots[1:]):
        fa, fb = _horner(coefficients, a), _horner(coefficients, b)
        if fa < 0.0 < fb or fb < 0.0 < fa:
            while a < (mid := a / 2 + b / 2) < b:
                a, b = (mid, b) if (_horner(coefficients, mid) < 0.0) == (fa < 0.0) else (a, mid)
            yield from (a, b)


def find_c_opt(coefficients, interval: tuple[float, float]) -> tuple[float, float]:
    """Global minimum of a polynomial over a closed interval.

    The candidates are the two ends and the two adjacent doubles around each
    sign change of the slope inside the interval, found by bracketing
    (``_sign_changes``), so exact to the last bit; they hold the polynomial's
    global minimum there. The smallest value wins, then the smaller abscissa.
    A polynomial or slope that overflows there is an error.
    """
    lo, hi = (_finite(interval[i], "interval end", error=CalibrationError) for i in (0, 1))
    if not lo < hi:
        raise CalibrationError(f"invalid interval ({lo}, {hi})")
    coefs = [_finite(c, "coefficient", error=CalibrationError) for c in coefficients]
    _integer(len(coefs) - 1, "polynomial degree", 1, error=CalibrationError)
    slope = [k * c for k, c in enumerate(coefs)][1:]
    if not all(map(math.isfinite, slope)):
        raise CalibrationError(f"the slope of the polynomial overflows on ({lo}, {hi})")
    values = [(_horner(coefs, c), c) for c in [lo, hi, *_sign_changes(slope, lo, hi)]]
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
