"""Published Monte Carlo reference values for the mean estimated effective d.f.

The four grids below are published averages over 10000 replications of
chi-square component draws on K in {2, 4, 6, 8, 10, 20, 40, 160} by nu in
{1, 3, 5, 7, 9, 15, 30, 80}, one grid per estimator variant. They ship with
the package so that `effdof reproduce --diff` can compare a fresh simulation
against them offline. Values carry the two-decimal precision they were
published with; comparisons should allow Monte Carlo noise on both sides.
"""

from __future__ import annotations

from .estimators import EstimatorVariant

__all__ = [
    "REFERENCE_K_VALUES",
    "REFERENCE_NU_VALUES",
    "REFERENCE_TABLES",
    "REFERENCE_X2",
]

REFERENCE_K_VALUES = (2, 4, 6, 8, 10, 20, 40, 160)
REFERENCE_NU_VALUES = (1, 3, 5, 7, 9, 15, 30, 80)

_SATTERTHWAITE_ROWS = {
    2: (1.42, 4.98, 8.77, 12.63, 16.53, 28.40, 58.22, 158.10),
    4: (2.19, 8.79, 16.06, 23.67, 31.37, 54.98, 114.50, 314.24),
    6: (2.93, 12.45, 23.36, 34.67, 46.20, 81.49, 170.80, 470.27),
    8: (3.66, 16.14, 30.54, 45.51, 60.94, 107.98, 227.04, 626.48),
    10: (4.36, 19.86, 37.77, 56.43, 75.70, 134.34, 283.21, 782.49),
    20: (7.81, 37.96, 73.39, 110.88, 149.31, 266.92, 564.55, 1563.00),
    40: (14.63, 74.08, 145.17, 219.90, 296.66, 531.68, 1127.06, 3124.05),
    160: (54.79, 290.21, 573.48, 873.04, 1180.50, 2119.89, 4502.64, 12489.85),
}

_VD2025_ROWS = {
    2: (1.42, 4.97, 8.77, 12.61, 16.55, 28.36, 58.20, 158.04),
    4: (3.95, 11.95, 19.88, 27.76, 35.71, 59.68, 119.49, 319.42),
    6: (6.28, 18.35, 30.15, 42.11, 54.06, 89.99, 179.74, 479.62),
    8: (8.48, 24.58, 40.46, 56.34, 72.19, 120.17, 239.90, 639.62),
    10: (10.71, 30.75, 50.51, 70.34, 90.30, 150.06, 300.02, 799.78),
    20: (21.23, 61.00, 100.87, 140.91, 180.51, 300.37, 600.03, 1599.88),
    40: (41.71, 121.32, 200.89, 280.83, 360.65, 600.35, 1200.25, 3199.69),
    160: (162.21, 481.46, 801.11, 1120.34, 1440.82, 2400.28, 4800.55, 12800.27),
}

_C224_ROWS = {
    2: (2.00, 6.05, 10.01, 13.99, 18.00, 29.93, 59.83, 159.83),
    4: (4.22, 12.28, 20.23, 28.21, 36.09, 60.06, 119.97, 319.78),
    6: (6.41, 18.53, 30.32, 42.21, 54.20, 90.03, 179.89, 479.87),
    8: (8.51, 24.59, 40.46, 56.36, 72.22, 120.09, 239.94, 639.94),
    10: (10.72, 30.62, 50.56, 70.44, 90.31, 150.17, 299.88, 799.80),
    20: (21.11, 60.89, 100.71, 140.50, 180.28, 300.02, 600.16, 1600.04),
    40: (41.63, 121.18, 200.69, 280.73, 360.63, 600.30, 1199.88, 3199.90),
    160: (161.96, 481.45, 801.08, 1120.87, 1440.76, 2400.07, 4800.32, 12799.96),
}

_C269_ROWS = {
    2: (1.80, 5.71, 9.67, 13.61, 17.56, 29.53, 59.44, 159.38),
    4: (3.93, 11.92, 19.88, 27.76, 35.71, 59.66, 119.46, 319.33),
    6: (6.05, 18.09, 29.94, 41.93, 53.74, 89.57, 179.53, 479.26),
    8: (8.23, 24.09, 40.09, 55.99, 71.85, 119.68, 239.55, 639.31),
    10: (10.36, 30.37, 50.10, 69.99, 89.82, 149.69, 299.41, 799.46),
    20: (20.76, 60.47, 100.04, 139.89, 180.16, 299.44, 599.75, 1599.48),
    40: (41.12, 120.55, 200.39, 280.16, 359.85, 599.66, 1199.46, 3199.37),
    160: (161.96, 481.15, 800.70, 1119.76, 1440.00, 2399.63, 4799.90, 12798.99),
}


def _as_cells(rows: dict) -> dict[tuple[int, int], float]:
    return {
        (k, nu): rows[k][j]
        for k in REFERENCE_K_VALUES
        for j, nu in enumerate(REFERENCE_NU_VALUES)
    }


#: table id -> {(K, nu): published mean estimated d.f.}
REFERENCE_TABLES: dict[str, dict[tuple[int, int], float]] = {
    "1": _as_cells(_SATTERTHWAITE_ROWS),
    "2": _as_cells(_VD2025_ROWS),
    "3": _as_cells(_C224_ROWS),
    "4": _as_cells(_C269_ROWS),
}

#: Published pseudo chi-square summary: (variant, X2). The grid behind
#: these values is not identified; it is not the 8x8 grid above, so they are
#: not comparable to `pseudo_x2` on that grid (the published c=2.69 cells
#: above alone give about 0.23 there, against 0.02016 here).
REFERENCE_X2: tuple[tuple[EstimatorVariant, float], ...] = (
    (EstimatorVariant.satterthwaite(), 13.27251),
    (EstimatorVariant.von_davier_2025(), 0.31631),
    (EstimatorVariant.adjusted(2.25, 0), 0.06412),
    (EstimatorVariant.adjusted(2.69, 0), 0.02016),
)
