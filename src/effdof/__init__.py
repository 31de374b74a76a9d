"""Effective degrees of freedom for weighted syntheses of variance components.

Library layout:
  estimators    the estimator family (classic and bias-corrected variants)
  simulation    chi-square Monte Carlo cells, tables, pseudo chi-square
  calibration   search for the correction constant minimizing the discrepancy
  applications  adapters for multiple imputation, the Welch test, jackknife
  cli           command-line front end (`effdof`)

The package exports exactly the names each of the first four modules lists in
its own ``__all__``; every public name is declared once, in its module.
"""

from . import applications, calibration, estimators, simulation
from .applications import *  # noqa: F403
from .calibration import *  # noqa: F403
from .estimators import *  # noqa: F403
from .simulation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(applications.__all__ + calibration.__all__
                 + estimators.__all__ + simulation.__all__)
