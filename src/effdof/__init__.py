"""Effective degrees of freedom for weighted syntheses of variance components.

Library layout:
  estimators    the estimator family (classic and bias-corrected variants)
  simulation    chi-square Monte Carlo cells, tables, pseudo chi-square
  calibration   search for the correction constant minimizing the discrepancy
  applications  adapters for multiple imputation, the Welch test, jackknife
  cli           command-line front end (`effdof`)

The package exports exactly the names each of the first four modules lists in
its own ``__all__``; every public name is declared once, in its module.
``estimators`` and ``applications`` need no numpy and are imported with the
package; ``simulation`` and ``calibration`` are imported on first use.
"""

import importlib

from . import applications, estimators
from .applications import *  # noqa: F403
from .estimators import *  # noqa: F403

__version__ = "0.1.0"


def __getattr__(name):
    """Import the numpy modules on the first name not yet bound here (PEP 562)."""
    # ``from effdof import cli`` asks for ``cli`` first; it and ``reference`` need no numpy.
    if "__all__" not in globals() and name not in ("cli", "reference"):
        # Not ``from . import``: it asks hasattr(effdof, ...), which calls this hook again.
        lazy = [importlib.import_module(f"{__name__}.{m}") for m in ("simulation", "calibration")]
        globals().update({n: getattr(m, n) for m in lazy for n in m.__all__})
        globals()["__all__"] = sorted(applications.__all__ + estimators.__all__
                                      + [n for m in lazy for n in m.__all__])
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    __getattr__("__all__")
    return sorted(globals())
