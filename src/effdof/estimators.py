"""Effective degrees of freedom for weighted syntheses of variance components.

A synthesis is a weighted sum ``sum_k w_k * S_k^2`` of independent variance
estimates, each carrying its own degrees of freedom ``nu_k``. The classic
moment-matching estimate of the effective d.f. of that sum,

    (sum_k w_k S_k^2)^2 / sum_k (w_k S_k^2)^2 / nu_k,

is biased downward when the component d.f. are small. The adjusted variants
implemented here replace ``nu_k`` with ``nu_k + 2`` in the denominator and
divide the ratio by a shrink term ``1 + c / ((K - p) * nu_bar_w)``, where
``nu_bar_w`` is the weighted mean of the component d.f. Both corrections
vanish as the component d.f. or the number of components grow, so every
variant agrees with the classic estimator in the large-sample limit.

Every estimator is invariant under rescaling all weights by a common
positive constant, and under rescaling all component variances by a common
positive constant. The implementation exploits both: each term ``w_k S_k^2``
is divided by the largest one before the squares are formed, and a term
outside the normal double range is rebuilt from binary mantissas and
exponents, so no intermediate overflows or underflows at any representable
scale.

All functions are pure and safe to call from any number of threads.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

__all__ = [
    "DEFAULT_REPLICATES",
    "DEFAULT_SEED",
    "RECOMMENDED_C",
    "AdjustmentConfig",
    "CalibrationError",
    "DegenerateSynthesisError",
    "DfEstimate",
    "EstimatorVariant",
    "NoComponentsError",
    "SynthesisError",
    "VarianceComponent",
    "adjusted_df",
    "recommended_df",
    "satterthwaite_df",
    "vondavier2025_df",
    "weighted_mean_df",
]

#: Default correction constant for the p = 0 adjusted estimator.
RECOMMENDED_C = 2.24

#: Seed and replicates per simulation cell, kept here so that the CLI's parser needs no numpy.
DEFAULT_SEED = 1
DEFAULT_REPLICATES = 10_000


class SynthesisError(ValueError):
    """Invalid or degenerate input to an effective-d.f. computation."""


class NoComponentsError(SynthesisError):
    """The component list is empty."""


class DegenerateSynthesisError(SynthesisError):
    """Every component variance is zero, so the defining ratio is 0/0."""


class CalibrationError(SynthesisError):
    """Invalid input to the calibration pipeline."""


def _finite(value, name: str, minimum: float = -math.inf, *, error=SynthesisError) -> float:
    """``value`` as a finite float >= ``minimum``, else ``error``; bools, numpy's too, fail."""
    try:
        if type(value) is bool or getattr(getattr(value, "dtype", None), "kind", "") == "b":
            raise TypeError
        x = float(value)
    except (TypeError, ValueError):
        raise error(f"{name} must be a number, got {value!r}") from None
    except OverflowError:  # its repr may exceed Python's digit limit
        raise error(f"{name} must be finite, got an integer beyond the doubles") from None
    if not math.isfinite(x):
        raise error(f"{name} must be finite, got {value!r}")
    if x < minimum:
        raise error(f"{name} must be >= {minimum:g}, got {value!r}")
    return x


# The upper bound of every count and d.f., with the reason it holds.
_DRAWS = (2**53, "2^53, beyond which a count is not exact as a double")


def _integer(value, name: str, minimum: float, maximum=(math.inf, ""), *,
             error=SynthesisError) -> int:
    """``value`` as an int in [minimum, maximum[0]], else ``error``; bools and 2.0 fail."""
    if type(value) is not int and (type(value) is bool or not isinstance(value, numbers.Integral)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value!r}")
    if value > maximum[0]:  # its repr may exceed Python's digit limit
        raise error(f"{name} must be <= {maximum[0]!r}, {maximum[1]}")
    return int(value)


@dataclass(frozen=True)
class VarianceComponent:
    """One synthesis component: positive weight, variance estimate, integer d.f.

    Zero weights are rejected; a zero-weight component contributes nothing to
    the synthesis and should be dropped by the caller. Negative weights could
    produce a negative synthesized variance and are rejected outright.
    Component d.f. must be positive integers, matching the chi-square model
    under which the adjustment was derived, and at most 2^53, so that
    ``nu + 2`` is exact as a double. ``s2 = 0`` is accepted (the component
    then contributes nothing to either sum).
    """

    weight: float
    s2: float
    df: int

    def __post_init__(self) -> None:
        w = _finite(self.weight, "weight")
        if w <= 0.0:
            raise SynthesisError(f"weight must be > 0, got {self.weight!r}")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "s2", _finite(self.s2, "s2", 0.0))
        object.__setattr__(self, "df", _integer(self.df, "df", 1, _DRAWS))


@dataclass(frozen=True)
class AdjustmentConfig:
    """Parameters of the shrink term ``1 + c / ((K - p) * nu_bar_w)``.

    ``c = 0`` is legal and selects the denominator-only variant (the
    ``nu_k + 2`` denominator with no numerator shrinkage). The offset ``p``
    must be 0 or 1; with ``p = 1`` the synthesis needs at least two
    components.
    """

    c: float
    p: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _finite(self.c, "c", 0.0))
        object.__setattr__(self, "p", _integer(self.p, "p", 0, (1, "the offset is 0 or 1")))


# The two named members of the adjusted family.
_VD2025 = AdjustmentConfig(2.0, 1)
_RECOMMENDED = AdjustmentConfig(RECOMMENDED_C, 0)


@dataclass(frozen=True)
class DfEstimate:
    """An estimated effective d.f.; the caller chose the estimator, so only the value is kept."""

    value: float


def _as_components(components) -> tuple[VarianceComponent, ...]:
    comps = tuple(components)
    if not comps:
        raise NoComponentsError("no components")
    for item in comps:
        if not isinstance(item, VarianceComponent):
            raise TypeError(f"expected VarianceComponent, got {type(item).__name__}")
    return comps


def _ratio(comps: tuple[VarianceComponent, ...], plus_two: bool) -> float:
    # The ratio is invariant under a common factor on the terms w * s2, so
    # they are taken relative to the largest one before any square is formed.
    terms = [c.weight * c.s2 for c in comps]
    top = max(terms)
    if sys.float_info.min <= top < math.inf:
        terms = [t / top for t in terms]
    else:
        # A product left the normal double range: rebuild every term from
        # binary mantissas, whose products lie in [0.25, 1), and integer
        # exponents, so that nothing overflows or underflows on the way.
        parts = [(math.frexp(c.weight), math.frexp(c.s2)) for c in comps]
        parts = [(mw * ms, ew + es) for (mw, ew), (ms, es) in parts]
        top = max((e for m, e in parts if m), default=None)
        if top is None:
            raise DegenerateSynthesisError("degenerate synthesis: all component variances are zero")
        terms = [math.ldexp(m, e - top) for m, e in parts]
    # The top term is >= 1/4 and each d.f. <= 2^53: the denominator stays normal.
    offset = 2 if plus_two else 0
    return sum(terms) ** 2 / sum(t * t / (c.df + offset) for t, c in zip(terms, comps))


def weighted_mean_df(components) -> float:
    """Weighted average of the component d.f.: ``sum(w * df) / sum(w)``.

    Equals the plain arithmetic mean of the d.f. when all weights are equal.
    Every d.f. is at most 2^53, so the mean is finite for any number of components.
    """
    comps = _as_components(components)
    # Weights relative to the largest one keep both sums finite at any scale.
    top = max(c.weight for c in comps)
    wsum = sum(c.weight / top for c in comps)
    return sum(c.weight / top * c.df for c in comps) / wsum


def satterthwaite_df(components) -> DfEstimate:
    """Classic moment-matching effective d.f. of a weighted synthesis.

    Returns ``(sum_k w_k S_k^2)^2 / sum_k (w_k S_k^2)^2 / nu_k``. A single
    component recovers its own d.f.; K identical components give ``K * nu``.
    The value never exceeds ``sum_k nu_k`` (Cauchy-Schwarz).
    """
    comps = _as_components(components)
    return DfEstimate(_ratio(comps, plus_two=False))


def _shrink(c, k, nu_bar):
    """The shrink term ``1 + c / (K * nu_bar)``; ``c`` may be a numpy array of constants."""
    return 1.0 + c / (k * nu_bar)


def adjusted_df(components, config: AdjustmentConfig) -> DfEstimate:
    """Bias-corrected effective d.f. with the ``nu_k + 2`` denominator.

    The ratio ``(sum_k w_k S_k^2)^2 / sum_k (w_k S_k^2)^2 / (nu_k + 2)`` is
    divided by ``1 + c_eff / (K * nu_bar_w)`` where ``c_eff = c`` for p = 0
    and ``c_eff = c * K / (K - 1)`` for p = 1. The two offset
    parameterizations are algebraically identical under that substitution, so
    folding the offset into the constant keeps the documented equivalence
    exact in floating point as well; where ``c * K`` overflows, the p = 1
    term ``1 + c / ((K - 1) * nu_bar_w)`` is used as written.
    """
    comps = _as_components(components)
    if not isinstance(config, AdjustmentConfig):
        raise TypeError(f"expected AdjustmentConfig, got {type(config).__name__}")
    k = len(comps)
    if config.p == 1 and k < 2:
        raise SynthesisError("offset exceeds component count")
    ratio = _ratio(comps, plus_two=True)
    nu_bar = weighted_mean_df(comps)
    c_eff = config.c if config.p == 0 else config.c * k / (k - 1.0)
    if c_eff == math.inf:  # only p = 1 gets here
        c_eff, k = config.c, k - 1
    return DfEstimate(ratio / _shrink(c_eff, k, nu_bar))


def vondavier2025_df(components) -> DfEstimate:
    """Adjusted estimate with c = 2 and offset p = 1 (von Davier, 2025).

    Requires at least two components.
    """
    return adjusted_df(components, _VD2025)


def recommended_df(components) -> DfEstimate:
    """Adjusted estimate at the recommended constant c = 2.24 with p = 0."""
    return adjusted_df(components, _RECOMMENDED)


@dataclass(frozen=True)
class EstimatorVariant:
    """One estimator of the family: Satterthwaite's ratio if ``config`` is None, else adjusted.

    Used wherever a method has to travel as data: simulation tables, the
    calibration study, and the CLI. Variants with identical parameters (for
    example vd2025 and adjusted(c=2, p=1)) share the same ``tag`` and produce
    identical simulation results. The tag selects no random stream: every
    variant's table is drawn from the same substreams.
    """

    label: str
    config: AdjustmentConfig | None = None

    def __post_init__(self) -> None:
        if self.config is not None and not isinstance(self.config, AdjustmentConfig):
            raise SynthesisError(f"config must be None or an AdjustmentConfig, got {self.config!r}")

    @classmethod
    def satterthwaite(cls) -> "EstimatorVariant":
        return cls("satterthwaite")

    @classmethod
    def adjusted(cls, c: float, p: int = 0) -> "EstimatorVariant":
        config = AdjustmentConfig(c, p)
        return cls(f"adjusted(c={config.c:g}, p={config.p})", config)

    @classmethod
    def von_davier_2025(cls) -> "EstimatorVariant":
        return cls("vd2025", _VD2025)

    @classmethod
    def recommended(cls) -> "EstimatorVariant":
        return cls.adjusted(RECOMMENDED_C)

    @property
    def tag(self) -> str:
        """Stable identifier of the parameters; parameter-identical variants share it."""
        cfg = self.config
        return "satterthwaite" if cfg is None else f"adjusted(c={cfg.c!r},p={cfg.p})"

    def evaluate(self, components) -> DfEstimate:
        """Apply this variant to a list of components."""
        if self.config is None:
            return satterthwaite_df(components)
        return adjusted_df(components, self.config)
