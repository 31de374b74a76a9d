"""Adapters that build variance components for common composite-variance settings.

Each adapter documents how its inputs map onto (weight, s2, df) triples and
then delegates to the adjusted estimator; the adapters contain no estimation
math of their own. The component constructions are exposed as functions so
callers can inspect or reuse them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .estimators import (
    _DOUBLES,
    _RECOMMENDED,
    AdjustmentConfig,
    DfEstimate,
    SynthesisError,
    VarianceComponent,
    _finite,
    _integer,
    adjusted_df,
)

__all__ = [
    "JackknifeDeviations",
    "RubinVariance",
    "WelchInput",
    "jackknife_components",
    "jackknife_df",
    "rubin_components",
    "rubin_df",
    "welch_components",
    "welch_df",
]

@dataclass(frozen=True)
class RubinVariance:
    """Inputs of the multiple-imputation total variance.

    Total variance = sampling variance + ((m + 1) / m) * imputation variance,
    so the synthesis weights are (1, (m + 1) / m). The imputation variance is
    a sample variance across m per-imputation estimates and therefore carries
    m - 1 degrees of freedom.
    """

    sampling_s2: float
    sampling_df: int
    imputation_s2: float
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sampling_s2", _finite(self.sampling_s2, "sampling_s2", 0.0))
        object.__setattr__(self, "sampling_df",
                           _integer(self.sampling_df, "sampling_df", 1, _DOUBLES))
        object.__setattr__(self, "imputation_s2",
                           _finite(self.imputation_s2, "imputation_s2", 0.0))
        object.__setattr__(self, "m", _integer(self.m, "m", 2, _DOUBLES))


def rubin_components(inputs: RubinVariance) -> list[VarianceComponent]:
    """Component list for the multiple-imputation total variance."""
    return [
        VarianceComponent(1.0, inputs.sampling_s2, inputs.sampling_df),
        VarianceComponent((inputs.m + 1) / inputs.m, inputs.imputation_s2, inputs.m - 1),
    ]


def rubin_df(inputs: RubinVariance, config: AdjustmentConfig | None = None) -> DfEstimate:
    """Adjusted effective d.f. of the multiple-imputation total variance."""
    return adjusted_df(rubin_components(inputs), _RECOMMENDED if config is None else config)


@dataclass(frozen=True)
class WelchInput:
    """Two-sample inputs for the unequal-variance (Welch) pooled d.f.

    The pooled variance weights each sample variance by 1 / N_k. Component
    d.f. default to N_k - 1; they may be passed explicitly but can never
    exceed it.
    """

    s2_1: float
    s2_2: float
    n1: int
    n2: int
    df1: int | None = None
    df2: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "s2_1", _finite(self.s2_1, "s2_1", 0.0))
        object.__setattr__(self, "s2_2", _finite(self.s2_2, "s2_2", 0.0))
        object.__setattr__(self, "n1", _integer(self.n1, "n1", 2, _DOUBLES))
        object.__setattr__(self, "n2", _integer(self.n2, "n2", 2, _DOUBLES))
        df1 = self.n1 - 1 if self.df1 is None else self.df1
        df2 = self.n2 - 1 if self.df2 is None else self.df2
        object.__setattr__(self, "df1", _integer(df1, "df1", 1))
        object.__setattr__(self, "df2", _integer(df2, "df2", 1))
        if self.df1 > self.n1 - 1:
            raise SynthesisError(f"df1 must be <= n1 - 1 = {self.n1 - 1}, got {self.df1}")
        if self.df2 > self.n2 - 1:
            raise SynthesisError(f"df2 must be <= n2 - 1 = {self.n2 - 1}, got {self.df2}")


def welch_components(inputs: WelchInput) -> list[VarianceComponent]:
    """Component list for the sample-size weighted pooled variance."""
    return [
        VarianceComponent(1.0 / inputs.n1, inputs.s2_1, inputs.df1),
        VarianceComponent(1.0 / inputs.n2, inputs.s2_2, inputs.df2),
    ]


def welch_df(inputs: WelchInput, config: AdjustmentConfig | None = None) -> DfEstimate:
    """Adjusted effective d.f. for the two-sample unequal-variance test."""
    return adjusted_df(welch_components(inputs), _RECOMMENDED if config is None else config)


@dataclass(frozen=True)
class JackknifeDeviations:
    """Precomputed jackknife deviations (overall estimate minus each replicate).

    Each squared deviation is an independent single-d.f. variance
    contribution, so the synthesis uses unit weights and df = 1 throughout.
    """

    deviations: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            if isinstance(self.deviations, (str, bytes, bytearray)):
                raise TypeError  # iteration would read its characters as numbers
            devs = tuple(_finite(d, "deviations") for d in self.deviations)
        except TypeError:
            raise SynthesisError(f"deviations must be a sequence of numbers, "
                                 f"got {self.deviations!r}") from None
        for d in devs:  # each s2 = d * d must stay in the doubles too
            if not math.isfinite(d * d):
                raise SynthesisError(f"deviations must have a finite square, got {d!r}")
        if len(devs) < 2:
            raise SynthesisError(f"need at least 2 deviations, got {len(devs)}")
        object.__setattr__(self, "deviations", devs)


def jackknife_components(inputs: JackknifeDeviations) -> list[VarianceComponent]:
    """Component list with one unit-weight, single-d.f. term per deviation."""
    return [VarianceComponent(1.0, d * d, 1) for d in inputs.deviations]


def jackknife_df(inputs: JackknifeDeviations, config: AdjustmentConfig | None = None) -> DfEstimate:
    """Adjusted effective d.f. of a jackknife variance estimate (default c = 2.24, p = 0).

    With df = 1 everywhere the denominator terms are d^4 / 3, so for p = 0
    this equals 3 / (1 + c / K) times the classic ratio of the squared deviations.
    Balanced repeated replication has no adapter. Its half-sample estimates
    are combinations of the same cluster means, so their squared deviations
    are correlated and the independence these estimators assume fails.
    """
    return adjusted_df(jackknife_components(inputs), _RECOMMENDED if config is None else config)
