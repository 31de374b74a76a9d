"""Tests for the effective-d.f. estimator family.

Expected values in this module are hand evaluations of the defining ratios,
written out as the arithmetic expressions they came from.
"""

import inspect
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from effdof import (
    AdjustmentConfig,
    DegenerateSynthesisError,
    DfEstimate,
    EstimatorVariant,
    NoComponentsError,
    SynthesisError,
    VarianceComponent,
    adjusted_df,
    recommended_df,
    satterthwaite_df,
    vondavier2025_df,
    weighted_mean_df,
)
from conftest import make_components


def comps(*triples):
    return [VarianceComponent(w, s2, df) for w, s2, df in triples]


def _unchecked(component, field: str, value) -> VarianceComponent:
    """A valid component with one field set to a valid value, without re-checking it.

    Three times faster than the constructor, which keeps a test over 16k
    syntheses inside its time budget.
    """
    copy = object.__new__(VarianceComponent)
    copy.__dict__.update(vars(component))
    copy.__dict__[field] = value
    return copy


class TestVarianceComponent:
    def test_accepts_valid_triple(self):
        c = VarianceComponent(1.2, 0.0, 7)
        assert (c.weight, c.s2, c.df) == (1.2, 0.0, 7)

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_weight(self, weight):
        with pytest.raises(SynthesisError):
            VarianceComponent(weight, 1.0, 1)

    def test_rejects_negative_s2(self):
        with pytest.raises(SynthesisError):
            VarianceComponent(1.0, -0.5, 1)

    @pytest.mark.parametrize("df", [0, -3, 1.5, True, "4"])
    def test_rejects_bad_df(self, df):
        with pytest.raises(SynthesisError):
            VarianceComponent(1.0, 1.0, df)

    def test_rejects_df_beyond_2_53(self):
        assert VarianceComponent(1.0, 1.0, 2**53).df == 2**53
        for df in (2**53 + 1, 10**400):
            with pytest.raises(SynthesisError, match=r"^df must be <= 9007199254740992, 2\^53"):
                VarianceComponent(1.0, 1.0, df)

    @pytest.mark.parametrize("field", ["weight", "s2"])
    def test_integer_beyond_doubles_rejected(self, field):
        # float() raises OverflowError on such an int; 10**5000 has no repr either.
        for value in (10**400, 10**5000):
            with pytest.raises(SynthesisError, match=f"{field} must be finite"):
                VarianceComponent(**{"weight": 1, "s2": 1, "df": 3, field: value})

    def test_numpy_integer_df_accepted(self):
        c = VarianceComponent(1.0, 1.0, np.int64(4))
        assert c.df == 4 and isinstance(c.df, int)

    @pytest.mark.parametrize("field, value", [("weight", True), ("weight", False),
                                              ("s2", True), ("s2", False)])
    def test_bools_are_not_numbers(self, field, value):
        # True once became a weight or variance of 1.0, and False a variance of 0.0.
        with pytest.raises(SynthesisError, match=f"{field} must be a number"):
            VarianceComponent(**{"weight": 1, "s2": 1, "df": 3, field: value})

    @pytest.mark.parametrize("field, value", [("weight", np.True_), ("weight", np.False_),
                                              ("s2", np.True_), ("s2", np.False_),
                                              ("s2", np.array(True))])
    def test_numpy_bools_are_not_numbers(self, field, value):
        # float() reads numpy's bools as 1.0 and 0.0 where it refuses nothing.
        with pytest.raises(SynthesisError, match=f"{field} must be a number"):
            VarianceComponent(**{"weight": 1, "s2": 1, "df": 3, field: value})

    def test_numpy_numbers_are_numbers(self):
        component = VarianceComponent(np.float64(1.5), np.float32(2.0), np.int64(3))
        assert (component.weight, component.s2, component.df) == (1.5, 2.0, 3)
        assert type(component.weight) is float and type(component.s2) is float
        assert type(component.df) is int


class TestAdjustmentConfig:
    def test_zero_constant_is_legal(self):
        assert AdjustmentConfig(0.0, 0).c == 0.0

    def test_rejects_negative_constant(self):
        with pytest.raises(SynthesisError):
            AdjustmentConfig(-0.1, 0)

    def test_rejects_bad_offset(self):
        with pytest.raises(SynthesisError):
            AdjustmentConfig(2.24, 2)

    @pytest.mark.parametrize("p, message", [
        (-1, "p must be >= 0, got -1"),
        (1.0, "p must be an integer, got 1.0"),
        (True, "p must be an integer, got True"),
        ("1", "p must be an integer, got '1'"),
        (2, "p must be <= 1, the offset is 0 or 1"),
    ], ids=["-1", "1.0", "True", "1", "2"])
    def test_offset_must_be_an_integer_0_or_1(self, p, message):
        with pytest.raises(SynthesisError) as exc:
            AdjustmentConfig(2.24, p)
        assert type(exc.value) is SynthesisError and str(exc.value) == message

    def test_constant_beyond_doubles_rejected(self):
        with pytest.raises(SynthesisError, match="c must be finite"):
            AdjustmentConfig(10**400, 0)

    def test_numpy_integer_offset_accepted(self):
        config = AdjustmentConfig(2.24, np.int64(1))
        assert config.p == 1 and isinstance(config.p, int)

    @pytest.mark.parametrize("c", [True, False])
    def test_bool_constant_rejected(self, c):
        with pytest.raises(SynthesisError, match="c must be a number"):
            AdjustmentConfig(c, 0)

    @pytest.mark.parametrize("c", [np.True_, np.False_])
    def test_numpy_bool_constant_rejected(self, c):
        with pytest.raises(SynthesisError, match="c must be a number"):
            AdjustmentConfig(c, 0)


class TestWeightedMeanDf:
    def test_equal_components(self):
        assert weighted_mean_df(comps((1, 1, 1), (1, 1, 1))) == 1.0

    def test_weighted_average(self):
        # (1*10 + 1.2*4) / (1 + 1.2) = 14.8 / 2.2
        value = weighted_mean_df(comps((1, 1, 10), (1.2, 1, 4)))
        assert value == pytest.approx(14.8 / 2.2, rel=1e-15)

    def test_constant_df_is_weight_invariant(self):
        assert weighted_mean_df(comps((3, 1, 5), (1, 1, 5))) == 5.0

    def test_empty_list(self):
        with pytest.raises(NoComponentsError, match="no components"):
            weighted_mean_df([])

    @pytest.mark.parametrize("triples", [
        [(1, 1, 2**53)] * 2,
        [(1, 1, 2**53), (1e-300, 1, 1), (1, 2, 2**53 // 2)],
        [(3.0, 1, 2**53), (1.5, 1, 2**53 // 7 * 5)],
        [(1e300, 1, 2**53), (0.9e300, 1, 2**53 // 5)],
    ], ids=["largest-twice", "mixed", "unequal-weights", "huge-weights"])
    def test_d_f_at_2_53(self, triples):
        # The plain sum of w * df overflows at the huge weights, but the mean does not.
        components = comps(*triples)
        exact = (sum(Fraction(c.weight) * c.df for c in components)
                 / sum(Fraction(c.weight) for c in components))
        value = weighted_mean_df(components)
        assert math.isfinite(value)
        assert abs(Fraction(value) / exact - 1) <= 8 * sys.float_info.epsilon


class TestSatterthwaite:
    def test_single_component_returns_own_df(self):
        assert satterthwaite_df(comps((1, 5, 3))).value == 3.0

    def test_equal_pair_attains_two(self):
        # The K=2 ratio is maximal (= 2) exactly when the two s2 are equal.
        assert satterthwaite_df(comps((1, 1, 1), (1, 1, 1))).value == 2.0

    def test_hand_evaluated_ratio(self):
        # numerator (1*2 + 1.25*3)^2 = 33.0625
        # denominator 1*4/4 + 1.5625*9/6 = 3.34375
        est = satterthwaite_df(comps((1, 2, 4), (1.25, 3, 6)))
        assert est.value == pytest.approx(33.0625 / 3.34375, rel=1e-12)

    def test_identical_components_give_k_nu(self):
        assert satterthwaite_df(comps(*[(1, 2, 7)] * 4)).value == 28.0

    def test_all_zero_variances(self):
        with pytest.raises(DegenerateSynthesisError, match="degenerate synthesis"):
            satterthwaite_df(comps((1, 0, 3), (2, 0, 5)))

    @pytest.mark.parametrize("triples", [
        [(1, 1, 2**53)],
        [(1, 1, 2**53)] * 2,
        [(1, 1, 2**53), (1e-300, 1, 1), (1, 2, 2**53 // 2)],
        [(1e300, 3, 2**53), (0.9e300, 1e-300, 2**53 // 5)],
    ], ids=["single", "largest-twice", "mixed", "huge-terms"])
    def test_df_at_2_53(self, triples):
        # nu + 2 is still exact there, so both estimators match the exact ratios.
        components = comps(*triples)
        for value, exact in ((satterthwaite_df(components).value, _exact_df(components)),
                             (recommended_df(components).value, _exact_df(components, 2.24))):
            assert abs(Fraction(value) / exact - 1) <= 8 * sys.float_info.epsilon
        assert satterthwaite_df(comps((1, 1, 2**53))).value == 2.0**53

    def test_item_that_is_not_a_component_rejected(self):
        with pytest.raises(TypeError, match="expected VarianceComponent, got tuple"):
            satterthwaite_df([VarianceComponent(1, 1, 2), (1, 1, 2)])

    def test_method_label(self):
        # The result carries only its value.
        assert satterthwaite_df(comps((1, 1, 1))) == DfEstimate(1.0)

    def test_zero_s2_components_contribute_nothing(self):
        with_zero = satterthwaite_df(comps((1, 2, 4), (5, 0, 9), (1.25, 3, 6)))
        without = satterthwaite_df(comps((1, 2, 4), (1.25, 3, 6)))
        assert with_zero.value == pytest.approx(without.value, rel=1e-15)


class TestAdjusted:
    def test_equal_pair_recommended_constant(self):
        # (1 + 2.24/2)^-1 * (4 / (2/3)) = 6 / 2.12
        est = adjusted_df(comps((1, 1, 1), (1, 1, 1)), AdjustmentConfig(2.24, 0))
        assert est.value == pytest.approx(6.0 / 2.12, rel=1e-12)

    def test_equal_pair_offset_variant_hits_two(self):
        # (1 + 2)^-1 * 6 = 2, the design point of the offset adjustment
        est = adjusted_df(comps((1, 1, 1), (1, 1, 1)), AdjustmentConfig(2.0, 1))
        assert est.value == 2.0

    @pytest.mark.parametrize("nu", [1, 2, 5, 12, 49])
    def test_single_component_denominator_only(self, nu):
        # c = 0 leaves only the nu + 2 denominator: a single component gives nu + 2
        est = adjusted_df(comps((1, 3.7, nu)), AdjustmentConfig(0.0, 0))
        assert est.value == pytest.approx(nu + 2.0, rel=1e-15)

    def test_weighted_pair_hand_evaluation(self):
        # numerator (1*4 + 1.2*1)^2 = 27.04, denominator 16/12 + 1.44/6,
        # nu_bar_w = 14.8/2.2, shrink 1 + 2.24/(2*nu_bar_w)
        expected = (27.04 / (16.0 / 12.0 + 1.44 / 6.0)) / (1.0 + 2.24 / (2.0 * (14.8 / 2.2)))
        est = adjusted_df(comps((1, 4, 10), (1.2, 1, 4)), AdjustmentConfig(2.24, 0))
        assert est.value == pytest.approx(expected, rel=1e-12)
        assert est.value == pytest.approx(14.733510312436186, rel=1e-12)

    def test_offset_one_where_the_folded_constant_overflows(self):
        # c * K / (K - 1) is inf here, and the value once came out as exactly 0.0.
        components = comps((1, 4, 3), (2, 9, 5))
        value = adjusted_df(components, AdjustmentConfig(1e308, 1)).value
        exact = _exact_df(components, Fraction(1e308) * 2)  # c * K / (K - 1) at K = 2
        assert value > 0 and abs(Fraction(value) / exact - 1) <= 1e-12

    def test_offset_needs_two_components(self):
        with pytest.raises(SynthesisError, match="offset exceeds component count"):
            adjusted_df(comps((1, 1, 3)), AdjustmentConfig(2.0, 1))

    def test_config_type_checked(self):
        with pytest.raises(TypeError):
            adjusted_df(comps((1, 1, 1), (1, 1, 1)), (2.24, 0))

    def test_method_carries_config(self):
        cs = comps((1, 1, 1), (1, 1, 1))
        assert adjusted_df(cs, AdjustmentConfig(2.69, 0)) == \
            EstimatorVariant.adjusted(2.69, 0).evaluate(cs)


class TestConvenienceWrappers:
    def test_vd2025_equal_pair(self):
        assert vondavier2025_df(comps((1, 1, 1), (1, 1, 1))).value == 2.0

    def test_vd2025_single_component_rejected(self):
        with pytest.raises(SynthesisError, match="offset exceeds component count"):
            vondavier2025_df(comps((1, 2, 3)))

    def test_vd2025_identical_triple(self):
        # (1 + 2/(2*4))^-1 * (36 / (3*4/6)) = 0.8 * 18 = 14.4
        assert vondavier2025_df(comps(*[(1, 2, 4)] * 3)).value == 14.4

    def test_vd2025_label(self):
        cs = comps((1, 1, 1), (1, 1, 1))
        assert vondavier2025_df(cs) == adjusted_df(cs, AdjustmentConfig(2.0, 1))
        assert vondavier2025_df(cs) == EstimatorVariant.von_davier_2025().evaluate(cs)

    def test_recommended_equal_pair(self):
        cs = comps((1, 1, 1), (1, 1, 1))
        est = recommended_df(cs)
        assert est.value == pytest.approx(6.0 / 2.12, rel=1e-12)
        assert est == adjusted_df(cs, AdjustmentConfig(2.24, 0))

    def test_recommended_many_identical_components(self):
        # 160 identical single components: ratio (160^2)/(160/82) = 82*160,
        # shrink 1 + 2.24/12800. Determinism on identical inputs exceeds
        # K*nu = 12800; the Monte Carlo mean over independent draws does not.
        est = recommended_df(comps(*[(1, 1, 80)] * 160))
        assert est.value == pytest.approx(13120.0 / (1.0 + 2.24 / 12800.0), rel=1e-12)
        assert est.value > 160 * 80


class TestEstimatorVariant:
    def test_tag_is_parameter_canonical(self):
        assert EstimatorVariant.von_davier_2025().tag == EstimatorVariant.adjusted(2.0, 1).tag
        assert EstimatorVariant.satterthwaite().tag == "satterthwaite"

    def test_evaluate_dispatches(self):
        cs = comps((1, 1, 1), (1, 1, 1))
        assert EstimatorVariant.satterthwaite().evaluate(cs).value == 2.0
        assert EstimatorVariant.von_davier_2025().evaluate(cs).value == 2.0
        assert EstimatorVariant.recommended().evaluate(cs).value == pytest.approx(6.0 / 2.12)

    def test_constructors_label_and_configure(self):
        variants = [EstimatorVariant.satterthwaite(), EstimatorVariant.von_davier_2025(),
                    EstimatorVariant.recommended(), EstimatorVariant.adjusted(2, 1)]
        assert [(v.label, v.config) for v in variants] == [
            ("satterthwaite", None), ("vd2025", AdjustmentConfig(2.0, 1)),
            ("adjusted(c=2.24, p=0)", AdjustmentConfig(2.24, 0)),
            ("adjusted(c=2, p=1)", AdjustmentConfig(2.0, 1))]

    def test_adjusted_checks_its_constant_as_adjustment_config_does(self):
        with pytest.raises(SynthesisError, match=r"^c must be >= 0, got -1$"):
            EstimatorVariant.adjusted(-1)

    def test_offset_defaults_to_zero(self):
        assert inspect.signature(AdjustmentConfig).parameters["p"].default == 0
        assert inspect.signature(EstimatorVariant.adjusted).parameters["p"].default == 0

    @pytest.mark.parametrize("label, config", [
        # A config that is not an AdjustmentConfig would build a variant whose
        # .tag and .evaluate then fail.
        ("adjusted", 5),
        ("adjusted", (2.24, 0)),
        ("vd2025", 2.0),
    ])
    def test_invalid_combinations_raise_synthesis_error(self, label, config):
        with pytest.raises(SynthesisError):
            EstimatorVariant(label, config)


def _all_variant_values(components):
    values = [satterthwaite_df(components).value,
              adjusted_df(components, AdjustmentConfig(2.24, 0)).value,
              adjusted_df(components, AdjustmentConfig(0.0, 0)).value]
    if len(components) >= 2:
        values.append(vondavier2025_df(components).value)
    return values


class TestInvariants:
    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            components = make_components(rng, allow_zero_s2=True)
            factor = float(10.0 ** rng.uniform(-6.0, 6.0))
            scaled = [VarianceComponent(c.weight * factor, c.s2, c.df) for c in components]
            for base, other in zip(_all_variant_values(components), _all_variant_values(scaled)):
                assert other == pytest.approx(base, rel=1e-12)

    def test_variance_rescaling_invariance(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            components = make_components(rng, allow_zero_s2=True)
            factor = float(10.0 ** rng.uniform(-6.0, 6.0))
            scaled = [VarianceComponent(c.weight, c.s2 / factor, c.df) for c in components]
            for base, other in zip(_all_variant_values(components), _all_variant_values(scaled)):
                assert other == pytest.approx(base, rel=1e-12)

    def test_offset_equivalence_exact(self):
        # Folding the offset into the constant p=1 -> c * K / (K - 1) is an
        # algebraic identity and must hold bitwise here.
        rng = np.random.default_rng(303)
        for _ in range(300):
            components = make_components(rng, k=int(rng.integers(2, 9)))
            c = float(rng.uniform(0.0, 4.0))
            k = len(components)
            with_offset = adjusted_df(components, AdjustmentConfig(c, 1)).value
            folded = adjusted_df(components, AdjustmentConfig(c * k / (k - 1.0), 0)).value
            assert with_offset == folded

    def test_satterthwaite_upper_bound(self):
        rng = np.random.default_rng(404)
        for _ in range(300):
            components = make_components(rng, allow_zero_s2=True)
            total_df = sum(c.df for c in components)
            value = satterthwaite_df(components).value
            assert value <= total_df * (1.0 + 1e-12)

    def test_k2_single_df_ratio_bounds(self):
        rng = np.random.default_rng(505)
        for _ in range(500):
            s1 = float(10.0 ** rng.uniform(-6.0, 6.0))
            s2 = 0.0 if rng.random() < 0.05 else float(10.0 ** rng.uniform(-6.0, 6.0))
            value = satterthwaite_df(comps((1, s1, 1), (1, s2, 1))).value
            assert 1.0 - 1e-12 <= value <= 2.0 + 1e-12

    def test_limit_recovery_for_large_df(self):
        # With equal d.f. the adjusted/classic ratio is (nu+2)/(nu*shrink);
        # it must approach 1 from above, monotonically in nu.
        cfg = AdjustmentConfig(2.24, 0)
        gaps = []
        for nu in (10, 100, 1000, 10000):
            components = comps((1, 2.5, nu), (1.4, 1.0, nu), (0.7, 3.3, nu))
            ratio = (adjusted_df(components, cfg).value
                     / satterthwaite_df(components).value)
            assert ratio > 1.0
            gaps.append(ratio - 1.0)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 3e-4

    def test_identical_components_identity(self):
        rng = np.random.default_rng(606)
        for _ in range(200):
            k = int(rng.integers(1, 30))
            nu = int(rng.integers(1, 80))
            s2 = float(10.0 ** rng.uniform(-3.0, 3.0))
            w = float(10.0 ** rng.uniform(-2.0, 2.0))
            value = satterthwaite_df(comps(*[(w, s2, nu)] * k)).value
            assert value == pytest.approx(k * nu, rel=1e-12)

    @pytest.mark.parametrize("exponent", [-300, -200, -100, 100, 200, 300])
    @pytest.mark.parametrize("target", ["weight", "s2"])
    def test_rescaling_invariance_at_extreme_scales(self, target, exponent):
        # A common factor far beyond the range where w * s2 can be squared
        # changes no estimate and no weighted mean d.f.
        rng = np.random.default_rng(707)
        factor = 10.0 ** exponent
        for _ in range(50):
            components = make_components(rng, allow_zero_s2=True)
            if target == "weight":
                scaled = [VarianceComponent(c.weight * factor, c.s2, c.df) for c in components]
            else:
                scaled = [VarianceComponent(c.weight, c.s2 * factor, c.df) for c in components]
            for base, other in zip(_all_variant_values(components), _all_variant_values(scaled)):
                assert other == pytest.approx(base, rel=1e-12)
            assert weighted_mean_df(scaled) == pytest.approx(weighted_mean_df(components),
                                                             rel=1e-12)

    def test_rescaling_invariance_at_every_exponent(self):
        # Every power of two from 2^-1074 to 2^1023 on the weights, then on the
        # variances. A scaling that rounds a value, or takes it to 0 or inf,
        # changes the synthesis itself and is skipped.
        rng = np.random.default_rng(808)
        checked = 0
        for k in (1, 2, 5, 20):
            components = make_components(rng, k=k, allow_zero_s2=True)
            base = (satterthwaite_df(components).value, recommended_df(components).value)
            for field in ("weight", "s2"):
                values = [getattr(c, field) for c in components]
                for e in range(-1074, 1024):
                    scale = 2.0 ** e
                    scaled = [v * scale for v in values]
                    if any(s / scale != v for s, v in zip(scaled, values)):
                        continue
                    rescaled = [_unchecked(c, field, s) for c, s in zip(components, scaled)]
                    assert math.isclose(satterthwaite_df(rescaled).value, base[0], rel_tol=1e-12)
                    assert math.isclose(recommended_df(rescaled).value, base[1], rel_tol=1e-12)
                    checked += 1
        assert checked > 8 * 2000  # most of the 2098 exponents keep every value exact

    def test_term_products_beyond_double_range(self):
        # Here w * s2 itself overflows, or underflows, a double.
        base = comps((1, 1.0, 3), (2, 0.5, 7))
        for w, s2 in ((1e300, 1e10), (1e-300, 1e-10)):
            scaled = comps((w, s2, 3), (2 * w, 0.5 * s2, 7))
            for ref, value in zip(_all_variant_values(base), _all_variant_values(scaled)):
                assert value == pytest.approx(ref, rel=1e-12)

    def test_extreme_magnitudes_do_not_overflow(self):
        # The internal normalization keeps fourth powers in range even when
        # raw s2**2 would overflow a double.
        big = comps((1, 1e200, 3), (2, 5e199, 7))
        assert math.isfinite(satterthwaite_df(big).value)
        small = comps((1, 1e-200, 3), (2, 5e-201, 7))
        assert math.isfinite(recommended_df(small).value)
        assert satterthwaite_df(big).value == pytest.approx(
            satterthwaite_df(comps((1, 1.0, 3), (2, 0.5, 7))).value, rel=1e-12)


def _common_scale(pairs):
    """Dyadic rationals (numerator, power-of-two denominator) as integers over one denominator."""
    pairs = list(pairs)
    scale = max(den for _, den in pairs)
    return [num * (scale // den) for num, den in pairs]


def _exact_df(components, c=None):
    """Satterthwaite's defining formula, or with ``c`` the p = 0 adjusted one, exactly.

    Every double is a dyadic rational, and the ratio cancels the common power
    of two, so the sums run over integers and one Fraction is built at the end.
    """
    offset = 0 if c is None else 2
    terms = _common_scale((w_num * s_num, w_den * s_den) for (w_num, w_den), (s_num, s_den)
                          in ((x.weight.as_integer_ratio(), x.s2.as_integer_ratio())
                              for x in components))
    dfs = [x.df + offset for x in components]
    lcm = math.lcm(*dfs)
    ratio = Fraction(sum(terms) ** 2 * lcm,
                     sum(t * t * (lcm // d) for t, d in zip(terms, dfs)))
    if c is None:
        return ratio
    weights = _common_scale(x.weight.as_integer_ratio() for x in components)
    nu_bar = Fraction(sum(w * x.df for w, x in zip(weights, components)), sum(weights))
    return ratio / (1 + Fraction(c) / (len(components) * nu_bar))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 20, 200])
def test_accuracy_against_exact_arithmetic(k):
    """Both estimators lie within 2 + 2 sqrt(K) eps of the exact value at any scale.

    Weights and variances sit around independent centres 10^-296..10^296, each
    spread over 10^+-4. Over 1500 syntheses per K the worst errors measured
    were 1.4, 2.6, 3.1, 4.1, 7.9 and 19.6 eps for K = 1, 2, 3, 5, 20, 200:
    rounding errors of the sums add like a random walk.
    """
    rng = np.random.default_rng(909 + k)
    bound = (2.0 + 2.0 * math.sqrt(k)) * sys.float_info.epsilon
    for _ in range(40):
        scales = rng.uniform(-296, 296, size=(2, 1)) + rng.uniform(-4, 4, size=(2, k))
        weights, s2s = (10.0 ** scales).tolist()
        components = [VarianceComponent(*row)
                      for row in zip(weights, s2s, rng.integers(1, 101, k).tolist())]
        for value, exact in ((satterthwaite_df(components).value, _exact_df(components)),
                             (adjusted_df(components, AdjustmentConfig(2.24, 0)).value,
                              _exact_df(components, 2.24))):
            assert abs(Fraction(value) / exact - 1) <= bound, (k, value, float(exact))
