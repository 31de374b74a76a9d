"""Tests for the application adapters."""

import numpy as np
import pytest

from effdof import (
    AdjustmentConfig,
    DegenerateSynthesisError,
    JackknifeDeviations,
    RubinVariance,
    SynthesisError,
    WelchInput,
    adjusted_df,
    jackknife_components,
    jackknife_df,
    rubin_components,
    rubin_df,
    welch_components,
    welch_df,
)


class TestRubin:
    def test_component_construction(self):
        inputs = RubinVariance(4.0, 10, 1.0, 5)
        first, second = rubin_components(inputs)
        assert (first.weight, first.s2, first.df) == (1.0, 4.0, 10)
        assert second.weight == pytest.approx(6.0 / 5.0)
        assert (second.s2, second.df) == (1.0, 4)

    def test_hand_evaluated_value(self):
        # components (1, 4, 10) and (1.2, 1, 4): ratio 27.04 / (16/12 + 1.44/6),
        # nu_bar_w = 14.8/2.2, shrink 1 + 2.24/(2*nu_bar_w)
        expected = (27.04 / (16.0 / 12.0 + 1.44 / 6.0)) / (1.0 + 2.24 / (2.0 * (14.8 / 2.2)))
        value = rubin_df(RubinVariance(4.0, 10, 1.0, 5)).value
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(14.733510312436186, rel=1e-12)

    def test_zero_imputation_variance(self):
        # The zero component stays in the synthesis: K = 2 still drives the shrink.
        inputs = RubinVariance(4.0, 10, 0.0, 5)
        nu_bar = 14.8 / 2.2
        expected = 12.0 / (1.0 + 2.24 / (2.0 * nu_bar))
        assert rubin_df(inputs).value == pytest.approx(expected, rel=1e-12)

    def test_many_imputations_approach_equal_weights(self):
        big_m = rubin_df(RubinVariance(4.0, 10, 1.0, 10 ** 6),
                         AdjustmentConfig(2.24, 0)).value
        # m -> infinity sends the weight (m+1)/m to 1; compare against unit
        # weights with the same d.f. pair.
        from effdof import VarianceComponent
        equal = adjusted_df([VarianceComponent(1.0, 4.0, 10),
                             VarianceComponent(1.0, 1.0, 10 ** 6 - 1)],
                            AdjustmentConfig(2.24, 0)).value
        assert abs(big_m - equal) / equal < 1e-4

    def test_both_variances_zero(self):
        with pytest.raises(DegenerateSynthesisError):
            rubin_df(RubinVariance(0.0, 10, 0.0, 5))

    @pytest.mark.parametrize("kwargs", [
        {"sampling_s2": 1.0, "sampling_df": 10, "imputation_s2": 1.0, "m": 1},
        {"sampling_s2": 1.0, "sampling_df": 0, "imputation_s2": 1.0, "m": 5},
        {"sampling_s2": -1.0, "sampling_df": 10, "imputation_s2": 1.0, "m": 5},
        {"sampling_s2": 1.0, "sampling_df": 10, "imputation_s2": 1.0, "m": 5.0},
        {"sampling_s2": "x", "sampling_df": 10, "imputation_s2": 1.0, "m": 5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(SynthesisError):
            RubinVariance(**kwargs)

    @pytest.mark.parametrize("field", ["sampling_df", "m"])
    def test_count_beyond_2_53_names_its_field(self, field):
        # Each was once refused as the "df" of the component built from it.
        inputs = {"sampling_s2": 4.0, "sampling_df": 10, "imputation_s2": 1.0, "m": 5}
        assert rubin_df(RubinVariance(**{**inputs, field: 2**53})).value > 0
        message = rf"^{field} must be <= 9007199254740992, 2\^53"
        for count in (2**53 + 1, 10**400):
            with pytest.raises(SynthesisError, match=message):
                RubinVariance(**{**inputs, field: count})

    def test_scale_invariance(self):
        base = rubin_df(RubinVariance(4.0, 10, 1.0, 5)).value
        scaled = rubin_df(RubinVariance(4.0e3, 10, 1.0e3, 5)).value
        assert scaled == pytest.approx(base, rel=1e-12)


class TestWelch:
    def test_symmetric_case(self):
        # equal variances and sizes, nu = 9 both: 2*(nu+2) / (1 + 2.24/18)
        value = welch_df(WelchInput(3.0, 3.0, 10, 10, 9, 9)).value
        assert value == pytest.approx(22.0 / (1.0 + 2.24 / 18.0), rel=1e-12)
        assert value == pytest.approx(19.565217391304348, rel=1e-12)

    def test_symmetric_case_without_shrink(self):
        value = welch_df(WelchInput(3.0, 3.0, 10, 10, 9, 9), AdjustmentConfig(0.0, 0)).value
        assert value == pytest.approx(22.0, rel=1e-12)

    def test_sample_size_rescaling_invariance(self):
        base = welch_df(WelchInput(2.5, 4.0, 12, 30, 11, 29)).value
        scaled = welch_df(WelchInput(2.5, 4.0, 120, 300, 11, 29)).value
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_component_construction(self):
        first, second = welch_components(WelchInput(2.5, 4.0, 12, 30, 11, 29))
        assert first.weight == pytest.approx(1.0 / 12.0)
        assert second.weight == pytest.approx(1.0 / 30.0)
        assert (first.df, second.df) == (11, 29)

    def test_df_cannot_exceed_sample_size_minus_one(self):
        with pytest.raises(SynthesisError, match="df1"):
            WelchInput(1.0, 1.0, 10, 10, 10, 9)

    @pytest.mark.parametrize("field", ["n1", "n2"])
    def test_sample_size_beyond_2_53_refused(self, field):
        # 1 / n once raised OverflowError when the components were built.
        inputs = {"s2_1": 1.0, "s2_2": 1.0, "n1": 5, "n2": 5, "df1": 4, "df2": 4}
        assert welch_df(WelchInput(**{**inputs, field: 2**53})).value > 0
        message = rf"^{field} must be <= 9007199254740992, 2\^53"
        for size in (2**53 + 1, 10**400):
            with pytest.raises(SynthesisError, match=message):
                WelchInput(**{**inputs, field: size})

    def test_df_defaults_to_n_minus_one(self):
        inputs = WelchInput(2.5, 4.0, 12, 30)
        assert (inputs.df1, inputs.df2) == (11, 29)

    def test_both_variances_zero(self):
        with pytest.raises(DegenerateSynthesisError):
            welch_df(WelchInput(0.0, 0.0, 10, 10, 9, 9))

    @pytest.mark.parametrize("args, message", [
        ((1.0, 1.0, 10, 10, 9, 10), "df2 must be <= 9, n2 - 1"),
        ((1.0, 1.0, 10.0, 10), "n1 must be an integer, got 10.0"),
        ((1.0, float("inf"), 10, 10), "s2_2 must be finite, got inf"),
        ((4.0, 9.0, 5, 8, 9), "df1 must be <= 4, n1 - 1"),
    ], ids=["df2-above-n2-minus-one", "float-n1", "infinite-s2_2", "df1-above-n1-minus-one"])
    def test_validation(self, args, message):
        with pytest.raises(SynthesisError) as exc:
            WelchInput(*args)
        assert type(exc.value) is SynthesisError and str(exc.value) == message


class TestJackknife:
    def test_equal_deviations(self):
        # K equal deviations: ratio K, value 3*K / (1 + C/K)
        value = jackknife_df(JackknifeDeviations((0.5,) * 10)).value
        assert value == pytest.approx(30.0 / 1.224, rel=1e-12)

    def test_single_dominant_deviation(self):
        # One deviation carries all the variance: ratio -> 1, value -> 3/(1 + C/2)
        value = jackknife_df(JackknifeDeviations((2.0, 2.0e-9))).value
        assert value == pytest.approx(3.0 / (1.0 + 2.24 / 2.0), rel=1e-8)

    def test_definitional_equivalence(self):
        devs = JackknifeDeviations((0.4, -1.1, 0.9, 0.2))
        direct = jackknife_df(devs, AdjustmentConfig(2.69, 0)).value
        via_components = adjusted_df(jackknife_components(devs),
                                     AdjustmentConfig(2.69, 0)).value
        assert direct == via_components

    def test_scaling_invariance_including_sign(self):
        base = jackknife_df(JackknifeDeviations((0.4, -1.1, 0.9, 0.2))).value
        scaled = jackknife_df(JackknifeDeviations((-1.2, 3.3, -2.7, -0.6))).value
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_all_zero_deviations(self):
        with pytest.raises(DegenerateSynthesisError):
            jackknife_df(JackknifeDeviations((0.0, 0.0, 0.0)))

    def test_needs_two_deviations(self):
        with pytest.raises(SynthesisError):
            JackknifeDeviations((1.0,))

    @pytest.mark.parametrize("args, message", [
        (((1.0, float("nan")),), "deviations must be finite, got nan"),
        (((1.0, "x"),), "deviations must be a number, got 'x'"),
        ((5,), "deviations must be a sequence of numbers, got 5"),
        (("12",), "deviations must be a sequence of numbers, got '12'"),
        ((b"12",), "deviations must be a sequence of numbers, got b'12'"),
        (((0.4,),), "number of deviations must be >= 2, got 1"),
    ], ids=["nan-deviation", "text-deviation", "not-a-sequence", "string", "bytes",
            "one-deviation"])
    def test_validation(self, args, message):
        with pytest.raises(SynthesisError) as exc:
            JackknifeDeviations(*args)
        assert type(exc.value) is SynthesisError and str(exc.value) == message

    @pytest.mark.parametrize("big", [1e200, -1.5e154])
    def test_deviation_whose_square_overflows(self, big):
        with pytest.raises(SynthesisError) as exc:
            JackknifeDeviations((1.0, big))
        assert "deviations" in str(exc.value) and repr(big) in str(exc.value)

    def test_components_have_unit_weight_single_df(self):
        for comp in jackknife_components(JackknifeDeviations((0.3, -0.7))):
            assert comp.weight == 1.0 and comp.df == 1


class TestAdaptersDelegateExactly:
    """Adapters must equal the core estimator on their documented components."""

    def test_rubin_random_inputs(self):
        rng = np.random.default_rng(71)
        for _ in range(300):
            inputs = RubinVariance(float(10.0 ** rng.uniform(-3, 3)),
                                   int(rng.integers(1, 60)),
                                   float(10.0 ** rng.uniform(-3, 3)),
                                   int(rng.integers(2, 40)))
            config = AdjustmentConfig(float(rng.uniform(0, 4)), int(rng.integers(0, 2)))
            assert rubin_df(inputs, config).value == \
                adjusted_df(rubin_components(inputs), config).value

    def test_welch_random_inputs(self):
        rng = np.random.default_rng(72)
        for _ in range(300):
            n1, n2 = int(rng.integers(2, 500)), int(rng.integers(2, 500))
            inputs = WelchInput(float(10.0 ** rng.uniform(-3, 3)),
                                float(10.0 ** rng.uniform(-3, 3)),
                                n1, n2,
                                int(rng.integers(1, n1)), int(rng.integers(1, n2)))
            config = AdjustmentConfig(float(rng.uniform(0, 4)), int(rng.integers(0, 2)))
            assert welch_df(inputs, config).value == \
                adjusted_df(welch_components(inputs), config).value

    def test_jackknife_random_inputs(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            k = int(rng.integers(2, 40))
            inputs = JackknifeDeviations(tuple(rng.normal(0, 1, size=k)))
            config = AdjustmentConfig(float(rng.uniform(0, 4)), int(rng.integers(0, 2)))
            assert jackknife_df(inputs, config).value == \
                adjusted_df(jackknife_components(inputs), config).value

    @pytest.mark.parametrize("adapter, inputs", [
        (rubin_df, RubinVariance(4.0, 10, 1.0, 5)),
        (welch_df, WelchInput(4.0, 9.0, 5, 8)),
        (jackknife_df, JackknifeDeviations((0.4, -1.1, 0.9, 0.2))),
    ], ids=["rubin", "welch", "jackknife"])
    def test_falsy_non_config_is_rejected(self, adapter, inputs):
        # Only None selects the default; 0 is not read as "no config".
        with pytest.raises(TypeError, match="expected AdjustmentConfig"):
            adapter(inputs, 0)
