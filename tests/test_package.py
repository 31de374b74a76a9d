"""Tests of the package's public surface."""

import effdof

PUBLIC_NAMES = [
    "AdjustmentConfig", "CalibrationCurve", "CalibrationError", "CellStat",
    "DEFAULT_REPLICATES", "DEFAULT_SEED", "DegenerateSynthesisError", "DfEstimate",
    "EstimatorVariant", "JackknifeDeviations", "MeanDfTable", "NoComponentsError",
    "PolynomialFit", "RECOMMENDED_C", "RubinVariance", "SimulationGrid", "SynthesisError",
    "VarianceComponent", "WelchInput", "adjusted_df", "default_c_grid", "evaluate_x2_curve",
    "find_c_opt", "fit_polynomial_cv", "generate_table", "generate_tables",
    "jackknife_components", "jackknife_df", "pseudo_x2", "ratio_mean_k2_nu1",
    "ratio_samples_k2_nu1", "recommended_df", "rubin_components", "rubin_df",
    "run_calibration", "sample_chi2", "satterthwaite_df", "simulate_mean_df", "substream",
    "vondavier2025_df", "weighted_mean_df", "welch_components", "welch_df",
]


def test_public_names():
    assert sorted(effdof.__all__) == PUBLIC_NAMES
    assert len(set(effdof.__all__)) == len(effdof.__all__)
    for name in effdof.__all__:
        assert hasattr(effdof, name), name
    # Helpers the package does not export stay importable from their modules.
    from effdof.estimators import ADJUSTED
    from effdof.simulation import sample_chi2_matrix
    assert callable(sample_chi2_matrix)
    assert ADJUSTED == "adjusted"
