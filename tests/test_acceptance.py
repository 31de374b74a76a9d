"""Acceptance suite: reproduction, calibration, and property criteria.

Each test prints one `criterion N: PASS/FAIL` line (run with `pytest -s` to
see them as they complete). Generating the five 64-cell reference tables at
10000 replicates dominates the runtime; the whole module takes a few
seconds (3.6 s on a 2-vCPU machine).

Criterion 4 note: besides the ordering and `X2(satterthwaite) > 10` clauses,
the magnitude clause compares each simulated X2 (tables 1, 2 and 4) with the
X2 of the published cells of the same 8x8 grid. The two must agree within a
band of three delta-method standard errors of their difference (both sides
are 10000-replicate means, so each cell contributes twice its simulated
variance) plus the effect of the published cells' +-0.005 rounding. The
paper's own X2 summary (0.02016 for c=2.69), no longer shipped, comes from
a grid that is not identified, so it is not a bound on this grid: the
published c=2.69 cells themselves give X2 of about 0.23 here.
"""

import math

import numpy as np
import pytest

from effdof import (
    AdjustmentConfig,
    CellStat,
    EstimatorVariant,
    JackknifeDeviations,
    MeanDfTable,
    RubinVariance,
    SimulationGrid,
    VarianceComponent,
    WelchInput,
    adjusted_df,
    default_c_grid,
    find_c_opt,
    fit_polynomial_cv,
    generate_table,
    generate_tables,
    jackknife_components,
    jackknife_df,
    pseudo_x2,
    ratio_mean_k2_nu1,
    ratio_samples_k2_nu1,
    rubin_components,
    rubin_df,
    run_calibration,
    sample_chi2,
    satterthwaite_df,
    substream,
    welch_components,
    welch_df,
)
from effdof.estimators import _shrink
from effdof.simulation import DEFAULT_SEED, _x2, sample_chi2_matrix
from effdof.reference import REFERENCE_K_VALUES, REFERENCE_NU_VALUES, REFERENCE_TABLES
from conftest import make_components

SEED = DEFAULT_SEED
REPLICATES = 10_000
WORKERS = 4

GRID = SimulationGrid(REFERENCE_K_VALUES, REFERENCE_NU_VALUES,
                      replicates=REPLICATES, seed=SEED)

TABLE_VARIANTS = {
    "1": EstimatorVariant.satterthwaite(),
    "2": EstimatorVariant.von_davier_2025(),
    "3": EstimatorVariant.adjusted(2.24, 0),
    "4": EstimatorVariant.adjusted(2.69, 0),
    "x2-2.25": EstimatorVariant.adjusted(2.25, 0),
}


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}{' ' + detail if detail else ''}")


@pytest.fixture(scope="module")
def tables():
    return dict(zip(TABLE_VARIANTS, generate_tables(GRID, list(TABLE_VARIANTS.values()),
                                                    max_workers=WORKERS)))


def table_mismatches(table, published):
    """Cells violating |mean - published| <= max(3 SE, 1% of published)."""
    bad = []
    for pair, cell in table.cells.items():
        tolerance = max(3.0 * cell.std_error, 0.01 * abs(published[pair]))
        if abs(cell.mean - published[pair]) > tolerance:
            bad.append((pair, cell.mean, published[pair], tolerance))
    return bad


def test_criterion_1_satterthwaite_table(tables):
    bad = table_mismatches(tables["1"], REFERENCE_TABLES["1"])
    report("1 (table 1 reproduction)", not bad, f"{64 - len(bad)}/64 cells in tolerance")
    assert not bad, f"cells out of tolerance: {bad}"


def test_criterion_2_adjusted_tables(tables):
    all_bad = {}
    for table_id in ("2", "3", "4"):
        bad = table_mismatches(tables[table_id], REFERENCE_TABLES[table_id])
        if bad:
            all_bad[table_id] = bad
    spot = {
        "table2 (2,1)": (tables["2"].cells[(2, 1)].mean, 1.42),
        "table3 (2,1)": (tables["3"].cells[(2, 1)].mean, 2.00),
        "table4 (2,1)": (tables["4"].cells[(2, 1)].mean, 1.80),
        "table4 (6,9)": (tables["4"].cells[(6, 9)].mean, 53.76),
    }
    detail = ", ".join(f"{k} {m:.2f}~{p}" for k, (m, p) in spot.items())
    report("2 (tables 2-4 reproduction)", not all_bad, detail)
    assert not all_bad, f"cells out of tolerance: {all_bad}"
    for mean, published in spot.values():
        assert abs(mean - published) <= max(0.01 * published, 0.06)


def test_criterion_3_minimal_case_constant():
    rng = substream(SEED, 2, 1, "ratio")
    mean = ratio_mean_k2_nu1(4_000_000, rng)
    constant = (6.0 - 2.0 * mean) / mean
    ok = abs(mean - 1.41425) <= 0.002 and abs(constant - 2.24) <= 0.01
    report("3 (minimal-case constant)", ok,
           f"mean={mean:.5f} (target 1.41425±0.002), C={constant:.4f} (target 2.24±0.01)")
    assert abs(mean - 1.41425) <= 0.002
    assert abs(constant - 2.24) <= 0.01


#: Criterion-4 X2 entries checked against the published cells: name -> table id.
X2_PUBLISHED_TABLES = {"satterthwaite": "1", "c2_p1": "2", "c2.69": "4"}


def published_x2(table_id, cells=None):
    """pseudo_x2 of published cell means (default: REFERENCE_TABLES[table_id])."""
    cells = REFERENCE_TABLES[table_id] if cells is None else cells
    stats = {pair: CellStat(mean, 0.0, float(pair[0] * pair[1]))
             for pair, mean in cells.items()}
    return pseudo_x2(MeanDfTable(GRID, TABLE_VARIANTS[table_id], stats))


def x2_band(table, table_id):
    """Allowed |X2(table) - published_x2(table_id)|.

    Delta method on two independent estimates of each cell mean (variance
    2 SE^2, SE from the simulated cell), three standard errors, plus the
    worst-case effect of the published values' +-0.005 rounding.
    """
    published = REFERENCE_TABLES[table_id]
    variance = rounding = 0.0
    for pair, cell in table.cells.items():
        slope = 2.0 * (published[pair] - cell.expected) / cell.expected
        variance += slope ** 2 * 2.0 * cell.std_error ** 2
        rounding += abs(slope) * 0.005
    return 3.0 * math.sqrt(variance) + rounding


def x2_matches_published(x2, table, table_id):
    """The criterion-4 magnitude clause for one table id."""
    return abs(x2 - published_x2(table_id)) <= x2_band(table, table_id)


def test_criterion_4_pseudo_x2_comparison(tables):
    x2 = {
        "satterthwaite": pseudo_x2(tables["1"]),
        "c2_p1": pseudo_x2(tables["2"]),
        "c2.25": pseudo_x2(tables["x2-2.25"]),
        "c2.69": pseudo_x2(tables["4"]),
    }
    ordering = (x2["satterthwaite"] > x2["c2_p1"] > x2["c2.25"] > x2["c2.69"])
    versus_published = {
        name: (round(x2[name], 5), round(published_x2(table_id), 5),
               round(x2_band(tables[table_id], table_id), 5))
        for name, table_id in X2_PUBLISHED_TABLES.items()}
    off_published = [name for name, table_id in X2_PUBLISHED_TABLES.items()
                     if not x2_matches_published(x2[name], tables[table_id], table_id)]
    magnitude = x2["satterthwaite"] > 10.0 and not off_published
    detail = ("X2 = " + ", ".join(f"{k}={v:.5f}" for k, v in x2.items())
              + "; (simulated, published cells, band) = " + str(versus_published))
    report("4 (pseudo-X2 comparison)", ordering and magnitude, detail)
    assert ordering, f"ordering violated: {x2}"
    assert x2["satterthwaite"] > 10.0
    assert not off_published, (
        f"X2 of {off_published} farther from the X2 of the published cells on "
        f"this grid than the band; (simulated, published, band) = {versus_published}")


def test_criterion_4_magnitude_clause_detects_shift(tables):
    for table_id in X2_PUBLISHED_TABLES.values():
        assert x2_matches_published(published_x2(table_id), tables[table_id], table_id)
        shifted = {pair: 1.005 * mean for pair, mean in REFERENCE_TABLES[table_id].items()}
        assert not x2_matches_published(published_x2(table_id, shifted),
                                        tables[table_id], table_id), table_id


def test_criterion_5_calibration_studies():
    results = {}
    for size, target in (((5, 5), 2.42), ((10, 10), 2.53)):
        grid = SimulationGrid(tuple(range(2, size[0] + 1)),
                              tuple(range(1, size[1] + 1)),
                              replicates=REPLICATES, seed=SEED)
        curve = run_calibration(grid, max_workers=WORKERS)
        results[size] = (curve, target)
    ok = all(abs(curve.c_opt - target) <= 0.06
             and curve.fit.r_squared > 0.99 and curve.fit.degree <= 6
             for curve, target in results.values())
    detail = ", ".join(
        f"({k},{k}) c_opt={curve.c_opt:.4f} (target {target}±0.06) "
        f"R2={curve.fit.r_squared:.4f} deg={curve.fit.degree}"
        for (k, _), (curve, target) in results.items())
    report("5 (calibration)", ok, detail)
    for curve, target in results.values():
        assert abs(curve.c_opt - target) <= 0.06
        assert curve.fit.r_squared > 0.99
        assert curve.fit.degree <= 6


def test_relative_x2_puts_c_opt_in_criterion_5_band():
    """Criterion 5's offset comes from which X2 is minimised, not from the draws.

    ``calibrate`` minimises the Pearson X2, sum (M - K nu)^2 / (K nu). The
    relative X2, sum ((M - K nu) / (K nu))^2, minimised on the same cells with
    the same fit and search, lands on criterion 5's targets. Over seeds 1-20
    its c_opt is 2.4228 +- 0.0033 at (5,5) and 2.5257 +- 0.0029 at (10,10);
    the Pearson c_opt is 2.4708 +- 0.0031 and 2.5826 +- 0.0025 (mean +- SD).
    """
    cs = default_c_grid()
    for size, target in ((5, 2.42), (10, 2.53)):
        grid = SimulationGrid(range(2, size + 1), range(1, size + 1),
                              replicates=REPLICATES, seed=SEED)
        base = generate_table(grid, EstimatorVariant.adjusted(0.0, 0), max_workers=WORKERS)
        pairs = [(cell.mean / _shrink(np.asarray(cs), k, float(nu)), cell.expected)
                 for (k, nu), cell in base.cells.items()]
        c_opt = {}
        for name, x2 in (("pearson", _x2(pairs)),
                         ("relative", _x2((mean / expected, 1.0) for mean, expected in pairs))):
            fit = fit_polynomial_cv(zip(cs, x2.tolist()), seed=SEED)
            c_opt[name] = find_c_opt(fit.coefficients, (cs[0], cs[-1]))[0]
        print(f"({size},{size}) c_opt: relative {c_opt['relative']:.4f}, "
              f"Pearson {c_opt['pearson']:.4f} (target {target}+-0.06)")
        assert abs(c_opt["relative"] - target) <= 0.06
        assert abs(c_opt["relative"] - target) < abs(c_opt["pearson"] - target)


def test_criterion_6_property_suites():
    failures = []

    # Weight- and variance-rescaling invariance, 1000 random syntheses each.
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        components = make_components(rng, allow_zero_s2=True)
        weight_scale = float(10.0 ** rng.uniform(-6, 6))
        variance_scale = float(10.0 ** rng.uniform(-6, 6))
        rescaled_w = [VarianceComponent(c.weight * weight_scale, c.s2, c.df)
                      for c in components]
        rescaled_s = [VarianceComponent(c.weight, c.s2 / variance_scale, c.df)
                      for c in components]
        for estimator in (satterthwaite_df,
                          lambda cs: adjusted_df(cs, AdjustmentConfig(2.24, 0))):
            base = estimator(components).value
            if not math.isclose(estimator(rescaled_w).value, base, rel_tol=1e-12):
                failures.append("weight rescaling")
            if not math.isclose(estimator(rescaled_s).value, base, rel_tol=1e-12):
                failures.append("variance rescaling")

    # Offset equivalence c <-> c*K/(K-1), exact.
    for _ in range(1000):
        components = make_components(rng, k=int(rng.integers(2, 9)))
        c = float(rng.uniform(0.0, 4.0))
        k = len(components)
        if adjusted_df(components, AdjustmentConfig(c, 1)).value != \
                adjusted_df(components, AdjustmentConfig(c * k / (k - 1.0), 0)).value:
            failures.append("offset equivalence")

    # Classic estimate never exceeds the total d.f.
    for _ in range(1000):
        components = make_components(rng, allow_zero_s2=True)
        if satterthwaite_df(components).value > sum(c.df for c in components) * (1 + 1e-12):
            failures.append("satterthwaite upper bound")

    # Pathwise ratio bounds on a million draws.
    samples = ratio_samples_k2_nu1(1_000_000, substream(SEED, 2, 1, "bounds"))
    if not (samples.min() >= 1.0 and samples.max() <= 2.0):
        failures.append("ratio bounds")

    # Sampler moments at a million draws, within 5 standard errors.
    for nu in (1, 3, 9):
        n = 1_000_000
        stream = substream(SEED, 1, nu, "moments")
        scalar_head = np.array([sample_chi2(nu, stream) for _ in range(1000)])
        rest = sample_chi2_matrix(stream, n - 1000, 1, nu)[:, 0]
        draws = np.concatenate([scalar_head, rest])
        se_mean = math.sqrt(2.0 * nu / n)
        se_var = math.sqrt((12.0 * nu * (nu + 4.0) - 4.0 * nu * nu) / n)
        if abs(float(draws.mean()) - nu) > 5.0 * se_mean:
            failures.append(f"sampler mean nu={nu}")
        if abs(float(draws.var(ddof=1)) - 2.0 * nu) > 5.0 * se_var:
            failures.append(f"sampler variance nu={nu}")

    # Bit-identical tables across thread counts.
    small_grid = SimulationGrid((2, 3, 5, 8), (1, 4, 9), replicates=4000, seed=SEED)
    serial = generate_table(small_grid, EstimatorVariant.recommended(), max_workers=1)
    threaded = generate_table(small_grid, EstimatorVariant.recommended(), max_workers=4)
    if serial.cells != threaded.cells:
        failures.append("thread reproducibility")

    unique = sorted(set(failures))
    report("6 (property suites)", not failures,
           "rescaling, offset, bound, ratio, moments, threading all hold"
           if not failures else f"failing: {unique}")
    assert not failures, unique


def test_criterion_7_adapter_equivalence():
    rng = np.random.default_rng(SEED + 7)
    failures = 0
    for _ in range(1000):
        rubin_inputs = RubinVariance(float(10.0 ** rng.uniform(-3, 3)),
                                     int(rng.integers(1, 60)),
                                     float(10.0 ** rng.uniform(-3, 3)),
                                     int(rng.integers(2, 40)))
        config = AdjustmentConfig(float(rng.uniform(0, 4)), int(rng.integers(0, 2)))
        if rubin_df(rubin_inputs, config).value != \
                adjusted_df(rubin_components(rubin_inputs), config).value:
            failures += 1

        n1, n2 = int(rng.integers(2, 500)), int(rng.integers(2, 500))
        welch_inputs = WelchInput(float(10.0 ** rng.uniform(-3, 3)),
                                  float(10.0 ** rng.uniform(-3, 3)),
                                  n1, n2,
                                  int(rng.integers(1, n1)), int(rng.integers(1, n2)))
        if welch_df(welch_inputs, config).value != \
                adjusted_df(welch_components(welch_inputs), config).value:
            failures += 1

        jack_inputs = JackknifeDeviations(
            tuple(rng.normal(0, 1, size=int(rng.integers(2, 40)))),
            float(rng.uniform(0, 4)))
        if jackknife_df(jack_inputs).value != \
                adjusted_df(jackknife_components(jack_inputs),
                            AdjustmentConfig(jack_inputs.constant, 0)).value:
            failures += 1
    report("7 (adapter equivalence)", failures == 0,
           f"{3000 - failures}/3000 exact matches")
    assert failures == 0
