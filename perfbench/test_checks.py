"""Self-test of the benchmark's checks: a broken output must count as a failure.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from effdof.reference import REFERENCE_TABLES  # noqa: E402


def tally_of(workload, outputs) -> checks.Tally:
    tally = checks.Tally()
    workload.check(outputs, tally)
    return tally


def tables_outputs(*perturb):
    """Outputs of a tables pass whose cells equal the published values, but
    for the (table id, cell index, factor) perturbations given."""
    x2 = "| method | x2 | published |\n| --- | --- | --- |\n" + "".join(
        f"| m{i} | {v} | 0 |\n" for i, v in enumerate((540.1, 1.33, 0.39, 0.21)))
    outputs = [(0, x2)]
    for table_id in "1234":
        cells = [{"k": k, "nu": nu, "mean": pub, "std_error": 0.001}
                 for (k, nu), pub in REFERENCE_TABLES[table_id].items()]
        for perturbed_id, index, factor in perturb:
            if perturbed_id == table_id:
                cells[index]["mean"] *= factor
        outputs.append((0, json.dumps({"cells": cells})))
    return outputs


def test_reference_formula_known_values():
    # K identical components give K * nu for the classic estimator.
    assert checks.reference_df([1.0] * 4, [2.0] * 4, [7] * 4) == 28.0
    # README example: Rubin total variance, m = 5.
    rubin = checks.reference_df([1.0, 1.2], [4.0, 1.0], [10, 4], 2.24)
    assert abs(rubin - 14.73) < 0.01
    # Rescaling by extreme powers of ten leaves the value unchanged.
    base = checks.reference_df([0.5, 2.0, 3.0], [1.0, 4.0, 0.25], [3, 8, 1], 2.0, 1)
    scaled = checks.reference_df([1e200, 4e200, 6e200], [1e-250, 4e-250, 0.25e-250],
                                 [3, 8, 1], 2.0, 1)
    assert math.isclose(base, scaled, rel_tol=1e-14)


def test_published_tables_pass():
    tally = tally_of(workloads.Tables(1), tables_outputs())
    assert (tally.attempted, tally.failed, tally.correct) == (260, 0, True)


def test_perturbed_table_cell_fails():
    tally = tally_of(workloads.Tables(1), tables_outputs(("3", 10, 1.015)))
    assert tally.failed == 1 and tally.correct  # one noise-sized miss
    tally = tally_of(workloads.Tables(1), tables_outputs(("2", 63, 1.05)))
    assert tally.failed == 1 and not tally.correct  # beyond twice the band
    tally = tally_of(workloads.Tables(1), tables_outputs(("3", 10, 1.015), ("3", 11, 1.015),
                                                         ("4", 0, 1.015)))
    assert tally.failed == 3 and not tally.correct  # more misses than noise explains


def test_small_bias_on_every_cell_fails():
    biased = [(table_id, index, 1.015) for table_id in "1234" for index in range(64)]
    tally = tally_of(workloads.Tables(1), tables_outputs(*biased))
    assert tally.failed == 256 and not tally.correct


def test_x2_ordering_violation_fails():
    outputs = tables_outputs()
    outputs[0] = (0, outputs[0][1].replace("| 0.39 |", "| 0.19 |"))
    tally = tally_of(workloads.Tables(1), outputs)
    assert tally.failed == 2 and not tally.correct


def test_failed_command_fails():
    outputs = tables_outputs()
    outputs[2] = (3, "")
    tally = tally_of(workloads.Tables(1), outputs)
    assert tally.failed == 1 and not tally.correct


def calibrate_outputs(c_opt_5=2.42, c_opt_10=2.53, mean=math.sqrt(2.0)):
    summary = {"degree": 6, "r_squared": 0.9999}
    return [mean, (0, json.dumps({**summary, "c_opt": c_opt_5})),
            (0, json.dumps({**summary, "c_opt": c_opt_10}))]


def test_calibration_bounds():
    calibrate = workloads.Calibrate(1)
    tally = tally_of(calibrate, calibrate_outputs())
    assert (tally.attempted, tally.failed, tally.correct) == (8, 0, True)
    tally = tally_of(calibrate, calibrate_outputs(c_opt_10=2.53 + 0.07))
    assert tally.failed == 1 and tally.correct  # within the seed-to-seed noise
    tally = tally_of(calibrate, calibrate_outputs(c_opt_5=2.42 - 0.09))
    assert tally.failed == 1 and not tally.correct
    tally = tally_of(calibrate, calibrate_outputs(mean=1.41425 + 0.0025))
    assert tally.failed == 1 and not tally.correct  # the mean only; the constant holds
    tally = tally_of(calibrate, calibrate_outputs(mean=1.5))
    assert tally.failed == 2 and not tally.correct


def test_wrong_df_value_fails():
    stream = workloads.Estimate(5)
    outputs = stream.run_pass(layers.NullTracer())
    clean = tally_of(stream, outputs)
    assert clean.correct and clean.attempted == len(outputs)
    ordinary = next(i for i, (_, _, extreme) in enumerate(stream.expected())
                    if not extreme and isinstance(outputs[i], float))
    outputs[ordinary] *= 1.0 + 1e-9
    tally = tally_of(stream, outputs)
    assert tally.failed == clean.failed + 1 and not tally.correct


def test_exception_on_ordinary_input_is_wrong():
    tally = checks.Tally()
    checks.check_call(tally, "x", OverflowError(), 3.0, False, ValueError)
    checks.check_call(tally, "y", OverflowError(), 3.0, True, ValueError)
    checks.check_call(tally, "z", ValueError(), 3.0, True, ValueError)
    assert (tally.failed, len(tally.gross)) == (2, 1)


def test_cli_runs():
    tally = checks.Tally()
    checks.check_cli_run(tally, "a", 1, 0, known_defect=True)
    checks.check_cli_run(tally, "b", 0, 0, [2.0], [2.0])
    assert (tally.failed, tally.correct) == (1, True)
    checks.check_cli_run(tally, "c", 0, 0, [2.0], [2.1])
    assert (tally.failed, tally.correct) == (2, False)
    for returncode, expected in ((1, 0), (0, 2), (2, 3)):
        tally = checks.Tally()
        checks.check_cli_run(tally, "d", returncode, expected)
        assert (tally.failed, tally.correct) == (1, False)
    defects = [name for name, _, known_defect in workloads.CLI_FILES if known_defect]
    assert defects == ["weight_1e200.csv"]
    path = os.path.join(workloads.DATA, "k2.csv")
    values, references = workloads._cli_references(
        ["estimate", path], json.dumps([{"method": "satterthwaite", "value": 1.0}]))
    assert values == [1.0] and not checks.value_ok(values[0], references[0])
