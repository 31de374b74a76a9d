"""Tests of the package's public surface."""

import ast
import json
import pathlib

import pytest

import effdof
from conftest import run_mains, run_python

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
    from effdof.simulation import sample_chi2_matrix
    assert callable(sample_chi2_matrix)


# The import contract: numpy only where draws happen, numpy.polynomial nowhere.
# Each case runs in a fresh interpreter, since this one has both.
_LOADED = 'print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))'


@pytest.mark.parametrize("argv", [
    ["estimate", "FILE", "--format", "json"],
    ["apply", "welch", "--s2-1", "4", "--s2-2", "9", "--n1", "5", "--n2", "8"],
], ids=["estimate", "apply-welch"])
def test_estimate_and_apply_never_import_numpy(argv, tmp_path):
    path = tmp_path / "components.csv"
    path.write_text("weight,s2,df\n1,4,3\n2,9,5\n")
    argv = [str(path) if a == "FILE" else a for a in argv]
    out = run_python("-c", "import sys\nfrom effdof.cli import main\n"
                     f"assert main(sys.argv[1:]) == 0\n{_LOADED}", *argv)
    assert out.splitlines()[-1] == "[]"


_K5 = str(pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "data" / "k5.json")
_WELCH = ["apply", "welch", "--s2-1", "4", "--s2-2", "9", "--n1", "5", "--n2", "8"]
_RUBIN = ["apply", "rubin", "--m", "5", "--sampling-s2", "4", "--imputation-s2", "1"]
_NUMPY_FREE = {"estimate": ["estimate", _K5],
               "estimate-vd2025": ["estimate", _K5, "--constant", "2", "--offset", "1"],
               "welch": _WELCH, "rubin": [*_RUBIN, "--sampling-df", "10"],
               "rubin-2^53": [*_RUBIN, "--sampling-df", str(2 ** 53)],
               "jackknife": ["apply", "jackknife", "--deviations", "0.4", "-1.1", "0.9", "0.2",
                             "--constant", "2.69"]}
_REFUSED = {"welch-df1": [*_WELCH, "--df1", "9"],  # bounds stated by the input rules
            "jackknife-one": ["apply", "jackknife", "--deviations", "0.4"],
            "rubin-beyond-2^53": [*_RUBIN, "--sampling-df", str(2 ** 53 + 1)]}
_HELP = {f"help-{a}": ["apply", a, "--help"] for a in ("rubin", "welch", "jackknife")}
# c * K / (K - 1) overflows at p = 1; the value must stay positive.
_OVERFLOW = ["apply", "rubin", "--m", "2", "--sampling-s2", "1", "--sampling-df", "1",
             "--imputation-s2", "1", "--constant", "1e308", "--offset", "1", "--format", "json"]


def test_estimate_and_apply_run_with_numpy_unimportable():
    runs = run_mains({**_NUMPY_FREE, **_REFUSED, **_HELP, "overflow": _OVERFLOW},
                     'sys.modules["numpy"] = None\nfrom effdof import cli, reference')
    for name, argv in _NUMPY_FREE.items():  # the bytes of a normal run, by the entry point
        assert runs[name] == [0, run_python("-m", "effdof.cli", *argv), ""], name
    rows = [line.split(" | ")[0][2:] for line in runs["estimate-vd2025"][1].splitlines()]
    assert rows == ["method", "---", "satterthwaite", "vd2025", "adjusted(c=2, p=1)"]
    for name in _REFUSED:
        code, out, err = runs[name]
        assert (code, out, err.count("\n")) == (3, "", 1) and err.startswith("error: "), name
    for name in _HELP:
        assert runs[name][0] == 0 and runs[name][1].startswith("usage: "), name
    assert runs["overflow"][0] == 0 and json.loads(runs["overflow"][1])["value"] > 0


@pytest.mark.parametrize("statement", ["from effdof import cli", "from effdof import reference"])
def test_numpy_free_submodules_import_without_numpy(statement):
    # The package's lazy-name hook once loaded numpy when the import system asked for them.
    out = run_python("-c", f"import sys\n{statement}\n{_LOADED}")
    assert out.splitlines()[-1] == "[]"


def test_reproduce_never_imports_numpy_polynomial():
    out = run_python("-c", "import sys\nfrom effdof.cli import main\n"
                     "assert main(['reproduce', '--table', '1', '--replicates', '200']) == 0\n"
                     'print("numpy" in sys.modules, "numpy.polynomial" in sys.modules)')
    assert out.splitlines()[-1] == "True False"


def test_calibrate_never_imports_numpy_polynomial():
    # The fit and the search are elementwise numpy and Python floats.
    out = run_python("-c", "import sys\nfrom effdof.cli import main\n"
                     "assert main(['calibrate', '--kmax', '3', '--numax', '3',"
                     " '--replicates', '50']) == 0\n"
                     'print("numpy" in sys.modules, "numpy.polynomial" in sys.modules)')
    assert out.splitlines()[-1] == "True False"


def test_drawing_commands_never_import_concurrent_futures_or_logging():
    # Cells are drawn by the caller beside plain threads; an executor would load both.
    out = run_python("-c", "import sys, threading\nfrom effdof.cli import main\n"
                     "assert main(['reproduce', '--table', '1', '--replicates', '50',"
                     " '--threads', '2', '--format', 'csv']) == 0\n"
                     "assert main(['calibrate', '--kmax', '3', '--numax', '3',"
                     " '--replicates', '50']) == 0\n"
                     'print("concurrent.futures" in sys.modules, "logging" in sys.modules,'
                     ' threading.active_count())')  # no thread is left behind
    assert out.splitlines()[-1] == "False False 1"


def test_modules_and_names_loaded_on_first_use():
    out = run_python("-c", f"""import sys
import effdof
{_LOADED}
print(effdof.simulation.__name__, effdof.calibration.__name__)
print(effdof.SimulationGrid is effdof.simulation.SimulationGrid,
      effdof.DEFAULT_SEED is effdof.simulation.DEFAULT_SEED)
print("numpy" in sys.modules, "numpy.polynomial" in sys.modules)  # no fit has run
""")
    assert out.splitlines() == ["[]", "effdof.simulation effdof.calibration", "True True",
                                "True False"]


def test_unknown_attribute_is_an_attribute_error():
    out = run_python("-c", """import effdof
for _ in range(2):  # before and after the numpy modules are loaded
    try:
        effdof.no_such_name
    except AttributeError as exc:
        print(exc)
print(hasattr(effdof, "no_such_name"), effdof.find_c_opt.__name__)
""")
    assert out.splitlines() == ["module 'effdof' has no attribute 'no_such_name'"] * 2 + [
        "False find_c_opt"]


def test_dir_and_star_import_give_the_public_names():
    out = run_python("-c", """import json
import effdof
print(json.dumps(dir(effdof)))  # before anything else loads the numpy modules
namespace = {}
exec("from effdof import *", namespace)
print(json.dumps(sorted(set(namespace) - {"__builtins__"})))
""")
    listed, star = map(json.loads, out.splitlines())
    assert set(PUBLIC_NAMES) <= set(listed) and listed == sorted(listed)
    assert star == PUBLIC_NAMES


def test_sources_parse_as_python_3_10():
    """Every module of the package, the tests and the benchmark parses under 3.10's grammar.

    This catches syntax newer than the oldest supported Python, such as
    ``except*``; it does not catch stdlib functions or arguments added after
    3.10, which only a run on 3.10 finds.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [p for d in ("src/effdof", "tests", "perfbench") for p in (root / d).rglob("*.py")]
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
