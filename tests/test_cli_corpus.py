"""Malformed inputs through the CLI: each ends in a documented exit code.

Every case runs in-process through ``main``. An exception that escapes it
would reach the user as a traceback, so the test fails on one, and on any
exit code other than 0 (success), 2 (input) or 3 (numerical), or on a warning.
The sizes beyond memory, and a seeded fuzzer over every option of the drawing
commands and the adapters, run in one child process with a capped address space.
"""

import json
import random
import sys

import pytest

from conftest import run_mains
from effdof.cli import main

_BIG = "7" * 5000  # beyond Python's default digit limit for int(str)

# Component files by name; the name's suffix picks the reader.
_FILES = {
    "bad-header.csv": b"w,s2,df\n1,1,1\n",
    "duplicate-header.csv": b"weight,weight,df\n1,1,1\n",
    "bom-header.csv": "\ufeffweight,s2,df\n1,1,1\n".encode(),
    "header-only.csv": b"weight,s2,df\n",
    "empty.csv": b"",
    "blank-lines.csv": b"\n\n\n",
    "nan-s2.csv": b"weight,s2,df\n1,nan,1\n",
    "inf-weight.csv": b"weight,s2,df\n1,1,1\ninf,1,1\n",
    "nan-df.csv": b"weight,s2,df\n1,1,nan\n",
    "huge-s2.csv": b"weight,s2,df\n1,1e400,1\n1,1,1\n",
    "tiny-weight.csv": b"weight,s2,df\n1e-400,1,1\n1,1,1\n",
    "tiny-s2.csv": b"weight,s2,df\n1,1e-400,1\n1,1e-400,1\n",
    "big-df.csv": f"weight,s2,df\n1,1,{_BIG}\n".encode(),
    "big-weight.csv": f"weight,s2,df\n{_BIG},1,1\n".encode(),
    "latin1.csv": b"weight,s2,df\n1,1,1\n\xe9,1,1\n",
    "zero-weights.csv": b"weight,s2,df\n0,1,1\n-0,2,3\n",
    "zero-weight-bad-df.csv": b"weight,s2,df\n0,1,1.5\n1,1,1\n",
    "zero-weight-nan-s2.csv": b"weight,s2,df\n0,nan,1\n1,1,1\n",
    "empty.json": b"",
    "empty-array.json": b"[]",
    "nan.json": b'[{"weight": 1, "s2": NaN, "df": 1}]',
    "infinity.json": b'[{"weight": Infinity, "s2": 1, "df": 1}]',
    "huge.json": b'[{"weight": 1, "s2": 1e400, "df": 1}, {"weight": 1, "s2": 1, "df": 1}]',
    "big-int.json": f'[{{"weight": 1, "s2": 1, "df": {_BIG}}}]'.encode(),
    # JSON integers beyond the doubles, up to Python's default digit limit.
    "int-309-weight.json": f'[{{"weight": {"9" * 309}, "s2": 1, "df": 3}}]'.encode(),
    "int-400-s2.json": f'[{{"weight": 1, "s2": {"9" * 400}, "df": 3}}]'.encode(),
    "int-4300-s2-zero-weight.json":
        f'[{{"weight": 0, "s2": {"9" * 4300}, "df": 3}}, {{"weight": 1, "s2": 1, "df": 3}}]'.encode(),
    "null-fields.json": b'[{"weight": null, "s2": null, "df": null}]',
    "bool-df.json": b'[{"weight": 1, "s2": 1, "df": true}]',
    "nested.json": b'[{"weight": [1], "s2": {"a": 1}, "df": "2"}]',
    "latin1.json": b'[{"weight": 1, "s2": 1, "df": "\xe9"}]',
}

_FLAGS = [
    ["estimate", "FILE", "--constant", "nan"],
    ["estimate", "FILE", "--constant", "inf"],
    ["estimate", "FILE", "--constant", "-1"],
    ["estimate", "FILE", "--constant", "1e308"],
    ["estimate", "FILE", "--offset", "2"],
    ["apply", "rubin", "--m", "1", "--sampling-s2", "1", "--sampling-df", "1",
     "--imputation-s2", "1"],
    ["apply", "rubin", "--m", str(2 ** 70), "--sampling-s2", "1e308", "--sampling-df", "1",
     "--imputation-s2", "1e308"],
    ["apply", "rubin", "--m", "5", "--sampling-s2", "nan", "--sampling-df", "1",
     "--imputation-s2", "1"],
    ["apply", "welch", "--s2-1", "1e-320", "--s2-2", "0", "--n1", "2", "--n2", "2"],
    ["apply", "welch", "--s2-1", "1", "--s2-2", "1", "--n1", "1", "--n2", "2"],
    ["apply", "welch", "--s2-1", "1", "--s2-2", "1", "--n1", "5", "--n2", "5", "--df1", "0"],
    ["apply", "welch", "--s2-1=-inf", "--s2-2", "1", "--n1", "5", "--n2", "5"],
    ["apply", "jackknife", "--deviations", "1e200", "1e200"],
    ["apply", "jackknife", "--deviations", "1"],
    ["apply", "jackknife", "--deviations", "1", "1", "--constant", "-0.5"],
    ["reproduce", "--table", "1", "--replicates", "2", "--seed", str(-2 ** 70),
     "--threads", "2"],
    ["reproduce", "--table", "9"],
    ["calibrate", "--kmax", "2", "--numax", "1", "--replicates", "2", "--folds", "1000"],
    ["calibrate", "--kmax", "2", "--numax", "1", "--replicates", "2", "--max-degree", "40"],
    ["calibrate", "--kmax", "2", "--numax", "1", "--replicates", "2", "--seed", str(2 ** 70),
     "--cmin", "0", "--cmax", "5e-324", "--step", "5e-324"],
    ["calibrate", "--kmax", "2", "--numax", "1", "--replicates", "2",
     "--cmin", "1e308", "--cmax", "1.7976931348623157e308", "--step", "1e307"],
    ["calibrate", "--step", "1e-300", "--cmin", "0", "--cmax", "1e308",
     "--kmax", "2", "--numax", "1", "--replicates", "2"],
    ["calibrate", "--step", "1e-12", "--cmin", "0", "--cmax", "3",
     "--kmax", "2", "--numax", "1", "--replicates", "2"],
    ["calibrate", "--kmax", "1"],
    ["calibrate", "--step", "-0.01"],
    ["density", "--replicates", "1", "--bins", "1", "--seed", str(-2 ** 70)],
    ["density", "--replicates", "1", "--raw"],
    ["density", "--replicates", "0"],
]


def _ids():
    for argv in _FLAGS:
        yield "-".join(a for a in argv if a != "FILE")[:60]


@pytest.mark.filterwarnings("error")  # numpy's warnings are noise on a user's terminal
@pytest.mark.parametrize("argv", [["estimate", name] for name in _FILES]
                         + [["estimate", name, "--format", "json"] for name in
                            ("tiny-s2.csv", "huge.json")]
                         + _FLAGS,
                         ids=[f"estimate-{name}" for name in _FILES]
                         + ["json-tiny-s2", "json-huge"] + list(_ids()))
def test_exit_code_is_documented_and_no_traceback(argv, tmp_path, capsys):
    files = {**_FILES, "FILE": b"weight,s2,df\n1,1,1\n1,2,3\n"}
    paths = {}
    for name in set(argv) & set(files):
        path = tmp_path / ("input.json" if name.endswith(".json") else "input.csv")
        path.write_bytes(files[name])
        paths[name] = str(path)
    assert main([paths.get(a, a) for a in argv]) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


# JSON booleans are not numbers: each row once read as a weight or variance
# of 1.0 or 0.0, and a false weight dropped its row without a word.
_BOOL_FILES = {
    "false-weight": '[{"weight": false, "s2": 1, "df": 3}, {"weight": 1, "s2": 2, "df": 3}]',
    "true-weight": '[{"weight": true, "s2": 1, "df": 3}, {"weight": 1, "s2": 2, "df": 3}]',
    "true-s2": '[{"weight": 1, "s2": true, "df": 3}, {"weight": 1, "s2": 2, "df": 3}]',
    "false-s2": '[{"weight": 1, "s2": false, "df": 3}, {"weight": 1, "s2": 2, "df": 3}]',
    "zero-weight-false-s2":
        '[{"weight": 0, "s2": false, "df": 3}, {"weight": 1, "s2": 2, "df": 3}]',
}


@pytest.mark.parametrize("name", _BOOL_FILES)
def test_json_boolean_weight_or_variance_exits_2(name, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(_BOOL_FILES[name])
    assert main(["estimate", str(path)]) == 2
    assert "row 1: " in capsys.readouterr().err


def test_empty_curve_out_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # An empty path once read as no --curve-out at all: exit 0 and no curve file.
    monkeypatch.chdir(tmp_path)
    assert main(["calibrate", "--kmax", "2", "--numax", "1", "--replicates", "2",
                 "--curve-out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_offset_one_at_a_constant_whose_fold_overflows_prints_a_positive_value(capsys):
    # c * K / (K - 1) is inf here: the value once printed as 0.0 with exit 0.
    assert main(["apply", "rubin", "--m", "2", "--sampling-s2", "1", "--sampling-df", "1",
                 "--imputation-s2", "1", "--constant", "1e308", "--offset", "1",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] > 0


# Sizes beyond a stated bound, each refused before anything is allocated: once
# a traceback (OverflowError, or numpy's "Maximum allowed dimension exceeded").
_BOUNDED = {
    "welch-n1-beyond-2^53": (
        ["apply", "welch", "--s2-1", "1", "--s2-2", "1", "--n1", "1" + "0" * 400, "--n2", "5",
         "--df1", "4"], "n1 must be <= 9007199254740992, 2^53"),
    "rubin-sampling-df-beyond-2^53": (
        ["apply", "rubin", "--m", "5", "--sampling-s2", "4", "--sampling-df", str(2**53 + 1),
         "--imputation-s2", "1"], "sampling_df must be <= 9007199254740992, 2^53"),
    "calibrate-kmax": (["calibrate", "--kmax", str(10 ** 20)], "cells exceeds 1000000"),
    "reproduce-replicates": (["reproduce", "--table", "1", "--replicates", str(10 ** 20)],
                             "replicates must be <= 9007199254740992"),
    "reproduce-x2-replicates": (["reproduce", "--table", "x2", "--replicates", str(2 ** 63 - 1)],
                                "replicates must be <= 9007199254740992"),
    "density-bins": (["density", "--bins", str(10 ** 20)], "bins must be <= 9007199254740992"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", _BOUNDED)
def test_size_beyond_its_bound_exits_3_with_one_line(name, capsys):
    argv, message = _BOUNDED[name]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


# Sizes no machine's memory holds. All run in one child whose address space is
# capped 1 GiB above what its imports took, so that no case can pass by overcommit
# and fail later, and none makes a real huge allocation.
_SIZES = {
    "density-bins": ["density", "--replicates", "1000", "--bins", str(10 ** 12)],
    "density-replicates": ["density", "--replicates", str(10 ** 13)],
    "density-raw-replicates": ["density", "--raw", "--replicates", str(10 ** 13)],
    "reproduce-replicates": ["reproduce", "--table", "1", "--replicates", str(10 ** 13),
                             "--threads", "2"],
    "calibrate-replicates": ["calibrate", "--kmax", "2", "--numax", "1",
                             "--replicates", str(10 ** 13)],
}
# A degree no fold can estimate is never built: 10^8 once asked for 88.7 GiB.
_SHORT_CALIBRATION = ["calibrate", "--kmax", "2", "--numax", "1", "--replicates", "2",
                      "--cmin", "2", "--cmax", "2.3"]  # 31 constants: degrees up to 26
_DEGREES = {f"max-degree-{d}": [*_SHORT_CALIBRATION, "--max-degree", str(d)]
            for d in (26, 10 ** 8)}

_CAP = """import resource
import numpy  # with its thread buffers, before the cap
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) << 10 for line in status if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (size + (1 << 30), size + (1 << 30)))"""


# A seeded fuzzer over every option of the drawing commands and the adapters. Each
# option draws from small valid values and, one time in four, from the edge values;
# --replicates is always given, so that no run draws for long. An empty list marks
# a switch, and --curve-out takes its own paths.
_EDGES = ["0", "-0", "nan", "inf", "-inf", "1e308", "5e-324", str(2 ** 63), str(10 ** 20),
          " 4", "1_0"]
_FORMAT = ["csv", "markdown", "json"]
_OPTIONS = {
    ("calibrate",): {"--replicates": ["2", "3"], "--kmax": ["2", "3"], "--numax": ["1", "2"],
                     "--cmin": ["2"], "--cmax": ["2.3"], "--step": ["0.1"], "--folds": ["3"],
                     "--max-degree": ["2"], "--seed": ["8191"], "--threads": ["1", "2"],
                     "--curve-out": None},
    ("reproduce",): {"--replicates": ["2", "3"], "--table": ["1", "4", "x2"], "--seed": ["8191"],
                     "--threads": ["1", "2"], "--diff": [], "--format": _FORMAT},
    ("density",): {"--replicates": ["1", "5"], "--seed": ["8191"], "--bins": ["1", "3"],
                   "--raw": []},
    ("apply", "rubin"): {"--m": ["2", "5"], "--sampling-s2": ["1"], "--sampling-df": ["1", "9"],
                         "--imputation-s2": ["0.5"], "--constant": ["2.24"],
                         "--offset": ["1"], "--format": _FORMAT},
    ("apply", "welch"): {"--s2-1": ["1"], "--s2-2": ["3"], "--n1": ["2", "5"], "--n2": ["5"],
                         "--df1": ["1", "3"], "--df2": ["4"], "--constant": ["2.24"],
                         "--offset": ["1"], "--format": _FORMAT},
    ("apply", "jackknife"): {"--deviations": ["0.5", "-1"], "--constant": ["2.69"],
                             "--format": _FORMAT},
}


@pytest.fixture(scope="module")
def fuzz_argvs(tmp_path_factory):
    curve_dir = tmp_path_factory.mktemp("fuzz")
    curves = ["", str(curve_dir / "curve.csv"), str(curve_dir / "missing" / "curve.csv")]
    rng = random.Random(43)

    def value(values):
        return rng.choice(_EDGES if rng.random() < 0.25 else values)

    argvs = {}
    for run in range(150):
        command = rng.choice(list(_OPTIONS))
        argv = list(command)
        for option, values in _OPTIONS[command].items():
            if option != "--replicates" and rng.random() < 0.2:
                continue
            if values is None:
                argv += [option, rng.choice(curves)]
            elif option == "--deviations":
                argv += [option, *(value(values) for _ in range(rng.randint(1, 3)))]
            else:
                argv += [option, value(values)] if values else [option]
        argvs[f"fuzz-{run}"] = argv
    return argvs


@pytest.fixture(scope="module")
def capped_runs(fuzz_argvs):
    argvs = {**_SIZES, **_DEGREES, **fuzz_argvs}
    return run_mains(argvs, _CAP)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the address space size from /proc")
@pytest.mark.parametrize("name", _SIZES)
def test_size_beyond_memory_exits_3_with_one_line(name, capped_runs):
    code, _, err = capped_runs[name]
    assert code == 3
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the address space size from /proc")
def test_huge_max_degree_prints_the_bytes_of_the_largest_estimable(capped_runs):
    assert capped_runs["max-degree-100000000"] == capped_runs["max-degree-26"]
    assert capped_runs["max-degree-26"][0] == 0


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the address space size from /proc")
def test_fuzzed_options_exit_0_2_or_3_with_one_error_line(fuzz_argvs, capped_runs):
    codes = set()
    for name, argv in fuzz_argvs.items():
        code, _, err = capped_runs[name]
        codes.add(code)
        assert code in (0, 2, 3) and "Traceback" not in err and "Warning" not in err, (argv, err)
        assert sum("error:" in line for line in err.splitlines()) == (code != 0), (argv, err)
    assert codes == {0, 2, 3}  # the seed reaches every outcome
