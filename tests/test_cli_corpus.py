"""Malformed inputs through the CLI: each ends in a documented exit code.

Every case runs in-process through ``main``. An exception that escapes it
would reach the user as a traceback, so the test fails on one, and on any
exit code other than 0 (success), 2 (input) or 3 (numerical), or on a warning.
"""

import pytest

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
