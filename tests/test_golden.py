"""Byte-for-byte pins of CLI outputs at fixed seeds.

Each case runs ``effdof.cli.main`` in-process at a low replicate count and
compares its stdout, and for ``calibrate`` its ``--curve-out`` file, with the
file of the same name under ``tests/golden/``. Outputs larger than
``DIGEST_OVER`` bytes are pinned by their SHA-256 digest instead. Chunk
sizes, reduction kernels and scheduling may change freely; the draws and the
arithmetic on each draw may not. A change that alters a random stream
regenerates the files with ``PYTHONPATH=src python tests/test_golden.py``
and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import pathlib
import platform
import tempfile

import pytest

from conftest import run_mains
from effdof.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
DIGEST_OVER = 64 * 1024
CURVE = "CURVE_OUT"

CASES = {
    "reproduce-1-markdown-t1": ["reproduce", "--table", "1", "--replicates", "40",
                                "--threads", "1"],
    "reproduce-2-csv-t2": ["reproduce", "--table", "2", "--replicates", "40",
                           "--threads", "2", "--format", "csv"],
    "reproduce-2-json-diff-t2": ["reproduce", "--table", "2", "--replicates", "40",
                                 "--threads", "2", "--format", "json", "--diff"],
    "reproduce-3-json-t1": ["reproduce", "--table", "3", "--replicates", "40",
                            "--threads", "1", "--format", "json", "--seed", "5"],
    "reproduce-4-markdown-diff-t2": ["reproduce", "--table", "4", "--replicates", "40",
                                     "--threads", "2", "--diff"],
    "reproduce-x2-markdown-t1": ["reproduce", "--table", "x2", "--replicates", "40",
                                 "--threads", "1"],
    "reproduce-x2-csv-diff-t2": ["reproduce", "--table", "x2", "--replicates", "40",
                                 "--threads", "2", "--format", "csv", "--diff"],
    "reproduce-x2-json-t1": ["reproduce", "--table", "x2", "--replicates", "40",
                             "--threads", "1", "--format", "json", "--seed", "7"],
    # 1000 rows of K = 160 span five 2^15-scalar chunks.
    "reproduce-1-csv-1000": ["reproduce", "--table", "1", "--replicates", "1000",
                             "--threads", "2", "--format", "csv"],
    "calibrate-4x4": ["calibrate", "--kmax", "4", "--numax", "4", "--replicates", "300",
                      "--curve-out", CURVE],
    # 70000 draws: two full 2^15-draw chunks and a partial third.
    "density-raw-70000": ["density", "--raw", "--replicates", "70000", "--seed", "3"],
    "density-histogram": ["density", "--replicates", "5000", "--bins", "20"],
    # 600000 draws: two full 2^18-draw blocks, the second from a spawned
    # generator, and a partial third.
    "density-histogram-600000": ["density", "--replicates", "600000", "--bins", "20"],
}


def run_case(argv, curve_path: pathlib.Path) -> dict[str, bytes]:
    """Outputs of one case by golden-file suffix: stdout, and the curve file if any."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(curve_path) if a == CURVE else a for a in argv])
    assert code == 0
    outputs = {"out": out.getvalue().encode("utf-8")}
    if CURVE in argv:
        outputs["curve.csv"] = curve_path.read_bytes()
    return outputs


def _golden_path(name: str, suffix: str, data: bytes) -> pathlib.Path:
    ext = ".sha256" if len(data) > DIGEST_OVER else ""
    return GOLDEN / f"{name}.{suffix}{ext}"


def _pinned(path: pathlib.Path, data: bytes) -> bytes:
    """What the golden file at ``path`` holds for ``data``: itself or its digest."""
    if path.suffix == ".sha256":
        return (hashlib.sha256(data).hexdigest() + "\n").encode("ascii")
    return data


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(name, tmp_path):
    for suffix, data in run_case(CASES[name], tmp_path / "curve.csv").items():
        path = _golden_path(name, suffix, data)
        assert path.exists(), f"no golden file {path.name}"
        assert _pinned(path, data) == path.read_bytes(), f"{path.name} differs"


def test_calibrate_does_not_depend_on_the_openblas_kernel(tmp_path, monkeypatch):
    # Prescott, OpenBLAS's SSE3 baseline, runs on every x86-64 CPU; a newer kernel
    # forced on an older CPU can raise an illegal instruction, so none is forced.
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OPENBLAS_CORETYPE=Prescott is an x86-64 kernel, not one for "
                    f"{platform.machine() or 'this machine'}")
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    curve = tmp_path / "curve.csv"
    argv = [str(curve) if a == CURVE else a for a in CASES["calibrate-4x4"]]
    for env in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        curve.unlink(missing_ok=True)
        [(code, out, err)] = run_mains({"calibrate": argv}, **env).values()
        assert (code, err) == (0, ""), env
        assert out.encode("utf-8") == (GOLDEN / "calibrate-4x4.out").read_bytes(), env
        assert curve.read_bytes() == (GOLDEN / "calibrate-4x4.curve.csv").read_bytes(), env


# Ratio, table and calibration draws, with numpy's SIMD kernels on and switched off.
DISPATCH = {"density-raw": ["density", "--raw", "--replicates", "600000"],
            "x2": ["reproduce", "--table", "x2", "--replicates", "1000", "--format", "csv"],
            "calibrate": ["calibrate", "--kmax", "4", "--numax", "4", "--replicates", "300"]}


def _dispatch_list() -> tuple[str, list[str]]:
    """numpy's module that lists the CPU features it dispatches on, and that list."""
    for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        with contextlib.suppress(ImportError, AttributeError):
            return module, importlib.import_module(module).__cpu_dispatch__
    pytest.skip("numpy lists no __cpu_dispatch__ in numpy._core or numpy.core")


def test_outputs_do_not_depend_on_numpy_cpu_dispatch(capsys):
    module, features = _dispatch_list()
    switched_off = (f"from {module} import __cpu_features__\n"
                    f"assert not any(__cpu_features__[name] for name in {features!r})")
    runs = run_mains(DISPATCH, switched_off, NPY_DISABLE_CPU_FEATURES=" ".join(features))
    for name, argv in DISPATCH.items():  # by digest: a diff of the raw draws would take long
        assert main(argv) == 0
        code, out, err = runs[name]
        digests = [hashlib.sha256(t.encode()).digest() for t in (out, capsys.readouterr().out)]
        assert (code, err, digests[0]) == (0, "", digests[1]), name


def write_golden(scratch: pathlib.Path) -> None:
    """Regenerate every golden file from the code on the import path."""
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        for suffix, data in run_case(argv, scratch / "curve.csv").items():
            path = _golden_path(name, suffix, data)
            path.write_bytes(_pinned(path, data))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_golden(pathlib.Path(scratch))
