"""Shared factories for randomized inputs used across the test modules."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import effdof
from effdof import VarianceComponent


def make_components(rng: np.random.Generator, k: int | None = None,
                    allow_zero_s2: bool = False) -> list[VarianceComponent]:
    """Random components spanning several orders of magnitude.

    The first component always has s2 > 0 so the synthesis is never
    degenerate.
    """
    if k is None:
        k = int(rng.integers(1, 9))
    components = []
    for i in range(k):
        weight = float(10.0 ** rng.uniform(-3.0, 3.0))
        if allow_zero_s2 and i > 0 and rng.random() < 0.15:
            s2 = 0.0
        else:
            s2 = float(10.0 ** rng.uniform(-4.0, 4.0))
        df = int(rng.integers(1, 101))
        components.append(VarianceComponent(weight, s2, df))
    return components


@pytest.fixture
def component_factory():
    return make_components


def run_python(*args: str, **env: str) -> str:
    """Stdout of a fresh interpreter that imports this effdof, run as ``python args``
    with ``env`` added to its environment; it must exit 0."""
    src = os.path.dirname(os.path.dirname(effdof.__file__))
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_MAINS = """import contextlib, io, json, sys
{prelude}
from effdof.cli import main
results = {{}}
for name, argv in json.loads(sys.argv[1]).items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        results[name] = [main(argv), out.getvalue(), err.getvalue()]
print(json.dumps(results))
"""


def run_mains(argvs: dict[str, list[str]], prelude: str = "", **env: str) -> dict[str, list]:
    """[exit code, stdout, stderr] of ``cli.main`` on each named argv, all run by one
    fresh interpreter after ``prelude``, with ``env`` added."""
    return json.loads(run_python("-c", _MAINS.format(prelude=prelude), json.dumps(argvs), **env))
