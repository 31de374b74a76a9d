"""Statement-deletion audit: which statements of ``src/effdof`` can tier-1 do without?

Each statement inside a function (its docstring aside, nested blocks included) is
replaced by ``pass`` in a copy of the repository, and tier-1 runs there with ``-x``,
the module's own test file first. A mutant that fails, or runs past ``TIMEOUT``
(300 s) in one tier-1 run, is killed; one that passes survives and is printed as
``module.py:line: source``. A mutant that does not compile (say, a decorated nested
def) is skipped.
The exit status is 1 if any mutant survives, 2 if tier-1 fails unmutated.

    python tests/mutation_audit.py [--module calibration]

Stdlib only; not collected by pytest and not part of tier-1 (a full run takes
about 40 min on 2 vCPU).
"""

import argparse
import ast
import itertools
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIMEOUT = 300.0  # seconds before a tier-1 run counts as killed


def statements(tree):
    """Every statement in a function body, outermost first, docstrings left out."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = func.body if ast.get_docstring(func) is None else func.body[1:]
            stack = body[::-1]
            while stack:
                stmt = stack.pop()
                yield stmt
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    blocks = [getattr(stmt, f, []) for f in ("body", "orelse", "finalbody")]
                    blocks += [h.body for h in getattr(stmt, "handlers", [])]
                    stack.extend(reversed([s for block in blocks for s in block]))


def replace(source: str, stmt) -> str:
    """``source`` with ``stmt``'s text replaced by ``pass``."""
    data = source.encode()  # ast offsets count UTF-8 bytes
    starts = [0, *itertools.accumulate(map(len, data.splitlines(keepends=True)))]
    begin = starts[stmt.lineno - 1] + stmt.col_offset
    end = starts[stmt.end_lineno - 1] + stmt.end_col_offset
    return (data[:begin] + b"pass" + data[end:]).decode()


def tier1(copy: pathlib.Path, *paths: str) -> bool:
    """Whether tier-1, or its test files ``paths``, pass in ``copy`` within ``TIMEOUT`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             *paths], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(TIMEOUT) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modules = sorted(path.stem for path in (ROOT / "src" / "effdof").glob("*.py"))
    parser.add_argument("--module", choices=modules, help="audit only this module of src/effdof")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__"))
        if not tier1(copy):
            print("tier-1 fails on the unmutated copy", file=sys.stderr)
            return 2
        total, survivors = 0, []
        for path in sorted((copy / "src" / "effdof").glob("*.py")):
            if args.module and path.stem != args.module:
                continue
            source = path.read_text(encoding="utf-8")
            own = copy / "tests" / f"test_{path.stem}.py"
            start = time.monotonic()
            count = 0
            for stmt in statements(ast.parse(source)):
                mutant = replace(source, stmt)
                try:
                    compile(mutant, str(path), "exec")
                except SyntaxError:
                    continue
                count += 1
                path.write_text(mutant, encoding="utf-8")
                try:  # the module's own test file first: most mutants fail there, and sooner
                    if (not own.exists() or tier1(copy, str(own))) and tier1(copy):
                        text = ast.get_source_segment(source, stmt).splitlines()[0]
                        survivors.append(f"{path.name}:{stmt.lineno}: {text.strip()}")
                        print(survivors[-1], flush=True)
                finally:
                    path.write_text(source, encoding="utf-8")
            total += count
            print(f"# {path.name}: {count} mutants, {time.monotonic() - start:.0f} s", flush=True)
    print(f"{len(survivors)} of {total} mutants survive")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
