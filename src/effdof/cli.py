"""Command-line front end.

Subcommands:
  estimate   effective d.f. of components read from a CSV or JSON file
  apply      adapters: rubin, welch, jackknife
  reproduce  regenerate a reference simulation table (1, 2, 3, 4, or x2)
  calibrate  search the correction constant on a dense (K, nu) grid
  density    histogram (or raw samples) of the two-component single-d.f. ratio

Exit codes: 0 success, 2 input error, 3 numerical or degenerate error or out of memory.
Markdown output rounds to two decimals like the reference tables; CSV and
JSON carry full precision.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys

from . import applications
from .estimators import (_DRAWS, DEFAULT_REPLICATES, DEFAULT_SEED, RECOMMENDED_C,
                         EstimatorVariant, SynthesisError, VarianceComponent, _finite, _integer)
from .reference import REFERENCE_K_VALUES, REFERENCE_NU_VALUES, REFERENCE_TABLES

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_FORMATS = ("csv", "markdown", "json")
_RAW_SLICE = 1 << 16  # draws per write of `density --raw`, which bounds its memory

_TABLE_METHODS = {
    "1": EstimatorVariant.satterthwaite(),
    "2": EstimatorVariant.von_davier_2025(),
    "3": EstimatorVariant.recommended(),
    "4": EstimatorVariant.adjusted(2.69, 0),
}


class InputError(ValueError):
    """A component file or a combination of arguments is invalid."""


def read_components(path: str) -> list[VarianceComponent]:
    """Load components from a CSV (header weight,s2,df) or a JSON array.

    Every row must pass the component rules. A row with weight exactly 0
    contributes nothing and is dropped once its s2 and df pass; negative
    weights and other rule violations are reported with their row number
    (a CSV row's line number). An empty file is an error.
    """
    rows = _json_rows(path) if path.endswith(".json") else _csv_rows(path)
    components = []
    for row_number, record in rows:
        weight, s2, df = record["weight"], record["s2"], record["df"]
        if isinstance(df, str):
            with contextlib.suppress(ValueError):  # VarianceComponent names the bad value
                df = int(df)
        try:
            if _finite(weight, "weight") == 0.0:
                VarianceComponent(1.0, s2, df)  # adds nothing: dropped once s2 and df pass
            else:
                components.append(VarianceComponent(weight, s2, df))
        except SynthesisError as exc:
            raise InputError(f"row {row_number}: {exc}") from None
    if not components:
        raise InputError("no components")
    return components


def _csv_rows(path: str):
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise InputError("no components")
        header = [name.strip() for name in reader.fieldnames]
        if sorted(header) != ["df", "s2", "weight"]:
            raise InputError(
                f"header must be exactly weight,s2,df (any order), got {','.join(header)}")
        for record in reader:
            # DictReader keys extra fields under None and fills missing ones with None.
            if None in record or None in record.values():
                raise InputError(f"row {reader.line_num}: expected 3 fields")
            yield reader.line_num, {k.strip(): v.strip() for k, v in record.items()}


def _json_rows(path: str):
    with open(path, encoding="utf-8-sig") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # also integers beyond the digit limit
            raise InputError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise InputError("JSON input must be an array of objects")
    for i, item in enumerate(data, start=1):
        if not isinstance(item, dict) or not {"weight", "s2", "df"} <= set(item):
            raise InputError(f"row {i}: expected an object with weight, s2, df")
        yield i, item


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _emit(fmt: str, records: list[dict], markdown: list[str], payload=None) -> None:
    """Write ``records`` in the requested encoding.

    CSV takes its header from the first record's keys and writes floats at
    full precision; JSON writes ``payload``, or the records when there is
    none; markdown prints the given lines.
    """
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(records[0])
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in r.values()]
                         for r in records)
    elif fmt == "json":
        print(json.dumps(records if payload is None else payload, indent=2))
    else:
        for line in markdown:
            print(line)


def _markdown_table(headers, rows) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |", "| --- |" + " --- |" * (len(headers) - 1)]
    return lines + ["| " + " | ".join(row) + " |" for row in rows]


def _method_table(records: list[dict], headers=("method", "estimate"), digits: int = 4):
    """Markdown rows of a per-method listing, values rounded to ``digits`` decimals."""
    return _markdown_table(headers, [[r["method"], *(f"{v:.{digits}f}" for v in
                                                     list(r.values())[1:])] for r in records])


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_estimate(args) -> int:
    components = read_components(args.input)
    adjusted = EstimatorVariant.adjusted(args.constant, args.offset)
    variants = []
    if args.method in ("satterthwaite", "all"):
        variants.append(EstimatorVariant.satterthwaite())
    if args.method == "vd2025" or (args.method == "all" and len(components) >= 2):
        variants.append(EstimatorVariant.von_davier_2025())
    elif args.method == "all":
        print("note: vd2025 skipped (needs at least two components)", file=sys.stderr)
    if args.method in ("adjusted", "all"):
        variants.append(adjusted)
    records = [{"method": v.label, "value": v.evaluate(components).value} for v in variants]
    _emit(args.format, records, _method_table(records))
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    from .simulation import SimulationGrid, _x2, generate_table, generate_tables, pseudo_x2
    grid = SimulationGrid(REFERENCE_K_VALUES, REFERENCE_NU_VALUES,
                          replicates=args.replicates, seed=args.seed)
    if args.table == "x2":
        tables = generate_tables(grid, _TABLE_METHODS.values(), args.threads)
        records = []
        for table_id, table in zip(_TABLE_METHODS, tables):
            record = {"method": table.method.label, "x2": pseudo_x2(table)}
            if args.diff:  # the same sum over that table's published cells
                published = REFERENCE_TABLES[table_id]
                record["published"] = float(_x2((published[k, nu], float(k * nu))
                                                for k, nu in grid.cells()))
            records.append(record)
        _emit(args.format, records, _method_table(records, list(records[0]), digits=5))
        return EXIT_OK

    method = _TABLE_METHODS[args.table]
    table = generate_table(grid, method, max_workers=args.threads)
    published = REFERENCE_TABLES[args.table]
    cells = {key: {"k": key[0], "nu": key[1], "mean": cell.mean, "std_error": cell.std_error,
                   "expected": cell.expected} for key, cell in table.cells.items()}
    blocks = [(f"mean estimated d.f. ({method.label})", "mean")]
    if args.diff:
        for key, record in cells.items():
            record.update(published=published[key],
                          z=(record["mean"] - published[key]) / record["std_error"])
        blocks += [("published reference values", "published"),
                   ("z-scores (mean - published) / std_error", "z")]
    lines = []
    for title, key in blocks:
        lines += ([""] if lines else []) + [title] + _markdown_table(
            ["K\\nu", *map(str, grid.nu_values)],
            [[str(k), *(f"{cells[(k, nu)][key]:.2f}" for nu in grid.nu_values)]
             for k in grid.k_values])
    records = list(cells.values())
    _emit(args.format, records, lines, payload={
        "method": method.label, "seed": grid.seed, "replicates": grid.replicates,
        "cells": records})
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    if not 0 <= args.cmin < args.cmax < math.inf:
        raise InputError(f"need 0 <= cmin < cmax < inf, got {args.cmin} and {args.cmax}")
    if not 0 < args.step <= args.cmax - args.cmin:
        raise InputError("step larger than the C interval: empty grid")
    from .calibration import default_c_grid, run_calibration
    from .simulation import SimulationGrid
    grid = SimulationGrid(range(2, args.kmax + 1), range(1, args.numax + 1),
                          replicates=args.replicates, seed=args.seed)
    if args.curve_out is not None:
        # A path that cannot be written fails before the first draw, not after the
        # whole study. Append mode leaves an existing file as it is; a file it creates
        # is removed at once, so a failed study leaves no curve file behind.
        created = not os.path.exists(args.curve_out)
        open(args.curve_out, "a", encoding="utf-8").close()
        if created:
            os.remove(args.curve_out)
    curve = run_calibration(grid, default_c_grid(args.cmin, args.cmax, args.step),
                            folds=args.folds, max_degree=args.max_degree,
                            max_workers=args.threads)
    if args.curve_out is not None:
        with open(args.curve_out, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([("C", "X2"), *curve.points])
    print(json.dumps({"size": [args.kmax, args.numax], "degree": curve.fit.degree,
                      "r_squared": curve.fit.r_squared, "c_opt": curve.c_opt,
                      "x2_min": curve.x2_min}, indent=2))
    return EXIT_OK


def _cmd_density(args) -> int:
    import numpy as np
    from .simulation import ratio_samples_k2_nu1, substream
    _integer(args.bins, "bins", 1, _DRAWS)  # before the draws are allocated
    samples = ratio_samples_k2_nu1(args.replicates, substream(args.seed, 2, 1, "ratio"))
    if args.raw:
        # The bytes csv.writer would write, one slice of draws at a time.
        sys.stdout.write("sample\r\n")
        for start in range(0, len(samples), _RAW_SLICE):
            sys.stdout.write("".join(
                f"{value!r}\r\n" for value in samples[start:start + _RAW_SLICE].tolist()))
        return EXIT_OK
    counts, edges = np.histogram(samples, bins=args.bins, range=(1.0, 2.0))
    _emit("csv", [{"bin_left": edges[i], "bin_right": edges[i + 1], "count": int(count)}
                  for i, count in enumerate(counts)], [])
    return EXIT_OK


# Each adapter's input dataclass, whose fields are its flags' dests, and its components.
_ADAPTERS = {"rubin": (applications.RubinVariance, applications.rubin_components),
             "welch": (applications.WelchInput, applications.welch_components),
             "jackknife": (applications.JackknifeDeviations, applications.jackknife_components)}


def _cmd_apply(args) -> int:
    inputs, components_of = _ADAPTERS[args.adapter]
    components = components_of(inputs(**{f.name: getattr(args, f.name)
                                         for f in dataclasses.fields(inputs)}))
    variant = EstimatorVariant.adjusted(args.constant, args.offset)
    record = {"method": f"{args.adapter} {variant.label}",
              "value": variant.evaluate(components).value}
    markdown = _markdown_table(("weight", "s2", "df"), [
        [f"{c.weight:g}", f"{c.s2:g}", str(c.df)] for c in components])
    _emit(args.format, [record], markdown + [""] + _method_table([record]),
          payload={**record, "components": [dataclasses.asdict(c) for c in components]})
    return EXIT_OK


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=_FORMATS, default="markdown",
                        help="output encoding (default markdown)")


def _add_threads(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=_at_least(1), default=None,
                        help="at most this many worker threads (default every "
                             "available CPU); results do not depend on it")


def _add_adjustment(parser: argparse.ArgumentParser, offset: bool = True) -> None:
    parser.add_argument("--constant", type=float, default=RECOMMENDED_C,
                        help=f"correction constant C (default {RECOMMENDED_C})")
    if offset:
        parser.add_argument("--offset", type=int, choices=(0, 1), default=0,
                            help="offset p in the K - p shrink term (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effdof",
        description="Effective degrees of freedom for weighted variance syntheses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate effective d.f. from a component file")
    p_est.add_argument("input", help="CSV with header weight,s2,df, or a .json array")
    p_est.add_argument("--method", choices=("satterthwaite", "vd2025", "adjusted", "all"),
                       default="all",
                       help="estimator to run; 'all' lists every variant "
                            "(vd2025 is skipped when only one component is given)")
    _add_adjustment(p_est)
    _add_format(p_est)
    p_est.set_defaults(handler=_cmd_estimate)

    p_rep = sub.add_parser("reproduce", help="regenerate a reference simulation table")
    p_rep.add_argument("--table", choices=(*_TABLE_METHODS, "x2"), required=True,
                       help="1 satterthwaite, 2 vd2025, 3 adjusted c=2.24, "
                            "4 adjusted c=2.69, x2 pseudo chi-square of tables 1-4")
    p_rep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_rep.add_argument("--replicates", type=_at_least(2), default=DEFAULT_REPLICATES)
    _add_threads(p_rep)
    p_rep.add_argument("--diff", action="store_true",
                       help="also print the published values and per-cell z-scores; "
                            "for x2, the pseudo chi-square of each table's published cells")
    _add_format(p_rep)
    p_rep.set_defaults(handler=_cmd_reproduce)

    p_cal = sub.add_parser("calibrate", help="search the correction constant")
    p_cal.add_argument("--kmax", type=_at_least(2), default=5)
    p_cal.add_argument("--numax", type=_at_least(1), default=5)
    p_cal.add_argument("--cmin", type=float, default=2.01)
    p_cal.add_argument("--cmax", type=float, default=3.19)
    p_cal.add_argument("--step", type=float, default=0.01)
    p_cal.add_argument("--replicates", type=_at_least(2), default=DEFAULT_REPLICATES)
    p_cal.add_argument("--folds", type=_at_least(2), default=10)
    p_cal.add_argument("--max-degree", type=_at_least(1), default=6)
    p_cal.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_threads(p_cal)
    p_cal.add_argument("--curve-out", default=None,
                       help="optional path for the sampled (C, X2) curve CSV")
    p_cal.set_defaults(handler=_cmd_calibrate)

    p_den = sub.add_parser("density",
                           help="histogram of the two-component single-d.f. ratio")
    p_den.add_argument("--replicates", type=_at_least(1), default=1_000_000)
    p_den.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_den.add_argument("--bins", type=_at_least(1), default=50)
    p_den.add_argument("--raw", action="store_true", help="emit raw samples instead of bins")
    p_den.set_defaults(handler=_cmd_density)

    p_app = sub.add_parser("apply", help="adapters for common settings")
    app_sub = p_app.add_subparsers(dest="adapter", required=True)
    for name, (inputs, _) in _ADAPTERS.items():
        p_ad = app_sub.add_parser(name, help=inputs.__doc__.partition("\n")[0])
        for field in dataclasses.fields(inputs):  # one flag per field, named after it
            p_ad.add_argument("--" + field.name.replace("_", "-"),
                              required=field.default is dataclasses.MISSING,
                              type=float if "float" in field.type else int,
                              nargs="+" if field.type.startswith("tuple") else None)
        _add_adjustment(p_ad, offset=name != "jackknife")  # jackknife fixes p = 0
        _add_format(p_ad)
        p_ad.set_defaults(handler=_cmd_apply, offset=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.handler(args)
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        # Point stdout at devnull, so that the interpreter's final flush is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InputError, OSError, UnicodeDecodeError, SynthesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, SynthesisError) else EXIT_INPUT
    except MemoryError as exc:  # a size argument beyond this machine's memory
        detail = str(exc) or "a size argument is too large"
        print(f"error: out of memory: {detail}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
