"""Command-line front end.

Subcommands:
  estimate   effective d.f. of components read from a CSV or JSON file
  apply      adapters: rubin, welch, jackknife
  reproduce  regenerate a reference simulation table (1, 2, 3, 4, or x2)
  calibrate  search the correction constant on a dense (K, nu) grid
  density    histogram (or raw samples) of the two-component single-d.f. ratio

Exit codes: 0 success, 2 input error, 3 numerical or degenerate error.
Markdown output rounds to two decimals like the reference tables; CSV and
JSON carry full precision.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .applications import (
    JackknifeDeviations,
    RubinVariance,
    WelchInput,
    jackknife_components,
    jackknife_df,
    rubin_components,
    rubin_df,
    welch_components,
    welch_df,
)
from .calibration import (
    DEFAULT_C_INTERVAL,
    CalibrationError,
    curve_rows,
    default_c_grid,
    run_calibration,
    study_summary,
)
from .estimators import (
    RECOMMENDED_C,
    AdjustmentConfig,
    EstimatorVariant,
    SynthesisError,
    VarianceComponent,
    adjusted_df,
    satterthwaite_df,
    vondavier2025_df,
)
from .reference import (
    REFERENCE_K_VALUES,
    REFERENCE_NU_VALUES,
    REFERENCE_TABLES,
    REFERENCE_X2,
)
from .simulation import (
    DEFAULT_REPLICATES,
    DEFAULT_SEED,
    SimulationGrid,
    generate_table,
    pseudo_x2,
    ratio_samples_k2_nu1,
    substream,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_FORMATS = ("csv", "markdown", "json")

_TABLE_METHODS = {
    "1": EstimatorVariant.satterthwaite(),
    "2": EstimatorVariant.von_davier_2025(),
    "3": EstimatorVariant.adjusted(2.24, 0),
    "4": EstimatorVariant.adjusted(2.69, 0),
}

_X2_METHODS = (
    EstimatorVariant.satterthwaite(),
    EstimatorVariant.von_davier_2025(),
    EstimatorVariant.adjusted(2.25, 0),
    EstimatorVariant.adjusted(2.69, 0),
)


class ComponentFileError(ValueError):
    """A component file could not be parsed or violates an invariant."""


def _full(x: float) -> str:
    return repr(float(x))


def read_components(path: str) -> list[VarianceComponent]:
    """Load components from a CSV (header weight,s2,df) or a JSON array.

    Rows with weight exactly 0 are dropped (they contribute nothing);
    negative weights and other invariant violations are reported with their
    row number. An empty file is an error.
    """
    if path.endswith(".json"):
        rows = _json_rows(path)
    else:
        rows = _csv_rows(path)
    components = []
    for row_number, raw in rows:
        weight, s2, df = raw
        if weight == 0.0:
            continue
        try:
            components.append(VarianceComponent(weight, s2, df))
        except SynthesisError as exc:
            raise ComponentFileError(f"row {row_number}: {exc}") from None
    if not components:
        raise ComponentFileError("no components")
    return components


def _parse_df(value, row_number: int) -> int:
    if isinstance(value, bool):
        raise ComponentFileError(f"row {row_number}: df must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            raise ComponentFileError(
                f"row {row_number}: df must be an integer, got {value!r}") from None
    raise ComponentFileError(f"row {row_number}: df must be an integer, got {value!r}")


def _parse_real(value, name: str, row_number: int) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ComponentFileError(
            f"row {row_number}: {name} must be a number, got {value!r}") from None


def _csv_rows(path: str) -> list[tuple[int, tuple[float, float, int]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ComponentFileError("no components")
        header = [name.strip() for name in reader.fieldnames]
        if sorted(header) != ["df", "s2", "weight"]:
            raise ComponentFileError(
                f"header must be exactly weight,s2,df (any order), got {','.join(header)}")
        out = []
        for i, record in enumerate(reader, start=2):
            record = {k.strip(): (v.strip() if isinstance(v, str) else v)
                      for k, v in record.items() if k is not None}
            if any(v is None for v in record.values()):
                raise ComponentFileError(f"row {i}: expected 3 fields")
            out.append((i, (_parse_real(record["weight"], "weight", i),
                            _parse_real(record["s2"], "s2", i),
                            _parse_df(record["df"], i))))
    return out


def _json_rows(path: str) -> list[tuple[int, tuple[float, float, int]]]:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ComponentFileError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise ComponentFileError("JSON input must be an array of objects")
    out = []
    for i, item in enumerate(data, start=1):
        if not isinstance(item, dict) or not {"weight", "s2", "df"} <= set(item):
            raise ComponentFileError(f"row {i}: expected an object with weight, s2, df")
        out.append((i, (_parse_real(item["weight"], "weight", i),
                        _parse_real(item["s2"], "s2", i),
                        _parse_df(item["df"], i))))
    return out


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _emit_methods(rows: list[tuple], fmt: str, columns=("method", "value"),
                  headers=("method", "estimate"), digits: int = 4) -> None:
    """A per-method listing, one row of values per method, in the requested encoding.

    ``columns`` name the CSV and JSON fields and ``headers`` the markdown
    columns, whose values are rounded to ``digits`` decimals.
    """
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        for label, *values in rows:
            writer.writerow([label] + [_full(v) for v in values])
    elif fmt == "json":
        print(json.dumps([dict(zip(columns, row)) for row in rows], indent=2))
    else:
        print("| " + " | ".join(headers) + " |")
        print("| --- |" + " --- |" * (len(headers) - 1))
        for label, *values in rows:
            print(f"| {label} | " + " | ".join(f"{v:.{digits}f}" for v in values) + " |")


def _emit_components_markdown(components: list[VarianceComponent]) -> None:
    print("| weight | s2 | df |")
    print("| --- | --- | --- |")
    for comp in components:
        print(f"| {comp.weight:g} | {comp.s2:g} | {comp.df} |")


def _emit_apply(label: str, value: float, components: list[VarianceComponent],
                fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({
            "method": label,
            "value": value,
            "components": [{"weight": c.weight, "s2": c.s2, "df": c.df}
                           for c in components],
        }, indent=2))
        return
    if fmt == "markdown":
        _emit_components_markdown(components)
        print()
    _emit_methods([(label, value)], fmt)


def _grid_cells_payload(table, published: dict | None) -> list[dict]:
    cells = []
    for (k, nu), cell in table.cells.items():
        entry = {"k": k, "nu": nu, "mean": cell.mean,
                 "std_error": cell.std_error, "expected": cell.expected}
        if published is not None:
            pub = published[(k, nu)]
            entry["published"] = pub
            entry["z"] = (cell.mean - pub) / cell.std_error
        cells.append(entry)
    return cells


def _emit_grid_table(table, label: str, fmt: str, published: dict | None) -> None:
    nus = table.grid.nu_values
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        header = ["k", "nu", "mean", "std_error", "expected"]
        if published is not None:
            header += ["published", "z"]
        writer.writerow(header)
        for entry in _grid_cells_payload(table, published):
            row = [entry["k"], entry["nu"], _full(entry["mean"]),
                   _full(entry["std_error"]), _full(entry["expected"])]
            if published is not None:
                row += [_full(entry["published"]), _full(entry["z"])]
            writer.writerow(row)
    elif fmt == "json":
        print(json.dumps({
            "method": label,
            "seed": table.grid.seed,
            "replicates": table.grid.replicates,
            "cells": _grid_cells_payload(table, published),
        }, indent=2))
    else:
        def grid_block(title: str, value):
            print(title)
            print("| K\\nu | " + " | ".join(str(nu) for nu in nus) + " |")
            print("| --- |" + " --- |" * len(nus))
            for k in table.grid.k_values:
                print("| " + str(k) + " | "
                      + " | ".join(f"{value(k, nu):.2f}" for nu in nus) + " |")

        grid_block(f"mean estimated d.f. ({label})",
                   lambda k, nu: table.cells[(k, nu)].mean)
        if published is not None:
            print()
            grid_block("published reference values", lambda k, nu: published[(k, nu)])
            print()
            grid_block("z-scores (mean - published) / std_error",
                       lambda k, nu: (table.cells[(k, nu)].mean - published[(k, nu)])
                       / table.cells[(k, nu)].std_error)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_estimate(args) -> int:
    components = read_components(args.input)
    config = AdjustmentConfig(args.constant, args.offset)
    adjusted_label = f"adjusted(c={args.constant:g}, p={args.offset})"
    pairs: list[tuple[str, float]] = []
    if args.method in ("satterthwaite", "all"):
        pairs.append(("satterthwaite", satterthwaite_df(components).value))
    if args.method == "vd2025" or (args.method == "all" and len(components) >= 2):
        pairs.append(("vd2025", vondavier2025_df(components).value))
    elif args.method == "all":
        print("note: vd2025 skipped (needs at least two components)", file=sys.stderr)
    if args.method in ("adjusted", "all"):
        pairs.append((adjusted_label, adjusted_df(components, config).value))
    _emit_methods(pairs, args.format)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    grid = SimulationGrid(REFERENCE_K_VALUES, REFERENCE_NU_VALUES,
                          replicates=args.replicates, seed=args.seed)
    if args.table == "x2":
        # The published summary comes from another, unidentified grid.
        n = 3 if args.diff else 2
        rows = [(reference[0], pseudo_x2(generate_table(grid, variant, max_workers=args.threads)),
                 reference[3])[:n] for variant, reference in zip(_X2_METHODS, REFERENCE_X2)]
        _emit_methods(rows, args.format, ("method", "x2", "published")[:n],
                      ("method", "x2", "published (other grid)")[:n], digits=5)
        return EXIT_OK

    method = _TABLE_METHODS[args.table]
    table = generate_table(grid, method, max_workers=args.threads)
    published = REFERENCE_TABLES[args.table] if args.diff else None
    _emit_grid_table(table, method.label, args.format, published)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    if args.kmax < 2 or args.numax < 1:
        raise ComponentFileError("kmax must be >= 2 and numax >= 1")
    if not args.cmin < args.cmax:
        raise ComponentFileError(f"cmin must be < cmax, got {args.cmin} >= {args.cmax}")
    if args.step <= 0 or args.step > (args.cmax - args.cmin):
        raise ComponentFileError("step larger than the C interval: empty grid")
    c_grid = default_c_grid(args.cmin, args.cmax, args.step)
    lo, hi = DEFAULT_C_INTERVAL
    if args.cmin >= lo and args.cmax <= hi:
        interval = DEFAULT_C_INTERVAL
    else:
        # The user overrode the default search range; widen the guard to match.
        interval = (args.cmin - args.step, args.cmax + args.step)
    grid = SimulationGrid(tuple(range(2, args.kmax + 1)),
                          tuple(range(1, args.numax + 1)),
                          replicates=args.replicates, seed=args.seed)
    curve = run_calibration(grid, c_grid, folds=args.folds, max_degree=args.max_degree,
                            c_interval=interval, max_workers=args.threads)
    if args.curve_out:
        with open(args.curve_out, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(curve_rows(curve))
    print(json.dumps(study_summary((args.kmax, args.numax), curve), indent=2))
    return EXIT_OK


def _cmd_density(args) -> int:
    if args.replicates < 1:
        raise ComponentFileError("replicates must be >= 1")
    rng = substream(args.seed, 2, 1, "ratio")
    samples = ratio_samples_k2_nu1(args.replicates, rng)
    writer = csv.writer(sys.stdout)
    if args.raw:
        writer.writerow(["sample"])
        for value in samples:
            writer.writerow([_full(value)])
    else:
        if args.bins < 1:
            raise ComponentFileError("bins must be >= 1")
        counts, edges = np.histogram(samples, bins=args.bins, range=(1.0, 2.0))
        writer.writerow(["bin_left", "bin_right", "count"])
        for i, count in enumerate(counts):
            writer.writerow([_full(edges[i]), _full(edges[i + 1]), int(count)])
    return EXIT_OK


def _cmd_apply_rubin(args) -> int:
    inputs = RubinVariance(args.sampling_s2, args.sampling_df, args.imputation_s2, args.m)
    config = AdjustmentConfig(args.constant, args.offset)
    estimate = rubin_df(inputs, config)
    _emit_apply(f"rubin adjusted(c={args.constant:g}, p={args.offset})",
                estimate.value, rubin_components(inputs), args.format)
    return EXIT_OK


def _cmd_apply_welch(args) -> int:
    df1 = args.df1 if args.df1 is not None else args.n1 - 1
    df2 = args.df2 if args.df2 is not None else args.n2 - 1
    inputs = WelchInput(args.s2_1, args.s2_2, args.n1, args.n2, df1, df2)
    config = AdjustmentConfig(args.constant, args.offset)
    estimate = welch_df(inputs, config)
    _emit_apply(f"welch adjusted(c={args.constant:g}, p={args.offset})",
                estimate.value, welch_components(inputs), args.format)
    return EXIT_OK


def _cmd_apply_jackknife(args) -> int:
    inputs = JackknifeDeviations(tuple(args.deviations), args.constant)
    estimate = jackknife_df(inputs)
    _emit_apply(f"jackknife adjusted(c={args.constant:g}, p=0)",
                estimate.value, jackknife_components(inputs), args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=_FORMATS, default="markdown",
                        help="output encoding (default markdown)")


def _add_adjustment(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--constant", type=float, default=RECOMMENDED_C,
                        help=f"correction constant C (default {RECOMMENDED_C})")
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
    p_rep.add_argument("--table", choices=("1", "2", "3", "4", "x2"), required=True,
                       help="1 satterthwaite, 2 vd2025, 3 adjusted c=2.24, "
                            "4 adjusted c=2.69, x2 pseudo chi-square summary")
    p_rep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_rep.add_argument("--replicates", type=int, default=DEFAULT_REPLICATES)
    p_rep.add_argument("--threads", type=int, default=1)
    p_rep.add_argument("--diff", action="store_true",
                       help="also print the published values and per-cell z-scores; "
                            "for x2 the published summary comes from another, "
                            "unidentified grid")
    _add_format(p_rep)
    p_rep.set_defaults(handler=_cmd_reproduce)

    p_cal = sub.add_parser("calibrate", help="search the correction constant")
    p_cal.add_argument("--kmax", type=int, default=5)
    p_cal.add_argument("--numax", type=int, default=5)
    p_cal.add_argument("--cmin", type=float, default=2.01)
    p_cal.add_argument("--cmax", type=float, default=3.19)
    p_cal.add_argument("--step", type=float, default=0.01)
    p_cal.add_argument("--replicates", type=int, default=DEFAULT_REPLICATES)
    p_cal.add_argument("--folds", type=int, default=10)
    p_cal.add_argument("--max-degree", type=int, default=6)
    p_cal.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_cal.add_argument("--threads", type=int, default=1)
    p_cal.add_argument("--curve-out", default=None,
                       help="optional path for the sampled (C, X2) curve CSV")
    p_cal.set_defaults(handler=_cmd_calibrate)

    p_den = sub.add_parser("density",
                           help="histogram of the two-component single-d.f. ratio")
    p_den.add_argument("--replicates", type=int, default=1_000_000)
    p_den.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_den.add_argument("--bins", type=int, default=50)
    p_den.add_argument("--raw", action="store_true", help="emit raw samples instead of bins")
    p_den.set_defaults(handler=_cmd_density)

    p_app = sub.add_parser("apply", help="adapters for common settings")
    app_sub = p_app.add_subparsers(dest="adapter", required=True)

    p_rubin = app_sub.add_parser("rubin", help="multiple-imputation total variance")
    p_rubin.add_argument("--m", type=int, required=True, help="number of imputations")
    p_rubin.add_argument("--sampling-s2", type=float, required=True)
    p_rubin.add_argument("--sampling-df", type=int, required=True)
    p_rubin.add_argument("--imputation-s2", type=float, required=True)
    _add_adjustment(p_rubin)
    _add_format(p_rubin)
    p_rubin.set_defaults(handler=_cmd_apply_rubin)

    p_welch = app_sub.add_parser("welch", help="two-sample unequal-variance pooled d.f.")
    p_welch.add_argument("--s2-1", dest="s2_1", type=float, required=True)
    p_welch.add_argument("--s2-2", dest="s2_2", type=float, required=True)
    p_welch.add_argument("--n1", type=int, required=True)
    p_welch.add_argument("--n2", type=int, required=True)
    p_welch.add_argument("--df1", type=int, default=None, help="default n1 - 1")
    p_welch.add_argument("--df2", type=int, default=None, help="default n2 - 1")
    _add_adjustment(p_welch)
    _add_format(p_welch)
    p_welch.set_defaults(handler=_cmd_apply_welch)

    p_jack = app_sub.add_parser("jackknife", help="jackknife replication deviations")
    p_jack.add_argument("--deviations", type=float, nargs="+", required=True)
    p_jack.add_argument("--constant", type=float, default=RECOMMENDED_C)
    _add_format(p_jack)
    p_jack.set_defaults(handler=_cmd_apply_jackknife)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.handler(args)
    except ComponentFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SynthesisError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
