"""Spans and per-layer measurements for the traced run.

The layers are the package's modules. Spans are recorded here, around the
benchmark's own calls into each module's public functions; nothing inside
``src/effdof`` is instrumented. A span holds its name, start, end, parent
span and operation id, and all spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from effdof import (
    default_c_grid,
    evaluate_x2_curve,
    find_c_opt,
    fit_polynomial_cv,
    generate_table,
    pseudo_x2,
    ratio_samples_k2_nu1,
    simulate_mean_df,
    substream,
)
from effdof import simulation
from effdof.cli import read_components
from effdof.simulation import sample_chi2_matrix

from workloads import DATA, ESTIMATORS, NPROC, call_main

#: Component files every CLI version reads successfully.
VALID_FILES = ("k2.csv", "k5.json", "k200.csv", "df1.json")
#: Alternating timings, each of this fraction of the replicates, behind the
#: largest cell's sampler share.
SHARE_ROUNDS = 10
#: Fresh-interpreter pairs behind cli.import_s, and in-process calls per file.
IMPORT_ROUNDS = 3
CALLS_PER_FILE = 20

_NULL = contextlib.nullcontext()


class NullTracer:
    """Records nothing; the untraced runs use it."""

    def span(self, name, op=None):
        return _NULL


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, operation id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        record = [name, time.perf_counter_ns(), None, parent, op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Seconds spent in each span of this name."""
        return [(s[2] - s[1]) * 1e-9 for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, less the time covered by child spans."""
        own = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            own[name] += (end - start) * 1e-9
            if parent is not None:
                own[self.spans[parent][0]] -= (end - start) * 1e-9
        return dict(own)


def _replay_cell(tracer, seed: int, k: int, nu: int, replicates: int, variant, tag: str,
                 chunk_scalars: int) -> tuple[float, float]:
    """Seconds for one cell (``substream`` plus ``simulate_mean_df``), then
    for its sampler draws alone, replayed from a fresh substream in the
    chunks simulate_mean_df uses."""
    start = time.perf_counter_ns()
    with tracer.span("simulation.substream"):
        rng = substream(seed, k, nu, tag)
    with tracer.span("simulation.simulate_mean_df"):
        simulate_mean_df(k, nu, variant, replicates, rng)
    cell_s = (time.perf_counter_ns() - start) * 1e-9
    rng = substream(seed, k, nu, tag)
    rows = max(1, chunk_scalars // (k * nu))
    sample_start = time.perf_counter_ns()
    with tracer.span("simulation.sample_chi2_matrix"):
        for done in range(0, replicates, rows):
            sample_chi2_matrix(rng, min(rows, replicates - done), k, nu)
    return cell_s, (time.perf_counter_ns() - sample_start) * 1e-9


def simulation_layers(tracer: Tracer, grids, variant, tag: str) -> tuple[dict, str]:
    """generate_table at nproc threads, then every cell replayed serially.

    Each replayed cell is timed whole and then as its sampler draws alone, on
    the same stream, which gives the sampler's share. For the largest cell
    the share comes from SHARE_ROUNDS alternating timings of a fraction of
    its replicates instead: one timing of each, seconds apart on a machine
    whose speed drifts, once put the sampler at 108% of the cell. Returns
    the metrics and the label of the largest cell.
    """
    for grid in grids:
        with tracer.span("simulation.generate_table"):
            table = generate_table(grid, variant, max_workers=NPROC)
        with tracer.span("simulation.pseudo_x2"):
            pseudo_x2(table)
    chunk_scalars = getattr(simulation, "_CHUNK_SCALARS", 4_000_000)
    variates, per_cell = 0, []
    for grid in grids:
        for k, nu in grid.cells():
            with tracer.span("simulation.cell", op=f"K={k},nu={nu}"):
                cell_s, _ = _replay_cell(tracer, grid.seed, k, nu, grid.replicates, variant,
                                         tag, chunk_scalars)
            variates += grid.replicates * k
            per_cell.append((k * nu, k, grid, cell_s))
    size, k_max, grid, cell_s = max(per_cell, key=lambda cell: cell[:2])  # by K * nu
    rounds = [_replay_cell(NullTracer(), grid.seed, k_max, size // k_max,
                           max(2, grid.replicates // SHARE_ROUNDS), variant, tag, chunk_scalars)
              for _ in range(SHARE_ROUNDS)]
    simulate_s = tracer.total("simulation.simulate_mean_df")
    sampler_s = tracer.total("simulation.sample_chi2_matrix")
    serial_s = simulate_s + tracer.total("simulation.substream")
    return {
        "simulation.generate_table.s": tracer.total("simulation.generate_table"),
        "simulation.simulate_mean_df.s": simulate_s,
        "simulation.cell_max.s": cell_s,
        "simulation.pseudo_x2.s": tracer.total("simulation.pseudo_x2"),
        "simulation.sample_chi2_matrix.s": sampler_s,
        "simulation.sampler_share": sampler_s / simulate_s,
        "simulation.sampler_share_cell_max": sum(r[1] for r in rounds) / sum(r[0] for r in rounds),
        "simulation.ns_per_variate": simulate_s / variates * 1e9,
        "simulation.chi2_variates": variates,
        "simulation.substream.s": tracer.total("simulation.substream"),
        "simulation.cells": len(per_cell),
        "simulation.pool_speedup": serial_s / tracer.total("simulation.generate_table"),
    }, f"K={k_max}, nu={size // k_max}"


def ratio_layer(tracer: Tracer, seed: int, draws: int) -> dict:
    with tracer.span("simulation.ratio_samples_k2_nu1"):
        ratio_samples_k2_nu1(draws, substream(seed, 2, 1, "ratio"))
    return {"simulation.ratio_samples_k2_nu1.s": tracer.total("simulation.ratio_samples_k2_nu1")}


def calibration_layers(tracer: Tracer, grids, threads: int) -> dict:
    """The three stages run_calibration chains, each timed on its own."""
    c_points = 0
    for grid in grids:
        with tracer.span("calibration.evaluate_x2_curve"):
            points = evaluate_x2_curve(default_c_grid(), grid, max_workers=threads)
        with tracer.span("calibration.fit_polynomial_cv"):
            fit = fit_polynomial_cv(points, seed=grid.seed)
        with tracer.span("calibration.find_c_opt"):
            find_c_opt(fit.coefficients, (points[0][0], points[-1][0]))
        c_points += len(points)
    return {
        "calibration.evaluate_x2_curve.s": tracer.total("calibration.evaluate_x2_curve"),
        "calibration.fit_polynomial_cv.s": tracer.total("calibration.fit_polynomial_cv"),
        "calibration.find_c_opt.s": tracer.total("calibration.find_c_opt"),
        "calibration.c_points": c_points,
    }


def estimator_layers(tracer: Tracer, stream, outputs) -> dict:
    """Mean time per call by layer and size class, from the stream's spans.

    Small means K <= 5 and large K >= 200; ``outputs`` is one pass's results.
    """
    per_call = defaultdict(list)
    components = 0
    for name, start, end, _, op in tracer.spans:
        if name.startswith(("estimators.", "applications.")) and isinstance(op, int):
            k = stream.syntheses[op].k
            size = "small" if k <= 5 else "large" if k >= 200 else "mid"
            per_call[name, size].append(end - start)
            per_call[name, "all"].append(end - start)
            if name == "estimators.VarianceComponent":
                components += k

    def mean_us(name, size):
        values = per_call[name, size]
        return sum(values) / len(values) * 1e-3 if values else float("nan")

    raw, synthesis = stream.error_counts(outputs)
    metrics = {"estimators.VarianceComponent.us":
               sum(per_call["estimators.VarianceComponent", "all"]) * 1e-3 / components}
    for name, _, _, _ in ESTIMATORS:
        metrics[f"{name}.small_us"] = mean_us(name, "small")
        if name != "estimators.vondavier2025_df":
            metrics[f"{name}.large_us"] = mean_us(name, "large")
    metrics["estimators.errors_raw"] = raw
    metrics["estimators.errors_synthesis"] = synthesis
    for name in ("rubin_df", "welch_df", "jackknife_df"):
        metrics[f"applications.{name}.us"] = mean_us(f"applications.{name}", "all")
    return metrics


def _fresh_interpreter_s(code: str, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - start


def cli_layers(tracer: Tracer, env: dict) -> dict:
    """Import cost of the CLI, and its reader and estimate command in-process."""
    imports = []
    for _ in range(IMPORT_ROUNDS):
        bare = _fresh_interpreter_s("pass", env)
        imports.append(_fresh_interpreter_s("import effdof.cli", env) - bare)
    files = [os.path.join(DATA, name) for name in VALID_FILES]
    for _ in range(CALLS_PER_FILE):
        for path in files:
            with tracer.span("cli.read_components"):
                read_components(path)
            with tracer.span("cli.main_estimate"):
                call_main(["estimate", path, "--format", "json"])
    return {
        "cli.import_s": statistics.median(imports),
        "cli.read_components.us": statistics.mean(tracer.durations("cli.read_components")) * 1e6,
        "cli.main_estimate.us": statistics.mean(tracer.durations("cli.main_estimate")) * 1e6,
    }
