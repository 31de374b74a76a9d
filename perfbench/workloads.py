"""The three workloads: inputs made from a seed, one timed pass, and its checks.

Each workload drives the program only through its public entry points
(``effdof.cli.main`` and the library functions a user would call) and hands
it only the inputs generated here. See README.md beside this file for why
each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from effdof import (
    EstimatorVariant,
    JackknifeDeviations,
    RubinVariance,
    SimulationGrid,
    SynthesisError,
    VarianceComponent,
    WelchInput,
    jackknife_df,
    ratio_mean_k2_nu1,
    recommended_df,
    rubin_df,
    satterthwaite_df,
    substream,
    vondavier2025_df,
    welch_df,
)
from effdof.cli import main as cli_main
from effdof.reference import REFERENCE_K_VALUES, REFERENCE_NU_VALUES, REFERENCE_TABLES

import checks

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
#: Replicates per cell: the published count and the CLI default.
REPLICATES = 10_000
NPROC = len(os.sched_getaffinity(0))
#: The recommended constant, written out so the references do not import it.
C_RECOMMENDED = 2.24


def call_main(argv) -> tuple[int, str]:
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    return code, out.getvalue()


def _grid(k_max: int, nu_max: int, seed: int) -> SimulationGrid:
    return SimulationGrid(tuple(range(2, k_max + 1)), tuple(range(1, nu_max + 1)),
                          replicates=REPLICATES, seed=seed)


def _variates(grid: SimulationGrid) -> int:
    """Chi-square variates one table over ``grid`` draws: replicates x K per cell."""
    return grid.replicates * sum(k for k, _ in grid.cells())


class Tables:
    """`reproduce --table x2 --diff` and tables 1-4 on the 8x8 reference grid."""

    name = "tables"

    def __init__(self, seed: int):
        self.seed = seed
        self.threads = NPROC
        common = ["--seed", str(seed), "--threads", str(self.threads)]
        self.commands = [["reproduce", "--table", "x2", "--diff", *common]]
        self.commands += [["reproduce", "--table", t, "--diff", "--format", "json", *common]
                          for t in "1234"]
        self.grid = SimulationGrid(REFERENCE_K_VALUES, REFERENCE_NU_VALUES,
                                   replicates=REPLICATES, seed=seed)

    def provenance(self) -> dict:
        return {"replicates": REPLICATES, "threads": self.threads,
                "grid": {"k": list(self.grid.k_values), "nu": list(self.grid.nu_values)},
                # x2 builds four tables, then tables 1-4 one each.
                "simulation.chi2_variates": 8 * _variates(self.grid)}

    def run_pass(self, tracer) -> list:
        outputs = []
        for i, argv in enumerate(self.commands):
            with tracer.span("cli.main", op=i):
                outputs.append(call_main(argv))
        return outputs

    def check(self, outputs, tally: checks.Tally) -> None:
        (code, text), *tables = outputs
        try:
            rows = [line.strip().strip("|").split("|") for line in text.splitlines()[2:]]
            rows = [(r[0].strip(), float(r[1])) for r in rows]
        except (IndexError, ValueError):
            rows = []
        if code != 0 or len(rows) != 4:
            tally.record(False, True, f"reproduce x2 exit {code}: {text[:200]!r}")
        else:
            checks.check_x2_rows(tally, rows)
        compared = []
        for table_id, (code, text) in zip("1234", tables):
            published = REFERENCE_TABLES[table_id]
            try:
                cells = {(c["k"], c["nu"]): c for c in json.loads(text)["cells"]}
            except (ValueError, KeyError, TypeError):
                cells = {}
            if code != 0 or set(cells) != set(published):
                tally.record(False, True, f"reproduce table {table_id} exit {code}")
                continue
            compared += [(f"table {table_id} {pair}", cells[pair]["mean"],
                          cells[pair]["std_error"], pub) for pair, pub in published.items()]
        checks.check_cells(tally, compared)

    def sim_scope(self):
        variant = EstimatorVariant.satterthwaite()
        return [self.grid], variant, variant.tag

    def calib_scope(self):
        return [_grid(5, 5, self.seed)], 1


class Calibrate:
    """Criterion 3's 4M-draw ratio mean, then `calibrate` at (5,5) and (10,10)."""

    name = "calibrate"
    sizes = ((5, 5), (10, 10))
    ratio_draws = 4_000_000

    def __init__(self, seed: int):
        self.seed = seed
        self.threads = 1  # the CLI default
        self.commands = [["calibrate", "--kmax", str(k), "--numax", str(nu), "--seed", str(seed)]
                         for k, nu in self.sizes]
        self.grids = [_grid(k, nu, seed) for k, nu in self.sizes]

    def provenance(self) -> dict:
        return {"replicates": REPLICATES, "threads": self.threads,
                "grid": [list(s) for s in self.sizes], "ratio_draws": self.ratio_draws,
                "simulation.chi2_variates": sum(_variates(g) for g in self.grids)
                + 2 * self.ratio_draws}

    def run_pass(self, tracer) -> list:
        with tracer.span("simulation.ratio_mean_k2_nu1", op=0):
            outputs = [ratio_mean_k2_nu1(self.ratio_draws, substream(self.seed, 2, 1, "ratio"))]
        for i, argv in enumerate(self.commands, start=1):
            with tracer.span("cli.main", op=i):
                outputs.append(call_main(argv))
        return outputs

    def check(self, outputs, tally: checks.Tally) -> None:
        mean, *runs = outputs
        checks.check_ratio_mean(tally, mean)
        for size, (code, text) in zip(self.sizes, runs):
            try:
                summary = json.loads(text)
            except ValueError:
                summary = None
            if code != 0 or not isinstance(summary, dict):
                tally.record(False, True, f"calibrate {size} exit {code}")
            else:
                checks.check_calibration(tally, size, summary)

    def sim_scope(self):
        # The calibration draws every cell from the fixed "crn" substream tag.
        return self.grids, EstimatorVariant.adjusted(0.0, 0), "crn"

    def calib_scope(self):
        return self.grids, self.threads


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

# The traffic below is an assumption: no usage data for effdof exists. It is
# weighted toward small K by time as well as by count: syntheses with K <= 5
# take about 70% of a pass, the mid and large ones the rest. The large-K
# ones make up about 1.2% of the calls, just enough for the p99 call latency
# to fall among them.
#: Syntheses per pass by component count.
K_COUNTS = {2: 350, 3: 200, 5: 200, 20: 30, 200: 12, 1000: 1}
#: Share of syntheses rescaled by a common factor 10^U(-300, 300): half of
#: them on the weights, half on the variances (an assumption).
EXTREME_SHARE = 0.10
#: Share of syntheses whose components all have df = 1, which also run
#: through jackknife_df (an assumption).
DF1_SHARE = 0.15

ESTIMATORS = (
    ("estimators.satterthwaite_df", satterthwaite_df, None, 0),
    ("estimators.recommended_df", recommended_df, C_RECOMMENDED, 0),
    ("estimators.vondavier2025_df", vondavier2025_df, 2.0, 1),
)

#: Cold `effdof estimate` runs: file under data/, its documented exit code,
#: and whether a wrong exit code is the known defect (ROADMAP direction 3)
#: rather than a wrong output.
CLI_FILES = (
    ("k2.csv", 0, False), ("k5.json", 0, False), ("k200.csv", 0, False),
    ("df1.json", 0, False),
    ("weight_1e200.csv", 0, True),  # valid input; exits 1 with a traceback at the parent
    ("bad_header.csv", 2, False), ("negative_weight.json", 2, False),
    ("fractional_df.csv", 2, False), ("zero_variance.csv", 3, False),
)
CLI_METHODS = {"satterthwaite": (None, 0), "vd2025": (2.0, 1),
               f"adjusted(c={C_RECOMMENDED:g}, p=0)": (C_RECOMMENDED, 0)}


def _rubin(args):
    return rubin_df(RubinVariance(*args))


def _welch(args):
    return welch_df(WelchInput(*args))


def _jackknife(deviations):
    return jackknife_df(JackknifeDeviations(deviations))


@dataclass
class Synthesis:
    weights: list
    s2: list
    df: list
    scale: str  # "", "weight" or "variance"
    adapters: list  # (layer, function, argument, reference)

    @property
    def k(self) -> int:
        return len(self.weights)


def make_synthesis(rng: np.random.Generator, k: int, scale: str, df1: bool) -> Synthesis:
    weights = 10.0 ** rng.uniform(-2.0, 2.0, k)
    s2 = 10.0 ** rng.uniform(-3.0, 3.0, k)
    df = np.ones(k, dtype=int) if df1 else rng.integers(1, 101, k)
    if scale:
        factor = 10.0 ** rng.uniform(-300.0, 300.0)
        if scale == "weight":
            weights = weights * factor
        else:
            s2 = s2 * factor
    w, v, d = [float(x) for x in weights], [float(x) for x in s2], [int(x) for x in df]
    adapters = []
    if k == 2:
        m = d[1] + 1
        adapters.append(("applications.rubin_df", _rubin, (v[0], d[0], v[1], m),
                         checks.reference_df([1.0, (m + 1) / m], v, [d[0], m - 1], C_RECOMMENDED)))
        n1, n2 = d[0] + 1, d[1] + 1
        adapters.append(("applications.welch_df", _welch, (v[0], v[1], n1, n2, d[0], d[1]),
                         checks.reference_df([1.0 / n1, 1.0 / n2], v, d, C_RECOMMENDED)))
    if df1:
        devs = tuple(math.sqrt(a * b) * (-1.0) ** i for i, (a, b) in enumerate(zip(w, v)))
        adapters.append(("applications.jackknife_df", _jackknife, devs,
                         checks.reference_df([1.0] * k, [x * x for x in devs], [1] * k,
                                             C_RECOMMENDED)))
    return Synthesis(w, v, d, scale, adapters)


class Estimate:
    """A seeded stream of syntheses, one estimator call at a time, plus cold CLI runs."""

    name = "estimate"

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        ks = np.repeat(list(K_COUNTS), list(K_COUNTS.values()))
        rng.shuffle(ks)
        n = len(ks)
        extreme = rng.choice(n, round(EXTREME_SHARE * n), replace=False)
        scale = [""] * n
        for j, i in enumerate(extreme):
            scale[i] = "weight" if j % 2 == 0 else "variance"
        df1 = set(rng.choice(n, round(DF1_SHARE * n), replace=False).tolist())
        self.syntheses = [make_synthesis(rng, int(k), scale[i], i in df1)
                          for i, k in enumerate(ks)]
        self.latencies_ns: list[int] = []
        self._expected = None

    def provenance(self) -> dict:
        return {"syntheses": len(self.syntheses), "k_counts": K_COUNTS,
                "extreme_share": EXTREME_SHARE, "df1_share": DF1_SHARE,
                "calls": sum(3 + len(s.adapters) for s in self.syntheses),
                "cli_files": [f for f, _, _ in CLI_FILES], "simulation.chi2_variates": 0}

    def _call(self, tracer, layer, function, argument):
        with tracer.span(layer):
            start = time.perf_counter_ns()
            try:
                out = function(argument).value
            except Exception as exc:  # every outcome is recorded and checked
                out = exc.with_traceback(None)  # no frame cycle left for the collector
            self.latencies_ns.append(time.perf_counter_ns() - start)
        return out

    def run_pass(self, tracer) -> list:
        """One pass over the stream; ``latencies_ns`` then holds its call times."""
        outputs, self.latencies_ns = [], []
        for i, syn in enumerate(self.syntheses):
            with tracer.span("synthesis", op=i):
                with tracer.span("estimators.VarianceComponent"):
                    comps = [VarianceComponent(w, s, d)
                             for w, s, d in zip(syn.weights, syn.s2, syn.df)]
                for layer, function, _, _ in ESTIMATORS:
                    outputs.append(self._call(tracer, layer, function, comps))
                for layer, function, argument, _ in syn.adapters:
                    outputs.append(self._call(tracer, layer, function, argument))
        return outputs

    def expected(self) -> list:
        """(label, reference value, extreme) per call, in pass order."""
        if self._expected is None:
            self._expected = []
            for i, syn in enumerate(self.syntheses):
                extreme = bool(syn.scale)
                for layer, _, c, p in ESTIMATORS:
                    self._expected.append(
                        (f"{layer} synthesis {i} K={syn.k} scale={syn.scale or 'none'}",
                         checks.reference_df(syn.weights, syn.s2, syn.df, c, p), extreme))
                for layer, _, _, reference in syn.adapters:
                    self._expected.append((f"{layer} synthesis {i}", reference, extreme))
        return self._expected

    def check(self, outputs, tally: checks.Tally) -> None:
        for got, (what, reference, extreme) in zip(outputs, self.expected(), strict=True):
            checks.check_call(tally, what, got, reference, extreme, SynthesisError)

    def error_counts(self, outputs) -> tuple[int, int]:
        """(OverflowError + ZeroDivisionError, SynthesisError) raised in one pass."""
        raw = sum(isinstance(o, (OverflowError, ZeroDivisionError)) for o in outputs)
        return raw, sum(isinstance(o, SynthesisError) for o in outputs)

    def cli_probes(self) -> list:
        """(argv, expected exit code, value check, known defect) per CLI file."""
        return [(["estimate", os.path.join(DATA, name), "--format", "json"], code,
                 _cli_references if code == 0 else None, known_defect)
                for name, code, known_defect in CLI_FILES]

    def sim_scope(self):
        variant = EstimatorVariant.recommended()
        return [_grid(5, 5, self.seed)], variant, variant.tag

    def calib_scope(self):
        return [_grid(5, 5, self.seed)], 1


def read_component_file(path: str) -> tuple[list, list, list]:
    """Weights, variances and d.f. of a component file, read without the program."""
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as handle:
            rows = json.load(handle)
    else:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
    return ([float(r["weight"]) for r in rows], [float(r["s2"]) for r in rows],
            [int(r["df"]) for r in rows])


def _cli_references(argv, stdout: str) -> tuple[list, list]:
    """Printed values of `estimate --format json` and their references."""
    weights, s2, df = read_component_file(argv[1])
    try:
        printed = json.loads(stdout)
        values = [float(entry["value"]) for entry in printed]
        references = [checks.reference_df(weights, s2, df, *CLI_METHODS[entry["method"]])
                      for entry in printed]
    except (ValueError, KeyError, TypeError):
        return [math.nan], [1.0]
    return values, references


WORKLOADS = {cls.name: cls for cls in (Tables, Calibrate, Estimate)}
