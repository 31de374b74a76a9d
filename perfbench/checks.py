"""Correctness checks and failure accounting for the benchmark workloads.

Every checked operation lands in a ``Tally``. An operation that misses its
check counts as failed. A miss is also *gross* when Monte Carlo noise and the
program's documented defects cannot explain it; any gross miss makes the run
incorrect, and ``run.py`` then exits nonzero. The split exists because some
misses are expected at the parent commit and must be reported, not hidden:

* a published reference cell carries its own Monte Carlo error, so a correct
  simulation misses the max(3 SE, 1%) band in one cell on some seeds (gross:
  more than MAX_NOISY_CELLS cells of a pass miss, or one misses by more than
  twice its band);
* ``c_opt`` of a calibration has seed-to-seed noise that reaches the edge
  of criterion 5's band (gross: beyond the band plus C_OPT_NOISE);
* the estimators overflow or underflow at extreme weight scales (gross: any
  miss on an ordinary-scale synthesis), and the CLI exits 1 on one valid
  file with huge weights (gross: any other wrong exit code).

Every other bound of criteria 3 and 5 is gross at its stated tolerance.
This module imports nothing from the program, so that the reference
evaluations here stay independent of the code they check.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

#: Relative agreement required between a returned d.f. and its reference.
REL_TOL = 1e-12

#: Criterion 3: mean of the K=2, nu=1 ratio and the constant derived from it.
RATIO_MEAN = (1.41425, 0.002)
RATIO_CONSTANT = (2.24, 0.01)
#: Criterion 5: optimal constant per calibration size, with fit limits.
CALIBRATION_TARGETS = {(5, 5): (2.42, 0.06), (10, 10): (2.53, 0.06)}
#: Seed-to-seed noise allowed on top of criterion 5's band before a c_opt
#: miss is gross. At the parent commit c_opt sits about 0.05 above both
#: targets, with a seed-to-seed SD of about 0.005, so a few seeds in a
#: hundred miss the band on noise alone; 0.02 is about four SDs.
C_OPT_NOISE = 0.02
MIN_R_SQUARED = 0.99
MAX_DEGREE = 6
#: Table cells of one pass that may miss their band as noise. A correct run
#: misses at most one of the 256 cells on most seeds, so more misses than
#: this point to a bias, such as a sampler that shifts every cell a little.
MAX_NOISY_CELLS = 2


@dataclass
class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    gross: list = field(default_factory=list)

    def record(self, ok: bool, gross: bool, what: str) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        self.reasons[what.split(":")[0]] += 1
        if gross and len(self.gross) < 20:
            self.gross.append(what)

    @property
    def correct(self) -> bool:
        return not self.gross


# ---------------------------------------------------------------------------
# Reference evaluation of the defining formulas
# ---------------------------------------------------------------------------


def _pow2_scaled(values):
    """Values divided by the power of two just above their maximum (exact)."""
    top = max(values)
    if top == 0.0:
        return list(values)
    shift = math.frexp(top)[1]
    return [math.ldexp(v, -shift) for v in values]


def reference_df(weights, s2, df, c=None, p=0) -> float:
    """Effective d.f. from its defining formula, independent of the program.

    ``c=None`` is the classic ratio ``(sum w s2)^2 / sum (w s2)^2 / df``;
    otherwise the ``df + 2`` denominator and the shrink term
    ``1 + c / ((K - p) * nu_bar_w)`` apply. Weights and variances are
    rescaled by powers of two, which is exact and leaves the ratio unchanged,
    and sums use ``math.fsum``.
    """
    ws, ss = _pow2_scaled(weights), _pow2_scaled(s2)
    terms = [a * b for a, b in zip(ws, ss)]
    offset = 0 if c is None else 2
    ratio = math.fsum(terms) ** 2 / math.fsum(t * t / (d + offset) for t, d in zip(terms, df))
    if c is None:
        return ratio
    k = len(terms)
    nu_bar = math.fsum(a * d for a, d in zip(ws, df)) / math.fsum(ws)
    return ratio / (1.0 + c / ((k - p) * nu_bar))


def value_ok(got, reference: float) -> bool:
    """True when ``got`` is a finite float within REL_TOL of ``reference``."""
    return (isinstance(got, float) and math.isfinite(got)
            and abs(got - reference) <= REL_TOL * abs(reference))


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------


def check_cells(tally: Tally, cells) -> None:
    """Table cells of one pass against their published values.

    ``cells`` holds (where, mean, std_error, published). A cell fails outside
    max(3 SE, 1% of published) of the published cell. Its miss is gross when
    it exceeds twice that band or is not finite, and every miss is gross when
    more than MAX_NOISY_CELLS cells of the pass miss.
    """
    # Miss over band; nan (never <= 1) when the mean or SE is not finite.
    ratios = [abs(mean - pub) / max(3.0 * se, 0.01 * abs(pub)) for _, mean, se, pub in cells]
    too_many = sum(not r <= 1.0 for r in ratios) > MAX_NOISY_CELLS
    for (where, mean, _, pub), r in zip(cells, ratios):
        tally.record(r <= 1.0, too_many or not r <= 2.0,
                     f"cell outside max(3 SE, 1%): {where} mean={mean!r} published={pub}")


def check_x2_rows(tally: Tally, rows) -> None:
    """Criterion-4 ordering: each X2 row must sit below the one before it.

    ``rows`` lists (label, x2) in the published order classic > vd2025 >
    c=2.25 > c=2.69; the classic row must also exceed 10. The clause
    X2(c=2.69) < 0.1 is a known spec mismatch on this grid and is not checked.
    """
    values = [x2 for _, x2 in rows]
    for i, (label, x2) in enumerate(rows):
        ok = math.isfinite(x2)
        if i > 0:
            ok = ok and values[i - 1] > x2
        if i + 1 < len(values):
            ok = ok and x2 > values[i + 1]
        if i == 0:
            ok = ok and x2 > 10.0
        tally.record(ok, not ok, f"X2 ordering: {label} x2={x2!r}")


def _check_bound(tally: Tally, what: str, value: float, target: float, tol: float,
                 noise: float = 0.0) -> None:
    """Fails outside ``tol`` of ``target``; gross outside ``tol + noise``."""
    miss = abs(value - target)
    ok = math.isfinite(miss) and miss <= tol
    tally.record(ok, not (math.isfinite(miss) and miss <= tol + noise),
                 f"{what}: {value!r} not within {tol} of {target}")


def check_ratio_mean(tally: Tally, mean: float) -> None:
    """Criterion 3: the ratio mean and the constant (6 - 2 mean) / mean."""
    _check_bound(tally, "criterion 3 mean", mean, *RATIO_MEAN)
    _check_bound(tally, "criterion 3 constant", (6.0 - 2.0 * mean) / mean, *RATIO_CONSTANT)


def check_calibration(tally: Tally, size, summary: dict) -> None:
    """Criterion 5: c_opt within its bound, R^2 above 0.99, degree at most 6."""
    target, tol = CALIBRATION_TARGETS[tuple(size)]
    _check_bound(tally, f"criterion 5 c_opt {tuple(size)}", summary["c_opt"], target, tol,
                 C_OPT_NOISE)
    r2 = summary["r_squared"]
    tally.record(r2 > MIN_R_SQUARED, not r2 > MIN_R_SQUARED,
                 f"criterion 5 R^2 {tuple(size)}: {r2!r}")
    degree = summary["degree"]
    tally.record(1 <= degree <= MAX_DEGREE, not 1 <= degree <= MAX_DEGREE,
                 f"criterion 5 degree {tuple(size)}: {degree!r}")


def check_call(tally: Tally, what: str, got, reference: float, extreme: bool,
               synthesis_error: type) -> None:
    """One estimator or adapter call against its reference value.

    ``got`` is the returned value or the exception raised. A SynthesisError is
    a documented outcome at extreme scales and not a failure there; on an
    ordinary-scale synthesis it is, since the value is representable.
    """
    if isinstance(got, synthesis_error):
        tally.record(extreme, not extreme, f"SynthesisError on ordinary input: {what}")
    elif isinstance(got, BaseException):
        tally.record(False, not extreme, f"{type(got).__name__}: {what}")
    else:
        ok = value_ok(got, reference)
        tally.record(ok, not ok and not extreme,
                     f"value mismatch: {what} got={got!r} reference={reference!r}")


def check_cli_run(tally: Tally, what: str, returncode: int, expected: int,
                  values=None, references=None, known_defect: bool = False) -> None:
    """A cold CLI run: its exit code, and on success every printed value.

    A wrong exit code is gross unless ``known_defect`` marks the file as one
    the program is documented to mishandle; a wrong printed value is gross.
    """
    if returncode != expected:
        tally.record(False, not known_defect, f"CLI exit {returncode}, expected {expected}: {what}")
        return
    if values is None:
        tally.record(True, False, what)
        return
    bad = [(v, r) for v, r in zip(values, references) if not value_ok(v, r)]
    ok = not bad and len(values) == len(references)
    tally.record(ok, not ok, f"CLI value mismatch: {what} {bad or values}")
