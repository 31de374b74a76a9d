"""Benchmark of effdof: one workload per run, end to end or traced.

From the root of a checkout:

    python3 perfbench/run.py --workload {tables,calibrate,estimate} \
        --seed N --seconds S --trace {0,1}

The workload repeats whole passes until S seconds have passed (at least one
pass) and checks every output; ``estimate`` also times cold CLI runs. With
``--trace 0`` it reports the end-to-end metrics listed in BENCHMARK.json;
with ``--trace 1`` it runs untraced and traced passes in turn and then times
each layer (module) of the program on its own, reporting the per-layer
metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a readable
report with the run's provenance. Exit codes: 0 when every check holds up to
the documented defects and Monte Carlo noise (see checks.py), 1 when an
output is wrong, 2 when the program's sources are missing.
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Fresh-interpreter set-ups per run (at least); setup_s is their median.
SETUP_SAMPLES = 15
#: One fresh set-up after every this many passes.
SETUP_EVERY = 3
#: Cold CLI runs per `estimate` run (at least).
CLI_SAMPLES = 15
#: Upper limit on untraced/traced pass pairs in a traced run.
TRACE_PAIRS = 10
#: Every end-to-end metric the report names. BENCHMARK.json lists the ones
#: that apply to every workload; the others are reported where they apply.
REPORT_METRICS = (("setup_s", "s"), ("wall_s", "s"), ("rss_peak_mb", "MB"),
                  ("error_rate", "1"), ("call_p50_us", "us"), ("call_p99_us", "us"),
                  ("cli_p50_ms", "ms"))
#: The ROADMAP's figure for the sampler's share of the K=160, nu=80 cell.
ROADMAP_SAMPLER_SHARE = 0.96


def load_program():
    """Import the workloads, and with them effdof from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "effdof", "__init__.py")):
        print(f"perfbench: no effdof sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import workloads

    return workloads


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("tables", "calibrate", "estimate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: print this process's set-up time and exit")
    return parser.parse_args(argv)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def setup_seconds(args) -> float:
    """Set-up time (imports plus input generation) of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def provenance(workload, args) -> dict:
    import numpy

    import effdof

    digest = hashlib.sha256()
    package = os.path.join(SRC, "effdof")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": workload.name, "seed": args.seed, "commit": commit,
            "src_sha256": digest.hexdigest(), "effdof": effdof.__version__,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "trace": args.trace, **workload.provenance()}


def cold_cli(probe, tally) -> float:
    """Seconds for one cold `python -m effdof.cli` run, whose outcome is checked."""
    import checks

    argv, expected, validate, known_defect = probe
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "effdof.cli", *argv], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    values = references = None
    if validate is not None and proc.returncode == expected == 0:
        values, references = validate(argv, proc.stdout)
    what = " ".join(os.path.basename(a) for a in argv)
    checks.check_cli_run(tally, what, proc.returncode, expected, values, references,
                         known_defect)
    return seconds


def tail_percentile(samples: list) -> tuple[float, float, int]:
    """Highest of p99.99/p99.9/p99/p90 with at least 10 samples beyond it.

    Returns (percentile, value, samples beyond it).
    """
    ordered = sorted(samples)
    n = len(ordered)
    for q in (99.99, 99.9, 99.0, 90.0):
        beyond = int(n * (1.0 - q / 100.0))
        if beyond >= 10:
            return q, ordered[min(n - 1, math.ceil(q / 100.0 * n) - 1)], beyond
    return 50.0, statistics.median(ordered), n // 2


def timed_pass(workload, tracer, tally) -> tuple[float, list]:
    start = time.perf_counter()
    with tracer.span("pass"):
        outputs = workload.run_pass(tracer)
    seconds = time.perf_counter() - start
    workload.check(outputs, tally)
    return seconds, outputs


def end_to_end(workload, args, spec, report) -> tuple[dict, object]:
    """Passes until the deadline, each followed on `estimate` by a cold CLI
    run and, every SETUP_EVERY passes, by a fresh set-up, so that every
    metric samples the whole run rather than one stretch of a machine whose
    speed drifts."""
    import checks
    import layers
    import workloads

    tally, null = checks.Tally(), layers.NullTracer()
    probes = workload.cli_probes() if isinstance(workload, workloads.Estimate) else []

    # A first round before any pass, so that a workload with one long pass
    # still samples set-up (and CLI runs) at both ends of the run.
    cli = [cold_cli(probe, tally) for probe in probes]

    def cold_run():
        cli.append(cold_cli(probes[len(cli) % len(probes)], tally))

    setups = [setup_seconds(args) for _ in range(SETUP_SAMPLES // 3)]
    walls = []
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        walls.append(timed_pass(workload, null, tally)[0])
        if probes:
            cold_run()
        if len(walls) % SETUP_EVERY == 1:
            setups.append(setup_seconds(args))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while probes and (len(cli) < CLI_SAMPLES or len(cli) % len(probes)):  # each equally often
        cold_run()
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_seconds(args))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "rss_peak_mb": rss_mb,
        "error_rate": tally.failed / tally.attempted,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_s": f"median of {len(walls)} passes; fastest {min(walls):.4f}, quartiles "
                  + " / ".join(f"{q:.4f}" for q in statistics.quantiles(walls, n=4))
        if len(walls) > 1 else "one pass",
        "rss_peak_mb": "peak resident set of the benchmark process",
        "error_rate": f"{tally.failed} failed of {tally.attempted} operations",
    }
    if cli:
        values["cli_p50_ms"] = statistics.median(cli) * 1e3
        notes["cli_p50_ms"] = f"median of {len(cli)} cold `python -m effdof.cli` runs"
    latencies = getattr(workload, "latencies_ns", None)  # the last pass's
    if latencies:
        q, tail, beyond = tail_percentile(latencies)
        values["call_p50_us"] = statistics.median(latencies) * 1e-3
        values["call_p99_us"] = tail * 1e-3
        notes["call_p50_us"] = f"median of the last pass's {len(latencies)} calls"
        notes["call_p99_us"] = f"p{q:g} of the same calls, {beyond} beyond it"
    report.append("end-to-end metrics:")
    for name, unit in REPORT_METRICS:
        shown = f"{values[name]:.6g}" if name in values else "n/a"
        why = notes.get(name, f"not measured on {workload.name}")
        report.append(f"  {name:<12} {unit:<3} {shown:>12}  {why}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    return metrics, tally


def traced(workload, args, spec, report) -> tuple[dict, object]:
    import checks
    import layers
    import workloads

    tally = checks.Tally()
    tracer, null = layers.Tracer(), layers.NullTracer()
    untraced, traced_walls = [], []
    deadline = time.perf_counter() + args.seconds
    while not untraced or (time.perf_counter() < deadline and len(untraced) < TRACE_PAIRS):
        untraced.append(timed_pass(workload, null, tally)[0])
        seconds, outputs = timed_pass(workload, tracer, tally)
        traced_walls.append(seconds)
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced_walls)
    metrics = {"trace.overhead_s": traced_s - untraced_s}
    simulation, largest = layers.simulation_layers(tracer, *workload.sim_scope())
    metrics.update(simulation)
    metrics.update(layers.ratio_layer(tracer, args.seed, workloads.Calibrate.ratio_draws))
    metrics.update(layers.calibration_layers(tracer, *workload.calib_scope()))
    if isinstance(workload, workloads.Estimate):
        stream = workload
    else:
        # The estimate stream, checked like its own workload's passes, gives
        # the estimator, adapter and CLI layers on every workload.
        stream = workloads.Estimate(args.seed)
        with tracer.span("estimate.probe"):
            outputs = stream.run_pass(tracer)
        stream.check(outputs, tally)
    metrics.update(layers.estimator_layers(tracer, stream, outputs))
    metrics.update(layers.cli_layers(tracer, child_env()))

    report.append(f"traced run: wall_s untraced {untraced_s:.6g} s, traced {traced_s:.6g} s "
                  f"(median of {len(untraced)} passes each); tracing overhead "
                  f"{metrics['trace.overhead_s']:.3g} s with {len(tracer.spans)} spans in total")
    report.append(f"sampler share of the largest cell ({largest}): "
                  f"{metrics['simulation.sampler_share_cell_max']:.1%} "
                  f"(ROADMAP, K=160 nu=80: ~{ROADMAP_SAMPLER_SHARE:.0%})")
    report.append("self time by span (s):")
    for name, own in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
        report.append(f"  {name:<40} {own:.6f}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload.name}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "op"],
                   "spans": tracer.spans, "metrics": metrics}, handle)
    report.append(f"spans written to {os.path.relpath(path, ROOT)}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}, tally


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_program()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(repr(time.perf_counter() - _START))
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    report = ["provenance: " + json.dumps(provenance(workload, args), sort_keys=True)]
    measure = traced if args.trace else end_to_end
    metrics, tally = measure(workload, args, spec, report)
    report.append(f"checks: {tally.attempted} attempted, {tally.failed} failed "
                  f"{dict(tally.reasons) or ''}")
    for what in tally.gross:
        report.append(f"  WRONG OUTPUT: {what}")
    print("\n".join(report))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
