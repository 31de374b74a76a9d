"""The committed benchmark trajectory: one trajectory/BENCH_<commit>.json per measured commit.

Each file holds, for the `tables` and `calibrate` workloads at each seed run,
perfbench/run.py's provenance line and its final JSON object verbatim (see
README "Benchmark trajectory").
"""

import json
import pathlib

import pytest

TRAJECTORY = pathlib.Path(__file__).resolve().parent.parent / "trajectory"
FILES = sorted(TRAJECTORY.glob("BENCH_*.json"))
KEYS = {"measured_commit", "harness_commit", "date", "nproc", "command", "note", "runs"}
METRICS = ("setup_s", "wall_s", "rss_peak_mb")


def test_there_is_a_trajectory():
    assert len(FILES) >= 2


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_file_holds_both_workloads_end_to_end(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert KEYS <= set(doc)
    assert path.name == f"BENCH_{doc['measured_commit'][:7]}.json"
    assert len(doc["harness_commit"]) == 40 and doc["nproc"] >= 1
    assert "chi2_variates" in doc["note"]
    assert set(doc["runs"]) == {"tables", "calibrate"}
    for workload, seeds in doc["runs"].items():
        assert seeds
        for seed, run in seeds.items():
            provenance = json.loads(run["provenance"].removeprefix("provenance: "))
            assert (provenance["workload"], provenance["seed"]) == (workload, int(seed))
            assert isinstance(run["exit_code"], int)
            assert {"correct", "attempted", "failed", "metrics"} <= set(run["result"])
            for name in METRICS:
                value = run["result"]["metrics"][name]["value"]
                assert isinstance(value, float) and value > 0, (workload, seed, name)
