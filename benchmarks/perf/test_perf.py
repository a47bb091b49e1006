"""The benchmark's own checks, at the tiny geometry.

Run as ``PYTHONPATH=src python -m pytest benchmarks/perf -q``; tier-1
does not collect this directory (see conftest.py).
"""

import json
import sys

import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))

from repro.core.engine import PierEngine  # noqa: E402

SPEC = run.spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
ORIGINAL_STREAM_APPEND = PierEngine.stream_append


def test_every_metric_is_emitted_for_every_workload():
    document = run.measure(NAMES, seed=1, trace_mode=None, seconds=0,
                           repeats=1, geometry="tiny")
    wanted = {m["name"]: m["unit"]
              for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name in NAMES:
        entry = document["workloads"][name]
        assert entry["correct"] and entry["failed"] == 0, name
        assert entry["attempted"] >= 1
        got = {k: v["unit"] for k, v in entry["metrics"].items()}
        assert got == wanted, name
        for metric in SPEC["end_to_end"]:
            assert entry["metrics"][metric["name"]]["value"] > 0, (
                name, metric["name"])


@pytest.mark.parametrize("name", NAMES)
def test_simulated_metrics_are_a_function_of_the_seed(name):
    first, again, other = (
        run.one_repeat(name, seed, "tiny", False)["metrics"]
        for seed in (1, 1, 2))
    for metric in run.SIMULATED:
        assert first[metric] == again[metric], metric
    # Lags are set by the planner's deadlines and completeness is 1
    # without faults; the bytes moved depend on the generated rows --
    # except on prefix_fleet, where every row is one float and every
    # partial one (sum, count) whatever the values are.
    if name != "prefix_fleet":
        assert first["wire_bytes_per_row"] != other["wire_bytes_per_row"]


@pytest.mark.parametrize("name", NAMES)
def test_self_times_add_up_to_the_traced_wall(name):
    repeat = run.one_repeat(name, 1, "tiny", True)
    covered = sum(value for metric, value in repeat["metrics"].items()
                  if metric.endswith(".self_s")
                  or metric == "bench.unattributed_s")
    assert covered == pytest.approx(repeat["wall_s"], rel=0.02)


@pytest.mark.parametrize("traced", [False, True])
def test_a_run_leaves_the_program_unpatched(traced):
    run.one_repeat("skew_join", 1, "tiny", traced)
    assert PierEngine.stream_append is ORIGINAL_STREAM_APPEND


def test_compare_flags_a_worse_median(tmp_path, capsys):
    def document(rows_per_s):
        entry = {"metrics": {"rows_per_s": {"value": rows_per_s}},
                 "samples": {"rows_per_s": [rows_per_s] * 3}}
        path = tmp_path / "{}.json".format(rows_per_s)
        path.write_text(json.dumps({"workloads": {"skew_join": entry}}))
        return str(path)

    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "rows_per_s")
    assert run.compare(document(1000.0),
                       document(1000.0 * (1 - bound / 2))) == 0
    assert run.compare(document(1000.0),
                       document(1000.0 * (1 - 2 * bound))) == 1
    assert "worse" in capsys.readouterr().out
