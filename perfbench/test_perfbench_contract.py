"""``BENCHMARK.json`` stays within its format and in step with the code."""

import json
import re
from pathlib import Path

from perfbench import bench
from perfbench.bench import Window, per_layer
from perfbench.stats import Sent
from perfbench.targets import SetupTimes

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_has_exactly_the_contract_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metric_entries_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_list_matches_what_a_traced_run_reports():
    window = Window(
        records=[Sent(0, 0.0, sent=0.0, done=1.0)],
        clip_indices=[[0]],
        start=0.0,
        end=1.0,
        setups=[SetupTimes(1.0, 0.1, 0.5, 2.0)],
    )
    reported = set(per_layer(window, [], pool=[[None] * 45]))
    reported |= {f"overhead.{m['name']}" for m in SPEC["end_to_end"]}
    assert reported == {m["name"] for m in SPEC["per_layer"]}
