"""The smoke run's result JSON against BENCHMARK.json and layers.json."""

import json
import os
import re
import subprocess
import sys
import time

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TIME_UNITS = {"s", "ms", "us", "ns"}


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), elapsed


def test_benchmark_json_shape(spec):
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert spec["paths"] == ["perfbench"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        assert sorted(w) == ["name", "why"]
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert sorted(m) == ["better", "bound", "name", "unit"]
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert sorted(m) == ["better", "name", "unit"]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in metrics)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 8) < 3420


def test_every_layer_metric_lists_what_it_should_move(spec):
    with open(os.path.join(PERFBENCH, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    for name, row in layers.items():
        assert isinstance(row["moves"], list), name
        for target in row["moves"]:
            metric, workload = target.split("@")
            assert metric in e2e and workload in workloads, (name, target)
        assert row["workloads"] == "all" or set(row["workloads"]) <= workloads


def test_smoke_run_reports_every_declared_metric(spec, smoke):
    result, elapsed = smoke
    assert elapsed < 30, f"--smoke took {elapsed:.1f} s"
    assert sorted(result["runs"]) == sorted(w["name"] for w in spec["workloads"])
    for workload, run in result["runs"].items():
        assert run["failed"] == 0 and run["attempted"] >= 1, workload
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: row["unit"] for name, row in run[section].items()}
            assert got == declared, (workload, section)
        for m in spec["end_to_end"]:
            assert all(v > 0 for v in run["end_to_end"][m["name"]]["values"]), (
                workload, m["name"])


def test_a_time_is_measured_in_every_workload(spec, smoke):
    """No per-layer metric with a time unit is ever a stand-in zero."""
    result, _ = smoke
    timed = [m["name"] for m in spec["per_layer"] if m["unit"] in TIME_UNITS]
    assert timed
    for workload, run in result["runs"].items():
        for name in timed:
            assert all(v != 0 for v in run["per_layer"][name]["values"]), (workload, name)


def test_append_adds_a_run_s_values_to_the_result_file(tmp_path):
    out = tmp_path / "side.json"
    cmd = [sys.executable, os.path.join(PERFBENCH, "run.py"), "--smoke", "--workload",
           "model_cold", "--trace-repeat", "0", "--out", str(out)]
    for extra in ([], ["--append", "--seed", "7"]):
        subprocess.run(cmd + extra, check=True, capture_output=True, timeout=120)
    with open(out, encoding="utf-8") as fh:
        run = json.load(fh)["runs"]["model_cold"]
    assert run["per_layer"] == {}
    assert all(len(row["values"]) == 2 for row in run["end_to_end"].values())
    # A file measured with other settings is refused, not mixed in.
    proc = subprocess.run(cmd + ["--append", "--seconds", "2"], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0 and "--append" in proc.stderr
