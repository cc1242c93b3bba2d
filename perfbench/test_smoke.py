"""Smoke tests of the benchmark at tiny size.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spans  # noqa: E402
from cslsh import core  # noqa: E402
from workloads import WORKLOADS, make_instance  # noqa: E402


def _run(workload: str, trace: int, *extra: str):
    args = harness.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0",
                               "--trace", str(trace), "--size", "tiny", *extra])
    return harness.run(args, ROOT)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, info = _run(workload, trace)
    assert result["correct"], info["notes"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = harness.PER_LAYER_UNITS if trace else harness.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["value"] >= 0, name
    if not trace:
        for name in units:
            assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", ["planted-forest", "uniform-tables"])
def test_spans_nest_and_self_times_are_nonnegative(workload):
    w = WORKLOADS[workload]
    size = w.sizes["tiny"]
    inst = make_instance(w, size, 5)
    system = harness.make_system(w, inst, 5)
    out = harness.Outcomes(inst.truth)
    _, _, table = harness.measure_per_layer(w, size, inst, system, out)
    assert out.failed == 0
    assert len(table.start) > 0
    assert table.nesting_violations() == 0
    assert (table.self_time >= 0).all()
    assert (table.self_time <= table.duration).all()
    roots = table.parent < 0
    assert {table.names[i] for i in table.name[roots]} <= {
        "setup", "query", "natural", "brute", "to_bytes", "from_bytes"}


def test_tracer_self_time_and_restore():
    original = core.Dataset.distances_to
    tracer = spans.Tracer()
    with tracer.installed():
        assert core.Dataset.distances_to is not original
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
    assert core.Dataset.distances_to is original
    table = tracer.analyse()
    assert table.names[table.name[0]] == "outer"
    assert list(table.parent) == [-1, 0, 0]
    assert table.self_time[0] == pytest.approx(
        table.duration[0] - table.duration[1] - table.duration[2])
    assert table.count("inner", "outer") == 2


def test_instances_are_deterministic_in_the_seed():
    w = WORKLOADS["uniform-tables"]
    a = make_instance(w, w.sizes["tiny"], 9)
    b = make_instance(w, w.sizes["tiny"], 9)
    c = make_instance(w, w.sizes["tiny"], 10)
    assert all((x == y).all() for x, y in zip(a.queries, b.queries))
    assert (a.truth == b.truth).all()
    assert not all((x == y).all() for x, y in zip(a.queries, c.queries))


def test_heldout_seed_is_checked():
    result, info = _run("uniform-tables", 0, "--heldout-seed", "4")
    held = info["notes"]["heldout"]
    assert held["seed"] == 4 and held["failed"] == 0 and held["recall"] == 1.0
    assert held["work_over_n"] > 0 and result["correct"]


def test_last_line_is_the_result(capsys):
    code = harness.main(["--workload", "angular-bottomup", "--seed", "2", "--seconds", "0",
                         "--trace", "0", "--size", "tiny"], ROOT)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uniform-tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
