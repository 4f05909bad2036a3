"""Self-test of the benchmark, at minimal size.

    python3 -m pytest perfbench/selftest.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the exact work counts repeat between two traced runs, that a wrong
answer is reported as a failure, and that the benchmark refuses to run
without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = tuple(tracer.Tracer().counts())


def bench(workload, trace, seed=5, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "min"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


def test_spec_lists_what_the_code_reports():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == {**{n: u for n, u, _ in tracer.PER_LAYER}, **run.TRACE_UNITS}
    design = json.loads((HERE / "design.json").read_text())
    assert {m for row in design["layer_table"] for m in row["metrics"]} == set(per_layer)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = result(bench(workload, trace))["metrics"]
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in metrics.items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
        if trace == 0:
            assert all(metrics[m]["value"] > 0 for m in want)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counts_repeat_exactly(workload):
    first, second = (result(bench(workload, 1))["metrics"] for _ in range(2))
    assert [first[k]["value"] for k in EXACT_COUNTS] == [second[k]["value"] for k in EXACT_COUNTS]


def test_wrong_expected_splitting_is_a_failure(monkeypatch):
    monkeypatch.setattr(workloads, "line_tx", lambda N: (3,) + (1,) * (N - 3) + (1 - N,))
    res = workloads.grid_pass(workloads.grid_inputs(5, "min"))
    assert res.failed == res.attempted == len(workloads.GRID["min"])
    assert all("expected" in p for p in res.problems)
    assert run.main(["--workload", "classify-grid", "--seed", "5", "--seconds", "1",
                     "--size", "min"]) == 1


def test_survey_gates_catch_bad_rows():
    argv = workloads.survey_argv("survey-x44", 5, "min")
    good = workloads.survey_pass(argv)
    assert good.failed == 0 and good.problems == []
    row = json.loads(good.output.splitlines()[0])
    row["report"]["splitting_TX"]["degree"] += 1
    row["report"]["very_free"] = True
    bad = json.dumps(row) + "\n"
    problems = workloads.check_survey(argv, 0, bad)
    assert any("TX rank" in p for p in problems)
    assert any("forbidden window" in p for p in problems)
    assert workloads.check_survey(argv, 1, "") != []


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("classify-grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
