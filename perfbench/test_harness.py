"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_harness.py -q

Checks the shape of the result line and that its metric names and units
are those of BENCHMARK.json; the quality floors are not expected to hold
at these sizes.
"""

import json
import pickle
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    small = {name: w.tiny() for name, w in workloads.WORKLOADS.items()}
    monkeypatch.setattr(workloads, "WORKLOADS", small)
    # The glue between divga calls, about 0.1 ms, is about 1% of a tiny
    # call, against 1e-5 of a call at full size.
    monkeypatch.setattr(run, "OUTSIDE_LIMIT", 0.2)


def run_main(capsys, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_shape(capsys, workload, trace):
    lines, result = run_main(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= run.MIN_CALLS * (1 + trace)
    assert result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert not any(line.startswith("FAIL check") for line in lines)
    if trace:
        assert any(line.startswith("PASS check self times add up")
                   for line in lines)
        assert any(line.startswith("PASS check time outside every divga")
                   for line in lines)


@pytest.mark.parametrize("trace", [0, 1])
def test_a_call_that_raises_makes_the_run_incorrect(capsys, monkeypatch,
                                                   trace):
    run_ga = workloads.divga.run
    started = []

    def flaky(*args, **kwargs):
        started.append(1)
        if len(started) == 3:  # after the warm-up call and call 0
            raise RuntimeError("injected failure")
        return run_ga(*args, **kwargs)

    monkeypatch.setattr(workloads.divga, "run", flaky)
    lines, result = run_main(capsys, "scd", trace)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert any(line.startswith("FAIL call") and "injected failure" in line
               for line in lines)


def test_same_seed_same_fingerprint(capsys):
    first, _ = run_main(capsys, "numeric", 0)
    second, _ = run_main(capsys, "numeric", 1)
    other, _ = run_main(capsys, "numeric", 0, seed=4)

    def fingerprint(lines):
        return next(x for x in lines if x.startswith("fingerprint")).split()[1]

    assert fingerprint(first) == fingerprint(second) != fingerprint(other)


def test_traced_fitness_pickles_as_plain_fitness():
    fn = workloads.bench.landscape_from_genes
    traced = tracing.TracedFitness(fn, tracing.Tracer())
    assert pickle.loads(pickle.dumps(traced)) is fn


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "numeric",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
