"""tools/bench_record.py on a captured perfbench standard output."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# The standard output of `perfbench/run.py --workload scd --seed 1
# --seconds 1`, with the env settings shortened.
SAMPLE = """\
env {"nproc": 2, "cpu": "Intel(R) Xeon(R) Processor", "python": "3.11.7", \
"numpy": "2.4.6", "divga": "0.1.0", \
"commit": "8d3192ac4054f0bb7989a8691490ea75bc8d6f69", "workload": "scd", \
"seed": 1, "seconds": 1.0, "trace": 0, "settings": {"scd": {"kind": "ga"}}}
PASS check scd: evaluations exact: 3 calls, e.g. 5100 of 5100 evaluations
PASS floor scd: net_charge_range >= 10: mean 17.3333 over 3 calls
fingerprint d5d0953642b6eae3 (inputs 0-2, seed 1)
metric failed_ratio = 0.0 ratio (failed calls over calls attempted, not \
bounded, 3 samples)
metric final_spread[scd] = 0.48108686868686873 1 (mean over calls, not \
bounded, 3 samples)
call seconds: 0.31758923499728553 0.22294869500910863 0.2619453329971293
metric setup_s = 0.22753807200933807 s (median of fresh-process import and \
input build, 3 samples)
metric run_s = 0.2674944210011745 s (mean call, 3 samples)
metric evals_per_s = 19065.81819879379 1/s (evaluations over summed call \
seconds, 3 samples)
metric peak_rss_mb = 42.23046875 MB (peak resident set of this process, 1 \
samples)
{"correct": true, "attempted": 3, "failed": 0, "metrics": {"run_s": \
{"value": 0.2674944210011745, "unit": "s"}}}
"""


def test_parse_output():
    point = bench_record.parse_output(SAMPLE)
    assert point["env"]["commit"] == "8d3192ac4054f0bb7989a8691490ea75bc8d6f69"
    assert point["env"]["workload"] == "scd"
    assert point["fingerprint"] == "d5d0953642b6eae3"
    assert (point["correct"], point["attempted"], point["failed"]) == \
        (True, 3, 0)
    assert point["call_seconds"] == [0.31758923499728553,
                                     0.22294869500910863, 0.2619453329971293]
    assert point["metrics"]["run_s"] == {"value": 0.2674944210011745,
                                         "unit": "s", "samples": 3}
    assert point["metrics"]["evals_per_s"]["unit"] == "1/s"
    assert point["metrics"]["peak_rss_mb"]["samples"] == 1
    assert point["metrics"]["final_spread[scd]"]["value"] == \
        0.48108686868686873
    assert set(point["metrics"]) == {
        "failed_ratio", "final_spread[scd]", "setup_s", "run_s",
        "evals_per_s", "peak_rss_mb"}


@pytest.mark.parametrize("text", [
    "", SAMPLE.split("\n", 1)[1], SAMPLE.rsplit("\n", 2)[0]],
    ids=["empty", "no_env", "no_result"])
def test_incomplete_output_is_refused(text):
    with pytest.raises(ValueError):
        bench_record.parse_output(text)


def test_points_are_only_appended(tmp_path):
    path = tmp_path / "BENCH_scd.json"
    first = {"label": "parent", **bench_record.parse_output(SAMPLE)}
    assert bench_record.append_point(path, first) == 1
    before = path.read_text()
    assert bench_record.append_point(path, {"label": "change"}) == 2
    points = json.loads(path.read_text())
    assert points[0] == json.loads(before)[0] == first
    assert [p["label"] for p in points] == ["parent", "change"]
    assert not list(tmp_path.glob("*.tmp"))


def test_not_a_list_is_refused(tmp_path):
    path = tmp_path / "BENCH_scd.json"
    path.write_text("{}")
    with pytest.raises(ValueError, match="list of points"):
        bench_record.append_point(path, {})
    assert path.read_text() == "{}"


def test_main_records_a_correct_run_only(tmp_path, monkeypatch, capsys):
    outputs = [SAMPLE, SAMPLE.replace('"correct": true', '"correct": false')
               .replace('"failed": 0', '"failed": 1')]
    monkeypatch.setattr(bench_record, "run_perfbench",
                        lambda *args: outputs.pop(0))
    path = tmp_path / "points.json"
    argv = ["--workload", "scd", "--seed", "1", "--seconds", "1",
            "--label", "parent", "--output", str(path)]
    assert bench_record.main(argv) == 0
    assert bench_record.main(argv) == 1
    assert "not recorded" in capsys.readouterr().err
    (point,) = json.loads(path.read_text())
    assert point["label"] == "parent"
    assert point["commit"] == "8d3192ac4054f0bb7989a8691490ea75bc8d6f69"
    assert point["fingerprint"] == "d5d0953642b6eae3"
