"""Run one divga benchmark workload and print its metrics.

    python3 perfbench/run.py --workload landscape --seed 1 --seconds 25 --trace 0

The run repeats the workload's top-level call, each with inputs derived
from (seed, call index), until --seconds have passed, checks every call
and prints one line per check, per quality floor and per metric. The
last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are the
per-layer metrics, from calls that alternate untraced and traced on the
same inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT = workloads.ROOT / ".perfbench_out"
MIN_CALLS = 3
# Largest share of a traced call that may fall outside every divga span.
OUTSIDE_LIMIT = 0.01


@dataclass
class Call:
    """Outcome of one timed call."""

    index: int
    traced: bool
    seconds: float = 0.0
    error: str | None = None
    checks: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None or not all(ok for _, ok, _ in self.checks)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(workloads.ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(workloads.ROOT), "rev-parse",
                               "HEAD"], capture_output=True, text=True,
                              timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args, workload) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "divga": workloads.divga.__version__, "commit": _git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "settings": workload.settings()}


def measure_setup(name: str, seed: int, work_dir: Path) -> float:
    """Set-up seconds of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
         str(work_dir)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def one_call(workload, seed: int, index: int, work_dir: Path,
             tracer: tracing.Tracer | None = None, patches=()) -> Call:
    inputs = workload.build(seed, index, work_dir)
    call = Call(index=index, traced=tracer is not None)
    try:
        if tracer is None:
            start = time.perf_counter()
            results = workload.call(inputs)
            call.seconds = time.perf_counter() - start
        else:
            for part in inputs:
                part.fitness = tracing.TracedFitness(part.fitness, tracer)
            with tracer.traced_call(index, patches):
                start = time.perf_counter()
                results = workload.call(inputs)
                call.seconds = time.perf_counter() - start
        call.checks = workload.check(results)
        call.summary = workload.summarize(results)
    except Exception as exc:  # a failing call is counted, the run goes on
        call.error = f"{type(exc).__name__}: {exc}"
    finally:
        for part in inputs:
            if part.output_directory is not None:
                shutil.rmtree(part.output_directory, ignore_errors=True)
    if tracer is not None and call.summary:
        tracer.count("engine.bytes_written", call.summary["bytes_written"])
    return call


def run_calls(workload, seed: int, seconds: float, work_dir: Path,
              tracer: tracing.Tracer | None, setup_times: list) -> list:
    """Calls on inputs 0, 1, 2, ... until the time is up.

    Untraced runs time one fresh-process set-up before each call, into
    setup_times: spread over the run, the set-up times see the same
    changes of host speed as the calls, where a burst of them at the
    start would see only one. Traced runs make an untraced and a traced
    call on each input, in alternating order, so both sides see the same
    inputs and conditions.
    """
    patches = tracing.layer_patches(tracer, workloads.divga) if tracer else ()
    calls, rounds = [], []
    start = time.perf_counter()
    index = 0
    while index < MIN_CALLS or (time.perf_counter() - start
                                + statistics.median(rounds) <= seconds):
        round_start = time.perf_counter()
        if tracer is None:
            setup_times.append(measure_setup(workload.name, seed, work_dir))
        order = (False, True) if index % 2 == 0 else (True, False)
        for traced in (order if tracer else (False,)):
            calls.append(one_call(workload, seed, index, work_dir,
                                  tracer if traced else None, patches))
        rounds.append(time.perf_counter() - round_start)
        index += 1
    return calls


def report_checks(workload, calls: list) -> bool:
    """Print PASS/FAIL per check and per floor; True when all pass."""
    good = [c for c in calls if not c.failed]
    all_ok = bool(good) and not any(c.error is not None for c in calls)
    for c in calls:
        if c.error is not None:
            print(f"FAIL call {c.index} (traced={c.traced}) raised {c.error}")
    example = next((c.checks for c in calls if c.checks), [])
    for k, (name, _, detail) in enumerate(example):
        bad = [c for c in calls if c.checks and not c.checks[k][1]]
        for c in bad:
            print(f"FAIL check {name}: call {c.index} (traced={c.traced}): "
                  f"{c.checks[k][2]}")
        if not bad:
            print(f"PASS check {name}: {len(calls)} calls, e.g. {detail}")
        all_ok = all_ok and not bad
    if any(c.traced for c in calls):
        prints = {}
        for c in good:
            prints.setdefault(c.index, set()).add(c.summary["fingerprint"])
        same = all(len(v) == 1 for v in prints.values())
        print(f"{'PASS' if same else 'FAIL'} check traced and untraced calls "
              f"give the same output: {len(prints)} inputs")
        all_ok = all_ok and same
    for part in workload.parts if good else ():
        for floor in part.floors:
            value = statistics.fmean(c.summary["parts"][part.name][floor.key]
                                     for c in good)
            ok = floor.holds(value)
            print(f"{'PASS' if ok else 'FAIL'} floor {part.name}: "
                  f"{floor.label()}: mean {value:.6g} over {len(good)} calls")
            all_ok = all_ok and ok
    return all_ok


def fingerprint(calls: list) -> str:
    """Hash of the outputs of inputs 0 .. MIN_CALLS-1, which every run makes."""
    first = {}
    for c in calls:
        if c.index < MIN_CALLS and not c.failed:
            first.setdefault(c.index, c.summary["fingerprint"])
    if sorted(first) != list(range(MIN_CALLS)):
        return "incomplete"
    joined = "".join(first[k] for k in range(MIN_CALLS))
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def metric(name: str, value, unit: str, samples: int, what: str) -> dict:
    print(f"metric {name} = {value!r} {unit} ({what}, {samples} samples)")
    return {"value": value, "unit": unit}


def end_to_end(calls: list, setup_times: list) -> dict:
    good = [c for c in calls if not c.failed]
    # failed_ratio and the mean fitness are printed but not bounded
    # metrics. failed_ratio is 0 on a correct program; the result line
    # carries attempted and failed. On scd the distance of a call's mean
    # fitness from the optimum ranges over a factor of ten between seeds,
    # and on circle and scd the fitness is at most 0; the quality floors
    # gate it instead. The per-problem spreads are printed to show which
    # problem moved final_spread.
    metric("failed_ratio", (len(calls) - len(good)) / len(calls), "ratio",
           len(calls), "failed calls over calls attempted, not bounded")
    if not good:
        return {}
    for name in good[0].summary["parts"]:
        for key in ("mean_fitness", "spread"):
            metric(f"final_{key}[{name}]",
                   statistics.fmean(c.summary["parts"][name][key]
                                    for c in good),
                   "1", len(good), "mean over calls, not bounded")
    seconds = [c.seconds for c in good]
    print("call seconds: " + " ".join(repr(x) for x in seconds))
    evaluations = sum(c.summary["evaluations"] for c in good)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": metric("setup_s", statistics.median(setup_times), "s",
                          len(setup_times), "median of fresh-process "
                          "import and input build"),
        "run_s": metric("run_s", statistics.fmean(seconds), "s",
                        len(seconds), "mean call"),
        "evals_per_s": metric("evals_per_s", evaluations / sum(seconds),
                              "1/s", len(seconds),
                              "evaluations over summed call seconds"),
        "peak_rss_mb": metric("peak_rss_mb", peak_rss_mb, "MB", 1,
                              "peak resident set of this process"),
        "final_spread": metric(
            "final_spread",
            statistics.fmean(c.summary["spread"] for c in good), "1",
            len(good), "mean over calls"),
    }


# (metric, unit, value from (inclusive, self, spans, counts) per traced call)
LAYER_METRICS = [
    ("genome.seed_s", "s", lambda t, o, n, c: t["genome.seed"]),
    ("variation.offspring_s", "s", lambda t, o, n, c: t["variation.offspring"]),
    ("variation.children", "count", lambda t, o, n, c: c["variation.children"]),
    ("variation.us_per_child", "us",
     lambda t, o, n, c: _per(t["variation.offspring"], c["variation.children"])),
    ("selection.select_s", "s", lambda t, o, n, c: t["selection.select"]),
    ("selection.picks", "count", lambda t, o, n, c: c["selection.picks"]),
    ("selection.candidates", "count",
     lambda t, o, n, c: c["selection.candidates"]),
    ("selection.self_s", "s", lambda t, o, n, c: o["selection.select"]),
    ("distance.to_point_s", "s", lambda t, o, n, c: t["distance.to_point"]),
    ("distance.to_point_calls", "count",
     lambda t, o, n, c: c["distance.to_point_calls"]),
    ("distance.rows", "count", lambda t, o, n, c: c["distance.rows"]),
    ("distance.r0_s", "s", lambda t, o, n, c: t["distance.r0"]),
    ("engine.evaluate_s", "s", lambda t, o, n, c: t["engine.evaluate"]),
    ("engine.evaluations", "count", lambda t, o, n, c: c["engine.evaluations"]),
    ("engine.eval_overhead_s", "s", lambda t, o, n, c: o["engine.evaluate"]),
    ("engine.pools", "count", lambda t, o, n, c: c["engine.pools"]),
    ("engine.write_s", "s", lambda t, o, n, c: t["engine.write"]),
    ("engine.bytes_written", "bytes",
     lambda t, o, n, c: c["engine.bytes_written"]),
    ("engine.self_s", "s", lambda t, o, n, c: o["engine.run"]),
    ("bench.fitness_s", "s", lambda t, o, n, c: t["bench.fitness"]),
    ("bench.fitness_calls", "count", lambda t, o, n, c: n["bench.fitness"]),
    ("bench.us_per_fitness", "us",
     lambda t, o, n, c: _per(t["bench.fitness"], n["bench.fitness"])),
    ("baselines.de_s", "s", lambda t, o, n, c: t["baselines.de"]),
    ("baselines.de_evaluate_s", "s",
     lambda t, o, n, c: t["baselines.de_evaluate"]),
    ("baselines.de_self_s", "s", lambda t, o, n, c: o["baselines.de"]),
    ("baselines.scan_s", "s", lambda t, o, n, c: t["baselines.scan"]),
    ("trace.run_s", "s", lambda t, o, n, c: t[tracing.CALL]),
]


def _per(seconds: float, count: float) -> float:
    return seconds / count * 1e6 if count else 0.0


class _Zero(dict):
    def __missing__(self, key):
        return 0.0


def per_layer(calls: list, tracer: tracing.Tracer) -> tuple[dict, bool]:
    """Per-layer metrics, means per traced call, and the self-time check."""
    traced = [c for c in calls if c.traced]
    inclusive, own, spans = tracer.times()
    per_call = len(traced)
    t, o, n, c = (_Zero({k: v / per_call for k, v in d.items()})
                  for d in (inclusive, own, spans, tracer.counts))
    metrics = {}
    for name, unit, value in LAYER_METRICS:
        metrics[name] = metric(name, value(t, o, n, c), unit, per_call,
                               "mean per traced call")
    plain = [x.seconds for x in calls if not x.traced and not x.failed]
    timed = [x.seconds for x in traced if not x.failed]
    overhead = (statistics.median(timed) / statistics.median(plain)
                if plain and timed else 0.0)
    metrics["trace.overhead"] = metric("trace.overhead", overhead, "ratio",
                                       len(timed), "median traced call over "
                                       "median untraced call")
    total_self = sum(own.values())
    nested = abs(total_self - inclusive[tracing.CALL]) <= 1e-9 * total_self
    print(f"{'PASS' if nested else 'FAIL'} check self times add up to the "
          f"traced calls (spans nest): {total_self!r} s vs "
          f"{inclusive[tracing.CALL]!r} s")
    # Work inside divga that no layer wraps is engine.self_s; time of the
    # call outside every divga span is the call span's own self time.
    outside = own[tracing.CALL] / inclusive[tracing.CALL]
    covered = outside <= OUTSIDE_LIMIT
    print(f"{'PASS' if covered else 'FAIL'} check time outside every divga "
          f"span is at most {OUTSIDE_LIMIT:.0%} of the traced calls: "
          f"{outside:.3e} ({own[tracing.CALL] / per_call!r} s per call)")
    ok = nested and covered
    for name in sorted(own):
        if spans[name]:
            print(f"self {name} = {own[name] / per_call!r} s per traced call")
    return metrics, ok


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(environment(args, workload)))
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        one_call(workload.tiny(), args.seed, 0, work_dir)
        tracer = tracing.Tracer() if args.trace else None
        setup_times = []
        calls = run_calls(workload, args.seed, args.seconds, work_dir, tracer,
                          setup_times)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    correct = report_checks(workload, calls)
    print(f"fingerprint {fingerprint(calls)} (inputs 0-{MIN_CALLS - 1}, "
          f"seed {args.seed})")
    if tracer is None:
        metrics = end_to_end(calls, setup_times)
    else:
        metrics, accounted = per_layer(calls, tracer)
        correct = correct and accounted
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans_{args.workload}.npz")
    failed = sum(1 for c in calls if c.failed)
    print(json.dumps({"correct": correct, "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
