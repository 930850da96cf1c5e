"""Run perfbench once and append the run to BENCH_<workload>.json.

    python3 tools/bench_record.py --workload numeric --seed 7 --seconds 60 \
        --label change [--checkout DIR]

Runs DIR/perfbench/run.py, where DIR is this repository unless
--checkout names another checkout of it (a clone of a parent commit,
say), and reads its standard output. One point is appended to
BENCH_<workload>.json at the root of this repository, a JSON list of
points that is only ever added to. A point holds:

- the label and the checkout's commit, and whether its src/ or
  perfbench/ differed from that commit (a change not yet committed);
- the env line, the fingerprint and the result line's correct,
  attempted and failed;
- every metric line, as value, unit and sample count;
- the seconds of each call, so quartiles can be recomputed.

A run that fails or reports correct false is not recorded, and the
script exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRIC = re.compile(r"metric (\S+) = (\S+) (\S+) \(.*, (\d+) samples\)$")
FINGERPRINT = re.compile(r"fingerprint (\S+) ")


def parse_output(text: str) -> dict:
    """The point fields that perfbench/run.py's standard output holds.

    Raises ValueError when the env line or the final result line is
    missing.
    """
    point = {"env": None, "fingerprint": None, "metrics": {},
             "call_seconds": []}
    lines = text.strip().splitlines()
    for line in lines:
        if line.startswith("env "):
            point["env"] = json.loads(line[len("env "):])
        elif match := FINGERPRINT.match(line):
            point["fingerprint"] = match.group(1)
        elif match := METRIC.match(line):
            name, value, unit, samples = match.groups()
            point["metrics"][name] = {"value": float(value), "unit": unit,
                                      "samples": int(samples)}
        elif line.startswith("call seconds: "):
            point["call_seconds"] = [
                float(x) for x in line[len("call seconds: "):].split()]
    if point["env"] is None:
        raise ValueError("no env line in the output")
    try:
        result = json.loads(lines[-1])
        point.update((key, result[key])
                     for key in ("correct", "attempted", "failed"))
    except (IndexError, ValueError, KeyError, TypeError):
        raise ValueError("the output does not end with the result "
                         "line") from None
    return point


def append_point(path: Path, point: dict) -> int:
    """Append point to the JSON list at path, creating it when absent;
    returns the number of points. The earlier points are kept as they
    are, and the file is replaced in one rename."""
    points = json.loads(path.read_text()) if path.exists() else []
    if not isinstance(points, list):
        raise ValueError(f"{path} does not hold a list of points")
    points.append(point)
    tmp = path.with_name(path.name + ".tmp")
    # One point per line, so that a diff of the file shows the points
    # added and nothing else.
    tmp.write_text("[\n" + ",\n".join(json.dumps(p) for p in points)
                   + "\n]\n")
    os.replace(tmp, path)
    return len(points)


def differs_from_commit(checkout: Path) -> bool | None:
    """Whether src/ or perfbench/ of checkout differ from its commit;
    None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(checkout), "status", "--porcelain", "--",
             "src", "perfbench"], capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def run_perfbench(checkout: Path, workload: str, seed: int,
                  seconds: float) -> str:
    """Standard output of one perfbench run in checkout."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}:\n"
                           f"{proc.stderr}")
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", required=True,
                        help="what the point measures, e.g. parent or change")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout whose perfbench runs (default: this "
                             "repository)")
    parser.add_argument("--output", type=Path, default=None,
                        help="file to append to (default: "
                             "BENCH_<workload>.json at the repository root)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    point = parse_output(run_perfbench(checkout, args.workload, args.seed,
                                       args.seconds))
    if not point["correct"]:
        print(f"not recorded: the run is not correct ({point['failed']} of "
              f"{point['attempted']} calls failed)", file=sys.stderr)
        return 1
    point = {"label": args.label, "commit": point["env"].get("commit"),
             "differs_from_commit": differs_from_commit(checkout),
             "recorded": datetime.now(timezone.utc).isoformat(
                 timespec="seconds"), **point}
    output = args.output or ROOT / f"BENCH_{args.workload}.json"
    count = append_point(output, point)
    print(f"{output.name}: point {count} ({args.label}), run_s "
          f"{point['metrics']['run_s']['value']:.4f} s over "
          f"{len(point['call_seconds'])} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
