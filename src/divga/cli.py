"""Command line entry point for the benchmark experiments.

    divga-bench landscape-compare --repetitions 10 --seed 0 --out results

Exit code 0 on success, 1 when the experiment itself fails, 2 on bad
arguments.
"""

from __future__ import annotations

import argparse
import sys

from .bench import _OPTIONS, EXPERIMENTS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divga-bench",
        description="Run a benchmark experiment for the diversity-enhanced "
                    "genetic algorithm and write per-run and summary files.")
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="which experiment to run")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed; repetition r uses seed + r")
    for key, (kind, text) in _OPTIONS.items():
        typed = {"choices" if isinstance(kind, tuple) else "type": kind}
        parser.add_argument(f"--{key}", default=None, help=text, **typed)
    parser.add_argument("--out", default=".",
                        help="output directory (default: current directory)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in _OPTIONS}
    try:
        report = run_experiment(args.experiment, overrides=overrides,
                                seed=args.seed, output_directory=args.out)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.summary)
    for label, path in report.files.items():
        print(f"wrote {label}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
