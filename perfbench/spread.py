"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs ``run.py`` once per seed (one run at a time) and prints, per
metric, the median over the runs and the distance between the first
and third quartiles as a share of the median - the steadiness figure
the metric's bound in ``BENCHMARK.json`` must clear with room to spare.

    python3 perfbench/spread.py --workload sliding-cascade --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    """``"1-5"`` or ``"1,4,9"`` -> a list of seeds."""
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent, check=False,
        )
        if completed.returncode != 0:
            print(completed.stdout + completed.stderr, file=sys.stderr)
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)
    worst = 0.0
    for name, series in values.items():
        median, iqr = spread(series)
        bound = bounds.get(name)
        share = iqr / bound if bound else float("nan")
        if name != "setup_s":
            worst = max(worst, share)
        print(f"{name:20s} median {median:14.4f}  iqr/median {iqr:7.4f}  "
              f"bound {bound}  iqr/bound {share:5.2f}")
    print(f"worst iqr/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
