"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload serve-churn --seeds 0-9 [--seconds 12] [--trace 0]

Runs ``perfbench/run.py`` once per seed, each in a fresh process, and
prints, per metric, the median and the distance between the first and
third quartiles as a share of the median (``statistics.quantiles(n=4)``),
next to the metric's bound from ``BENCHMARK.json``.  Exits non-zero when
a run fails or a spread (other than set-up time) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    ok = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False, cwd=ROOT,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= proc.returncode == 0 and result["correct"]
        print(f"seed {seed}: exit {proc.returncode}, "
              + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            ok, flag = False, "  OVER BOUND"
        elif bound is not None and spread > bound / 3:
            flag = "  over a third of the bound"
        print(f"{name:<32} median {median:<12.6g} spread {spread:7.2%}"
              + (f"  bound {bound:.0%}" if bound is not None else "") + flag)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
