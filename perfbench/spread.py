"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workloads lemma31,cor28 --seeds 1 10 [--trace 1] [--out FILE]

For every workload and metric it prints the median over the runs, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  ``--out`` writes the same figures,
with the environment of the first run, as JSON; perfbench/BASELINE.json
was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description="Spread of the benchmark over seeds.")
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table: dict[str, dict] = {}
    env = None
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
            env = env or json.loads(lines[0].removeprefix("env "))
            result = json.loads(lines[-1])
            for line in lines:   # unscaled medians, see run.py
                if line.startswith("metric ") and " raw_median=" in line:
                    metric = line.split()[2]
                    raw = float(line.split(" raw_median=")[1])
                    values.setdefault(f"{metric}.raw", []).append(raw)
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                print(f"{workload} seed {seed}: not correct", file=sys.stderr)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        rows = {}
        for metric, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else 0.0
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "n": len(vs), "spread": spread}
            bound = bounds.get(metric)
            mark = "" if bound is None else f" bound={bound} {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"{workload} {metric} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"n={len(vs)} spread={spread:.4f}{mark}")
        print(f"{workload} error_rate {failed}/{attempted}")
        table[workload] = {"metrics": rows, "attempted": attempted, "failed": failed}
    if args.out:
        Path(args.out).write_text(json.dumps({"env": env, "seeds": args.seeds,
                                              "workloads": table}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
