#!/usr/bin/env python3
"""Runs perfbench/run.py once per seed and prints, for every end-to-end
metric, the median and the spread (interquartile range over median, with
statistics.quantiles(n=4)) next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workloads drift burst --seeds 1 2 3 4 5
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    parser.add_argument("--save", help="write every run's values as JSON")
    parser.add_argument("--compare", help="a --save file from an earlier "
                        "set: print how far this set's medians moved")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    saved = {}
    for workload in args.workloads:
        values, bad, walls = {}, 0, []
        for seed in args.seeds:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            walls.append(time.monotonic() - started)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
            if proc.returncode != 0 or not line:
                print(f"{workload} seed {seed}: run failed", flush=True)
                bad += 1
                continue
            result = json.loads(line)
            bad += 0 if result["correct"] else 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {len(args.seeds)} seeds, {bad} incorrect, "
              f"run wall time median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  > bound/3"
            print(f"  {name:30s} median {med:14.4f}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}", flush=True)
            if args.verbose:
                print("      " + " ".join(f"{v:.4g}" for v in vals))
            before = earlier.get(workload, {}).get(name)
            if before and statistics.median(before) and bound is not None:
                ref = statistics.median(before)
                worse = (med - ref) / ref
                if better[name] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
                print(f"      vs earlier set: median {ref:.4g} -> {med:.4g}, "
                      f"worse by {worse:+.4f} ({verdict})")
        saved[workload] = values
    if args.save:
        Path(args.save).write_text(json.dumps(saved))


if __name__ == "__main__":
    main()
