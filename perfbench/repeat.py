"""Run the benchmark once per seed and summarize each metric over the runs.

    python3 perfbench/repeat.py --seeds 1-10 [--trace 0|1] [--out FILE]

Run from the root of a checkout. Every workload of BENCHMARK.json runs
once per seed, each run a separate ``perfbench/run.py`` process with the
run length from BENCHMARK.json.
For every workload and metric the summary gives the values, their median,
their quartiles (``statistics.quantiles(values, n=4)``) and the spread,
which is the distance between the quartiles as a share of the median. It
is printed and, with --out, written as JSON together with the
environment of the first run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "trace": args.trace, "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, run, "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            lines = done.stdout.strip().splitlines()
            if "environment" not in summary:
                summary["environment"] = json.loads(lines[0].split(":", 1)[1])
            result = json.loads(lines[-1])
            print(f"{name} seed {seed}: {lines[-2]}", flush=True)
            if not result["correct"]:
                print("\n".join(lines[1:-1]), file=sys.stderr)
                return 1
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        summary["workloads"][name] = stats = {}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else vals * 3)
            stats[metric] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None,
                             "values": vals}
            spread = "n/a" if med == 0 else f"{(q3 - q1) / med:.3f}"
            print(f"  {metric:34s} median {med:12.6g}  spread {spread}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
