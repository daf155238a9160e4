"""pcdec benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pcdec checkout (the directory holding src/pcdec);
pcdec is imported from that source tree. The workloads are defined in
workloads.py and explained in README.md.

--trace 0 repeats passes over the workload's tasks while another pass
fits in S seconds (three passes at least), and reports the end-to-end
metrics from each task's median time over the passes, normalized for the
machine's speed (calibrate.py), with tracing off. --trace 1 runs
the workload serially once traced and twice untraced, and reports the
per-layer metrics: self times and counts from the spans, warm
microbenchmarks, the pool start-up cost, and the tracing overhead.

Either way the outputs are checked (workloads.check_output and
workloads.oracle_check) and every task's checksum is compared with the
one stored for the seed in reference.json. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the metric names and units are those of BENCHMARK.json at the
checkout root. The full record of the run (environment, checksums, task
times, problems) goes to perfbench/out/.
"""

import argparse
import json
import os
import sys

ROOT = os.getcwd()
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def declared_metrics() -> dict[str, dict[str, str]]:
    """{"end_to_end" | "per_layer": {metric name: unit}} from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def load_pcdec() -> None:
    """Import pcdec from this checkout's source tree, with one BLAS thread
    per process (set before numpy loads, and inherited by children)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pcdec", "__init__.py")):
        sys.exit(f"run.py: no pcdec source at {src}; "
                 "run from the root of a pcdec checkout")
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import pcdec
    if not os.path.abspath(pcdec.__file__).startswith(src + os.sep):
        sys.exit(f"run.py: imported pcdec from {pcdec.__file__}, not {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    declared = declared_metrics()
    load_pcdec()
    import bench
    return bench.main(args, declared)


if __name__ == "__main__":
    sys.exit(main())
