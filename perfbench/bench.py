"""Measurement, checks and reporting for one benchmark run; run.py sets up
the environment and the import path before importing this module."""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy
import scipy

import calibrate
import micro
import workloads
from pcdec import harness
from run import BLAS_ENV, ROOT
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
MIN_REPEATS = 3
SETUP_PROBES = 5


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, asked of the library."""
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (which
    would look above the checkout when there is no .git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "pcdec", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ[v] for v in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def timed(task, tracer=None):
    if tracer is not None:
        tracer.at_point(task.algorithm, task.ebno_db)
    t0 = time.perf_counter()
    out = task.run()
    return out, time.perf_counter() - t0


class Outputs:
    """First output and checksum of each task, and the problems found."""

    def __init__(self, tasks):
        self.first: dict[str, object] = {}
        self.checksums: dict[str, list] = {}
        self.problems: dict[str, list[str]] = {t.key: [] for t in tasks}

    def add(self, task, out, label: str) -> None:
        cs = workloads.checksum(task, out)
        if task.key not in self.checksums:
            self.first[task.key] = out
            self.checksums[task.key] = cs
        elif cs != self.checksums[task.key]:
            self.problems[task.key].append(
                f"{task.key}: {label} gave checksum {cs}, first run {self.checksums[task.key]}")


def warm_up(wl) -> None:
    """One frame per algorithm, so that first-call costs fall outside the
    timed passes (set-up cost is measured on its own, as setup_s)."""
    for alg, b in wl.budgets.items():
        harness.run_ber_point(workloads.base_config(wl, alg, max_frames=1, workers=1),
                              b.ebno_db)


def setup_seconds(wl) -> float:
    """Median over fresh processes of the set-up cost (setup_probe.py),
    each normalized by the calibration kernel timed right after it."""
    ebno = wl.budgets["ibdd"].ebno_db
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), str(wl.code_m),
           str(ebno)]
    reference_s = calibrate.Kernel(2 ** wl.code_m).reference_s
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        elapsed, kernel = map(float, done.stdout.split()[-2:])
        times.append(reference_s * elapsed / kernel)
    return statistics.median(times)


def end_to_end(wl, tasks, seconds: int, outputs: Outputs) -> tuple[dict, dict]:
    """Repeat passes within `seconds` (at least MIN_REPEATS), with the
    calibration kernel run between consecutive tasks; metrics from each
    task's median normalized time over the repeats (calibrate.py). The
    machine's speed drifts by up to 2x, for moments or for minutes, and
    the normalization takes that drift out; the median then takes out
    what is left of short bursts."""
    times: dict[str, list[float]] = {t.key: [] for t in tasks}
    kernel: dict[str, list[float]] = {t.key: [] for t in tasks}
    calibration = calibrate.Kernel(2 ** wl.code_m)
    start = time.perf_counter()
    repeats = 0
    before = calibration.seconds()
    # passes while another one fits in `seconds`, and MIN_REPEATS at least
    while (repeats < MIN_REPEATS
           or (time.perf_counter() - start) * (repeats + 1) / repeats <= seconds):
        for task in tasks:
            out, dt = timed(task)
            after = calibration.seconds()
            times[task.key].append(dt)
            kernel[task.key].append((before + after) / 2)
            before = after
            outputs.add(task, out, f"pass {repeats}")
        repeats += 1
    norm = {k: statistics.median(calibration.reference_s * t / c
                                 for t, c in zip(times[k], kernel[k]))
            for k in times}
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    metrics = {}
    for alg in wl.budgets:
        mine = [t for t in tasks if t.algorithm == alg and not t.optimize]
        metrics[f"frames_per_s.{alg}"] = (sum(t.frames for t in mine)
                                         / sum(norm[t.key] for t in mine))
    metrics["workload_s"] = sum(norm.values())
    # ru_maxrss is in KiB; the children are the pool workers, if any
    metrics["peak_rss_mb"] = (self_ru.ru_maxrss + child_ru.ru_maxrss) / 1024
    metrics["setup_s"] = setup_seconds(wl)
    record = {"repeats": repeats, "measured_s": time.perf_counter() - start,
              "task_normalized_s": norm, "task_times_s": times,
              "kernel_times_s": kernel}
    return metrics, record


def pool_overhead_ms(seed: int, repeats: int = 5) -> float:
    """A one-batch 4-frame point with workers=2 minus the same with
    workers=1 (medians), on the m6 code."""
    cfg = harness.SimConfig("ibdd-sr", code_m=6, max_frames=4, batch_frames=4,
                            min_frame_errors=workloads.NEVER,
                            master_seed=workloads.derive_seed(seed, 3))
    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(repeats):
        for workers in (1, 2):
            t0 = time.perf_counter()
            harness.run_ber_point(dataclasses.replace(cfg, workers=workers), 3.9)
            times[workers].append(time.perf_counter() - t0)
    return 1e3 * (statistics.median(times[2]) - statistics.median(times[1]))


def per_layer(wl, tasks, seed: int, outputs: Outputs) -> tuple[dict, dict]:
    """Untraced, traced, untraced serial passes; per-layer metrics from the
    traced one, plus microbenchmarks and the pool start-up cost."""
    tasks = [workloads.serial(t) for t in tasks]
    passes = []
    tracer = Tracer(wl.name)
    for label in ("untraced", "traced", "untraced again"):
        start = time.perf_counter()
        if label == "traced":
            with tracer.installed():
                for task in tasks:
                    outputs.add(task, timed(task, tracer)[0], label)
        else:
            for task in tasks:
                outputs.add(task, timed(task)[0], label)
        passes.append(time.perf_counter() - start)
    spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{seed}.jsonl.gz")
    tracer.write(spans_path)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = passes[1] / ((passes[0] + passes[2]) / 2) - 1
    metrics["harness.pool_overhead_ms"] = pool_overhead_ms(seed)
    metrics.update(micro.run(seed))
    record = {"pass_s": dict(zip(("untraced", "traced", "untraced_again"), passes)),
              "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT)}
    return metrics, record


def main(args, declared: dict[str, dict[str, str]]) -> int:
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    env = environment()
    print("environment:", json.dumps(env), flush=True)
    os.makedirs(OUT, exist_ok=True)

    tasks = workloads.build_tasks(wl, args.seed)
    outputs = Outputs(tasks)
    warm_up(wl)
    if args.trace:
        metrics, record = per_layer(wl, tasks, args.seed, outputs)
        want = declared["per_layer"]
    else:
        metrics, record = end_to_end(wl, tasks, args.seconds, outputs)
        want = declared["end_to_end"]
    if set(metrics) != set(want):
        sys.exit(f"run.py: metrics {sorted(set(metrics) ^ set(want))} do not "
                 "match BENCHMARK.json")

    for task in tasks:
        outputs.problems[task.key] += workloads.check_output(task, outputs.first[task.key])
    oracle = workloads.oracle_check(wl, args.seed)
    problems = [p for ps in outputs.problems.values() for p in ps] + oracle
    attempted = len(tasks) + 1
    failed = sum(1 for ps in outputs.problems.values() if ps) + (1 if oracle else 0)

    reference = {}
    if os.path.isfile(REFERENCE):
        with open(REFERENCE) as f:
            reference = json.load(f).get(wl.name, {}).get(str(args.seed), {})
    drift = sorted(k for k, cs in outputs.checksums.items()
                   if reference and reference.get(k) != cs)
    for p in problems:
        print("FAILED CHECK:", p)
    print(f"checks: {failed} of {attempted} failed; checksum drift: "
          + (f"{len(drift)} of {len(tasks)} tasks differ from reference.json"
             + (f" ({', '.join(drift)})" if drift else "")
             if reference else f"no reference stored for seed {args.seed}"))

    with open(os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "metrics": metrics,
                   "attempted": attempted, "failed": failed, "problems": problems,
                   "checksums": outputs.checksums, "checksum_drift": drift,
                   **record}, f, indent=1)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": want[k]} for k in want},
    }))
    return 0
