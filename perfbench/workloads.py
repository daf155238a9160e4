"""The benchmark's workloads, their correctness checks and checksums.

A workload is a list of tasks. Each task is one call into pcdec's public
API: a ``run_ber_point`` at a fixed frame budget (the stop rule is made
unreachable, so every run does the same work), or an
``optimize_scaling`` run. Every input pcdec sees -- the SimConfig with
its master seed, and the Eb/N0 value -- is built here from the seed
given on the command line.

Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from dataclasses import dataclass

import numpy as np

from pcdec import bch, harness
from pcdec.channel import ChannelParams
from pcdec.harness import ALGORITHMS, SimConfig
from pcdec.kernels import kernel_for

NEVER = 10 ** 9  # min_frame_errors no point reaches: each point runs its whole budget


@dataclass(frozen=True)
class Budget:
    """Operating point and work of one algorithm: ``points`` points of
    ``frames`` frames each, every point with its own master seed."""

    ebno_db: float
    frames: int
    points: int


@dataclass(frozen=True)
class Optimization:
    """``count`` optimize_scaling runs of one algorithm, each with its own
    master seed."""

    algorithm: str
    ebno_db: float
    opt_frames: int
    opt_grid: tuple[float, ...]
    count: int


@dataclass(frozen=True)
class Workload:
    """All-zero words through a (2^m, 2^m-2m-1, 6)^2 eBCH product code."""

    name: str
    code_m: int
    workers: int
    budgets: dict[str, Budget]
    optimization: Optimization | None = None


# Operating points: m6-waterfall uses the middle of each C5 SMOKE_BUDGETS
# bracket, m8-waterfall the middle of each FULL_BUDGETS bracket (see
# tests/test_acceptance.py). Budgets are sized so that each algorithm
# averages over enough frames that its work varies by only a few percent
# from seed to seed (the decode time of single frames varies by 5-40% at
# these operating points), while one pass stays short enough (2-6 s on one
# core) that a 45 s run repeats every task several times. Task times
# are normalized for the machine's speed (calibrate.py), so a pass need not
# catch a quiet moment of the shared machine.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="m6-waterfall", code_m=6, workers=1, budgets={
            "none": Budget(4.2, 64, 8),
            "ibdd": Budget(4.2, 40, 8),
            "ad": Budget(4.0, 28, 8),
            "ibdd-sr": Budget(3.9, 32, 8),
            "ideal-ibdd": Budget(3.8, 24, 8),
            "igmdd-sr": Budget(3.2, 12, 8),
            "tpd": Budget(2.8, 10, 8),
        }),
    Workload(
        name="m8-waterfall", code_m=8, workers=1, budgets={
            "none": Budget(4.95, 8, 8),
            "ibdd": Budget(4.95, 12, 8),
            "ad": Budget(4.78, 4, 8),
            "ibdd-sr": Budget(4.70, 3, 8),
            "ideal-ibdd": Budget(4.65, 6, 8),
            "igmdd-sr": Budget(4.35, 1, 8),
            "tpd": Budget(3.90, 1, 4),
        }),
    Workload(
        name="m6-optimize", code_m=6, workers=2,
        optimization=Optimization("ibdd-sr", 3.9, opt_frames=16,
                                  opt_grid=(0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8),
                                  count=2),
        budgets={
            "none": Budget(4.2, 64, 6),
            "ibdd": Budget(4.2, 48, 6),
            "ad": Budget(4.0, 32, 6),
            "ibdd-sr": Budget(3.9, 48, 6),
            "ideal-ibdd": Budget(3.8, 48, 6),
            "igmdd-sr": Budget(3.2, 16, 6),
            "tpd": Budget(2.8, 16, 6),
        }),
)}


def derive_seed(seed: int, *path: int) -> int:
    """A master seed for one task, independent across tasks and seeds."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass(frozen=True)
class Task:
    """One timed call into pcdec; ``key`` names it within its workload."""

    key: str
    algorithm: str
    ebno_db: float
    cfg: SimConfig
    optimize: bool = False

    @property
    def frames(self) -> int:
        return 0 if self.optimize else self.cfg.max_frames

    def run(self):
        # looked up on the module at call time, so a traced run sees the
        # wrapped functions
        if self.optimize:
            return harness.optimize_scaling(self.cfg, self.ebno_db)
        return harness.run_ber_point(self.cfg, self.ebno_db)


def base_config(wl: Workload, algorithm: str, **changes) -> SimConfig:
    fields = dict(code_m=wl.code_m, workers=wl.workers, min_frame_errors=NEVER)
    return SimConfig(algorithm=algorithm, **{**fields, **changes})


def build_tasks(wl: Workload, seed: int) -> list[Task]:
    """Every task of one pass over the workload, in run order. The order
    takes one task of each algorithm in turn, so that every algorithm's
    time is spread over the whole pass."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    wl_id = zlib.crc32(wl.name.encode())
    queues = []
    opt = wl.optimization
    if opt is not None:
        alg_id = ALGORITHMS.index(opt.algorithm)
        queues.append([
            Task(f"optimize-{opt.algorithm}@{opt.ebno_db}/{i}", opt.algorithm,
                 opt.ebno_db,
                 base_config(wl, opt.algorithm, opt_frames=opt.opt_frames,
                             opt_grid=opt.opt_grid,
                             master_seed=derive_seed(seed, wl_id, 100 + alg_id, i)),
                 optimize=True)
            for i in range(opt.count)])
    for alg, b in wl.budgets.items():
        alg_id = ALGORITHMS.index(alg)
        queues.append([
            Task(f"{alg}@{b.ebno_db}/{i}", alg, b.ebno_db,
                 base_config(wl, alg, max_frames=b.frames,
                             master_seed=derive_seed(seed, wl_id, alg_id, i)))
            for i in range(b.points)])
    return [q[i] for i in range(max(map(len, queues))) for q in queues if i < len(q)]


def serial(task: Task) -> Task:
    return dataclasses.replace(task, cfg=dataclasses.replace(task.cfg, workers=1))


def checksum(task: Task, out) -> list:
    """(frames, bit_errors, frame_errors) of a point; the schedule of an
    optimization."""
    if task.optimize:
        return list(out.w)
    return [out.frames, out.bit_errors, out.frame_errors]


def _q(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def check_point(task: Task, rec) -> list[str]:
    """Consistency of one BerRecord; the uncoded BER must match the
    Q-function within six binomial standard deviations."""
    n = task.cfg.product_spec().n
    bad = []
    if rec.frames != task.cfg.max_frames or not rec.budget_exhausted:
        bad.append(f"ran {rec.frames} frames, budget {task.cfg.max_frames}")
    if rec.ber != rec.bit_errors / (rec.frames * n * n):
        bad.append("ber != bit_errors / (frames * n^2)")
    if rec.fer != rec.frame_errors / rec.frames:
        bad.append("fer != frame_errors / frames")
    if not rec.frame_errors <= rec.bit_errors:
        bad.append("bit_errors < frame_errors")
    if not rec.frame_errors <= rec.frames:
        bad.append("frame_errors > frames")
    if task.algorithm == "none":
        rate = task.cfg.product_spec().rate
        p = _q(math.sqrt(2.0 * rate * 10.0 ** (task.ebno_db / 10.0)))
        sd = math.sqrt(p * (1.0 - p) / (rec.frames * n * n))
        if abs(rec.ber - p) > 6.0 * sd:
            bad.append(f"uncoded ber {rec.ber:.5g} vs Q-function {p:.5g}")
    return [f"{task.key}: {b}" for b in bad]


def check_optimization(task: Task, sched) -> list[str]:
    """The schedule is monotone, of the right length, drawn from the scaled
    grid, and its BER is no worse than that of any constant schedule on
    the grid (the optimizer starts from the best one and only accepts
    improvements). BERs are re-evaluated serially, which also checks that
    the pooled evaluations matched serial ones."""
    cfg = task.cfg
    w = tuple(sched.w)
    scale = 2.0 / ChannelParams.make(task.ebno_db, cfg.product_spec().rate).sigma2
    grid = sorted(round(g * scale, 4) for g in cfg.opt_grid)
    bad = []
    if len(w) != cfg.iterations:
        bad.append(f"{len(w)} weights for {cfg.iterations} iterations")
    if any(b < a for a, b in zip(w, w[1:])):
        bad.append("schedule not monotone")
    if any(x not in grid for x in w):
        bad.append("weight outside the scaled grid")
    evaluate = dataclasses.replace(cfg, workers=1, max_frames=cfg.opt_frames)
    ber = harness.run_ber_point(dataclasses.replace(evaluate, w=w), task.ebno_db).ber
    for g in grid:
        const = dataclasses.replace(evaluate, w=(g,) * cfg.iterations)
        if harness.run_ber_point(const, task.ebno_db).ber < ber:
            bad.append(f"constant schedule {g} beats the optimized one")
    return [f"{task.key}: {b}" for b in bad]


def check_output(task: Task, out) -> list[str]:
    if task.optimize:
        return check_optimization(task, out)
    return check_point(task, out)


def oracle_check(wl: Workload, seed: int, rows: int = 256) -> list[str]:
    """A sample of received rows decoded by the batch kernel must match the
    scalar oracle ``bch.bdd`` row by row."""
    spec = base_config(wl, "ibdd").product_spec().component
    rng = np.random.default_rng([seed, zlib.crc32(wl.name.encode()), 1])
    msgs = rng.integers(0, 2, (rows, spec.k)).astype(np.uint8)
    words = np.stack([bch.encode(spec, m) for m in msgs])
    for r, weight in enumerate(rng.integers(0, spec.t + 3, rows)):
        words[r, rng.choice(spec.n, size=weight, replace=False)] ^= 1
    out, ok = kernel_for(spec).batch_bdd(words)
    mismatches = 0
    for r in range(rows):
        ref = bch.bdd(spec, words[r])
        if bool(ok[r]) != ref.corrected or not np.array_equal(out[r], ref.word):
            mismatches += 1
    if mismatches:
        return [f"batch_bdd differs from bch.bdd on {mismatches}/{rows} rows"]
    return []
