"""Monte Carlo BER/FER estimation and analysis.

Frames are simulated in fixed-size batches of per-frame RNG streams keyed
by (master_seed, frame_index), so results are bit-identical for any
worker count and batch size. The stop rule (minimum frame errors or a
frame cap) is evaluated at batch boundaries. A batch is also the decode
stack: its frames go through the decoder together (``product``'s
``*_stack`` decoders), and a pool splits it into contiguous sub-ranges.

Also here: coordinate-ascent optimization of the scaling schedules over
monotone non-decreasing vectors, horizontal coding-gain measurement
between BER curves, and HD/SD capacity thresholds for gap-to-capacity
reporting, the only code here that imports scipy (at its first call).
"""

from __future__ import annotations

import ctypes
import dataclasses
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .bch import construct_ebch
# perfbench/tracing.py wraps the channel functions here, hard_decide too
from .channel import ChannelParams, frame_rng, hard_decide, llr, modulate, transmit  # noqa: F401
from .gf import DEFAULT_PRIMITIVE_POLYS, build_field
# The per-frame decoders stay names of this module next to the stack ones
# the registry calls: perfbench/tracing.py wraps them here.
from .product import (  # noqa: F401
    ProductCodeSpec,
    anchor_decode,
    anchor_stack,
    check_w,
    ibdd,
    ibdd_sr,
    ibdd_sr_stack,
    ibdd_stack,
    ideal_ibdd,
    ideal_ibdd_stack,
    igmdd_sr,
    igmdd_sr_stack,
    pc_encode,
)
from .tpd import check_p, tpd_decode, tpd_stack  # noqa: F401

# scaling schedules produced by optimize_scaling (see README for the
# anchor points and how to regenerate with `pcdec optimize-w`); keyed by
# (algorithm, field degree m). Used when SimConfig.w is left unset.
DEFAULT_SCHEDULES: dict[tuple[str, int], tuple[float, ...]] = {
    ("ibdd-sr", 6): (2.4373, 7.3118, 7.3118, 7.3118, 7.3118, 7.3118,
                     7.3118, 7.3118, 7.3118, 10.9676),
    ("igmdd-sr", 6): (11.9089,) * 10,
    ("ibdd-sr", 8): (4.0219, 6.0329, 6.0329, 8.0439, 8.0439, 8.0439,
                     8.0439, 8.0439, 8.0439, 8.0439),
    ("igmdd-sr", 8): (7.507, 7.507, 7.507, 7.507, 7.507, 7.507, 7.507,
                      7.507, 7.507, 13.1372),
}


@dataclass(frozen=True)
class Algorithm:
    """One row of the algorithm registry. ``capacity_mode`` is "SD" when the
    decisions use channel reliabilities, else "HD"; ``fields`` names the
    SimConfig fields only this algorithm reads, which its INI section takes
    (``"w" in fields``: it needs a scaling schedule); ``decode(sim, channel,
    sent)`` returns the hard decisions for a (B, n, n) stack of frames of
    the _FrameSimulator sim in one call (a decoder's ``*_stack`` form),
    looking the decoder up among this module's names at call time.
    ``channel`` holds the LLRs for an "SD" algorithm and only their hard
    decisions for an "HD" one."""

    name: str
    capacity_mode: str
    fields: tuple[str, ...]
    decode: Callable


_SR_FIELDS = ("w", "opt_grid", "opt_frames")

# To add a decoder: write a line rule on product._key_stack (a rule on
# _soft_stack, or a half-step of its own on _iterate), then add a row.
REGISTRY: dict[str, Algorithm] = {a.name: a for a in (
    Algorithm("none", "HD", (), lambda sim, hard, sent: hard),
    Algorithm("ibdd", "HD", (), lambda sim, hard, sent: ibdd_stack(
        sim.spec, hard, sim.cfg.iterations).array),
    Algorithm("ad", "HD", ("anchor_threshold",), lambda sim, hard, sent: anchor_stack(
        sim.spec, hard, sim.cfg.iterations, sim.cfg.anchor_threshold).array),
    Algorithm("ibdd-sr", "SD", _SR_FIELDS, lambda sim, soft, sent: ibdd_sr_stack(
        sim.spec, soft, sim.w, sim.cfg.iterations).array),
    Algorithm("ideal-ibdd", "HD", (), lambda sim, hard, sent: ideal_ibdd_stack(
        sim.spec, hard, sent, sim.cfg.iterations).array),
    Algorithm("igmdd-sr", "SD", _SR_FIELDS, lambda sim, soft, sent: igmdd_sr_stack(
        sim.spec, soft, sim.w, sim.cfg.iterations).array),
    Algorithm("tpd", "SD", ("chase_p",), lambda sim, soft, sent: tpd_stack(
        sim.spec, soft, sim.cfg.chase_p, sim.cfg.iterations).array),
)}
ALGORITHMS = tuple(REGISTRY)


class NotBracketedError(ValueError):
    """A BER curve never crosses the requested target."""


class CensoredCrossingError(NotBracketedError):
    """A BER curve falls from above the target straight to zero observed
    errors, so the crossing lies between two points but cannot be located."""


@dataclass(frozen=True)
class SimConfig:
    """One algorithm's simulation setup; see README for the CLI mapping."""

    algorithm: str
    code_m: int = 8
    code_t: int = 2
    extended: bool = True
    iterations: int = 10
    w: tuple[float, ...] | None = None
    anchor_threshold: int = 1
    chase_p: int = 4
    ebno_grid: tuple[float, ...] = ()
    min_frame_errors: int = 100
    max_frames: int = 1_000_000
    master_seed: int = 1
    workers: int = 1
    transmission: str = "all-zero"
    batch_frames: int = 64
    ber_floor: float | None = None
    opt_grid: tuple[float, ...] = tuple(round(0.4 + 0.2 * i, 1) for i in range(14))
    opt_frames: int = 400

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.w is not None and "w" not in REGISTRY[self.algorithm].fields:
            raise ValueError(f"{self.algorithm} takes no scaling schedule w")
        if self.code_m not in DEFAULT_PRIMITIVE_POLYS:
            raise ValueError(f"code_m must be one of "
                             f"{', '.join(map(str, DEFAULT_PRIMITIVE_POLYS))}, "
                             f"got {self.code_m}")
        for name, least in (("code_t", 1), ("iterations", 1), ("min_frame_errors", 1),
                            ("max_frames", 1), ("batch_frames", 1), ("workers", 1),
                            ("opt_frames", 1), ("chase_p", 1), ("anchor_threshold", 0),
                            ("master_seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        spec = self.product_spec()  # a code with no information bits fails here
        if "chase_p" in REGISTRY[self.algorithm].fields:
            try:
                check_p(self.chase_p, spec.n)
            except ValueError as exc:
                raise ValueError(f"chase_p: {exc}") from None
        if self.w is not None:
            check_w(self.w, self.iterations)
        if self.transmission not in ("all-zero", "random"):
            raise ValueError("transmission must be 'all-zero' or 'random'")
        if not all(map(math.isfinite, self.ebno_grid)):
            raise ValueError(f"ebno grid must be finite, got {self.ebno_grid}")
        if any(b <= a for a, b in zip(self.ebno_grid, self.ebno_grid[1:])):
            raise ValueError("ebno grid must be strictly increasing")
        if self.ber_floor is not None and not 0 < self.ber_floor < 1:
            raise ValueError(f"ber_floor must be in (0, 1), got {self.ber_floor}")
        if not self.opt_grid or any(not 0 < g < math.inf for g in self.opt_grid):
            raise ValueError(f"opt_grid must be positive and finite, got {self.opt_grid}")

    def product_spec(self) -> ProductCodeSpec:
        return _product_spec(self.code_m, self.code_t, self.extended)

    def resolve_w(self) -> tuple[float, ...] | None:
        """The SR weights of this run, one per iteration: ``w`` when set;
        None for a decoder without weights; else the shipped schedule of
        ``DEFAULT_SCHEDULES`` for (algorithm, code_m), cut to its first
        ``iterations`` weights, or padded with its last weight up to
        ``iterations``. An SR decoder with neither raises ValueError."""
        if self.w is not None:
            return tuple(self.w)
        if "w" not in REGISTRY[self.algorithm].fields:
            return None
        key = (self.algorithm, self.code_m)
        if key in DEFAULT_SCHEDULES:
            sched = DEFAULT_SCHEDULES[key]
            return (sched + (sched[-1],) * self.iterations)[: self.iterations]
        raise ValueError(
            f"no scaling schedule for {self.algorithm} (m={self.code_m}); "
            "set w or run the optimizer")


@lru_cache(maxsize=None)
def _product_spec(m: int, t: int, extended: bool) -> ProductCodeSpec:
    """The product code of SimConfig.product_spec, built once per code: a
    config builds it when it is made and each simulator reads it again."""
    field = build_field(m, DEFAULT_PRIMITIVE_POLYS[m])
    return ProductCodeSpec(construct_ebch(field, t, extended))


@dataclass(frozen=True)
class BerRecord:
    """One Monte Carlo measurement point."""

    algorithm: str
    ebno_db: float
    iterations: int
    frames: int
    bit_errors: int
    frame_errors: int
    ber: float
    fer: float
    seed: int
    w: tuple[float, ...] | None
    wall_time: float
    budget_exhausted: bool


class _FrameSimulator:
    """Callable simulating a range of frames end to end; built once per
    point, by run_ber_point, whose forked pool workers inherit it."""

    def __init__(self, cfg: SimConfig, ebno_db: float):
        _steady_heap()
        self.cfg = cfg
        self.spec = cfg.product_spec()
        self.params = ChannelParams.make(ebno_db, self.spec.rate)
        self.w = cfg.resolve_w()
        self.decode = REGISTRY[cfg.algorithm].decode
        self.hard = REGISTRY[cfg.algorithm].capacity_mode == "HD"

    def __call__(self, lo: int, hi: int) -> list[int]:
        """Bit errors per frame after decoding frames lo..hi-1 as one
        stack; each frame is drawn from its own RNG stream, its noise in
        place: into one reused buffer for an HD decoder, which gets the hard
        decisions y < 0 of the channel outputs y (those of the LLRs
        2y/sigma^2) and no float stack, and into the LLR stack for an SD
        decoder. An all-zero word is sent as the symbols +1."""
        cfg = self.cfg
        spec = self.spec
        sent = np.zeros((hi - lo, spec.n, spec.n), dtype=np.uint8)
        channel = np.empty(sent.shape, dtype=np.uint8 if self.hard else np.float64)
        y = np.empty(sent.shape[1:]) if self.hard else None
        for b, frame_index in enumerate(range(lo, hi)):
            rng = frame_rng(cfg.master_seed, frame_index)
            x = 1.0
            if cfg.transmission == "random":
                info = rng.integers(0, 2, (spec.k, spec.k)).astype(np.uint8)
                sent[b] = pc_encode(spec, info)
                x = modulate(sent[b])
            if self.hard:
                np.less(transmit(x, self.params, rng, out=y), 0, out=channel[b].view(bool))
            else:
                llr(transmit(x, self.params, rng, out=channel[b]), self.params, out=channel[b])
        hard = self.decode(self, channel, sent)
        return np.count_nonzero(hard != sent, axis=(1, 2)).tolist()


_POOL_SIM: _FrameSimulator | None = None


def _steady_heap() -> None:
    """Fix glibc's mmap and trim thresholds in this process and the pool
    workers it forks, so that freed decoder temporaries stay in the heap.
    glibc's own threshold rises with the largest mmapped block freed so
    far: an m=6 igmdd-sr point of 12 frames took 0 or ~1600 page faults,
    hanging on what the process had run before. Needs glibc's mallopt."""
    libc = ctypes.CDLL(None)
    if hasattr(libc, "mallopt"):
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's largest
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _pool_frames(lo: int, hi: int) -> list[int]:
    return _POOL_SIM(lo, hi)


def run_ber_point(cfg: SimConfig, ebno_db: float, progress=None) -> BerRecord:
    """Simulate frames until the stop rule fires and return the record.

    The stop rule is checked at batch boundaries: at least
    cfg.min_frame_errors frame errors, or cfg.max_frames frames total
    (the latter marks the record budget_exhausted).
    """
    global _POOL_SIM
    start = time.perf_counter()
    sim = _FrameSimulator(cfg, ebno_db)
    n2 = sim.spec.n ** 2
    frames = bit_errors = frame_errors = 0
    pool = None
    try:
        if cfg.workers > 1:
            import multiprocessing
            _POOL_SIM = sim  # the forked workers inherit it
            pool = multiprocessing.get_context("fork").Pool(cfg.workers)
        while frames < cfg.max_frames and frame_errors < cfg.min_frame_errors:
            hi = min(frames + cfg.batch_frames, cfg.max_frames)
            if pool is not None:
                # contiguous sub-ranges, two per worker, in frame order
                cuts = np.linspace(frames, hi, 2 * cfg.workers + 1).astype(int).tolist()
                parts = [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
                errs = [e for part in pool.starmap(_pool_frames, parts) for e in part]
            else:
                errs = sim(frames, hi)
            frames = hi
            bit_errors += sum(errs)
            frame_errors += sum(1 for e in errs if e)
            if progress is not None:
                progress({"algorithm": cfg.algorithm, "ebno_db": ebno_db,
                          "frames": frames, "frame_errors": frame_errors,
                          "bit_errors": bit_errors,
                          "ber": bit_errors / (frames * n2)})
    finally:
        _POOL_SIM = None
        if pool is not None:
            pool.close()
            pool.join()
    return BerRecord(
        algorithm=cfg.algorithm,
        ebno_db=ebno_db,
        iterations=cfg.iterations,
        frames=frames,
        bit_errors=bit_errors,
        frame_errors=frame_errors,
        ber=bit_errors / (frames * n2),
        fer=frame_errors / frames,
        seed=cfg.master_seed,
        w=sim.w,
        wall_time=time.perf_counter() - start,
        budget_exhausted=frame_errors < cfg.min_frame_errors,
    )


def run_sweep(cfg: SimConfig, progress=None) -> list[BerRecord]:
    """run_ber_point per grid entry, low Eb/N0 first; optionally aborts
    once the measured BER drops below cfg.ber_floor."""
    records = []
    for ebno_db in cfg.ebno_grid:
        rec = run_ber_point(cfg, ebno_db, progress=progress)
        records.append(rec)
        if cfg.ber_floor is not None and rec.ber < cfg.ber_floor:
            break
    return records


def optimize_scaling(cfg: SimConfig, ebno_db: float) -> SimConfig:
    """Coordinate ascent over monotone non-decreasing scaling vectors; returns
    cfg with ``w`` set to the best one, a config run_ber_point runs as is.

    Grid values are relative to the channel LLR magnitude scale 2/sigma^2
    at the optimization point, so the same grid serves every code and
    operating point; the returned weights are absolute. Starts from the
    best constant vector, then repeatedly sweeps the positions,
    re-evaluating the Monte Carlo BER with a fixed seed and a fixed frame
    budget (cfg.opt_frames) so comparisons are paired.
    """
    if "w" not in REGISTRY[cfg.algorithm].fields:
        raise ValueError(f"{cfg.algorithm} takes no scaling schedule")
    scale = 2.0 / ChannelParams.make(ebno_db, cfg.product_spec().rate).sigma2
    grid = tuple(sorted(round(float(g) * scale, 4) for g in cfg.opt_grid))
    l_max = cfg.iterations
    eval_cfg = dataclasses.replace(
        cfg, min_frame_errors=10 ** 9, max_frames=cfg.opt_frames)

    cache: dict[tuple[float, ...], float] = {}

    def evaluate(w: tuple[float, ...]) -> float:
        if w not in cache:
            cache[w] = run_ber_point(
                dataclasses.replace(eval_cfg, w=w), ebno_db).ber
        return cache[w]

    # the best constant vector; a tie goes to the smaller weight
    best = min((tuple([g] * l_max) for g in grid), key=evaluate)
    best_ber = evaluate(best)

    for _ in range(8):  # sweeps until stable
        changed = False
        for pos in range(l_max):
            lo = best[pos - 1] if pos > 0 else grid[0]
            hi = best[pos + 1] if pos < l_max - 1 else grid[-1]
            for g in grid:
                if g < lo or g > hi or g == best[pos]:
                    continue
                cand = best[:pos] + (g,) + best[pos + 1:]
                ber = evaluate(cand)
                if ber < best_ber:
                    best, best_ber = cand, ber
                    changed = True
        if not changed:
            break
    return dataclasses.replace(cfg, w=best)


def required_ebno(records: list[BerRecord], target_ber: float) -> float:
    """Eb/N0 where the curve crosses target_ber in (0, 1), interpolated
    linearly in log10(BER). Raises CensoredCrossingError when the curve
    falls from at or above the target straight to zero observed errors,
    and NotBracketedError when it never crosses."""
    if not 0 < target_ber < 1:
        raise ValueError(f"target BER must be in (0, 1), got {target_ber:g}")
    pts = sorted((r.ebno_db, r.ber) for r in records)
    measured = [(x, b) for x, b in pts if b > 0]
    log_t = np.log10(target_ber)
    for (x1, b1), (x2, b2) in zip(measured, measured[1:]):
        l1, l2 = np.log10(b1), np.log10(b2)
        if l1 >= log_t >= l2:
            if l1 == l2:
                return x1
            return x1 + (x2 - x1) * (l1 - log_t) / (l1 - l2)
    for (x1, b1), (x2, b2) in zip(pts, pts[1:]):
        if b1 >= target_ber and b2 == 0:
            raise CensoredCrossingError(
                f"BER {b1:g} at {x1:g} dB, no errors observed at {x2:g} dB")
    raise NotBracketedError(f"curve never crosses BER {target_ber:g}")


def coding_gain(records_a: list[BerRecord], records_b: list[BerRecord],
                target_ber: float) -> float:
    """Horizontal Eb/N0 gap of curve a over curve b at the target BER
    (positive when a needs less Eb/N0)."""
    return required_ebno(records_b, target_ber) - required_ebno(records_a, target_ber)


def _h2(p: float) -> float:
    if p <= 0 or p >= 1:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def hd_capacity(sigma2: float) -> float:
    """Capacity of the BSC induced by hard-decided BPSK: 1 - h2(Q(1/sigma))."""
    from scipy import special
    p = float(special.ndtr(-1.0 / np.sqrt(sigma2)))
    return 1.0 - _h2(p)


def biawgn_capacity(sigma2: float) -> float:
    """Binary-input AWGN capacity via numerical integration."""
    from scipy import integrate
    sigma = float(np.sqrt(sigma2))
    ln2 = np.log(2.0)

    def integrand(y):
        pdf = np.exp(-((y - 1.0) ** 2) / (2.0 * sigma2)) / np.sqrt(2 * np.pi * sigma2)
        return pdf * np.logaddexp(0.0, -2.0 * y / sigma2) / ln2

    # the integrand lives within a few sigma of y = 1; beyond 14 sigma the
    # Gaussian factor is ~1e-43 and the other factor only grows linearly
    val, _ = integrate.quad(integrand, 1.0 - 14.0 * sigma, 1.0 + 14.0 * sigma,
                            epsabs=1e-13, epsrel=1e-11, limit=300)
    return 1.0 - val


@lru_cache(maxsize=None)
def capacity_threshold_ebno_db(rate: float, mode: str) -> float:
    """Smallest Eb/N0 (dB) whose capacity reaches the rate."""
    from scipy import optimize
    if not 0 < rate < 1:
        raise ValueError("rate must be in (0, 1)")
    cap = {"HD": hd_capacity, "SD": biawgn_capacity}[mode]

    def deficit(ebno_db: float) -> float:
        sigma2 = ChannelParams.make(ebno_db, rate).sigma2
        return cap(sigma2) - rate

    return float(optimize.brentq(deficit, -10.0, 25.0, xtol=1e-9, rtol=1e-12))


def capacity_gap(rate: float, ebno_db_at_target: float, mode: str) -> float:
    """Distance in dB from the HD or SD capacity threshold at this rate."""
    return ebno_db_at_target - capacity_threshold_ebno_db(rate, mode)
