"""Warm microbenchmarks of the layer functions the workloads call, at
fixed input sizes. Inputs come from the run's seed; every timing is the
median over blocks of repeated calls, after one untimed call."""

from __future__ import annotations

import itertools
import time

import numpy as np

from pcdec import bch
from pcdec.channel import ChannelParams, hard_decide, llr, modulate, transmit
from pcdec.gmd import batch_gmd
from pcdec.harness import SimConfig
from pcdec.kernels import kernel_for
from pcdec.product import pc_encode, scaled_reliability_message

# name -> (code_m, code_t): the workloads' two codes, and the t=3 code whose
# scalar fallback no kept workload runs
CODES = {"m6": (6, 2), "m8": (8, 2), "m6t3": (6, 3)}
PATTERNS = 16  # 2^p test patterns per row in TPD's Chase decoding (p = 4)


def seconds_per_call(fn, block_s: float = 0.03, blocks: int = 5) -> float:
    fn()
    calls = 1
    while True:  # calls per block so that a block lasts about block_s
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        dt = time.perf_counter() - t0
        if dt >= block_s or calls >= 1 << 16:
            break
        calls = max(calls * 2, int(calls * block_s / max(dt, 1e-9)))
    times = [dt]
    for _ in range(blocks - 1):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) / calls


def _noisy_words(rng, n: int, rows: int, errors_per_row: float) -> np.ndarray:
    """All-zero codewords through a BSC with the given mean error count."""
    return (rng.random((rows, n)) < errors_per_row / n).astype(np.uint8)


def run(seed: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, 2])
    m: dict[str, float] = {}
    specs = {name: SimConfig("ibdd", code_m=cm, code_t=ct).product_spec()
             for name, (cm, ct) in CODES.items()}

    for name, pspec in specs.items():
        comp = pspec.component
        kern = kernel_for(comp)
        for label, rows in (("n", comp.n), (f"{PATTERNS}n", PATTERNS * comp.n)):
            words = _noisy_words(rng, comp.n, rows, comp.t + 0.5)
            m[f"kernels.bdd_us_per_row.{name}.{label}"] = (
                1e6 * seconds_per_call(lambda: kern.batch_bdd(words)) / rows)

    m8 = specs["m8"]
    n8 = m8.n
    kern8 = kernel_for(m8.component)
    words = _noisy_words(rng, n8, n8, 1.0)
    m["kernels.syndrome_us_per_row.m8"] = (
        1e6 * seconds_per_call(lambda: kern8.codeword_mask(words)) / n8)

    params = ChannelParams.make(4.7, m8.rate)
    llrs = llr(transmit(modulate(np.zeros((n8, n8), np.uint8)), params, rng), params)
    ch_hard = hard_decide(llrs)
    mubar = (1.0 - 2.0 * ch_hard) * (rng.random((n8, 1)) < 0.9)
    m["product.combine_us.m8"] = 1e6 * seconds_per_call(
        lambda: scaled_reliability_message(mubar, llrs, 4.0, ch_hard))
    rel = np.abs(llrs)
    m["gmd.us_per_row.m8"] = (
        1e6 * seconds_per_call(lambda: batch_gmd(m8.component, ch_hard, rel)) / n8)

    t3 = specs["m6t3"]
    comp3 = t3.component
    info = rng.integers(0, 2, (t3.k, t3.k)).astype(np.uint8)
    m["bch.encode_ms_per_frame"] = 1e3 * seconds_per_call(lambda: pc_encode(t3, info))
    words = _noisy_words(rng, comp3.n, 64, comp3.t + 0.5)
    turn = itertools.count()
    m["bch.bdd_us_per_word"] = 1e6 * seconds_per_call(
        lambda: bch.bdd(comp3, words[next(turn) % 64]))
    return m
