"""Machine speed, measured with a fixed reference computation.

The benchmark runs on shared machines whose speed drifts: other load can
make every instruction take up to twice as long, for a fraction of a
second or for minutes. Such a slowdown stretches pcdec's code and this
module's kernel by about as much when the two do the same kinds of work,
so the ratio of the two stays put while each on its own moves. ``end_to_end`` in bench.py runs the kernel between
consecutive tasks and reports each task's time as

    seconds * reference_s / (mean of the kernel times before and after it)

that is, the time the task would take on a machine that runs the kernel
in reference_s seconds. The kernel does not call pcdec, so a change to
pcdec moves the task times and not the kernel's.

The kernel is made of parts, one for each kind of work pcdec's decoders
do: a pure-Python loop, many numpy calls on tiny arrays (call overhead),
element-wise arithmetic, a row-wise ``argsort`` and an integer GEMM, on
n x n arrays with n the code length of the workload. Other load slows
these kinds of work by different amounts, so the mix follows the
workload's. For n = 64 each of the five parts takes about a fifth of the
kernel's time. On the m8 code, decoding is mostly numpy work on large
arrays; over 5-second windows of a loaded machine the m8 tasks slowed
about 0.8 times as much (in log terms) as the element-wise and sort
parts, but only 0.4 times as much as the Python, call-overhead and GEMM
parts. So for n = 256 the kernel is mostly element-wise work and sorting,
with a little Python and call overhead and no GEMM. Its inputs are fixed.
"""

from __future__ import annotations

import time

import numpy as np

# code length n -> calls of each part per kernel call, and reference_s:
# the best time of one kernel call on an unloaded core of the 2-vCPU
# x86-64 VM the baseline was measured on (python 3.11, numpy 2.4, one BLAS
# thread). reference_s is only a scale: normalized times read as seconds
# on a machine that runs the kernel this fast.
KERNELS = {
    64: (dict(python=20, dispatch=8, vector=80, sort=20, gemm=16), 2.2e-3),
    256: (dict(python=6, dispatch=2, vector=20, sort=2), 2.2e-3),
}


class Kernel:
    """The reference computation on n x n arrays, as wide as the frames of
    the workload it calibrates: how much a slowdown stretches numpy code
    depends on the size of the arrays it works on."""

    def __init__(self, n: int):
        self.calls, self.reference_s = KERNELS[n]
        rng = np.random.default_rng(20181)
        self.x = rng.standard_normal((n, n))
        self.bits = (rng.random((n, n)) < 0.5).astype(np.uint8)
        self.h = (rng.random((n, 2 * n.bit_length())) < 0.5).astype(np.uint8)
        self.small = rng.standard_normal(8)

    def python(self) -> int:
        acc, counts = 0, {}
        for j in range(200):
            counts[j & 15] = counts.get(j & 15, 0) + j
            acc += j * 3 // 2
        return acc

    def dispatch(self) -> float:
        acc = 0.0
        for _ in range(20):
            acc += float(np.abs(self.small).max()) + float(np.argmin(self.small))
        return acc

    def vector(self) -> float:
        return float((np.abs(self.x) * 0.5 + self.x)[0, 0])

    def sort(self) -> int:
        return int(np.argsort(self.x, axis=1)[0, 0])

    def gemm(self) -> int:
        return int(((self.bits @ self.h) & 1).sum())

    def seconds(self) -> float:
        """Wall time of one kernel call."""
        t0 = time.perf_counter()
        for part, calls in self.calls.items():
            fn = getattr(self, part)
            for _ in range(calls):
                fn()
        return time.perf_counter() - t0
