"""Vectorized component decoding used by the product decoders.

A ComponentKernel decodes a whole batch of received words at once from
their syndrome keys: one GF(2) matrix product (BLAS sgemm on 0/1 data)
gives each word's m*t odd-syndrome bits and its overall parity, read as
an integer key (the parity its top bit). ``corrections`` is the one
decoding step and takes only keys. For codes with m*t <= MAX_KEY_BITS
(t = 1, t = 2 up to m = 10, t = 3 up to m = 6) the key indexes a table
of the corrections, built on first use with 2^(m*t+1) entries: the
unique error pattern of weight <= t with those syndromes, plus the
parity bit of an extended code where the parity disagrees; keys without
one mean failure. Past the table each key is decoded on its own by the
scalar Berlekamp-Massey/Chien core of ``bch.bdd``, which takes the odd
syndromes and the parity as the key holds them. ``kernel_for`` keeps
one kernel per code. Encoding is one GF(2) product with the systematic
generator matrix, built from ``bch.encode`` on first use.

The keys are int64 words of 63 bits (one word for m*t < 63); a
non-extended code leaves out the parity, so a key is 0 exactly for a
codeword. ``line_keys`` gives the keys of the rows and columns of a
stack of frames, which lets iBDD carry the keys across half-steps and
update them per flipped bit (see ``product``).

``decode_trials`` (Chase, GMD) builds no trial word: a trial's key is
its hard word's key XOR its flipped bits' keys. Candidates come back as
supports (where they differ from the hard word), scored in numpy's
pairwise summation order.

The batch results are bit-exact with ``bch.bdd`` on every input; the test
suite pins this equivalence exhaustively for small codes.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from functools import cache, cached_property

import numpy as np

from . import bch

# largest m*t whose coset-leader table (2^(m*t+1) entries) is built; beyond
# it ``corrections`` decodes key by key
MAX_KEY_BITS = 20


class ComponentKernel:
    """Batch decoders for one component code."""

    def __init__(self, spec: bch.ComponentCodeSpec):
        self.spec = spec
        field = spec.field
        m = field.m

        # bits of alpha^(j*p) for the odd syndromes j = 1, 3, ..., 2t-1,
        # one m-bit block per j, plus a final overall-parity column
        pos = np.arange(spec.inner_n, dtype=np.int64)
        blocks = []
        for j in range(1, 2 * spec.t, 2):
            vals = field.antilog_table[(j * pos) % field.order]
            blocks.append(((vals[:, None] >> np.arange(m)[None, :]) & 1))
        smat = np.concatenate(blocks + [np.ones((spec.inner_n, 1), dtype=np.int64)],
                              axis=1)
        if spec.extended:
            ext_row = np.zeros((1, smat.shape[1]), dtype=np.int64)
            ext_row[0, -1] = 1
            smat = np.concatenate([smat, ext_row], axis=0)
        self._smat = smat.astype(np.float32)
        # syndrome bit i is bit i % 63 of key word i // 63; a non-extended
        # code leaves out the parity, its last bit
        keyed = np.arange(m * spec.t + spec.extended)
        self._pack = np.zeros((smat.shape[1], -(-len(keyed) // 63)), dtype=np.int64)
        self._pack[keyed, keyed // 63] = 1 << keyed % 63

    @cached_property
    def _generator(self) -> np.ndarray:
        """k x n generator matrix: row i is bch.encode of unit message i."""
        eye = np.eye(self.spec.k, dtype=np.uint8)
        return np.stack([bch.encode(self.spec, e) for e in eye]).astype(np.float32)

    @cached_property
    def col_keys(self) -> np.ndarray:
        """(n, W) the key of a single error at each of the n positions."""
        return self.keys(np.eye(self.spec.n))

    @cached_property
    def _leaders(self) -> tuple[np.ndarray, np.ndarray]:
        """The coset-leader table indexed by the key: the positions of the
        unique error pattern of weight <= t with those syndromes in
        ascending order, in t slots whose unused ones hold n, and whether
        the word is corrected. An extended code also flips its parity bit
        when the parity disagrees with the error weight, and fails when
        that makes more than t flips."""
        spec = self.spec
        t = spec.t
        mt = spec.field.m * t
        col_keys = self.col_keys[:, 0]
        weight = np.full(1 << mt, t + 1, dtype=np.uint8)
        positions = np.full((len(weight), t), spec.n - 1, dtype=np.uint16)
        weight[0] = 0
        for w in range(1, t + 1):
            combos = np.fromiter(
                itertools.chain.from_iterable(itertools.combinations(range(spec.inner_n), w)),
                dtype=np.int64, count=w * math.comb(spec.inner_n, w)).reshape(-1, w)
            keys = np.bitwise_xor.reduce(col_keys[combos], axis=1) & ((1 << mt) - 1)
            weight[keys] = w
            positions[keys, :w] = combos
        flips = weight + spec.extended * ((np.arange(2)[:, None] ^ weight) & 1)
        ok = flips <= t
        used = np.arange(t) < np.where(ok, flips, 0)[..., None]
        return (np.where(used, positions, spec.n).astype(np.uint16).reshape(-1, t),
                ok.reshape(-1))

    def encode(self, messages: np.ndarray) -> np.ndarray:
        """Systematic encoding of each row of a (rows, k) 0/1 matrix;
        equal to bch.encode row by row."""
        cw = messages.astype(np.float32) @ self._generator
        return (cw.astype(np.int64) & 1).astype(np.uint8)

    def keys(self, words: np.ndarray, columns: bool = False) -> np.ndarray:
        """Per row of ``words`` (..., n), or with ``columns`` per column of
        each matrix of a stack (..., n, n), the key (..., W) int64: bit i of
        word w is bit 63w+i of the m*t odd-syndrome bits, m-bit block j
        holding S_{2j+1}, followed by the overall parity. A non-extended
        code drops the parity, which is no syndrome there, so a key is 0
        exactly for a codeword. W = 1 for m*t < 63. The columns take one
        product from the left, without a transpose of the stack."""
        words = np.ascontiguousarray(words, dtype=np.float32)
        sb = (self._smat.T @ words).swapaxes(-1, -2) if columns else words @ self._smat
        return (sb.astype(np.int64) & 1) @ self._pack

    def line_keys(self, stack: np.ndarray) -> np.ndarray:
        """(B, 2, n, W) keys of the rows (index 0 of axis 1) and of the
        columns (index 1) of every frame of a (B, n, n) stack."""
        stack = np.asarray(stack, dtype=np.float32)
        return np.stack([self.keys(stack), self.keys(stack, columns=True)], axis=1)

    def corrections(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per line, from its key (..., W): the positions to flip (..., t),
        ascending with n in unused slots, and the corrected mask (...).
        Past the table each key is decoded by ``bch.decode_syndromes`` from
        its m-bit blocks, block j holding S_{2j+1}, and its parity."""
        if self.spec.field.m * self.spec.t <= MAX_KEY_BITS:
            fixes, fixed = self._leaders
            return fixes[keys[..., 0]], fixed[keys[..., 0]]
        spec, m = self.spec, self.spec.field.m
        cpos = np.full(keys.shape[:-1] + (spec.t,), spec.n)
        ok = np.zeros(keys.shape[:-1], dtype=bool)
        for i, parts in zip(np.ndindex(ok.shape), keys.reshape(-1, keys.shape[-1]).tolist()):
            key = sum(w << 63 * j for j, w in enumerate(parts))
            odd = [key >> m * j & spec.field.order for j in range(spec.t)]
            flips = bch.decode_syndromes(spec, odd, key >> m * spec.t)
            if flips is not None:
                ok[i] = True
                cpos[i][:len(flips)] = flips
        return cpos, ok

    def codeword_mask(self, words: np.ndarray) -> np.ndarray:
        """True per row of ``words`` (..., n) when all syndromes (and the
        parity, if extended) vanish: where its key is 0."""
        return ~self.keys(words).any(axis=-1)

    def batch_bdd(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode each row; returns (decoded words, corrected mask).
        Failed rows are echoed unchanged."""
        words = np.ascontiguousarray(words, dtype=np.uint8)
        cpos, ok = self.corrections(self.keys(words))
        return flip_support(words, cpos), ok

    def decode_trials(self, words: np.ndarray, positions: np.ndarray,
                      flips: np.ndarray, weights: np.ndarray, keys: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """BDD-decode T trial words per row: trial j of row r is words[r]
        with the bits at positions[r] (P distinct positions per row) XORed
        with flips[r, j] (or flips[j], shared by all rows). Returns the
        candidates' supports (rows, T, P + t): the positions where each
        differs from words[r], ascending, n in unused slots (anywhere); the
        corrected mask (rows, T), a failed trial's candidate being its trial
        word; and each trial's discrepancy (rows, T), the sum of weights[r]
        over its support, bit-equal to the dense row sum. ``keys`` are the
        words' keys, if already known."""
        n = words.shape[1]
        flips = np.asarray(flips, dtype=bool)
        positions = np.asarray(positions, dtype=np.intp)
        fpos = np.where(flips, positions[:, None, :], n)
        keys = self.keys(words) if keys is None else keys
        key = np.repeat(keys[:, None], flips.shape[-2], axis=1)
        trial_keys = self.col_keys[positions]
        for k in range(positions.shape[1]):
            key ^= np.where(flips[..., k, None], trial_keys[:, k, None], 0)
        cpos, ok = self.corrections(key)
        # sorted, a correction on a flipped bit sits next to it; the pair
        # restores the hard bit
        support = np.sort(np.concatenate([fpos, cpos], axis=-1), axis=-1)
        pair = support[..., 1:] == support[..., :-1]
        support[..., 1:][pair] = n
        support[..., :-1][pair] = n
        return support, ok, _support_sum(weights, support)


def flip_support(words: np.ndarray, support: np.ndarray) -> np.ndarray:
    """words (rows, n) with the bits at each row's support (rows, S),
    distinct positions and n for empty slots, flipped."""
    rows, n = words.shape
    out = np.array(words, dtype=np.uint8)
    used = support < n
    out.reshape(-1)[(np.arange(rows)[:, None] * n + support)[used]] ^= 1
    return out


@cache
def _lane_plan(n: int) -> tuple[np.ndarray, int, Callable]:
    """numpy's pairwise summation order for a contiguous row of n float64:
    up to 128 values go into 8 lanes (position i into lane i mod 8, in
    order; none when n < 8) summed as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the n mod 8 tail is added in order; longer rows are split at n//2
    rounded down to a multiple of 8. Returns each position's lane (n: a
    spare lane), the lane count and the (lanes, N) -> N combining sum."""
    lane = np.empty(n + 1, dtype=np.intp)

    def build(start, size, base):
        if size > 128:
            half = size // 2 - size // 2 % 8
            left, base = build(start, half, base)
            right, base = build(start + half, size - half, base)
            return (lambda acc: left(acc) + right(acc)), base
        body = size - size % 8 if size >= 8 else 0
        i = np.arange(size)
        lane[start:start + size] = base + np.where(i < body, i % 8, 8 + i - body)

        def combine(acc):
            r = acc[base:base + 8]
            res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            for j in range(base + 8, base + 8 + size - body):
                res = res + acc[j]
            return res

        return combine, base + 8 + size - body

    combine, lane[n] = build(0, n, 0)
    return lane, lane[n] + 1, combine


def _support_sum(weights: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Per row r and trial j, the sum of weights[r] (nonnegative) over
    support[r, j] (ascending positions, n in unused slots), bit-equal to the
    dense row sum: one bincount adds each weight into its lane in order,
    and the dense sum's added +0.0 terms are exact."""
    rows, n = weights.shape
    cells = support.shape[1]
    lane, lanes, combine = _lane_plan(n)
    # an unused slot (n) reads the next row's first weight into the spare lane
    vals = np.take(weights, support + np.arange(0, rows * n, n)[:, None, None], mode="clip")
    bins = lane[support] + np.arange(0, rows * cells * lanes, lanes).reshape(rows, cells, 1)
    acc = np.bincount(bins.reshape(-1), vals.reshape(-1), minlength=rows * cells * lanes)
    return combine(acc.reshape(-1, lanes).T).reshape(rows, cells)


def least_reliable(values: np.ndarray, k: int) -> np.ndarray:
    """Per row, the indices of the k smallest values in ascending order,
    ties to the lowest index: np.argsort(values, axis=1, kind="stable")[:, :k]
    without sorting whole rows: k rounds of argmin, which returns the first
    minimum, each setting its pick to +inf in a copy. Arrays holding
    anything but finite floats take the stable sort."""
    values = np.asarray(values)
    if (k >= values.shape[1] or values.dtype.kind != "f"
            or not np.isfinite(values).all()):
        return np.argsort(values, axis=1, kind="stable")[:, :k]
    work = values.copy()
    rows = np.arange(len(values))
    picks = np.empty((len(values), k), dtype=np.intp)
    for i in range(k):
        picks[:, i] = work.argmin(axis=1)
        work[rows, picks[:, i]] = np.inf
    return picks


# one kernel per code, not per spec object: a run builds a fresh spec for
# every point, and each kernel's tables would be built again
_KERNEL_CACHE: dict[tuple, ComponentKernel] = {}


def kernel_for(spec: bch.ComponentCodeSpec) -> ComponentKernel:
    key = (spec.field.m, spec.field.primitive_poly, spec.generator_poly, spec.t,
           spec.extended)
    if key not in _KERNEL_CACHE:
        _KERNEL_CACHE[key] = ComponentKernel(spec)
    return _KERNEL_CACHE[key]
