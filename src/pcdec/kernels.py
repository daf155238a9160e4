"""Vectorized component decoding used by the product decoders.

A ComponentKernel decodes a whole batch of received words at once as a
syndrome (coset-leader) decoder: one GF(2) matrix product (BLAS sgemm on
0/1 data) gives each word's m*t odd-syndrome bits, which read as an
integer key index a table of the unique error pattern of weight <= t with
those syndromes; keys without one mean failure. The table has 2^(m*t)
entries and is built on first use for codes with m*t <= MAX_KEY_BITS (t = 1,
t = 2 up to m = 10, t = 3 up to m = 6); larger codes are decoded row by
row with the scalar decoder. ``kernel_for`` keeps one kernel per code. Encoding is one GF(2) product with the
systematic generator matrix, built from ``bch.encode`` on first use.

The batch results are bit-exact with ``bch.bdd`` on every input; the test
suite pins this equivalence exhaustively for small codes.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from . import bch

# largest m*t whose coset-leader table (2^(m*t) entries) batch_bdd builds;
# beyond it batch_bdd decodes row by row
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

    @cached_property
    def _generator(self) -> np.ndarray:
        """k x n generator matrix: row i is bch.encode of unit message i."""
        eye = np.eye(self.spec.k, dtype=np.uint8)
        return np.stack([bch.encode(self.spec, e) for e in eye]).astype(np.float32)

    @cached_property
    def _leaders(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The key weights, which turn a row of syndrome bits into its key
        (the parity bit does not enter it), and the coset-leader table
        indexed by the key: the weight of the unique error pattern of
        weight <= t with that key (t + 1 when there is none) and its
        positions in ascending order. The slots past the weight hold n - 1,
        where an extended code flips its parity bit."""
        spec = self.spec
        t = spec.t
        key_weights = np.append(1 << np.arange(spec.field.m * t), 0)
        col_keys = self._smat[:spec.inner_n].astype(np.int64) @ key_weights
        weight = np.full(1 << (spec.field.m * t), t + 1, dtype=np.uint8)
        positions = np.full((len(weight), t), spec.n - 1, dtype=np.uint16)
        weight[0] = 0
        for w in range(1, t + 1):
            combos = np.fromiter(
                itertools.chain.from_iterable(itertools.combinations(range(spec.inner_n), w)),
                dtype=np.int64, count=w * math.comb(spec.inner_n, w)).reshape(-1, w)
            keys = np.bitwise_xor.reduce(col_keys[combos], axis=1)
            weight[keys] = w
            positions[keys, :w] = combos
        return key_weights, weight, positions

    def encode(self, messages: np.ndarray) -> np.ndarray:
        """Systematic encoding of each row of a (rows, k) 0/1 matrix;
        equal to bch.encode row by row."""
        cw = messages.astype(np.float32) @ self._generator
        return (cw.astype(np.int64) & 1).astype(np.uint8)

    def _syndrome_bits(self, words: np.ndarray) -> np.ndarray:
        sb = words.astype(np.float32) @ self._smat
        return sb.astype(np.int64) & 1

    def codeword_mask(self, words: np.ndarray) -> np.ndarray:
        """True per row when all syndromes (and the parity, if extended)
        vanish."""
        bits = self._syndrome_bits(np.ascontiguousarray(words))
        if not self.spec.extended:
            bits = bits[:, :-1]
        return ~bits.any(axis=1)

    def batch_bdd(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode each row; returns (decoded words, corrected mask).
        Failed rows are echoed unchanged."""
        words = np.ascontiguousarray(words, dtype=np.uint8)
        out = words.copy()
        if self.spec.field.m * self.spec.t > MAX_KEY_BITS:
            ok = np.zeros(len(words), dtype=bool)
            for i, row in enumerate(words):
                res = bch.bdd(self.spec, row)
                if res.corrected:
                    out[i] = res.word
                    ok[i] = True
            return out, ok
        rows, pos, ok = self._error_positions(self._syndrome_bits(words))
        out[rows, pos] ^= 1
        return out, ok

    def _error_positions(self, bits: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The corrections for rows of syndrome bits: (row indices,
        positions) of the bits to flip, one pair per bit, and the
        corrected mask. An extended code also flips its parity bit when
        the overall parity disagrees with the error weight, and fails when
        that makes more than t flips."""
        key_weights, weight, positions = self._leaders
        key = bits @ key_weights
        flips = weight[key]
        if self.spec.extended:
            flips = flips + ((bits[:, -1] ^ flips) & 1)
        ok = flips <= self.spec.t
        rows, slot = np.nonzero(np.arange(self.spec.t) < np.where(ok, flips, 0)[:, None])
        return rows, positions[key[rows], slot], ok

    def decode_trials(self, words: np.ndarray, positions: np.ndarray,
                      flips: np.ndarray, weights: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """BDD-decode T trial words per row in one batch_bdd call: trial j
        of row r is words[r] with the bits at positions[r] (distinct per
        row) XORed with flips[r, j]. Returns the candidates (rows, T, n),
        the corrected mask (rows, T) and each trial's discrepancy (rows, T),
        the sum of weights[r] where the candidate differs from words[r]."""
        rows, n = words.shape
        ntrials = flips.shape[-2]
        trials = np.repeat(words[:, None, :], ntrials, axis=1)
        for k in range(positions.shape[1]):
            trials[np.arange(rows), :, positions[:, k]] ^= flips[..., k]
        cands, ok = self.batch_bdd(trials.reshape(-1, n))
        cands = cands.reshape(rows, ntrials, n)
        # one trial at a time, so float temporaries are (rows, n)
        disc = np.empty((rows, ntrials))
        for j in range(ntrials):
            disc[:, j] = ((cands[:, j] != words) * weights).sum(axis=1)
        return cands, ok.reshape(rows, ntrials), disc

    def batch_genie(self, words: np.ndarray,
                    true_words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """batch_bdd with corrections onto anything but the true codeword
        turned into failures."""
        out, ok = self.batch_bdd(words)
        bad = ok & (out != true_words).any(axis=1)
        if bad.any():
            out[bad] = words[bad]
            ok &= ~bad
        return out, ok


def least_reliable(values: np.ndarray, k: int) -> np.ndarray:
    """Per row, the indices of the k smallest values in ascending order,
    ties to the lowest index: np.argsort(values, axis=1, kind="stable")[:, :k]
    without sorting whole rows. np.partition finds the k-th smallest value;
    every smaller value is taken, and of the values equal to it the ones
    with the lowest indices; a stable sort then orders the k picks."""
    values = np.asarray(values)
    if k >= values.shape[1]:
        return np.argsort(values, axis=1, kind="stable")[:, :k]
    kth = np.partition(values, k - 1, axis=1)[:, k - 1, None]
    below = values < kth
    tie = values == kth
    need = k - below.sum(axis=1, keepdims=True)
    pick = below | (tie & (np.cumsum(tie, axis=1) <= need))
    idx = np.nonzero(pick)[1].reshape(-1, k)  # ascending index within a row
    order = np.argsort(np.take_along_axis(values, idx, axis=1), axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1)


# one kernel per code, not per spec object: a run builds a fresh spec for
# every point, and each kernel's tables would be built again
_KERNEL_CACHE: dict[tuple, ComponentKernel] = {}


def kernel_for(spec: bch.ComponentCodeSpec) -> ComponentKernel:
    key = (spec.field.m, spec.field.primitive_poly, spec.generator_poly, spec.t,
           spec.extended)
    if key not in _KERNEL_CACHE:
        _KERNEL_CACHE[key] = ComponentKernel(spec)
    return _KERNEL_CACHE[key]
