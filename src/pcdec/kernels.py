"""Vectorized component decoding used by the product decoders.

A ComponentKernel decodes a whole batch of received words at once:
syndromes come from one GF(2) matrix product (BLAS sgemm on 0/1 data),
and for double-error-correcting codes the key equation is solved in
closed form with quadratic-root lookup tables, so the per-word work is a
handful of fancy-indexing operations. Codes with t != 2 fall back to the
scalar decoder row by row. Encoding is one GF(2) product with the
systematic generator matrix, built from ``bch.encode`` on first use.

The batch results are bit-exact with ``bch.bdd`` on every input; the test
suite pins this equivalence exhaustively for small codes.
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np

from . import bch
from .gf import FieldSpec


def _quad_root_table(field: FieldSpec) -> np.ndarray:
    """qroot[c] = smallest y with y^2 + y = c, or -1 when unsolvable."""
    size = field.size
    table = np.full(size, -1, dtype=np.int64)
    for y in range(size):
        y2 = 0
        if y:
            y2 = int(field.antilog_table[(2 * field.log_table[y]) % field.order])
        c = y2 ^ y
        if table[c] < 0 or y < table[c]:
            table[c] = y
    return table


class ComponentKernel:
    """Batch decoders for one component code."""

    def __init__(self, spec: bch.ComponentCodeSpec):
        self.spec = spec
        field = spec.field
        m = field.m
        self.order = field.order
        self.log = field.log_table
        self.antilog = field.antilog_table

        # bits of alpha^(j*p) for the odd syndromes j = 1, 3, ..., 2t-1,
        # one m-bit block per j, plus a final overall-parity column
        pos = np.arange(spec.inner_n, dtype=np.int64)
        blocks = []
        for j in range(1, 2 * spec.t, 2):
            vals = field.antilog_table[(j * pos) % self.order]
            blocks.append(((vals[:, None] >> np.arange(m)[None, :]) & 1))
        smat = np.concatenate(blocks + [np.ones((spec.inner_n, 1), dtype=np.int64)],
                              axis=1)
        if spec.extended:
            ext_row = np.zeros((1, smat.shape[1]), dtype=np.int64)
            ext_row[0, -1] = 1
            smat = np.concatenate([smat, ext_row], axis=0)
        self._smat = smat.astype(np.float32)
        self._pow2 = (1 << np.arange(m)).astype(np.int64)

        if spec.t == 2:
            x = np.arange(field.size, dtype=np.int64)
            cube = np.zeros(field.size, dtype=np.int64)
            nz = x[1:]
            cube[1:] = field.antilog_table[(3 * field.log_table[nz]) % self.order]
            self._cube = cube
            self._qroot = _quad_root_table(field)

    @cached_property
    def _generator(self) -> np.ndarray:
        """k x n generator matrix: row i is bch.encode of unit message i."""
        eye = np.eye(self.spec.k, dtype=np.uint8)
        return np.stack([bch.encode(self.spec, e) for e in eye]).astype(np.float32)

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
        if self.spec.t == 2:
            return self._batch_bdd_t2(words)
        out = words.copy()
        ok = np.zeros(len(words), dtype=bool)
        for i, row in enumerate(words):
            res = bch.bdd(self.spec, row)
            if res.corrected:
                out[i] = res.word
                ok[i] = True
        return out, ok

    def _batch_bdd_t2(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        spec = self.spec
        m = spec.field.m
        bits = self._syndrome_bits(words)
        s1 = bits[:, :m] @ self._pow2
        s3 = bits[:, m:2 * m] @ self._pow2

        s1_nz = s1 != 0
        cube_s1 = self._cube[s1]
        zero = ~s1_nz & (s3 == 0)
        single = s1_nz & (s3 == cube_s1)
        double = s1_nz & ~single

        # c = s3 / s1^3 + 1; the double branch has c != 0 by construction
        safe_s3 = np.maximum(s3, 1)
        ratio = np.where(
            s3 == 0, 0,
            self.antilog[(self.log[safe_s3] - self.log[np.maximum(cube_s1, 1)])
                         % self.order])
        c = np.where(double, ratio ^ 1, 0)
        y0 = self._qroot[c]
        solvable = double & (y0 > 0)

        log_s1 = self.log[np.maximum(s1, 1)]
        p_single = log_s1
        x1 = self.antilog[(log_s1 + self.log[np.maximum(y0, 1)]) % self.order]
        x2 = x1 ^ s1
        p_a = self.log[np.maximum(x1, 1)]
        p_b = self.log[np.maximum(x2, 1)]

        e_inner = single.astype(np.int64) + 2 * solvable
        ok = zero | single | solvable
        if spec.extended:
            parity = bits[:, -1]
            ext_flip = (parity ^ e_inner) & 1
            ok &= (e_inner + ext_flip) <= spec.t
        out = words.copy()
        rows = np.flatnonzero(single & ok)
        out[rows, p_single[rows]] ^= 1
        rows = np.flatnonzero(solvable & ok)
        out[rows, p_a[rows]] ^= 1
        out[rows, p_b[rows]] ^= 1
        if spec.extended:
            rows = np.flatnonzero(ok & (ext_flip == 1))
            out[rows, spec.n - 1] ^= 1
        return out, ok

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


_KERNEL_CACHE: "weakref.WeakKeyDictionary[bch.ComponentCodeSpec, ComponentKernel]" = (
    weakref.WeakKeyDictionary())


def kernel_for(spec: bch.ComponentCodeSpec) -> ComponentKernel:
    try:
        return _KERNEL_CACHE[spec]
    except KeyError:
        kern = ComponentKernel(spec)
        _KERNEL_CACHE[spec] = kern
        return kern
