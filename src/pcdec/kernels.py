"""Vectorized component decoding used by the product decoders.

A ComponentKernel decodes a whole batch of received words at once from
their syndrome keys: each word's m*t odd-syndrome bits and its overall
parity, read as an integer key (the parity its top bit). A key is the
XOR of the keys of a single error at the word's set bits, so the words
are packed 8 bits to a byte and each byte, by its value and position,
reads the XOR of its bits' keys from a table of the code; no matrix
product is taken. ``corrections`` is the one decoding step and takes
only keys. For codes with m*t <= MAX_KEY_BITS
(t = 1, t = 2 up to m = 10, t = 3 up to m = 6) the key indexes a table
of the corrections, built on first use with 2^(m*t+1) entries: the
unique error pattern of weight <= t with those syndromes, plus the
parity bit of an extended code where the parity disagrees; keys without
one mean failure. Past the table a key of 0 is a codeword, and each
nonzero key is decoded on its own by the scalar Berlekamp-Massey/Chien
core of ``bch.bdd``, which takes the odd syndromes and the parity as the
key holds them. ``kernel_for`` keeps
one kernel per code. The systematic encoder reads a codeword the same
way, as the XOR of the codewords of its message's bytes, from a table
built from ``bch.encode`` on first use.

The keys are int64 words of 63 bits (one word for m*t < 63); a
non-extended code leaves out the parity, so a key is 0 exactly for a
codeword. ``line_keys`` gives the keys of the rows and columns of a
stack of frames; the keyed decoders carry them across half-steps and
update them per flipped bit (see ``product``).

``decode_trials`` (Chase, GMD) builds no trial word: a trial's key is
its hard word's key XOR its flipped bits' keys. Candidates come back as
supports (where they differ from the hard word), slot-major: an (S, rows,
T) array whose S = P + t slots are each one contiguous (rows, T) plane, so
that ordering the slots (a fixed comparator network, ``sorting_network``),
cancelling a flip against a correction of the same bit and adding the
weights of a support in ascending position order all work on whole
planes.

The batch results are bit-exact with ``bch.bdd`` on every input; the test
suite pins this equivalence exhaustively for small codes.
"""

from __future__ import annotations

import itertools
import math
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

        # bit i of a single error's key is bit i % 63 of word i // 63: bit
        # i % m of alpha^((2j+1)p), j = i // m, for the t odd syndromes, then
        # the overall parity, which a non-extended code leaves out
        pos = np.arange(spec.inner_n)
        bits = np.zeros((spec.n, -(-(m * spec.t + spec.extended) // 63) * 63), dtype=np.int64)
        for j in range(spec.t):
            vals = field.antilog_table[((2 * j + 1) * pos) % field.order]
            bits[:spec.inner_n, j * m:(j + 1) * m] = vals[:, None] >> np.arange(m) & 1
        if spec.extended:
            bits[:, m * spec.t] = 1
        # (n, W) the key of a single error at each of the n positions
        self.col_keys = (bits.reshape(spec.n, -1, 63) << np.arange(63)).sum(axis=-1)

    @cached_property
    def _byte_keys(self) -> np.ndarray:
        """``_byte_table`` of ``col_keys``, the keys of the bytes of a word."""
        return _byte_table(self.col_keys)

    @cached_property
    def _byte_codewords(self) -> np.ndarray:
        """``_byte_table`` of the codewords of the k unit messages (from
        ``bch.encode``), each padded to whole 64-bit words and packed
        little-endian, (ceil(k/8)*256, ceil(n/64)) "<u8"."""
        spec = self.spec
        rows = np.zeros((spec.k, -(-spec.n // 64) * 64), dtype=np.uint8)
        rows[:, :spec.n] = [bch.encode(spec, e) for e in np.eye(spec.k, dtype=np.uint8)]
        return _byte_table(np.packbits(rows, axis=-1, bitorder="little").view("<u8"))

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
        """Systematic encoding of each row of messages (..., k), 0/1 values
        of any dtype; equal to bch.encode row by row. A codeword is the XOR
        of the ``_byte_codewords`` entries of its message's bytes, packed
        from a contiguous copy (packing a transposed view takes twice as long)."""
        packed = np.packbits(np.ascontiguousarray(messages, dtype=np.uint8), axis=-1,
                             bitorder="little")
        words = _table_xor(self._byte_codewords, packed, axis=-1)
        return np.unpackbits(words.view(np.uint8), axis=-1, count=self.spec.n,
                             bitorder="little")

    def keys(self, words: np.ndarray, columns: bool = False) -> np.ndarray:
        """Per row of ``words`` (..., n), or with ``columns`` per column of
        each matrix of a stack (..., n, n), the key (..., W) int64: bit i of
        word w is bit 63w+i of the m*t odd-syndrome bits, m-bit block j
        holding S_{2j+1}, followed by the overall parity. A non-extended
        code drops the parity, which is no syndrome there, so a key is 0
        exactly for a codeword. W = 1 for m*t < 63. The words (0/1 values of
        any dtype) are packed 8 bits to a byte along their rows, and a key is
        the XOR of the ``_byte_keys`` entries of its line's bytes; the bytes
        down the columns come from 8 x 8 bit transposes of the packed rows,
        without a transpose of the stack."""
        packed = np.packbits(np.asarray(words, dtype=np.uint8), axis=-1, bitorder="little")
        if columns:
            return _table_xor(self._byte_keys, _column_bytes(packed, self.spec.n), axis=-2)
        return _table_xor(self._byte_keys, packed, axis=-1)

    def line_keys(self, stack: np.ndarray) -> np.ndarray:
        """(B, 2, n, W) keys of the rows (index 0 of axis 1) and of the
        columns (index 1) of every frame of a (B, n, n) stack."""
        return np.stack([self.keys(stack), self.keys(stack, columns=True)], axis=1)

    def corrections(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per line, from its key (..., W): the positions to flip (..., t),
        ascending with n in unused slots (all of them where BDD fails), and
        the corrected mask (...).
        Past the table a key of 0 gives no flips and success, and each
        nonzero key is decoded by ``bch.decode_syndromes`` from its m-bit
        blocks, block j holding S_{2j+1}, and its parity."""
        if self.spec.field.m * self.spec.t <= MAX_KEY_BITS:
            fixes, fixed = self._leaders
            return np.take(fixes, keys[..., 0], axis=0), np.take(fixed, keys[..., 0])
        spec, m = self.spec, self.spec.field.m
        ok = ~keys.any(axis=-1)
        cpos = np.full(ok.shape + (spec.t,), spec.n)
        lines = np.nonzero(~ok)
        for i, parts in zip(zip(*lines), keys[lines].tolist()):
            key = sum(w << 63 * j for j, w in enumerate(parts))
            odd = [key >> m * j & spec.field.order for j in range(spec.t)]
            flips = bch.decode_syndromes(spec, odd, key >> m * spec.t)
            if flips is not None:
                ok[i] = True
                cpos[i][:len(flips)] = flips
        return cpos, ok

    def codeword_mask(self, words: np.ndarray, columns: bool = False) -> np.ndarray:
        """True per row of ``words`` (..., n), or with ``columns`` per column
        of each matrix of a stack (..., n, n), when all syndromes (and the
        parity, if extended) vanish: where its key (``keys``) is 0."""
        return ~self.keys(words, columns).any(axis=-1)

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
        candidates' supports, slot-major (S, rows, T) uint16 with S = P + t:
        support[:, r, j] lists the positions where candidate j of row r
        differs from words[r], ascending, n in unused slots (anywhere); the
        corrected mask (rows, T), a failed trial's candidate being its trial
        word; and each trial's discrepancy (rows, T), the sum of weights[r]
        over its support added in ascending position order. ``keys`` are
        the words' keys, if already known."""
        rows, n = words.shape
        flips = np.asarray(flips, dtype=bool)
        positions = np.asarray(positions, dtype=np.intp)
        ntrials, nflips = flips.shape[-2:]
        keys = self.keys(words) if keys is None else keys
        key = np.repeat(keys[:, None], ntrials, axis=1)
        trial_keys = self.col_keys[positions]
        for k in range(nflips):
            key ^= np.where(flips[..., k, None], trial_keys[:, k, None], 0)
        cpos, ok = self.corrections(key)
        # one plane per slot, plus a spare for the comparators to write to;
        # n is above every position, so max(position, n or 0) is the
        # flipped position or n (numpy's masked writes cost far more)
        buf = np.empty((nflips + self.spec.t + 1, rows, ntrials), dtype=np.uint16)
        unflipped = np.moveaxis(~flips * np.uint16(n), -1, 0).reshape(nflips, -1, ntrials)
        np.maximum(positions.T[..., None], unflipped, out=buf[:nflips], casting="unsafe")
        buf[nflips:-1] = np.moveaxis(cpos, -1, 0)
        planes = list(buf)
        spare = planes.pop()
        for i, j in sorting_network(len(planes)):
            np.minimum(planes[i], planes[j], out=spare)
            np.maximum(planes[i], planes[j], out=planes[j])
            planes[i], spare = spare, planes[i]
        support = np.stack(planes)
        # sorted, a correction on a flipped bit sits next to it; the pair
        # restores the hard bit
        pair = (support[1:] == support[:-1]) * np.uint16(n)
        np.maximum(support[1:], pair, out=support[1:])
        np.maximum(support[:-1], pair, out=support[:-1])
        return support, ok, _support_sum(weights, support)


def _byte_table(single: np.ndarray) -> np.ndarray:
    """(ceil(N/8)*256, W) of single's dtype from the images single (N, W)
    of the N unit bit vectors under a GF(2)-linear map: entry 256c + v is
    the image of the vector whose bits 8c..8c+7 are those of the byte value
    v (bit b at position 8c + b) and whose other bits are 0, the XOR of the
    images of its bits; bits past N add nothing."""
    n, width = single.shape
    padded = np.zeros((-(-n // 8) * 8, width), dtype=single.dtype)
    padded[:n] = single
    padded = padded.reshape(-1, 8, 1, width)
    table = np.zeros((len(padded), 256, width), dtype=single.dtype)
    for b in range(8):
        table[:, 1 << b:2 << b] = table[:, :1 << b] ^ padded[:, b]
    return table.reshape(-1, width)


def _table_xor(table: np.ndarray, packed: np.ndarray, axis: int) -> np.ndarray:
    """The images (..., W) under ``table`` (``_byte_table``) of the vectors
    whose bytes, byte c holding positions 8c..8c+7, run along ``axis`` (-1
    or -2) of ``packed``: the XOR of their table entries. Table indices fit
    uint16 for every vector of at most 1024 bits (n, k for m <= 10)."""
    count = packed.shape[axis]
    offsets = np.arange(0, 256 * count, 256, dtype=np.uint16).reshape((-1,) + (1,) * ~axis)
    return np.bitwise_xor.reduce(np.take(table, packed + offsets, axis=0), axis=axis - 1)


@cache
def sorting_network(width: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge sort on ``width`` slots: comparator pairs
    (i, j), i < j, each putting the smaller value in slot i. Applied in
    order they sort any ``width`` values."""
    pairs = []
    p = 1
    while p < width:
        k = p
        while k >= 1:
            for j in range(k % p, width - k, 2 * k):
                for i in range(j, j + min(k, width - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p):
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def _column_bytes(packed: np.ndarray, n: int) -> np.ndarray:
    """(..., ceil(rows/8), n) uint8 from the rows of matrices (..., rows, n)
    packed little-endian (``np.packbits(..., axis=-1, bitorder="little")``):
    byte r of column j holds bit b from row 8r + b, 0 past the last row.
    Each 8 x 8 bit block (8 rows, one packed byte of each) is one
    little-endian uint64, bit 8r + c, and three masked swaps move each bit
    to 8c + r (Hacker's Delight, transpose8)."""
    *lead, rows, width = packed.shape
    if rows % 8:
        packed = np.concatenate(
            [packed, np.zeros((*lead, -rows % 8, width), dtype=np.uint8)], axis=-2)
    blocks = -(-rows // 8)
    x = np.ascontiguousarray(packed.reshape(*lead, blocks, 8, width).swapaxes(-1, -2))
    x = x.view(np.dtype("<u8"))[..., 0]
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                        (28, 0x00000000F0F0F0F0)):
        swap = (x ^ (x >> shift)) & mask
        x ^= swap ^ (swap << shift)
    return x.view(np.uint8).reshape(*lead, blocks, 8 * width)[..., :n]


def flip_support(words: np.ndarray, support: np.ndarray) -> np.ndarray:
    """words (rows, n) with the bits at each row's support (rows, S),
    distinct positions and n for empty slots, flipped."""
    rows, n = words.shape
    out = np.array(words, dtype=np.uint8)
    used = support < n
    out.reshape(-1)[(np.arange(rows)[:, None] * n + support)[used]] ^= 1
    return out


def _support_sum(weights: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Per row r and trial j, the sum of the finite weights[r] over
    support[:, r, j] (ascending positions, n in unused slots, which add
    0.0), added slot by slot from the lowest position up; a sum over the
    slot axis would add 8 or more slots in numpy's pairwise order."""
    rows, n = weights.shape
    # an unused slot (n) reads the next row's first weight, then zeroed
    vals = np.take(weights, support + np.arange(0, rows * n, n)[:, None], mode="clip")
    vals *= support < n
    acc = vals[0].copy()
    for plane in vals[1:]:
        acc += plane
    return acc


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


# one kernel per code, not per spec object: SimConfig builds one spec per
# code, but tests and callers of construct_ebch build equal specs of their
# own, and each kernel's tables would be built again
_KERNEL_CACHE: dict[tuple, ComponentKernel] = {}


def kernel_for(spec: bch.ComponentCodeSpec) -> ComponentKernel:
    key = (spec.field.m, spec.field.primitive_poly, spec.generator_poly, spec.t,
           spec.extended)
    if key not in _KERNEL_CACHE:
        _KERNEL_CACHE[key] = ComponentKernel(spec)
    return _KERNEL_CACHE[key]
