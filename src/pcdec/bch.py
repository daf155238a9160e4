"""Extended BCH component codes.

Construction from a field and a design error-correcting capability t
(the generator is the product of x - alpha^e over its roots, the
cyclotomic cosets of 1, 3, ..., 2t - 1), systematic encoding, syndrome
computation, and ``bdd``: strict bounded distance decoding of one word,
returning the unique codeword within Hamming distance t of the input
when one exists (including miscorrections), else echoing the input as a
failure. ``bdd`` is the word's syndromes plus ``decode_syndromes``, the
Berlekamp-Massey/Chien core, which takes the odd syndromes and the
parity as a key of ``kernels.ComponentKernel`` holds them: past its
syndrome table the kernel decodes each key by that core. The module
keeps no tables; one power-sum routine gives a word's syndromes and
checks a decoder's flips.

Bit/polynomial convention: vector position i holds the coefficient of x^i
of the inner (cyclic) code; the overall parity bit of an extended code is
appended at position n-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import FieldSpec, alpha_pow, gf_div, gf_mul


class UnsupportedParametersError(ValueError):
    """Requested code parameters do not yield a valid code."""


@dataclass(frozen=True, eq=False)
class ComponentCodeSpec:
    """An (n, k, d_min) eBCH/BCH component code with its field tables."""

    n: int
    k: int
    d_min: int
    t: int
    field: FieldSpec
    generator_poly: int  # bit i = coefficient of x^i
    extended: bool

    @property
    def inner_n(self) -> int:
        """Length of the underlying cyclic code (excludes the parity bit)."""
        return self.n - 1 if self.extended else self.n


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of one component decoding.

    ``corrected`` False means the decoder failed and ``word`` echoes the
    input. ``flips`` is the set of positions changed relative to the input.
    """

    corrected: bool
    word: np.ndarray
    flips: frozenset[int]


def construct_ebch(field: FieldSpec, t_design: int,
                   extend: bool = True) -> ComponentCodeSpec:
    """Build a (possibly extended) BCH code correcting t_design errors.

    The generator's roots are alpha^e for every e in the cyclotomic cosets
    of 1, 3, ..., 2*t_design - 1 (the exponents 2^j * i mod 2^m - 1), so
    g(x) is the product of (x - alpha^e) over them and k = 2^m - 1 minus
    their count; extending appends an overall parity bit, raising d_min
    by one.
    """
    if t_design < 1:
        raise UnsupportedParametersError("t_design must be >= 1")
    inner_n = field.order
    roots = sorted({(i << j) % inner_n for i in range(1, 2 * t_design, 2)
                    for j in range(field.m)})
    k = inner_n - len(roots)
    if k <= 0:
        raise UnsupportedParametersError(
            f"no information bits left (m={field.m}, t={t_design})"
        )
    coeffs = [1]  # coeffs[i] multiplies x^i, in GF(2^m)
    for e in roots:
        root = alpha_pow(field, e)
        coeffs = [a ^ gf_mul(field, b, root) for a, b in zip([0] + coeffs, coeffs + [0])]
    if any(a > 1 for a in coeffs):
        raise AssertionError("generator has a non-binary coefficient")
    gen = sum(a << i for i, a in enumerate(coeffs))
    d_base = 2 * t_design + 1
    if extend:
        n, d_min = inner_n + 1, d_base + 1
    else:
        n, d_min = inner_n, d_base
    return ComponentCodeSpec(n=n, k=k, d_min=d_min, t=(d_min - 1) // 2,
                             field=field, generator_poly=gen, extended=extend)


def encode(spec: ComponentCodeSpec, message: np.ndarray) -> np.ndarray:
    """Systematic encoding: message bits land in the high-degree positions,
    cyclic parity in positions [0, n-k); extended codes append the overall
    parity bit last."""
    message = np.asarray(message, dtype=np.uint8)
    if message.shape != (spec.k,):
        raise ValueError(f"message must have length {spec.k}")
    deg = spec.inner_n - spec.k
    msg_int = 0
    for i, b in enumerate(message):
        if b:
            msg_int |= 1 << (deg + i)
    rem = msg_int
    for d in range(spec.inner_n - 1, deg - 1, -1):
        if (rem >> d) & 1:
            rem ^= spec.generator_poly << (d - deg)
    cw_int = msg_int | rem
    word = np.zeros(spec.n, dtype=np.uint8)
    for i in range(spec.inner_n):
        word[i] = (cw_int >> i) & 1
    if spec.extended:
        word[spec.n - 1] = int(word[: spec.n - 1].sum()) & 1
    return word


def _power_sums(spec: ComponentCodeSpec, positions: np.ndarray | list[int]) -> list[int]:
    """S_1..S_2t of the inner word with ones at ``positions``: S_j is the
    sum of alpha^(j*p) over them."""
    jp = np.arange(1, 2 * spec.t + 1)[:, None] * np.asarray(positions, dtype=np.int64)
    powers = spec.field.antilog_table[jp % spec.field.order]
    return np.bitwise_xor.reduce(powers, axis=1).tolist()


def syndromes(spec: ComponentCodeSpec, r: np.ndarray) -> tuple[list[int], int | None]:
    """Syndromes S_1..S_2t of the inner code, plus the overall parity bit
    (XOR of all n bits) for extended codes, None otherwise."""
    r = np.asarray(r, dtype=np.uint8)
    if r.shape != (spec.n,):
        raise ValueError(f"word must have length {spec.n}")
    syn = _power_sums(spec, np.flatnonzero(r[: spec.inner_n]))
    parity = int(r.sum()) & 1 if spec.extended else None
    return syn, parity


def _berlekamp_massey(field: FieldSpec, syn: list[int]) -> list[int]:
    """Error-locator polynomial for the syndrome sequence, lowest degree
    first (sigma[0] = 1)."""
    n_syn = len(syn)
    sigma = [1]
    b = [1]
    length, shift = 0, 1
    bd = 1  # last nonzero discrepancy
    for i in range(n_syn):
        d = syn[i]
        for j in range(1, length + 1):
            if j < len(sigma) and sigma[j]:
                d ^= gf_mul(field, sigma[j], syn[i - j])
        if d == 0:
            shift += 1
            continue
        coef = gf_div(field, d, bd)
        t_poly = list(sigma)
        need = len(b) + shift
        if need > len(sigma):
            sigma = sigma + [0] * (need - len(sigma))
        for j, bj in enumerate(b):
            if bj:
                sigma[j + shift] ^= gf_mul(field, coef, bj)
        if 2 * length <= i:
            length = i + 1 - length
            b = t_poly
            bd = d
            shift = 1
        else:
            shift += 1
    while len(sigma) > 1 and sigma[-1] == 0:
        sigma.pop()
    return sigma


def _chien_search(spec: ComponentCodeSpec, sigma: list[int]) -> list[int]:
    """Error positions p with sigma(alpha^-p) = 0."""
    field = spec.field
    order = field.order
    j = np.arange(order)
    acc = np.full(order, sigma[0], dtype=np.int64)
    for i, c in enumerate(sigma[1:], start=1):
        if c:
            acc ^= field.antilog_table[(field.log_table[c] + i * j) % order]
    roots_j = np.flatnonzero(acc == 0)
    positions = (-roots_j) % order
    return sorted(int(p) for p in positions[positions < spec.inner_n])


def decode_syndromes(spec: ComponentCodeSpec, odd: list[int],
                     parity: int | None) -> list[int] | None:
    """Bounded distance decoding from the odd syndromes S_1, S_3, ...,
    S_{2t-1} of the inner word, which a kernel key holds (the even ones
    follow: S_2j = S_j^2), and the overall parity (None for a non-extended
    code): the positions to flip, inner ones ascending, so the word becomes
    the unique codeword within distance t, or None when no such codeword
    exists. Berlekamp-Massey gives the error locator, a Chien search its
    roots."""
    flips: list[int] = []
    if any(odd):
        syn: list[int] = []
        for i in range(2 * spec.t):
            syn.append(gf_mul(spec.field, syn[i // 2], syn[i // 2]) if i % 2 else odd[i // 2])
        sigma = _berlekamp_massey(spec.field, syn)
        if len(sigma) > spec.t + 1:
            return None
        flips = _chien_search(spec, sigma)
        # the flipped word must really be a codeword; BM can emit a locator
        # of plausible degree for uncorrectable patterns
        if len(flips) != len(sigma) - 1 or _power_sums(spec, flips) != syn:
            return None
    if spec.extended and (parity ^ len(flips)) & 1:
        flips.append(spec.n - 1)
    return flips if len(flips) <= spec.t else None


def bdd(spec: ComponentCodeSpec, r: np.ndarray) -> DecodeOutcome:
    """Bounded distance decoding: the unique codeword within distance t of
    r when it exists (possibly a miscorrection), else failure echoing r."""
    r = np.asarray(r, dtype=np.uint8)
    syn, parity = syndromes(spec, r)
    flips = decode_syndromes(spec, syn[::2], parity)
    word = r.copy()
    if flips is None:
        return DecodeOutcome(False, word, frozenset())
    word[flips] ^= 1
    return DecodeOutcome(True, word, frozenset(flips))
