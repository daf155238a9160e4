"""Generalized minimum distance decoding of component codes (Forney, 1966).

For each row, the decoder ranks bits by reliability, erases the m least
reliable ones for each m in the erasure profile, runs error-erasure
decoding on every trial vector (plus the unerased one), and picks the
candidate codeword minimizing the generalized distance

    sum_{i: r_i = c_i} (1 - a_i) + sum_{i: r_i != c_i} (1 + a_i)

with a_i the reliabilities normalized to a maximum of 1.

``batch_gmd`` decodes every row of a matrix at once, BDD-decoding the
2t+1 trial words of all rows that are not already codewords (the unerased
row and both fills of each erasure set) in one ``decode_trials`` call and
reading the candidates' slot-major supports (see ``kernels``) as they
come. The test suite checks it bit for bit
against the scalar one-word GMD reference in ``tests/helpers.py``.
"""

from __future__ import annotations

import numpy as np

from .bch import ComponentCodeSpec
from .kernels import flip_support, kernel_for, least_reliable


def erasure_profile(d_min: int) -> list[int]:
    """Erasure counts {d-1, d-3, ...} down to 2 (odd d) or 3 (even d)."""
    if d_min < 3:
        raise ValueError("erasure profile needs d_min >= 3")
    stop = 1 if d_min % 2 else 2
    return list(range(d_min - 1, stop, -2))


def batch_gmd(spec: ComponentCodeSpec, words: np.ndarray,
              reliabilities: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """GMD-decode every row of ``words`` with per-row ``reliabilities``.

    Returns (decoded words, corrected mask, stats) where stats counts the
    error-erasure attempts and generalized-distance evaluations made
    (``gd_evals``, and per row ``gd_evals_per_row``).
    Failed rows are echoed unchanged. Bit-equivalent, row by row, to the
    scalar GMD reference in ``tests/helpers.py``.

    A row that is already a codeword r is returned as itself, corrected,
    without trials but with their t + 1 counts of each stat. This is exact:
    trial 0 decodes to r with an empty support, whose metric sum(1 - alphas)
    no candidate beats, and argmin keeps the first minimum; any other
    candidate has e >= 1 errors outside its s erasures and s + e >= d, so
    2e + s > d - 1 and it is never valid; and of the two fills of an
    erasure set one lies within t of r, so exactly one is kept.
    """
    words = np.ascontiguousarray(words, dtype=np.uint8)
    kern = kernel_for(spec)
    keys = kern.keys(words)
    noisy = np.flatnonzero(keys.any(axis=-1))
    trials = len(erasure_profile(spec.d_min)) + 1
    out, decoded = words.copy(), np.ones(len(words), dtype=bool)
    per_row = np.full(len(words), trials)
    if noisy.size:
        out[noisy], decoded[noisy], per_row[noisy] = _gmd_trials(
            kern, words[noisy], keys[noisy], np.asarray(reliabilities, dtype=np.float64)[noisy])
    return out, decoded, {"attempts": len(words) * trials, "gd_evals": int(per_row.sum()),
                          "gd_evals_per_row": per_row}


def _gmd_trials(kern, words: np.ndarray, keys: np.ndarray,
                reliabilities: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The GMD trials of every row of ``words`` (keys ``keys``): (decoded
    words, corrected mask, valid candidates per row)."""
    spec = kern.spec
    profile = sorted(erasure_profile(spec.d_min))
    nrows = len(words)
    peak = reliabilities.max(axis=1, keepdims=True)
    alphas = np.where(peak > 0, reliabilities / np.where(peak > 0, peak, 1.0), 1.0)
    order = least_reliable(reliabilities, profile[-1])
    # trials [none, (s1, fill 0), (s1, fill 1), (s2, fill 0), ...]: trial j
    # sets the sizes[j] least reliable bits to fill[j]
    sizes = np.repeat([0] + profile, [1] + [2] * len(profile))
    fill = np.arange(len(sizes)) % 2 == 0
    erased = np.arange(profile[-1]) < sizes[:, None]
    least = np.take_along_axis(words, order, axis=1)[:, None, :]
    support, ok, disc = kern.decode_trials(
        words, order, erased & (least ^ fill[:, None]), alphas, keys)

    # errors outside the erasures: support positions whose rank in order
    # (profile[-1] if unerased, -1 if unused) is >= the trial's erasures
    n = spec.n
    rank = np.full((nrows, n + 1), profile[-1], dtype=np.int8)
    np.put_along_axis(rank, order, np.arange(profile[-1], dtype=np.int8)[None, :], axis=1)
    rank[:, n] = -1
    e = (np.take(rank, support + np.arange(0, rank.size, n + 1)[:, None]) >= sizes).sum(axis=0)
    valid = ok & (2 * e + sizes <= spec.d_min - 1)
    # two-fill selection: smaller e wins, ties to the zeros fill
    use1 = valid[:, 2::2] & (~valid[:, 1::2] | (e[:, 2::2] < e[:, 1::2]))
    valid[:, 1::2] &= ~use1
    valid[:, 2::2] &= use1

    # generalized distance; argmin keeps the first minimum
    metric = np.where(valid, np.sum(1.0 - alphas, axis=1)[:, None] + 2.0 * disc, np.inf)
    any_ok = valid.any(axis=1)
    best = support[:, np.arange(nrows), np.argmin(metric, axis=1)]
    # valid candidates per row: a matrix product is ~3x faster than a bool
    # sum along the short trial axis
    per_row = valid.view(np.uint8) @ np.ones(len(sizes), dtype=np.uint8)
    return flip_support(words, np.where(any_ok, best, n).T), any_ok, per_row
