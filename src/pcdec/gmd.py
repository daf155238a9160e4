"""Generalized minimum distance decoding of one component code.

The decoder ranks bits by reliability, erases the m least reliable ones
for each m in the erasure profile, runs error-erasure decoding on every
trial vector (plus the unerased one), and picks the candidate codeword
minimizing the generalized distance

    sum_{i: r_i = c_i} (1 - a_i) + sum_{i: r_i != c_i} (1 + a_i)

with a_i the reliabilities normalized to a maximum of 1.

``batch_gmd`` applies the same decoding to every row of a matrix at once
(two batched BDD fills per erasure trial); it is bit-equivalent to the
scalar ``gmd_decode`` and exists for the iterative decoders' hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bch import ComponentCodeSpec, error_erasure_decode
from .kernels import kernel_for, least_reliable


@dataclass(frozen=True)
class ReliabilityVector:
    """Nonnegative per-bit reliabilities plus their normalized form.

    ``alphas`` is values / max(values); an all-zero vector degrades to
    all-ones so the generalized distance falls back to twice the Hamming
    distance.
    """

    values: np.ndarray
    alphas: np.ndarray

    @classmethod
    def from_values(cls, values) -> "ReliabilityVector":
        values = np.asarray(values, dtype=np.float64)
        if (values < 0).any():
            raise ValueError("reliabilities must be nonnegative")
        peak = values.max() if values.size else 0.0
        if peak > 0:
            alphas = values / peak
        else:
            alphas = np.ones_like(values)
        return cls(values=values, alphas=alphas)


@dataclass(frozen=True)
class GmdOutcome:
    """Result of one GMD decoding; ``metric`` is only set on success."""

    corrected: bool
    word: np.ndarray
    trials_attempted: int
    metric: float | None


def erasure_profile(d_min: int) -> list[int]:
    """Erasure counts {d-1, d-3, ...} down to 2 (odd d) or 3 (even d)."""
    if d_min < 3:
        raise ValueError("erasure profile needs d_min >= 3")
    stop = 1 if d_min % 2 else 2
    return list(range(d_min - 1, stop, -2))


def generalized_distance(r: np.ndarray, c_hat: np.ndarray,
                         rel: ReliabilityVector) -> float:
    r = np.asarray(r, dtype=np.uint8)
    c_hat = np.asarray(c_hat, dtype=np.uint8)
    if r.shape != c_hat.shape or r.shape != rel.alphas.shape:
        raise ValueError("length mismatch")
    agree = r == c_hat
    return float(np.sum(1.0 - rel.alphas[agree]) + np.sum(1.0 + rel.alphas[~agree]))


def _least_reliable(rel: ReliabilityVector, m: int) -> np.ndarray:
    # stable sort: ties go to the lowest index
    return np.argsort(rel.values, kind="stable")[:m]


def gmd_decode(spec: ComponentCodeSpec, r: np.ndarray,
               rel: ReliabilityVector) -> GmdOutcome:
    """Run the t+1 error-erasure trials and keep the generalized-distance
    minimizer; ties prefer the trial with fewer erasures."""
    r = np.asarray(r, dtype=np.uint8)
    if r.shape != (spec.n,) or rel.values.shape != (spec.n,):
        raise ValueError(f"word and reliabilities must have length {spec.n}")
    trial_sizes = [0] + sorted(erasure_profile(spec.d_min))
    best_word = None
    best_metric = np.inf
    seen: set[bytes] = set()
    for m in trial_sizes:
        out = error_erasure_decode(spec, r, _least_reliable(rel, m))
        if not out.corrected:
            continue
        key = out.word.tobytes()
        if key in seen:
            continue
        seen.add(key)
        metric = generalized_distance(r, out.word, rel)
        if metric < best_metric:
            best_metric = metric
            best_word = out.word
    if best_word is None:
        return GmdOutcome(False, r.copy(), len(trial_sizes), None)
    return GmdOutcome(True, best_word, len(trial_sizes), best_metric)


def batch_gmd(spec: ComponentCodeSpec, words: np.ndarray,
              reliabilities: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """GMD-decode every row of ``words`` with per-row ``reliabilities``.

    Returns (decoded words, corrected mask, stats) where stats counts the
    error-erasure attempts and generalized-distance evaluations made.
    Failed rows are echoed unchanged. Bit-equivalent to ``gmd_decode``
    row by row.
    """
    kern = kernel_for(spec)
    words = np.ascontiguousarray(words, dtype=np.uint8)
    reliabilities = np.asarray(reliabilities, dtype=np.float64)
    nrows, n = words.shape
    rows = np.arange(nrows)[:, None]

    peak = reliabilities.max(axis=1, keepdims=True)
    alphas = np.where(peak > 0, reliabilities / np.where(peak > 0, peak, 1.0), 1.0)
    profile = sorted(erasure_profile(spec.d_min))
    order = least_reliable(reliabilities, profile[-1])
    best_word = words.copy()
    best_metric = np.full(nrows, np.inf)
    any_ok = np.zeros(nrows, dtype=bool)
    stats = {"attempts": nrows * (len(profile) + 1), "gd_evals": 0}

    def consider(cand: np.ndarray, valid: np.ndarray) -> None:
        nonlocal best_word, best_metric, any_ok
        if not valid.any():
            return
        disagree = cand != words
        metric = np.sum(1.0 - alphas, axis=1) + 2.0 * np.sum(disagree * alphas, axis=1)
        better = valid & (metric < best_metric)
        best_metric[better] = metric[better]
        best_word[better] = cand[better]
        any_ok |= valid
        stats["gd_evals"] += int(valid.sum())

    out0, ok0 = kern.batch_bdd(words)
    consider(out0, ok0)

    for s in profile:
        idx = order[:, :s]
        for fill in (0, 1):
            trial = words.copy()
            trial[rows, idx] = fill
            cand, ok = kern.batch_bdd(trial)
            diff = cand != words
            diff[rows, idx] = False
            e = diff.sum(axis=1)
            valid = ok & (2 * e + s <= spec.d_min - 1)
            if fill == 0:
                cand0, valid0, e0 = cand, valid, e
            else:
                # two-fill selection: smaller e wins, ties to the zeros fill
                use1 = valid & (~valid0 | (e < e0))
                merged = np.where(use1[:, None], cand, cand0)
                consider(merged, valid0 | valid)

    final = np.where(any_ok[:, None], best_word, words)
    return final.astype(np.uint8), any_ok, stats
