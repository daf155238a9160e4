"""Shared test utilities: brute-force oracles kept independent of the
library's decoding paths, and scalar references for the batch decoders.

The scalar references (error-erasure decoding, genie BDD and GMD) are
built on ``pcdec.bch.bdd``, which criterion C1 checks exhaustively against
the brute-force bounded-distance rule, so they inherit its correctness
without sharing the batch kernels they are compared against."""

from dataclasses import dataclass

import numpy as np

from pcdec.bch import ComponentCodeSpec, DecodeOutcome, bdd, encode
from pcdec.gmd import _gmd_trials, erasure_profile
from pcdec.kernels import kernel_for
from pcdec.product import OP_COUNTERS, DecoderResult, _codewords


def ascending_sum(values) -> float:
    """Plain left-to-right float sum, in the order given."""
    return sum(np.asarray(values).tolist(), 0.0)


def all_codewords(spec: ComponentCodeSpec) -> np.ndarray:
    """Every codeword of a small code, via exhaustive message enumeration."""
    k = spec.k
    msgs = ((np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1).astype(np.uint8)
    return np.stack([encode(spec, m) for m in msgs])


def reference_keys(kern, words: np.ndarray) -> np.ndarray:
    """The key (..., W) of each row of ``words`` (..., n), 0/1 of any dtype:
    the XOR of ``kern.col_keys``, the keys of a single error, over the
    row's set bits, with neither a matrix product nor a byte table."""
    set_bits = np.asarray(words)[..., None] != 0
    return np.bitwise_xor.reduce(np.where(set_bits, kern.col_keys, 0), axis=-2)


def oracle_bdd(codewords: np.ndarray, r: np.ndarray, t: int):
    """Textbook bounded-distance rule: the unique codeword within distance
    t of r when one exists, else (False, r)."""
    dists = (codewords != r[None, :]).sum(axis=1)
    idx = int(np.argmin(dists))
    if dists[idx] <= t:
        assert (dists <= t).sum() == 1, "sphere radius t must be unique"
        return True, codewords[idx]
    return False, np.asarray(r, dtype=np.uint8)


def oracle_nearest(codewords: np.ndarray, r: np.ndarray):
    """Nearest codeword and its distance (ties: lowest index)."""
    dists = (codewords != r[None, :]).sum(axis=1)
    idx = int(np.argmin(dists))
    return codewords[idx], int(dists[idx])


# ------------------------------------------- scalar component references


class TooManyErasuresError(ValueError):
    """More erasures than the minimum distance can support."""


def error_erasure_decode(spec: ComponentCodeSpec, r: np.ndarray,
                         erasures) -> DecodeOutcome:
    """Error-erasure decoding by the two-fill method: BDD with erased
    positions set to all zeros and again to all ones; a candidate is kept
    when its non-erased disagreement count e satisfies 2e + s <= d_min - 1.
    Guaranteed to return the transmitted codeword whenever the true error
    pattern satisfies 2e + s < d_min."""
    r = np.asarray(r, dtype=np.uint8)
    erasures = sorted(set(int(p) for p in erasures))
    s = len(erasures)
    if s >= spec.d_min:
        raise TooManyErasuresError(f"{s} erasures >= d_min = {spec.d_min}")
    if any(p < 0 or p >= spec.n for p in erasures):
        raise ValueError("erasure position out of range")
    era = np.array(erasures, dtype=np.intp)
    best: tuple[int, int, np.ndarray] | None = None
    for fill_idx, fill in enumerate((0, 1)):
        trial = r.copy()
        if s:
            trial[era] = fill
        out = bdd(spec, trial)
        if not out.corrected:
            continue
        diff = out.word != r
        if s:
            diff[era] = False
        e = int(diff.sum())
        if 2 * e + s <= spec.d_min - 1:
            if best is None or e < best[0]:
                best = (e, fill_idx, out.word)
    if best is None:
        return DecodeOutcome(False, r.copy(), frozenset())
    word = best[2]
    flips = frozenset(int(p) for p in np.flatnonzero(word != r))
    return DecodeOutcome(True, word, flips)


def genie_bdd(spec: ComponentCodeSpec, r: np.ndarray,
              c_true: np.ndarray) -> DecodeOutcome:
    """BDD whose miscorrections are suppressed: any corrected output other
    than c_true is turned into a failure."""
    r = np.asarray(r, dtype=np.uint8)
    c_true = np.asarray(c_true, dtype=np.uint8)
    out = bdd(spec, r)
    if out.corrected and not np.array_equal(out.word, c_true):
        return DecodeOutcome(False, r.copy(), frozenset())
    return out


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


def generalized_distance(r: np.ndarray, c_hat: np.ndarray,
                         rel: ReliabilityVector) -> float:
    """sum_{i: r_i = c_i} (1 - a_i) + sum_{i: r_i != c_i} (1 + a_i), with
    a_i the reliabilities normalized to a maximum of 1."""
    r = np.asarray(r, dtype=np.uint8)
    c_hat = np.asarray(c_hat, dtype=np.uint8)
    if r.shape != c_hat.shape or r.shape != rel.alphas.shape:
        raise ValueError("length mismatch")
    agree = r == c_hat
    return float(np.sum(1.0 - rel.alphas[agree]) + np.sum(1.0 + rel.alphas[~agree]))


def gmd_decode(spec: ComponentCodeSpec, r: np.ndarray,
               rel: ReliabilityVector) -> GmdOutcome:
    """GMD decoding (Forney) of one word: run the t+1 error-erasure trials
    (the unerased word, then the least reliable bits erased for each count
    of the erasure profile) and keep the generalized-distance minimizer;
    ties prefer the trial with fewer erasures. A candidate is ranked as
    ``pcdec.gmd`` ranks it: sum(1 - a) over the word, plus twice the sum
    of a over the candidate's support added in ascending position, which
    is ``generalized_distance`` up to the order of the float additions."""
    r = np.asarray(r, dtype=np.uint8)
    if r.shape != (spec.n,) or rel.values.shape != (spec.n,):
        raise ValueError(f"word and reliabilities must have length {spec.n}")
    trial_sizes = [0] + sorted(erasure_profile(spec.d_min))
    best_word = None
    best_metric = np.inf
    agree_all = float(np.sum(1.0 - rel.alphas))
    seen: set[bytes] = set()
    for m in trial_sizes:
        # erase the m least reliable bits; the stable sort breaks ties low
        out = error_erasure_decode(spec, r, np.argsort(rel.values, kind="stable")[:m])
        if not out.corrected:
            continue
        key = out.word.tobytes()
        if key in seen:
            continue
        seen.add(key)
        disc = 0.0
        for a in rel.alphas[r != out.word]:
            disc += a
        metric = agree_all + 2.0 * disc
        if metric < best_metric:
            best_metric = metric
            best_word = out.word
    if best_word is None:
        return GmdOutcome(False, r.copy(), len(trial_sizes), None)
    return GmdOutcome(True, best_word, len(trial_sizes), best_metric)


def batch_gmd_without_skip(spec: ComponentCodeSpec, words: np.ndarray,
                           reliabilities: np.ndarray):
    """``pcdec.gmd.batch_gmd`` with the GMD trials run on every row, the
    codewords too, which batch_gmd returns without trials."""
    kern = kernel_for(spec)
    words = np.ascontiguousarray(words, dtype=np.uint8)
    out, ok, valid = _gmd_trials(kern, words, kern.keys(words),
                                 np.asarray(reliabilities, dtype=np.float64))
    return out, ok, {"attempts": len(words) * (spec.t + 1), "gd_evals": int(valid.sum()),
                     "gd_evals_per_row": valid}


# ------------------------------------------------ sequential anchor decoding
# Anchor decoding as it was first written: one frame, one Python step per
# component, with dicts and sets for the bookkeeping and a frozen status
# for blocked components. pcdec.product.anchor_stack must reproduce it bit
# for bit, op counters included. ``backtracks`` counts the backtracks, so
# tests can check that their cases exercise them.

_NORMAL, _ANCHOR, _FROZEN = 0, 1, 2


class AnchorState:
    """Anchor-decoding bookkeeping of one frame: status, conflict lists,
    applied-correction logs (positions along the component), and freeze
    attribution per component. Components 0..n-1 are rows, n..2n-1 columns."""

    def __init__(self, n: int):
        self.status = np.zeros(2 * n, dtype=np.int8)
        self.conflicts: dict[int, set[int]] = {}
        self.applied: dict[int, list[int]] = {}
        self.freeze_blockers: dict[int, set[int]] = {}
        self.backtracks = 0

    def release(self, anchor: int) -> None:
        """Unfreeze components blocked solely by this anchor."""
        for comp in [c for c, blk in self.freeze_blockers.items() if anchor in blk]:
            blk = self.freeze_blockers[comp]
            blk.discard(anchor)
            if not blk:
                del self.freeze_blockers[comp]
                if self.status[comp] == _FROZEN:
                    self.status[comp] = _NORMAL

    def demote(self, comp: int) -> None:
        self.status[comp] = _NORMAL
        self.conflicts.pop(comp, None)
        self.applied.pop(comp, None)
        self.release(comp)

    def walk(self, lines: np.ndarray, ok: np.ndarray, diff: np.ndarray,
             half: int, threshold: int, kern, ops: dict) -> None:
        """One pass over the components of half-iteration ``half`` in index
        order: their words are the rows of ``lines`` (updated in place), and
        ``ok, diff`` their BDD (success, flip mask), redone for rows that a
        backtrack changes."""
        n = len(lines)
        if half % 2 == 0:  # a new iteration: frozen components thaw
            self.status[self.status == _FROZEN] = _NORMAL
            self.freeze_blockers.clear()
        # components of this pass are ``own + row`` of ``lines``; the
        # crossing component through position p is ``cross + p``
        own, cross = (0, n) if half % 2 == 0 else (n, 0)
        dirty: set[int] = set()

        def propose(idx: int):
            if idx not in dirty:
                return bool(ok[idx]), np.flatnonzero(diff[idx]).tolist()
            dirty.discard(idx)
            ops["bdd_calls"] += 1
            (word,), (good,) = kern.batch_bdd(lines[idx][None, :])
            return bool(good), np.flatnonzero(word != lines[idx]).tolist()

        def backtrack(anchor: int) -> None:
            self.backtracks += 1
            for p in self.applied.get(anchor, []):
                lines[p, anchor - cross] ^= 1
                dirty.add(p)
            self.demote(anchor)

        for idx in range(n):
            comp = own + idx
            if self.status[comp] == _FROZEN:
                continue
            comp_ok, flip_pos = propose(idx)
            while comp_ok:
                blockers = {cross + p for p in flip_pos
                            if self.status[cross + p] == _ANCHOR}
                if not blockers:
                    for p in flip_pos:
                        lines[idx, p] ^= 1
                    if self.status[comp] != _ANCHOR:
                        self.status[comp] = _ANCHOR
                        self.applied[comp] = []
                    self.applied[comp].extend(flip_pos)
                    break
                for a in sorted(blockers):
                    self.conflicts.setdefault(a, set()).add(comp)
                    if len(self.conflicts[a]) > threshold:
                        backtrack(a)
                survivors = {a for a in blockers if self.status[a] == _ANCHOR}
                if survivors:
                    # blocked: freeze the proposer for this iteration
                    if self.status[comp] == _ANCHOR:
                        self.demote(comp)
                    self.status[comp] = _FROZEN
                    self.freeze_blockers[comp] = survivors
                    break
                # every blocker was backtracked; the undo may have
                # changed this component's word, so re-propose
                dirty.add(idx)
                comp_ok, flip_pos = propose(idx)
            if not comp_ok and self.status[comp] == _ANCHOR:
                self.demote(comp)


def oracle_anchor_decode(spec, received: np.ndarray, l_max: int, threshold: int,
                         halves: list | None = None):
    """Sequential anchor decoding of one n-by-n frame: rows then columns,
    each pass one BDD of every component and then an ``AnchorState.walk``,
    stopping after the first iteration that ends on a product codeword.
    Returns (array, iterations used, converged, op counters, backtracks);
    ``halves``, if given, gets the backtracks of each half-iteration."""
    kern = kernel_for(spec.component)
    arr = np.array(received, dtype=np.uint8)
    state = AnchorState(spec.n)
    ops = {"bdd_calls": 0, "erasure_calls": 0, "gd_evals": 0, "msg_updates": 0}
    for it in range(1, l_max + 1):
        for half in (2 * it - 2, 2 * it - 1):
            lines = arr if half % 2 == 0 else arr.T
            words = np.ascontiguousarray(lines)
            out, ok = kern.batch_bdd(words)
            ops["bdd_calls"] += len(words)
            before = state.backtracks
            state.walk(words, ok, out != words, half, threshold, kern, ops)
            if halves is not None:
                halves.append(state.backtracks - before)
            lines[...] = words
        if kern.codeword_mask(arr).all() and kern.codeword_mask(arr.T).all():
            return arr, it, True, ops, state.backtracks
    return arr, l_max, False, ops, state.backtracks


# ------------------------------------------------------ plain iteration loop
def plain_iterate(spec, state: dict, half_step, values, name="dec"):
    """``pcdec.product._iterate`` without its fixed-point exit: every frame
    runs each iteration until its decisions are a product codeword, and
    ``name`` is ignored. The op counts are per frame, as the half-steps
    add them, and summed over the stack."""
    l_max = len(values)
    kern = kernel_for(spec.component)
    frames = len(state["dec"])
    ops = {k: np.zeros(frames, dtype=np.int64) for k in OP_COUNTERS}
    totals = dict.fromkeys(OP_COUNTERS, 0)
    arrays = np.empty((frames, spec.n, spec.n), dtype=np.uint8)
    iterations = np.full(frames, l_max)
    converged = np.zeros(frames, dtype=bool)
    active = np.arange(frames)
    for it in range(1, l_max + 1):
        half_step(state, 2 * it - 2, ops)
        done = half_step(state, 2 * it - 1, ops)
        if done is None:
            done = _codewords(kern, state["dec"])
        arrays[active[done]] = state["dec"][done]
        iterations[active[done]] = it
        converged[active[done]] = True
        for k, v in ops.items():
            totals[k] += int(v[done].sum())
        active = active[~done]
        state = {k: v[~done] for k, v in state.items()}
        ops = {k: v[~done] for k, v in ops.items()}
        if not active.size:
            break
    arrays[active] = state["dec"]
    for k, v in ops.items():
        totals[k] += int(v.sum())
    return DecoderResult(arrays, iterations, converged, totals)
