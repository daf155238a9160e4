"""Shared test utilities: brute-force oracles kept independent of the
library's decoding paths."""

import numpy as np

from pcdec.bch import ComponentCodeSpec, encode
from pcdec.kernels import kernel_for


def all_codewords(spec: ComponentCodeSpec) -> np.ndarray:
    """Every codeword of a small code, via exhaustive message enumeration."""
    k = spec.k
    msgs = ((np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1).astype(np.uint8)
    return np.stack([encode(spec, m) for m in msgs])


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


def oracle_anchor_decode(spec, received: np.ndarray, l_max: int, threshold: int):
    """Sequential anchor decoding of one n-by-n frame: rows then columns,
    each pass one BDD of every component and then an ``AnchorState.walk``,
    stopping after the first iteration that ends on a product codeword.
    Returns (array, iterations used, converged, op counters, backtracks)."""
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
            state.walk(words, ok, out != words, half, threshold, kern, ops)
            lines[...] = words
        if kern.codeword_mask(arr).all() and kern.codeword_mask(arr.T).all():
            return arr, it, True, ops, state.backtracks
    return arr, l_max, False, ops, state.backtracks
