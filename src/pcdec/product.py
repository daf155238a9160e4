"""The n-by-n product code and its iterative decoders.

Every decoder runs on one iteration loop, ``_iterate``. It owns the
iteration count, the order "rows, then columns" within an iteration, the
early stop once the decision array is a product codeword, the op counters
and the ``DecoderResult``. A decoder supplies two functions: a half-step,
which decodes all rows (even half-iterations) or all columns (odd ones)
of its working state, and a decision, which maps that state to hard bits.
``_lines`` presents an array so that the half-step's component words are
its rows. The decoders differ only in the half-step:

* ``ibdd``          -- BDD of every component, corrections applied in
                       place (hard messages).
* ``ideal_ibdd``    -- ``ibdd`` with a genie that turns every
                       miscorrection into a failure (reference curve).
* ``anchor_decode`` -- BDD plus per-component status, visited in index
                       order: successfully decoded components become
                       anchors; a correction that would overturn an
                       anchor is blocked (and the proposer frozen for the
                       iteration) until too many components conflict with
                       the anchor, which is then backtracked.
* ``ibdd_sr``       -- BDD decisions combined with the channel LLRs into
                       the 1-bit message psi = B(w * mubar + L).
* ``igmdd_sr``      -- GMD component decoding with the soft messages
                       w * mubar + L.
* ``tpd.tpd_decode`` -- the Chase-Pyndiah turbo baseline.

Sign convention (see channel): bit b <-> (-1)^b, positive LLR supports
bit 0, and B(0) inside the decoders resolves to the channel hard
decision of that position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bch import ComponentCodeSpec
from .channel import hard_decide
from .gmd import batch_gmd
from .kernels import kernel_for


@dataclass(frozen=True)
class ProductCodeSpec:
    """Product of a component code with itself: every row and column of an
    n-by-n array is a component codeword."""

    component: ComponentCodeSpec

    @property
    def n(self) -> int:
        return self.component.n

    @property
    def k(self) -> int:
        return self.component.k

    @property
    def rate(self) -> float:
        return (self.component.k / self.component.n) ** 2


@dataclass(frozen=True)
class ScalingSchedule:
    """Per-iteration weights trading decoder decisions against channel
    evidence in the scaled-reliability updates."""

    w: tuple[float, ...]

    def __post_init__(self):
        if not self.w or any(x <= 0 for x in self.w):
            raise ValueError("scaling weights must be positive")

    @classmethod
    def constant(cls, value: float, iterations: int) -> "ScalingSchedule":
        return cls(tuple(float(value) for _ in range(iterations)))

    def is_monotone(self) -> bool:
        return all(a <= b for a, b in zip(self.w, self.w[1:]))


@dataclass
class DecoderResult:
    """Final hard decisions plus bookkeeping from one decoding run."""

    array: np.ndarray
    iterations_used: int
    converged: bool
    op_counters: dict[str, int] = field(default_factory=dict)


def _as_schedule(w, iterations: int) -> tuple[float, ...]:
    if isinstance(w, ScalingSchedule):
        w = w.w
    w = tuple(float(x) for x in w)
    if len(w) != iterations:
        raise ValueError(f"need {iterations} scaling weights, got {len(w)}")
    if any(x <= 0 for x in w):
        raise ValueError("scaling weights must be positive")
    return w


def pc_encode(spec: ProductCodeSpec, info: np.ndarray) -> np.ndarray:
    """Systematic product encoding: encode the k info rows, then every
    column. Linearity makes the row/column order irrelevant."""
    from .bch import encode

    comp = spec.component
    info = np.asarray(info, dtype=np.uint8)
    if info.shape != (comp.k, comp.k):
        raise ValueError(f"info must be {comp.k}x{comp.k}")
    rows = np.stack([encode(comp, info[a]) for a in range(comp.k)])
    return np.stack([encode(comp, rows[:, j]) for j in range(comp.n)], axis=1)


def is_pc_codeword(spec: ProductCodeSpec, array: np.ndarray) -> bool:
    """True iff all 2n component syndrome sets vanish."""
    kern = kernel_for(spec.component)
    arr = np.ascontiguousarray(array, dtype=np.uint8)
    return bool(kern.codeword_mask(arr).all()
                and kern.codeword_mask(arr.T).all())


def _frame(spec: ProductCodeSpec, array, name: str, bits: bool) -> np.ndarray:
    """A decoder input checked to be n-by-n: a uint8 copy holding only 0/1
    when ``bits``, else float64 LLRs."""
    array = np.asarray(array)
    if array.shape != (spec.n, spec.n):
        raise ValueError(f"{name} must have shape ({spec.n}, {spec.n}), "
                         f"got {array.shape}")
    if not bits:
        return np.asarray(array, dtype=np.float64)
    if not ((array == 0) | (array == 1)).all():
        raise ValueError(f"{name} must hold only the bits 0 and 1")
    return array.astype(np.uint8)


def _lines(array: np.ndarray, half: int) -> np.ndarray:
    """The component words of half-iteration ``half`` as rows: the array
    itself for a row pass (even half), its transpose for a column pass.
    Both are views, so writing to them updates the array."""
    return array if half % 2 == 0 else array.T


def _both_passes(array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A read-only input as C-contiguous rows for each pass, indexed by
    ``half % 2``: one copy per frame instead of strided reads per pass."""
    return array, np.ascontiguousarray(array.T)


def _iterate(spec: ProductCodeSpec, l_max: int, half_step, decide) -> DecoderResult:
    """Run up to l_max iterations of ``half_step(half, ops)`` over the rows
    (half = 2 * iteration - 2), then the columns (half + 1), stopping after
    the first iteration whose ``decide()`` is a product codeword.
    ``half_step`` updates the decoder's working state and adds its work to
    the op counters ``ops``."""
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    ops = {"bdd_calls": 0, "erasure_calls": 0, "gd_evals": 0, "msg_updates": 0}
    for it in range(1, l_max + 1):
        half_step(2 * it - 2, ops)
        half_step(2 * it - 1, ops)
        hard = np.ascontiguousarray(decide(), dtype=np.uint8)
        if is_pc_codeword(spec, hard):
            return DecoderResult(hard, it, True, ops)
    return DecoderResult(hard, l_max, False, ops)


def _bdd_iteration(spec: ProductCodeSpec, received: np.ndarray, l_max: int,
                   decode) -> DecoderResult:
    """Hard iteration: ``decode(words, half)`` returns (decoded words,
    corrected mask) per row, and its words replace the component words."""
    arr = _frame(spec, received, "received", bits=True)

    def half_step(half, ops):
        words = _lines(arr, half)
        words[...] = decode(words, half)[0]
        ops["bdd_calls"] += spec.n

    return _iterate(spec, l_max, half_step, lambda: arr)


def ibdd(spec: ProductCodeSpec, received: np.ndarray, l_max: int) -> DecoderResult:
    """Iterative BDD: decode all rows, apply in place, then all columns."""
    kern = kernel_for(spec.component)
    return _bdd_iteration(spec, received, l_max,
                          lambda words, half: kern.batch_bdd(words))


def ideal_ibdd(spec: ProductCodeSpec, received: np.ndarray,
               c_true: np.ndarray, l_max: int) -> DecoderResult:
    """iBDD with a genie suppressing all miscorrections."""
    kern = kernel_for(spec.component)
    true = _both_passes(_frame(spec, c_true, "c_true", bits=True))
    return _bdd_iteration(
        spec, received, l_max,
        lambda words, half: kern.batch_genie(words, true[half % 2]))


def _binary_message(val: np.ndarray, channel_hard: np.ndarray) -> np.ndarray:
    """B(val) with B(0) resolved to the channel hard decision."""
    return np.where(val > 0, 0, np.where(val < 0, 1, channel_hard)).astype(np.uint8)


def scaled_reliability_message(mubar: np.ndarray, llrs: np.ndarray,
                               weight: float,
                               channel_hard: np.ndarray) -> np.ndarray:
    """The binary message B(w * mubar + L), with channel_hard = B(L).

    mubar is +1/-1 for a decoded bit 0/1 and 0 on component failure. The
    decoded bit wins only where the component decoded and |L| < w; a
    failure, a reliable channel and the tie |L| = w (where w * mubar + L
    is 0) all give the channel hard decision.
    """
    mubar = np.asarray(mubar)
    return np.where((mubar != 0) & (np.abs(llrs) < weight), mubar < 0,
                    channel_hard).astype(np.uint8)


def ibdd_sr(spec: ProductCodeSpec, llrs: np.ndarray, w, l_max: int) -> DecoderResult:
    """iBDD with scaled reliability: binary messages B(w*mu + L)."""
    sched = _as_schedule(w, l_max)
    kern = kernel_for(spec.component)
    llrs = _frame(spec, llrs, "llrs", bits=False)
    mag = _both_passes(np.abs(llrs))
    ch_hard = _both_passes(hard_decide(llrs))
    msg = ch_hard[0].copy()

    def half_step(half, ops):
        words = _lines(msg, half)
        out, ok = kern.batch_bdd(words)
        # scaled_reliability_message with mubar = ok * (1 - 2 * out)
        trusted = ok[:, None] & (mag[half % 2] < sched[half // 2])
        words[...] = np.where(trusted, out, ch_hard[half % 2])
        ops["bdd_calls"] += spec.n
        ops["msg_updates"] += spec.n * spec.n

    return _iterate(spec, l_max, half_step, lambda: msg)


def igmdd_sr(spec: ProductCodeSpec, llrs: np.ndarray, w, l_max: int) -> DecoderResult:
    """Iterative GMD with scaled reliability: soft messages w*mu + L."""
    sched = _as_schedule(w, l_max)
    comp = spec.component
    llrs = _both_passes(_frame(spec, llrs, "llrs", bits=False))
    ch_hard = _both_passes(hard_decide(llrs[0]))
    soft = llrs[0].copy()  # row inputs of iteration 1 are the channel LLRs

    def half_step(half, ops):
        # batch_gmd sums reliabilities along rows, so it gets them
        # C-contiguous: the summation order fixes the last bits
        words = np.ascontiguousarray(_lines(soft, half))
        out, ok, stats = batch_gmd(
            comp, _binary_message(words, ch_hard[half % 2]), np.abs(words))
        mubar = (1.0 - 2.0 * out) * ok[:, None]
        _lines(soft, half)[...] = sched[half // 2] * mubar + llrs[half % 2]
        ops["erasure_calls"] += stats["attempts"]
        ops["gd_evals"] += stats["gd_evals"]
        ops["msg_updates"] += spec.n * spec.n

    return _iterate(spec, l_max, half_step,
                    lambda: _binary_message(soft, ch_hard[0]))


_NORMAL, _ANCHOR, _FROZEN = 0, 1, 2


class AnchorState:
    """Per-component bookkeeping for anchor decoding: status, conflict
    lists, applied-correction logs (positions along the component), and
    freeze attribution. Components 0..n-1 are rows, n..2n-1 columns."""

    def __init__(self, n: int):
        self.status = np.zeros(2 * n, dtype=np.int8)
        self.conflicts: dict[int, set[int]] = {}
        self.applied: dict[int, list[int]] = {}
        self.freeze_blockers: dict[int, set[int]] = {}

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

    def new_iteration(self) -> None:
        self.status[self.status == _FROZEN] = _NORMAL
        self.freeze_blockers.clear()


def anchor_decode(spec: ProductCodeSpec, received: np.ndarray, l_max: int,
                  threshold: int = 1) -> DecoderResult:
    """iBDD with anchor bookkeeping.

    Successful components become anchors. A correction that would flip a
    bit of a crossing anchor is a conflict: while the anchor has at most
    ``threshold`` recorded conflicts the correction is blocked and the
    proposer frozen for the rest of the iteration; once more components
    conflict, the anchor is backtracked (its corrections undone, its
    status dropped, components frozen solely because of it released).
    Components are visited in index order; the schedule is otherwise the
    iBDD one.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    kern = kernel_for(spec.component)
    n = spec.n
    arr = _frame(spec, received, "received", bits=True)
    st = AnchorState(n)

    def half_step(half, ops):
        if half % 2 == 0:
            st.new_iteration()
        # components of this pass are ``own + row`` of ``lines``; the
        # crossing component through position p is ``cross + p``
        own, cross = (0, n) if half % 2 == 0 else (n, 0)
        lines = _lines(arr, half)
        words = np.ascontiguousarray(lines)
        out, ok = kern.batch_bdd(words)
        ops["bdd_calls"] += n
        diff = out != words
        dirty: set[int] = set()

        def decode_one(idx: int):
            out1, ok1 = kern.batch_bdd(lines[idx][None, :])
            ops["bdd_calls"] += 1
            return bool(ok1[0]), np.flatnonzero(out1[0] != lines[idx]).tolist()

        def backtrack(anchor: int) -> None:
            for p in st.applied.get(anchor, []):
                lines[p, anchor - cross] ^= 1
                dirty.add(p)
            st.demote(anchor)

        for idx in range(n):
            comp = own + idx
            if st.status[comp] == _FROZEN:
                continue
            if idx in dirty:
                dirty.discard(idx)
                comp_ok, flip_pos = decode_one(idx)
            else:
                comp_ok, flip_pos = bool(ok[idx]), np.flatnonzero(diff[idx]).tolist()
            while comp_ok:
                blockers = {cross + p for p in flip_pos
                            if st.status[cross + p] == _ANCHOR}
                if not blockers:
                    for p in flip_pos:
                        lines[idx, p] ^= 1
                    if st.status[comp] != _ANCHOR:
                        st.status[comp] = _ANCHOR
                        st.applied[comp] = []
                    st.applied[comp].extend(flip_pos)
                    break
                for a in sorted(blockers):
                    st.conflicts.setdefault(a, set()).add(comp)
                    if len(st.conflicts[a]) > threshold:
                        backtrack(a)
                survivors = {a for a in blockers if st.status[a] == _ANCHOR}
                if survivors:
                    # blocked: freeze the proposer for this iteration
                    if st.status[comp] == _ANCHOR:
                        st.demote(comp)
                    st.status[comp] = _FROZEN
                    st.freeze_blockers[comp] = survivors
                    break
                # every blocker was backtracked; the undo may have
                # changed this component's word, so re-propose
                dirty.discard(idx)
                comp_ok, flip_pos = decode_one(idx)
            if not comp_ok and st.status[comp] == _ANCHOR:
                st.demote(comp)

    return _iterate(spec, l_max, half_step, lambda: arr)
