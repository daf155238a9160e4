"""The n-by-n product code and its iterative decoders.

Every decoder runs on one iteration loop, ``_iterate``, over a stack of
frames, an array of shape (B, n, n). It owns the iteration count, the
order "rows, then columns" within an iteration, the per-frame early stop
once a frame's decision array is a product codeword, the op counters and
the ``DecoderResult``. A decoder supplies its state (arrays with the
frames along axis 0) and two functions: a half-step, which decodes all
rows (even half-iterations) or all columns (odd ones) of every frame
still iterating, in one kernel call on their rows stacked to
(B * n, n), and a decision, which maps the state to hard bits. A frame
that has converged leaves the state, so it stops at the same iteration
as it would alone. ``_lines`` presents an array so that the half-step's
component words are its rows, and ``_rows`` stacks them.

Three half-steps serve the six decoders:

* ``_bdd_stack``    -- BDD of every component; a message rule turns the
                       result into the next hard message:
  - ``ibdd``          applies it in place;
  - ``ideal_ibdd``    does so with a genie that turns every
                      miscorrection into a failure (reference curve);
  - ``ibdd_sr``       keeps a decoded bit only where |L| < w, the 1-bit
                      message psi = B(w * mubar + L);
  - ``anchor_decode`` walks each frame's components in index order:
                      decoded components become anchors; a correction
                      that would overturn an anchor is blocked (the
                      proposer frozen for the iteration) until too many
                      components conflict with it, then it is backtracked.
* ``igmdd_sr``      -- GMD component decoding with the soft messages
                       w * mubar + L.
* ``tpd.tpd_decode`` -- the Chase-Pyndiah turbo baseline.

Each decoder has a ``*_stack`` form taking a (B, n, n) stack; the
per-frame form is that decoder on a stack of one.

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
    """Final hard decisions plus bookkeeping from one decoding run. For a
    stack of B frames (the ``*_stack`` decoders) ``array`` is (B, n, n),
    ``iterations_used`` and ``converged`` hold one entry per frame, and
    the op counters are summed over the stack."""

    array: np.ndarray
    iterations_used: int | np.ndarray
    converged: bool | np.ndarray
    op_counters: dict[str, int] = field(default_factory=dict)


def _one(res: DecoderResult) -> DecoderResult:
    """The result of a stack of one frame as a per-frame result."""
    return DecoderResult(res.array[0], int(res.iterations_used[0]),
                         bool(res.converged[0]), res.op_counters)


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
    column, each pass as one product with the component generator matrix.
    Linearity makes the row/column order irrelevant."""
    comp = spec.component
    info = np.asarray(info, dtype=np.uint8)
    if info.shape != (comp.k, comp.k):
        raise ValueError(f"info must be {comp.k}x{comp.k}")
    kern = kernel_for(comp)
    return np.ascontiguousarray(kern.encode(kern.encode(info).T).T)


def _codewords(kern, hard: np.ndarray) -> np.ndarray:
    """Per frame of a C-contiguous (B, n, n) stack: True iff all 2n
    component syndrome sets vanish. Columns are checked only for frames
    whose rows all pass."""
    n = hard.shape[-1]
    ok = kern.codeword_mask(hard.reshape(-1, n)).reshape(-1, n).all(axis=1)
    if ok.any():
        cols = np.ascontiguousarray(hard[ok].swapaxes(1, 2)).reshape(-1, n)
        ok[ok] = kern.codeword_mask(cols).reshape(-1, n).all(axis=1)
    return ok


def is_pc_codeword(spec: ProductCodeSpec, array: np.ndarray) -> bool:
    """True iff all 2n component syndrome sets vanish."""
    arr = np.ascontiguousarray(array, dtype=np.uint8)
    return bool(_codewords(kernel_for(spec.component), arr[None])[0])


def _frame(spec: ProductCodeSpec, array, name: str) -> np.ndarray:
    """One decoder input checked to be n-by-n, as a stack of one."""
    array = np.asarray(array)
    if array.shape != (spec.n, spec.n):
        raise ValueError(f"{name} must have shape ({spec.n}, {spec.n}), "
                         f"got {array.shape}")
    return array[None]


def _stack(spec: ProductCodeSpec, array, name: str, bits: bool) -> np.ndarray:
    """A decoder input checked to be a (B, n, n) stack with B >= 1: a uint8
    copy holding only 0/1 when ``bits``, else float64 LLRs."""
    array = np.asarray(array)
    if array.ndim != 3 or not len(array) or array.shape[1:] != (spec.n, spec.n):
        raise ValueError(f"{name} must have shape (B, {spec.n}, {spec.n}) "
                         f"with B >= 1, got {array.shape}")
    if not bits:
        return np.asarray(array, dtype=np.float64)
    if not ((array == 0) | (array == 1)).all():
        raise ValueError(f"{name} must hold only the bits 0 and 1")
    return array.astype(np.uint8)


def _lines(array: np.ndarray, half: int) -> np.ndarray:
    """The component words of half-iteration ``half`` along the last axis:
    the array itself for a row pass (even half), each frame transposed
    for a column pass. Both are views, so writing to them updates the
    array."""
    return array if half % 2 == 0 else array.swapaxes(-1, -2)


def _rows(array: np.ndarray, half: int) -> np.ndarray:
    """The component words of half-iteration ``half`` of every frame of a
    stack, as the C-contiguous rows of one (B * n, n) matrix: a view for a
    row pass, a copy for a column pass."""
    return np.ascontiguousarray(_lines(array, half)).reshape(-1, array.shape[-1])


def _put_rows(array: np.ndarray, half: int, rows: np.ndarray) -> None:
    """Write rows laid out as ``_rows(array, half)`` back into the array."""
    lines = _lines(array, half)
    lines[...] = rows.reshape(lines.shape)


def _both_passes(name: str, array: np.ndarray) -> dict[str, np.ndarray]:
    """A read-only input as C-contiguous rows for each pass, as the state
    entries ``name`` and ``name_t`` (read back by ``_pass_rows``): one copy
    per frame instead of strided reads per pass."""
    return {name: array, name + "_t": np.ascontiguousarray(array.swapaxes(-1, -2))}


def _pass_rows(state: dict, name: str, half: int) -> np.ndarray:
    """The rows of a ``_both_passes`` input for half-iteration ``half``."""
    array = state[name if half % 2 == 0 else name + "_t"]
    return array.reshape(-1, array.shape[-1])


# Cap on the test-pattern words per kernel call in the Chase and GMD
# half-steps: one m=8 Chase call (256 rows x 2^4 patterns). They decode the
# rows of a stack in slices of this size, so peak memory does not grow with
# the stack.
MAX_WORDS_PER_CALL = 4096


def _row_slices(rows: int, words_per_row: int) -> list[slice]:
    """Slices of ``rows`` rows with at most MAX_WORDS_PER_CALL words each
    (at least one row)."""
    step = max(1, MAX_WORDS_PER_CALL // words_per_row)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _iterate(spec: ProductCodeSpec, l_max: int, state: dict,
             half_step, decide) -> DecoderResult:
    """Run up to l_max iterations of ``half_step(state, half, ops)`` over
    the rows (half = 2 * iteration - 2), then the columns (half + 1). A
    frame stops after the first iteration whose ``decide(state)`` is a
    product codeword, and is then dropped from every array of ``state``
    (each holds the frames still iterating along axis 0). ``half_step``
    updates the decoder's working state and adds its work to the op
    counters ``ops``."""
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    kern = kernel_for(spec.component)
    ops = {"bdd_calls": 0, "erasure_calls": 0, "gd_evals": 0, "msg_updates": 0}
    frames = len(next(iter(state.values())))
    arrays = np.empty((frames, spec.n, spec.n), dtype=np.uint8)
    iterations = np.full(frames, l_max)
    converged = np.zeros(frames, dtype=bool)
    active = np.arange(frames)
    for it in range(1, l_max + 1):
        half_step(state, 2 * it - 2, ops)
        half_step(state, 2 * it - 1, ops)
        hard = np.ascontiguousarray(decide(state), dtype=np.uint8)
        done = _codewords(kern, hard)
        arrays[active] = hard
        iterations[active[done]] = it
        converged[active[done]] = True
        if done.any():
            active = active[~done]
            if not active.size:
                break
            state = {k: v[~done] for k, v in state.items()}
    return DecoderResult(arrays, iterations, converged, ops)


def _bdd_stack(spec: ProductCodeSpec, received: np.ndarray, l_max: int,
               rule, **inputs) -> DecoderResult:
    """Hard messages from ``received`` on: ``rule(words, state, half, ops)``
    BDD-decodes the component words (rows, which it may update in place),
    returns the words that replace them and adds work beyond one BDD per
    word to ``ops``. ``inputs`` are extra state entries."""
    state = {"arr": _stack(spec, received, "received", bits=True), **inputs}

    def half_step(s, half, ops):
        words = _rows(s["arr"], half)
        _put_rows(s["arr"], half, rule(words, s, half, ops))
        ops["bdd_calls"] += len(words)

    return _iterate(spec, l_max, state, half_step, lambda s: s["arr"])


def ibdd_stack(spec: ProductCodeSpec, received: np.ndarray,
               l_max: int) -> DecoderResult:
    """``ibdd`` on a (B, n, n) stack of frames."""
    kern = kernel_for(spec.component)
    return _bdd_stack(spec, received, l_max,
                      lambda words, s, half, ops: kern.batch_bdd(words)[0])


def ibdd(spec: ProductCodeSpec, received: np.ndarray, l_max: int) -> DecoderResult:
    """Iterative BDD: decode all rows, apply in place, then all columns."""
    return _one(ibdd_stack(spec, _frame(spec, received, "received"), l_max))


def ideal_ibdd_stack(spec: ProductCodeSpec, received: np.ndarray,
                     c_true: np.ndarray, l_max: int) -> DecoderResult:
    """``ideal_ibdd`` on a (B, n, n) stack of frames and their codewords."""
    kern = kernel_for(spec.component)
    true = _stack(spec, c_true, "c_true", bits=True)
    if len(true) != len(received):
        raise ValueError(f"c_true holds {len(true)} frames, received {len(received)}")
    return _bdd_stack(
        spec, received, l_max,
        lambda words, s, half, ops:
            kern.batch_genie(words, _pass_rows(s, "true", half))[0],
        **_both_passes("true", true))


def ideal_ibdd(spec: ProductCodeSpec, received: np.ndarray,
               c_true: np.ndarray, l_max: int) -> DecoderResult:
    """iBDD with a genie suppressing all miscorrections."""
    return _one(ideal_ibdd_stack(spec, _frame(spec, received, "received"),
                                 _frame(spec, c_true, "c_true"), l_max))


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


def ibdd_sr_stack(spec: ProductCodeSpec, llrs: np.ndarray, w,
                  l_max: int) -> DecoderResult:
    """``ibdd_sr`` on a (B, n, n) stack of LLR frames."""
    sched = _as_schedule(w, l_max)
    kern = kernel_for(spec.component)
    llrs = _stack(spec, llrs, "llrs", bits=False)
    ch_hard = hard_decide(llrs)
    # |L| enters only as |L| < w, so it is kept as its rank among the
    # distinct weights (|L| < weights[k] iff rank <= k): a byte per bit
    weights = np.unique(sched)
    mag = np.abs(llrs)
    rank = np.zeros(mag.shape, dtype=np.min_scalar_type(len(weights)))
    for weight in weights:
        rank += mag >= weight

    def rule(words, s, half, ops):
        out, ok = kern.batch_bdd(words)
        # scaled_reliability_message with mubar = ok * (1 - 2 * out)
        k = np.searchsorted(weights, sched[half // 2])
        trusted = ok[:, None] & (_pass_rows(s, "rank", half) <= k)
        ops["msg_updates"] += words.size
        return np.where(trusted, out, _pass_rows(s, "ch", half))

    return _bdd_stack(spec, ch_hard, l_max, rule, **_both_passes("rank", rank),
                      **_both_passes("ch", ch_hard))


def ibdd_sr(spec: ProductCodeSpec, llrs: np.ndarray, w, l_max: int) -> DecoderResult:
    """iBDD with scaled reliability: binary messages B(w*mu + L)."""
    return _one(ibdd_sr_stack(spec, _frame(spec, llrs, "llrs"), w, l_max))


def igmdd_sr_stack(spec: ProductCodeSpec, llrs: np.ndarray, w,
                   l_max: int) -> DecoderResult:
    """``igmdd_sr`` on a (B, n, n) stack of LLR frames."""
    sched = _as_schedule(w, l_max)
    comp = spec.component
    llrs = _stack(spec, llrs, "llrs", bits=False)
    # row inputs of iteration 1 are the channel LLRs
    state = {"soft": llrs.copy(), **_both_passes("llr", llrs),
             **_both_passes("ch", hard_decide(llrs))}

    def half_step(s, half, ops):
        # batch_gmd sums reliabilities along rows, so it gets them
        # C-contiguous: the summation order fixes the last bits
        words = _rows(s["soft"], half)
        hard = _binary_message(words, _pass_rows(s, "ch", half))
        out = np.empty_like(hard)
        ok = np.empty(len(words), dtype=bool)
        for sl in _row_slices(len(words), 1):
            out[sl], ok[sl], stats = batch_gmd(comp, hard[sl], np.abs(words[sl]))
            ops["erasure_calls"] += stats["attempts"]
            ops["gd_evals"] += stats["gd_evals"]
        mubar = (1.0 - 2.0 * out) * ok[:, None]
        _put_rows(s["soft"], half, sched[half // 2] * mubar + _pass_rows(s, "llr", half))
        ops["msg_updates"] += words.size

    return _iterate(spec, l_max, state, half_step,
                    lambda s: _binary_message(s["soft"], s["ch"]))


def igmdd_sr(spec: ProductCodeSpec, llrs: np.ndarray, w, l_max: int) -> DecoderResult:
    """Iterative GMD with scaled reliability: soft messages w*mu + L."""
    return _one(igmdd_sr_stack(spec, _frame(spec, llrs, "llrs"), w, l_max))


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


def anchor_stack(spec: ProductCodeSpec, received: np.ndarray, l_max: int,
                 threshold: int = 1) -> DecoderResult:
    """``anchor_decode`` on a (B, n, n) stack of frames: each pass is one
    BDD of the components of every frame, then a walk over each frame's
    components with its own ``AnchorState``, which rides in the state."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    kern = kernel_for(spec.component)
    n = spec.n
    received = _stack(spec, received, "received", bits=True)

    def rule(words, s, half, ops):
        out, ok = kern.batch_bdd(words)
        diff = out != words
        for st, lines, ok_f, diff_f in zip(s["anchors"], words.reshape(-1, n, n),
                                           ok.reshape(-1, n), diff.reshape(-1, n, n)):
            st.walk(lines, ok_f, diff_f, half, threshold, kern, ops)
        return words

    return _bdd_stack(spec, received, l_max, rule,
                      anchors=np.array([AnchorState(n) for _ in received], dtype=object))


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
    return _one(anchor_stack(spec, _frame(spec, received, "received"), l_max,
                             threshold))
