"""The n-by-n product code and its iterative decoders.

Every decoder runs on one iteration loop, ``_iterate``, over a stack of
frames, an array of shape (B, n, n). It owns the iteration count, the
order "rows, then columns" within an iteration, the per-frame early stop
once a frame's decisions (the state entry ``dec``) are a product
codeword, the op counters and the ``DecoderResult``. A decoder supplies
its state (arrays with the frames along axis 0) and a half-step, which
decodes all rows (even half-iterations) or all columns (odd ones) of
every frame still iterating at once, and may hand back the stop test.
A frame that has converged leaves the state, so it stops at the same
iteration as it would alone. ``_lines`` presents an array so that the
half-step's component words are its rows, and ``_rows`` stacks them to
(B * n, n) for one kernel call.

Two half-steps are shared, and two decoders bring their own:

* ``_key_stack``    -- BDD results applied in place, from the syndrome
                       key of every row and column, computed once per
                       stack and updated per bit flip (no syndrome
                       product, transpose or codeword check per
                       half-step); it stops a frame once all its keys
                       vanish:
  - ``ibdd``          applies every correction;
  - ``ideal_ibdd``    keeps a line's corrections only where the line has
                      at most t wrong bits, which is exactly where BDD
                      returns the sent word (reference curve).
* ``_soft_stack``   -- soft messages: a rule decodes L plus the message
                       ext of the crossing half-step, writes the next ext
                       in place and returns the decisions:
  - ``igmdd_sr``      GMD, ext = w * mubar, decisions B(L + ext);
  - ``tpd.tpd_decode`` Chase-Pyndiah, ext = the damped extrinsic.
* ``ibdd_sr``       -- the lines of the messages decoded in place from
                       their keys, one syndrome product per pass; the
                       message psi = B(w * mubar + L) keeps a decoded bit
                       only where |L| < w. Carried keys (``_key_stack``)
                       would have to follow it: m=8 went 4.1 -> 5.2 ms/frame.
* ``anchor_decode`` -- BDD of a pass as contiguous rows (in place on the
                       transposed view, m=8 went 11.0 -> 13.1 ms/frame),
                       then ``_anchor_pass``: a decoded component becomes
                       an anchor; a correction overturning an anchor is
                       blocked until too many components conflict with it,
                       then the anchor is backtracked.

GMD and Chase BDD-decode 2t+1 and 2^p trial words per component (GMD
none for a codeword), in one ``ComponentKernel.decode_trials`` call per
slice of rows, and count them all in ``bdd_calls``.

Every BDD here starts from syndrome keys, and ``ComponentKernel.corrections``
alone decides how a key is decoded: by the coset table, or past it by
the scalar Berlekamp-Massey core; no decoder branches on the table.

Each decoder has a ``*_stack`` form taking a (B, n, n) stack; the
per-frame form is that decoder on a stack of one.

Sign convention (see channel): bit b <-> (-1)^b, positive LLR supports
bit 0, and B(0) inside the decoders resolves to the channel hard
decision of that position.
"""

from __future__ import annotations

import math
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
        if not self.w or any(not 0 < x < math.inf for x in self.w):
            raise ValueError(f"scaling weights must be positive and finite, got {self.w}")

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
    # no weights (l_max < 1) is left for _iterate to reject
    return ScalingSchedule(w).w if w else w


def pc_encode(spec: ProductCodeSpec, info: np.ndarray) -> np.ndarray:
    """Systematic product encoding: encode the k info rows, then every
    column, each pass as one product with the component generator matrix.
    Linearity makes the row/column order irrelevant."""
    comp = spec.component
    info = np.asarray(info)
    if info.shape != (comp.k, comp.k):
        raise ValueError(f"info must be {comp.k}x{comp.k}")
    info = _bits(info, "info")
    kern = kernel_for(comp)
    return np.ascontiguousarray(kern.encode(kern.encode(info).T).T)


def _codewords(kern, hard: np.ndarray) -> np.ndarray:
    """Per frame of a (B, n, n) stack: True iff all 2n component syndrome
    sets vanish. Columns are checked only for frames whose rows all
    pass."""
    ok = ~kern.keys(hard).any(axis=(1, 2))
    if ok.any():
        ok[ok] = ~kern.keys(hard[ok], columns=True).any(axis=(1, 2))
    return ok


def is_pc_codeword(spec: ProductCodeSpec, array: np.ndarray) -> bool:
    """True iff all 2n component syndrome sets vanish."""
    arr = _stack(spec, _frame(spec, array, "array"), "array", bits=True)
    return bool(_codewords(kernel_for(spec.component), arr)[0])


def _frame(spec: ProductCodeSpec, array, name: str) -> np.ndarray:
    """One decoder input checked to be n-by-n, as a stack of one."""
    array = np.asarray(array)
    if array.shape != (spec.n, spec.n):
        raise ValueError(f"{name} must have shape ({spec.n}, {spec.n}), "
                         f"got {array.shape}")
    return array[None]


def _stack(spec: ProductCodeSpec, array, name: str, bits: bool) -> np.ndarray:
    """A decoder input checked to be a (B, n, n) stack with B >= 1: a uint8
    copy holding only 0/1 when ``bits``, else finite float64 LLRs."""
    array = np.asarray(array)
    if array.ndim != 3 or not len(array) or array.shape[1:] != (spec.n, spec.n):
        raise ValueError(f"{name} must have shape (B, {spec.n}, {spec.n}) "
                         f"with B >= 1, got {array.shape}")
    if not bits and not np.isfinite(array).all():
        raise ValueError(f"{name} must hold only finite values, not NaN or infinite")
    return _bits(array, name) if bits else np.asarray(array, dtype=np.float64)


def _bits(array: np.ndarray, name: str) -> np.ndarray:
    """A uint8 copy of an input checked to hold only 0/1."""
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


# Cap on the trial words per kernel call in the Chase and GMD
# half-steps: one m=8 Chase call (256 rows x 2^4 patterns). They decode the
# rows of a stack in slices of this size, so peak memory does not grow with
# the stack.
MAX_WORDS_PER_CALL = 4096


def _row_slices(rows: int, words_per_row: int) -> list[slice]:
    """Slices of ``rows`` rows with at most MAX_WORDS_PER_CALL words each."""
    step = MAX_WORDS_PER_CALL // words_per_row
    return [slice(i, i + step) for i in range(0, rows, step)]


def _iterate(spec: ProductCodeSpec, l_max: int, state: dict,
             half_step) -> DecoderResult:
    """Run up to l_max iterations of ``half_step(state, half, ops)`` over
    the rows (half = 2 * iteration - 2), then the columns (half + 1). A
    frame stops after the first iteration whose decisions ``state["dec"]``
    are a product codeword, and is then dropped from every array of
    ``state`` (each holds the frames still iterating along axis 0).
    ``half_step`` updates the decoder's working state and adds its work to
    the op counters ``ops``. A column pass may return the stop test, a
    bool per frame; when it returns None, the decisions are checked
    here."""
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    kern = kernel_for(spec.component)
    ops = {"bdd_calls": 0, "erasure_calls": 0, "gd_evals": 0, "msg_updates": 0}
    frames = len(state["dec"])
    arrays = np.empty((frames, spec.n, spec.n), dtype=np.uint8)
    iterations = np.full(frames, l_max)
    converged = np.zeros(frames, dtype=bool)
    active = np.arange(frames)
    for it in range(1, l_max + 1):
        half_step(state, 2 * it - 2, ops)
        done = half_step(state, 2 * it - 1, ops)
        if done is None:
            done = _codewords(kern, state["dec"])
        if done.any():
            arrays[active[done]] = state["dec"][done]
            iterations[active[done]] = it
            converged[active[done]] = True
            active = active[~done]
            if not active.size:
                break
            state = {k: v[~done] for k, v in state.items()}
    if active.size:
        arrays[active] = state["dec"]
    return DecoderResult(arrays, iterations, converged, ops)


def _key_stack(spec: ProductCodeSpec, received: np.ndarray, l_max: int,
               true: np.ndarray | None = None) -> DecoderResult:
    """BDD results applied in place, from the syndrome keys of the lines: the
    state holds the decisions ``dec`` and ``key`` (B, 2, n, W), the key of
    every row (key[:, 0]) and column (key[:, 1]) of dec, computed once per
    stack. A half-step reads the corrections of the lines whose key is not
    0, flips them in dec and updates the keys by the flips: a corrected
    line's key becomes 0, and a flip at position p of line i XORs the key
    of a single error at position i into the key of the crossing line p
    (several flips can meet there). A frame stops once all 2n keys vanish.

    With the sent codewords ``true`` the genie rides along: ``errors``
    (B, 2, n) counts each line's wrong bits, and a line keeps its
    corrections only with at most t of them, exactly when BDD returns the
    sent word (error patterns of weight <= t have distinct keys). Each
    kept flip fixes a wrong bit of its crossing line."""
    kern = kernel_for(spec.component)
    n, t = spec.n, spec.component.t
    dec = _stack(spec, received, "received", bits=True)
    state = {"dec": dec, "key": kern.line_keys(dec)}
    if true is not None:
        wrong = dec != true
        state["errors"] = np.stack([wrong.sum(axis=2), wrong.sum(axis=1)], axis=1)

    def half_step(s, half, ops):
        lines, key = _lines(s["dec"], half), s["key"]
        own, cross = half % 2, 1 - half % 2
        ops["bdd_calls"] += lines.shape[0] * n
        fb, line = np.nonzero(key[:, own].any(axis=-1))
        cpos, ok = kern.corrections(key[fb, own, line])
        if true is not None:
            ok &= s["errors"][fb, own, line] <= t
            s["errors"][fb[ok], own, line[ok]] = 0
        r, c = np.nonzero((cpos < n) & ok[:, None])
        b, i, p = fb[r], line[r], cpos[r, c]
        lines[b, i, p] ^= 1
        key[fb[ok], own, line[ok]] = 0
        np.bitwise_xor.at(key[:, cross], (b, p), kern.col_keys[i])
        if true is not None:
            np.subtract.at(s["errors"][:, cross], (b, p), 1)
        return ~key.any(axis=(1, 2, 3))

    return _iterate(spec, l_max, state, half_step)


def _soft_stack(spec: ProductCodeSpec, llrs: np.ndarray, l_max: int, trials: int,
                rule) -> DecoderResult:
    """Soft messages from the channel LLRs L on: ``rule(soft, llr, half, ops)``
    gets a slice of rows (``trials`` BDD trial words each) of L + ext, ext the
    crossing half-step's soft message (zero at first), and of L; it writes the
    next ext over ``soft`` (ext's memory), adds its other work to ``ops`` and
    returns the decisions."""
    llrs = _stack(spec, llrs, "llrs", bits=False)
    # L's rows for both passes, C-contiguous: one copy, no strided reads per pass
    state = {"llr": llrs, "llr_t": np.ascontiguousarray(llrs.swapaxes(-1, -2)),
             "ext": np.zeros(llrs.shape), "dec": np.zeros(llrs.shape, dtype=np.uint8)}

    def half_step(s, half, ops):
        llr = s["llr_t" if half % 2 else "llr"].reshape(-1, spec.n)
        # a view of the state for a row pass, so the rule writes in place;
        # batch_gmd sums reliabilities along rows, so it gets them
        # C-contiguous: the summation order fixes the last bits
        ext = _rows(s["ext"], half)
        dec = np.empty(ext.shape, dtype=np.uint8)
        for sl in _row_slices(len(ext), trials):
            dec[sl] = rule(np.add(llr[sl], ext[sl], out=ext[sl]), llr[sl], half, ops)
        if half % 2:  # _iterate reads the decisions after column passes only
            _put_rows(s["ext"], half, ext)
            _put_rows(s["dec"], half, dec)
        ops["bdd_calls"] += len(ext) * trials

    return _iterate(spec, l_max, state, half_step)


def ibdd_stack(spec: ProductCodeSpec, received: np.ndarray,
               l_max: int) -> DecoderResult:
    """``ibdd`` on a (B, n, n) stack of frames."""
    return _key_stack(spec, received, l_max)


def ibdd(spec: ProductCodeSpec, received: np.ndarray, l_max: int) -> DecoderResult:
    """Iterative BDD: decode all rows, apply in place, then all columns."""
    return _one(ibdd_stack(spec, _frame(spec, received, "received"), l_max))


def ideal_ibdd_stack(spec: ProductCodeSpec, received: np.ndarray,
                     c_true: np.ndarray, l_max: int) -> DecoderResult:
    """``ideal_ibdd`` on a (B, n, n) stack of frames and their codewords."""
    true = _stack(spec, c_true, "c_true", bits=True)
    if len(true) != len(received):
        raise ValueError(f"c_true holds {len(true)} frames, received {len(received)}")
    return _key_stack(spec, received, l_max, true)


def ideal_ibdd(spec: ProductCodeSpec, received: np.ndarray,
               c_true: np.ndarray, l_max: int) -> DecoderResult:
    """iBDD with a genie suppressing all miscorrections."""
    return _one(ideal_ibdd_stack(spec, _frame(spec, received, "received"),
                                 _frame(spec, c_true, "c_true"), l_max))


def scaled_reliability_message(mubar: np.ndarray, llrs: np.ndarray,
                               weight: float,
                               channel_hard: np.ndarray) -> np.ndarray:
    """The binary message B(w * mubar + L), with channel_hard = B(L).

    mubar is +1/-1 for a decoded bit 0/1 and 0 on component failure. The
    decoded bit wins only where the component decoded and |L| < w; a
    failure, a reliable channel and the tie |L| = w (where w * mubar + L
    is 0) all give the channel hard decision.
    """
    mubar, ch = np.asarray(mubar), np.asarray(channel_hard, dtype=np.uint8)
    return ch ^ (((mubar < 0) ^ ch) & (mubar != 0) & (np.abs(llrs) < weight))


def ibdd_sr_stack(spec: ProductCodeSpec, llrs: np.ndarray, w,
                  l_max: int) -> DecoderResult:
    """``ibdd_sr`` on a (B, n, n) stack of LLR frames; the messages ``dec``
    are decoded and replaced in place. |L| is kept as its rank among the
    distinct weights, a byte per bit: |L| < weights[k] is rank <= k."""
    kern = kernel_for(spec.component)
    llrs = _stack(spec, llrs, "llrs", bits=False)
    sched = _as_schedule(w, l_max)
    weights = sorted(set(sched))  # np.unique would import numpy.ma
    mag = np.abs(llrs)
    rank = np.zeros(mag.shape, dtype=np.min_scalar_type(len(weights)))
    for weight in weights:
        rank += mag >= weight
    del mag  # held while decoding, it cost a 32-frame m=6 stack 600 page faults, +30%
    k = np.searchsorted(weights, sched).tolist()
    ch = hard_decide(llrs)

    def half_step(s, half, ops):
        lines = _lines(s["dec"], half)
        key = kern.keys(s["dec"], columns=half % 2 == 1)
        fb, line = np.nonzero(key.any(axis=-1))
        cpos, fixed = kern.corrections(key[fb, line])
        ok = np.ones(lines.shape[:2], dtype=bool)
        ok[fb, line] = fixed
        r, c = np.nonzero(cpos < spec.n)
        lines[fb[r], line[r], cpos[r, c]] ^= 1
        # psi = B(w * mubar + L) keeps the decoded bit where ok and |L| < w:
        # np.where(trusted, lines, ch) without its slow select of bytes
        ch_lines = _lines(s["ch"], half)
        lines ^= ch_lines
        lines &= ok[..., None] & (_lines(s["rank"], half) <= k[half // 2])
        lines ^= ch_lines
        ops["bdd_calls"] += ok.size
        ops["msg_updates"] += lines.size

    return _iterate(spec, l_max, {"dec": ch.copy(), "ch": ch, "rank": rank}, half_step)


def ibdd_sr(spec: ProductCodeSpec, llrs: np.ndarray, w, l_max: int) -> DecoderResult:
    """iBDD with scaled reliability: binary messages B(w*mu + L)."""
    return _one(ibdd_sr_stack(spec, _frame(spec, llrs, "llrs"), w, l_max))


def igmdd_sr_stack(spec: ProductCodeSpec, llrs: np.ndarray, w,
                   l_max: int) -> DecoderResult:
    """``igmdd_sr`` on a (B, n, n) stack of LLR frames."""
    sched, comp = _as_schedule(w, l_max), spec.component

    def rule(soft, llr, half, ops):
        weight = sched[half // 2]
        ch = (llr < 0).view(np.uint8)  # B(L)
        hard = (soft < 0).view(np.uint8)  # B(soft), B(0) resolved to B(L)
        np.copyto(hard, ch, where=soft == 0)
        out, ok, stats = batch_gmd(comp, hard, np.abs(soft, out=soft))
        ops["erasure_calls"] += stats["attempts"]
        ops["gd_evals"] += stats["gd_evals"]
        ops["msg_updates"] += soft.size
        # ext = w * mubar; B(L + ext) is the decoded bit where ok and |L| < w
        np.take(weight * np.array([1.0, -1.0]), out, out=soft, mode="clip")
        soft[~ok] = 0.0
        out ^= ch
        out &= ok[:, None] & (np.abs(llr) < weight)
        out ^= ch
        return out

    return _soft_stack(spec, llrs, l_max, 2 * comp.t + 1, rule)  # 2t+1 GMD trials


def igmdd_sr(spec: ProductCodeSpec, llrs: np.ndarray, w, l_max: int) -> DecoderResult:
    """Iterative GMD with scaled reliability: soft messages w*mu + L."""
    return _one(igmdd_sr_stack(spec, _frame(spec, llrs, "llrs"), w, l_max))


_ANCHOR_STATE = ("anchor", "conflicts", "applied", "touched")


def _anchor_pass(lines: np.ndarray, ok: np.ndarray, diff: np.ndarray, s: dict,
                 half: int, threshold: int, kern, ops: dict) -> None:
    """One anchor-decoding pass over the components of half-iteration
    ``half`` of every frame, in index order within a frame: their words are
    ``lines`` (B, n, n), updated in place, and ``ok, diff`` (B, n) and
    (B, n, n) their BDD (success, flip mask), redone for words that a
    backtrack changes. The state ``s`` is described in ``anchor_stack``.

    Until a frame's next backtrack its crossing anchors are fixed, so each
    component's outcome follows from its own BDD result: decoded and
    unblocked, it applies its flips and becomes (or stays) an anchor;
    blocked, it adds a conflict to each blocking anchor and loses its own
    status; failed, it loses it. The backtrack comes at the first component
    that takes a blocking anchor past ``threshold`` conflicts: those
    anchors' corrections are undone and they lose their status. If another
    blocker survives, the component is blocked; if not, its word is
    decoded again and proposed anew. A round finds and makes the next
    backtrack of every frame, then re-decodes the words it changed in one
    call. Nothing in the pass reads the state of its own components, so
    their outcomes are applied once, after the last round."""
    frames, n = lines.shape[:2]
    own, cross = (0, n) if half % 2 == 0 else (n, 0)
    anchor, conflicts, applied, touched = (s[k] for k in _ANCHOR_STATE)
    cross_anchor = anchor[:, cross:cross + n]
    own_conf = conflicts[:, own:own + n]
    # crossing anchors only leave during a pass, so the blockers of a word
    # change only where an anchor is backtracked or the word re-decoded;
    # from its visit on, ``blocked`` keeps a component's outcome
    blk = diff & cross_anchor[:, None, :]
    blocked = blk.any(axis=2)
    nconf = own_conf.sum(axis=1, dtype=np.int16)  # per crossing anchor
    dirty = np.zeros((frames, n), dtype=bool)  # re-decoded before its visit
    stale = np.zeros((frames, n), dtype=bool)
    pos = np.arange(n)
    start = np.zeros(frames, dtype=np.intp)
    pending = np.arange(frames)
    while pending.size:
        # conflicts per crossing anchor after each blocked component from
        # ``start`` on: the stored ones plus a running count of new ones
        fb, ib = np.nonzero(blocked[pending] & (pos >= start[pending, None]))
        fb = pending[fb]
        new = blk[fb, ib] & ~own_conf[fb, ib]
        cols = np.flatnonzero(new.any(axis=0))  # anchors gaining conflicts
        new = new[:, cols]
        count = np.cumsum(new, axis=0, dtype=np.intp)
        count -= (count - new)[np.searchsorted(fb, fb)] - nconf[fb[:, None], cols]
        over = np.flatnonzero((new & (count > threshold)).any(axis=1))
        # component hi of frame hit makes the frame's next backtrack: the
        # anchors it takes past the threshold undo their corrections
        hit, at = np.unique(fb[over], return_index=True)
        at = over[at]
        hi = ib[at]
        nconf[hit[:, None], cols] = count[at]
        bb, bp = np.nonzero(new[at] & (count[at] > threshold))
        bb, bp = hit[bb], cols[bp]
        lines[bb, :, bp] ^= applied[bb, cross + bp]
        np.logical_or.at(stale, bb, touched[bb, cross + bp])
        anchor[bb, cross + bp] = applied[bb, cross + bp] = touched[bb, cross + bp] = False
        own_conf[bb, :, bp] = False
        qb, qi = np.nonzero(blk[bb, :, bp])
        blk[bb, :, bp] = False
        held = blk[hit, hi].any(axis=1)  # a blocker survives
        start[hit] = hi + held
        qb = bb[qb]
        later = qi >= start[qb]
        qb, qi = qb[later], qi[later]
        blocked[qb, qi] = blk[qb, qi].any(axis=1)
        # changed words ahead are decoded again, and so are the components
        # whose blockers were all backtracked, which propose anew
        stale[hit] &= pos > hi[:, None]
        dirty |= stale
        stale[hit[~held], hi[~held]] = True
        ops["bdd_calls"] += np.count_nonzero(~held)
        rb, ri = np.nonzero(stale)
        if rb.size:
            words = lines[rb, ri]
            out, ok[rb, ri] = kern.batch_bdd(words)
            diff[rb, ri] = out != words
            blk[rb, ri] = diff[rb, ri] & cross_anchor[rb]
            blocked[rb, ri] = blk[rb, ri].any(axis=1)
            stale[rb, ri] = False
        pending = hit[start[hit] < n]

    # each component's outcome at its visit
    ops["bdd_calls"] += np.count_nonzero(dirty)
    go = ok & ~blocked
    flips = diff & go[:, :, None]
    lines ^= flips
    anchor[:, own:own + n] = go
    applied[:, own:own + n] ^= flips
    applied[:, own:own + n] &= go[:, :, None]
    touched[:, own:own + n] |= flips
    touched[:, own:own + n] &= go[:, :, None]
    conflicts[:, cross:cross + n] &= go[:, None, :]
    own_conf |= blk


def anchor_stack(spec: ProductCodeSpec, received: np.ndarray, l_max: int,
                 threshold: int = 1) -> DecoderResult:
    """``anchor_decode`` on a (B, n, n) stack of frames: each pass is one
    BDD of the components of every frame, then ``_anchor_pass``. The
    anchor state rides in the state of ``_iterate``, frames along axis 0.
    Components 0..n-1 are rows, n..2n-1 columns, and j indexes the
    components crossing component c:

    * ``anchor[b, c]``: c is an anchor;
    * ``conflicts[b, c, j]``: c was blocked by the crossing anchor j and
      counts toward j's conflicts;
    * ``applied[b, c, j]``, ``touched[b, c, j]``: the anchor c has flipped
      its position j an odd number of times, or at all (a backtrack undoes
      the first and re-decodes the crossing words in the second).

    A component that is not an anchor has no flips, and no component has
    a conflict with it."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    kern = kernel_for(spec.component)
    n = spec.n
    received = _stack(spec, received, "received", bits=True)
    frames = len(received)

    def half_step(s, half, ops):
        words = _rows(s["dec"], half)
        out, ok = kern.batch_bdd(words)
        _anchor_pass(words.reshape(-1, n, n), ok.reshape(-1, n),
                     (out != words).reshape(-1, n, n), s, half, threshold, kern, ops)
        _put_rows(s["dec"], half, words)
        ops["bdd_calls"] += len(words)

    state = {"dec": received, "anchor": np.zeros((frames, 2 * n), dtype=bool),
             **{k: np.zeros((frames, 2 * n, n), dtype=bool) for k in _ANCHOR_STATE[1:]}}
    return _iterate(spec, l_max, state, half_step)


def anchor_decode(spec: ProductCodeSpec, received: np.ndarray, l_max: int,
                  threshold: int = 1) -> DecoderResult:
    """iBDD with anchor bookkeeping.

    Successful components become anchors. A correction that would flip a
    bit of a crossing anchor is a conflict: while the anchor has at most
    ``threshold`` recorded conflicts the correction is blocked, and the
    proposer keeps its word for the rest of the iteration; once more
    components conflict, the anchor is backtracked (its corrections
    undone, its status dropped). Components are visited in index order;
    the schedule is otherwise the iBDD one.
    """
    return _one(anchor_stack(spec, _frame(spec, received, "received"), l_max,
                             threshold))
