"""The n-by-n product code and its iterative decoders.

Every decoder runs on one iteration loop, ``_iterate``, over a stack of
frames, an array of shape (B, n, n). It owns the iteration count, the
order "rows, then columns" within an iteration, the per-frame early stop
once a frame's decisions (the state entry ``dec``) are a product
codeword, the op counters and the ``DecoderResult``. A decoder supplies
its state (arrays with the frames along axis 0), a half-step, which
decodes all rows (even half-iterations) or all columns (odd ones) of
every frame still iterating at once and may hand back the stop test,
and its schedule, one value per iteration: all a half-step reads of it.
A frame that has converged leaves the state, so it stops at the same
iteration as it would alone. The op counters hold one count per frame
of the state, so a frame's work stays its own. ``_lines`` presents an
array so that the half-step's component words are its rows.

The SR decoders' schedule is their weights, the others' range(l_max).
Within a run of equal values, a frame whose messages an iteration
leaves as they were would repeat that iteration to the end of the run.
It sits out the rest of its run outside the state and adds its last
iteration's op counts for each iteration it skips, so every result is
that of running them. Distinct values never park a frame.

Two half-steps are shared, and ``ibdd_sr`` brings its own:

* ``_key_stack``    -- BDD from the syndrome key of every row and column,
                       computed once per stack and updated per bit flip
                       (no key computation, transpose or codeword check
                       per half-step); a line rule gets the dense BDD
                       result of every line of the pass (its flips, n in
                       unused slots, and success), picks the flips, and a
                       frame stops once all its keys vanish:
  - ``ibdd``          applies every correction;
  - ``ideal_ibdd``    keeps a line's corrections only where the line has
                      at most t wrong bits, which is exactly where BDD
                      returns the sent word (reference curve);
  - ``anchor_decode`` ``_anchor_pass``: a decoded component becomes an
                      anchor; a correction overturning an anchor is
                      blocked until too many components conflict with it,
                      then the anchor is backtracked. The bookkeeping
                      works on the pass's conflict pairs and flips, not
                      on (B, n, n) masks.
* ``_soft_stack``   -- soft messages: a rule decodes L plus the message
                       ext of the crossing half-step, writes the next ext
                       in place and returns the decisions:
  - ``igmdd_sr``      GMD, ext = w * mubar, decisions B(L + ext);
  - ``tpd.tpd_stack`` Chase-Pyndiah, ext = the damped extrinsic.
* ``ibdd_sr``       -- the lines of the messages decoded in place from
                       their keys, one key computation per pass and the
                       same dense BDD result and flips as ``ibdd``; the
                       message psi = B(w * mubar + L) keeps a decoded bit
                       only where |L| < w. Carried keys (``_key_stack``)
                       would have to follow it: m=8 went 4.1 -> 5.2 ms/frame.

GMD and Chase BDD-decode 2t+1 and 2^p trial words per component (GMD
none for a codeword), in one ``ComponentKernel.decode_trials`` call per
slice of rows, and count them all in ``bdd_calls``. A slice holds at most
MAX_TRIAL_BITS trial bits (trial words x n), but at least one row.

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
from functools import partial
from itertools import groupby

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


def check_w(w, l_max: int) -> tuple[float, ...]:
    """The scaling weights ``w`` of the SR decoders as a tuple of floats,
    checked to hold one positive, finite weight per iteration."""
    w = tuple(float(x) for x in w)
    if len(w) != l_max:
        raise ValueError(f"w must hold {l_max} weights, one per iteration, got {len(w)}")
    if any(not 0 < x < math.inf for x in w):
        raise ValueError(f"w must hold positive weights, not NaN or infinite, got {w}")
    return w


def pc_encode(spec: ProductCodeSpec, info: np.ndarray) -> np.ndarray:
    """Systematic product encoding: encode the k info rows, then every
    column, each pass as one ``ComponentKernel.encode`` of the stacked
    lines. Linearity makes the row/column order irrelevant."""
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
    ok = kern.codeword_mask(hard).all(axis=1)
    if ok.any():
        ok[ok] = kern.codeword_mask(hard[ok], columns=True).all(axis=1)
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


# Cap on the trial bits (trial words x n) per kernel call in the Chase and
# GMD half-steps: one m=8 Chase call (256 rows x 2^4 patterns x 256 bits).
# They decode the rows of a stack in slices of this size, so peak memory
# does not grow with the stack.
MAX_TRIAL_BITS = 4096 * 256


def _row_slices(rows: int, words_per_row: int, n: int) -> list[slice]:
    """Slices of ``rows`` rows of ``words_per_row`` trial words of n bits,
    with at most MAX_TRIAL_BITS trial bits each, but at least one row."""
    step = max(1, MAX_TRIAL_BITS // (words_per_row * n))
    return [slice(i, i + step) for i in range(0, rows, step)]


# The op counters, summed over the lines of every half-step (decoders):
# bdd_calls      component words BDD-decoded: one per line (the keyed ones and
#                iBDD-SR, AD adding its re-decodes), 2t+1 (iGMDD-SR), 2^p (TPD)
# erasure_calls  error-and-erasure trials, t+1 per line (iGMDD-SR)
# gd_evals       GMD candidates scored by generalized distance (iGMDD-SR)
# msg_updates    message bits written, n per line (iBDD-SR, iGMDD-SR)
OP_COUNTERS = ("bdd_calls", "erasure_calls", "gd_evals", "msg_updates")


def _iterate(spec: ProductCodeSpec, state: dict, half_step, values,
             name: str = "dec") -> DecoderResult:
    """Run up to len(values) iterations of ``half_step(state, half, ops)``
    over the rows (half = 2 * iteration - 2), then the columns (half + 1).
    A frame stops after the first iteration whose decisions ``state["dec"]``
    are a product codeword, and is then dropped from every array of
    ``state`` (each holds the frames still iterating along axis 0).
    ``half_step`` updates the decoder's working state and adds its work to
    the op counters ``ops``, an int array per counter with one entry per
    frame of the state. A column pass may return the stop test, a bool per
    frame; when it returns None, the decisions are checked here.

    ``values`` is the schedule: one hashable value per iteration, all that
    its half-steps read of it besides the constant state entries and
    ``name``. A frame whose ``name`` comes out of an iteration as it went
    in, and did not stop, would repeat that iteration, op counts included,
    to the end of its run of equal values: it sits out the rest of the
    run, adds the iteration's counts once per iteration it skips, and
    rejoins, state unchanged, when the run ends. Distinct values, as in
    range(l_max), make runs of one iteration, so no frame is parked."""
    if not values:
        raise ValueError("l_max must be >= 1")
    kern = kernel_for(spec.component)
    frames = len(state["dec"])
    arrays = np.empty((frames, spec.n, spec.n), dtype=np.uint8)
    iterations = np.full(frames, len(values))
    converged = np.zeros(frames, dtype=bool)
    totals = np.zeros((len(OP_COUNTERS), frames), dtype=np.int64)
    group, end = (np.arange(frames), state), 0
    for _, run in groupby(values):
        start, end = end + 1, end + len(list(run))
        parked = []
        for it in range(start, end + 1):
            ids, state = group
            if not ids.size:
                break
            before = state[name].copy() if it < end else None
            counts = np.zeros((len(OP_COUNTERS), len(ids)), dtype=np.int64)
            ops = dict(zip(OP_COUNTERS, counts))
            half_step(state, 2 * it - 2, ops)
            done = half_step(state, 2 * it - 1, ops)
            if done is None:
                done = _codewords(kern, state["dec"])
            totals[:, ids] += counts
            arrays[ids[done]] = state["dec"][done]
            iterations[ids[done]] = it
            converged[ids[done]] = True
            if before is not None:
                fixed = ~done & (state[name] == before).reshape(len(ids), -1).all(axis=1)
                if fixed.any():
                    totals[:, ids[fixed]] += counts[:, fixed] * (end - it)
                    parked.append(_select(group, fixed))
                    done = done | fixed
            if done.any():
                group = _select(group, ~done)
        if parked:
            group = _join([group, *parked])
    ids, state = group
    arrays[ids] = state["dec"]
    return DecoderResult(arrays, iterations, converged,
                         dict(zip(OP_COUNTERS, totals.sum(axis=1).tolist())))


def _select(group: tuple, keep: np.ndarray) -> tuple:
    """The frames ``keep`` of a group (frame indices, state)."""
    ids, state = group
    return ids[keep], {k: v[keep] for k, v in state.items()}


def _join(groups: list) -> tuple:
    """Groups of frames (frame indices, state) as one."""
    return (np.concatenate([g[0] for g in groups]),
            {k: np.concatenate([g[1][k] for g in groups]) for k in groups[0][1]})


def _key_stack(spec: ProductCodeSpec, dec: np.ndarray, l_max: int, rule,
               **state) -> DecoderResult:
    """BDD from the syndrome keys of the lines: the state holds the decisions
    ``dec`` (a checked (B, n, n) stack), ``key`` (B, 2, n, W), the key of
    every row (key[:, 0]) and column (key[:, 1]) of dec, computed once per
    stack, and the rule's own entries ``state``. A half-step decodes every
    line of the pass from its key, ``cp, ok = kern.corrections(...)``: the
    positions to flip (B, n, t), n in unused slots (in all of a failed
    line's), and the corrected mask (B, n); a codeword's key is 0, which
    gives no flips and ok. ``rule(s, half, cp, ok, ops)`` may write to both,
    which are new per half-step, and returns the flips (frame, line,
    position) to make; each goes through ``_flip``, so the keys follow dec
    with no key computation, transpose or codeword check per half-step. A
    frame stops once all 2n keys vanish."""
    kern = kernel_for(spec.component)

    def half_step(s, half, ops):
        key = s["key"]
        ops["bdd_calls"] += spec.n
        _flip(s, half, *rule(s, half, *kern.corrections(key[:, half % 2]), ops),
              kern.col_keys)
        return ~key.any(axis=(1, 2, 3))

    return _iterate(spec, {"dec": dec, "key": kern.line_keys(dec), **state}, half_step,
                    range(l_max))


def _flip(s: dict, half: int, b: np.ndarray, i: np.ndarray, p: np.ndarray,
          col_keys: np.ndarray) -> None:
    """Flip bit p of line i of frame b (each once) among the lines of
    half-iteration ``half`` of ``s["dec"]``, and XOR the key of a single error
    at p into line i's key, and of one at i into the crossing line p's."""
    own = half % 2
    _lines(s["dec"], half)[b, i, p] ^= 1
    np.bitwise_xor.at(s["key"][:, own], (b, i), col_keys[p])
    np.bitwise_xor.at(s["key"][:, 1 - own], (b, p), col_keys[i])


def _every_correction(s: dict, half: int, cp: np.ndarray, ok: np.ndarray,
                      ops: dict) -> tuple:
    """iBDD's line rule: the flips (frame, line, position) of the corrections
    ``cp`` (B, n, t) of every line, n in unused slots (in all of a failed
    line's)."""
    b, i, k = np.nonzero(cp < s["dec"].shape[-1])
    return b, i, cp[b, i, k]


def _soft_stack(spec: ProductCodeSpec, llrs: np.ndarray, values, trials: int,
                rule) -> DecoderResult:
    """Soft messages from the channel LLRs L on: ``rule(soft, llr, half, ops)``
    gets a slice of rows (``trials`` BDD trial words each) of L + ext, ext the
    crossing half-step's soft message (zero at first), and of L; it writes the
    next ext over ``soft`` (ext's memory), adds its other work in place to
    ``ops``, counter -> an int array over the slice's rows, and returns the
    decisions. ``values`` is the schedule (``_iterate``): an iteration reads
    only L, ext and its value, so a frame whose ext repeats sits out its run."""
    llrs = _stack(spec, llrs, "llrs", bits=False)
    # L's rows for both passes, C-contiguous: one copy, no strided reads per pass
    state = {"llr": llrs, "llr_t": np.ascontiguousarray(llrs.swapaxes(-1, -2)),
             "ext": np.zeros(llrs.shape), "dec": np.zeros(llrs.shape, dtype=np.uint8)}

    def half_step(s, half, ops):
        llr = s["llr_t" if half % 2 else "llr"].reshape(-1, spec.n)
        # a view of the state for a row pass, so the rule writes in place;
        # batch_gmd sums reliabilities along rows, so it gets them
        # C-contiguous: the summation order fixes the last bits
        ext = np.ascontiguousarray(_lines(s["ext"], half)).reshape(-1, spec.n)
        dec = np.empty(ext.shape, dtype=np.uint8)
        counts = np.zeros((len(OP_COUNTERS), len(ext)), dtype=np.int64)
        counts[OP_COUNTERS.index("bdd_calls")] = trials
        for sl in _row_slices(len(ext), trials, spec.n):
            dec[sl] = rule(np.add(llr[sl], ext[sl], out=ext[sl]), llr[sl], half,
                           dict(zip(OP_COUNTERS, counts[:, sl])))
        if half % 2:  # _iterate reads the decisions after column passes only
            for name, rows in (("ext", ext), ("dec", dec)):
                _lines(s[name], half)[...] = rows.reshape(s[name].shape)
        per_frame = counts.reshape(len(OP_COUNTERS), -1, spec.n).sum(axis=2)
        for k, v in zip(OP_COUNTERS, per_frame):
            ops[k] += v

    return _iterate(spec, state, half_step, values, "ext")


def ibdd_stack(spec: ProductCodeSpec, received: np.ndarray,
               l_max: int) -> DecoderResult:
    """``ibdd`` on a (B, n, n) stack of frames: every correction applied."""
    return _key_stack(spec, _stack(spec, received, "received", bits=True), l_max,
                      _every_correction)


def ibdd(spec: ProductCodeSpec, received: np.ndarray, l_max: int) -> DecoderResult:
    """Iterative BDD: decode all rows, apply in place, then all columns."""
    return _one(ibdd_stack(spec, _frame(spec, received, "received"), l_max))


def ideal_ibdd_stack(spec: ProductCodeSpec, received: np.ndarray,
                     c_true: np.ndarray, l_max: int) -> DecoderResult:
    """``ideal_ibdd`` on a (B, n, n) stack of frames and their codewords: a
    genie rides along, ``errors`` (B, 2, n) counting each line's wrong bits,
    and a line keeps its corrections only with at most t of them, exactly
    when BDD returns the sent word (error patterns of weight <= t have
    distinct keys). Each kept flip fixes a wrong bit of its crossing line."""
    true = _stack(spec, c_true, "c_true", bits=True)
    if len(true) != len(received):
        raise ValueError(f"c_true holds {len(true)} frames, received {len(received)}")
    dec = _stack(spec, received, "received", bits=True)
    wrong = dec != true

    def genie(s, half, cp, ok, ops):
        own, errors = half % 2, s["errors"]
        ok &= errors[:, own] <= spec.component.t
        errors[:, own][ok] = 0
        cp[~ok] = spec.n
        b, i, p = _every_correction(s, half, cp, ok, ops)
        np.subtract.at(errors[:, 1 - own], (b, p), 1)
        return b, i, p

    return _key_stack(spec, dec, l_max, genie,
                      errors=np.stack([wrong.sum(axis=2), wrong.sum(axis=1)], axis=1))


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
    return _sr_select((mubar < 0).view(np.uint8), ch, (mubar != 0) & (np.abs(llrs) < weight))


def _sr_select(bits: np.ndarray, ch: np.ndarray, trusted: np.ndarray) -> np.ndarray:
    """B(w * mubar + L) in place over the decoded ``bits`` (uint8): the
    decoded bit where ``trusted`` (decoded and |L| < w), the channel hard
    decision ``ch`` elsewhere; np.where(trusted, bits, ch) without its slow
    select of bytes."""
    bits ^= ch
    bits &= trusted
    bits ^= ch
    return bits


def ibdd_sr_stack(spec: ProductCodeSpec, llrs: np.ndarray, w,
                  l_max: int) -> DecoderResult:
    """``ibdd_sr`` on a (B, n, n) stack of LLR frames; the messages ``dec``
    are decoded and replaced in place. |L| is kept as its rank among the
    distinct weights, a byte per bit: |L| < weights[k] is rank <= k."""
    kern = kernel_for(spec.component)
    llrs = _stack(spec, llrs, "llrs", bits=False)
    sched = check_w(w, l_max)
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
        cp, ok = kern.corrections(kern.keys(s["dec"], columns=half % 2 == 1))
        lines[_every_correction(s, half, cp, ok, ops)] ^= 1
        _sr_select(lines, _lines(s["ch"], half),
                   ok[..., None] & (_lines(s["rank"], half) <= k[half // 2]))
        ops["bdd_calls"] += spec.n
        ops["msg_updates"] += spec.n ** 2

    return _iterate(spec, {"dec": ch.copy(), "ch": ch, "rank": rank}, half_step, k)


def ibdd_sr(spec: ProductCodeSpec, llrs: np.ndarray, w, l_max: int) -> DecoderResult:
    """iBDD with scaled reliability: binary messages B(w*mu + L)."""
    return _one(ibdd_sr_stack(spec, _frame(spec, llrs, "llrs"), w, l_max))


def igmdd_sr_stack(spec: ProductCodeSpec, llrs: np.ndarray, w,
                   l_max: int) -> DecoderResult:
    """``igmdd_sr`` on a (B, n, n) stack of LLR frames."""
    sched, comp = check_w(w, l_max), spec.component

    def rule(soft, llr, half, ops):
        weight = sched[half // 2]
        ch = (llr < 0).view(np.uint8)  # B(L)
        hard = (soft < 0).view(np.uint8)  # B(soft), B(0) resolved to B(L)
        tie = (soft == 0).view(np.uint8)
        tie &= ch
        hard |= tie
        out, ok, stats = batch_gmd(comp, hard, np.abs(soft, out=soft))
        ops["erasure_calls"] += comp.t + 1  # t + 1 error-erasure trials per row
        ops["gd_evals"] += stats["gd_evals_per_row"]
        ops["msg_updates"] += spec.n
        # ext = w * mubar
        np.take(weight * np.array([1.0, -1.0]), out, out=soft, mode="clip")
        soft[~ok] = 0.0
        return _sr_select(out, ch, ok[:, None] & (np.abs(llr) < weight))

    return _soft_stack(spec, llrs, sched, 2 * comp.t + 1, rule)  # 2t+1 GMD trials


def igmdd_sr(spec: ProductCodeSpec, llrs: np.ndarray, w, l_max: int) -> DecoderResult:
    """Iterative GMD with scaled reliability: soft messages w*mu + L."""
    return _one(igmdd_sr_stack(spec, _frame(spec, llrs, "llrs"), w, l_max))


_ANCHOR_STATE = ("anchor", "nconf", "conflicts", "applied", "touched")


def _any_slot(x: np.ndarray) -> np.ndarray:
    """x.any(axis=-1) over the t slots of corrections, slot by slot: numpy
    reduces a short last axis row by row, 7-9x slower on the (B, n, 2)
    blockers of a 28-frame m=6 or a 4-frame m=8 stack."""
    out = x[..., 0]
    for j in range(1, x.shape[-1]):
        out = out | x[..., j]
    return out


def _anchor_pass(s: dict, half: int, cp: np.ndarray, ok: np.ndarray, ops: dict,
                 threshold: int, kern) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """AD's line rule on ``_key_stack``: one anchor-decoding pass over the
    components of half-iteration ``half`` of every frame, in index order
    within a frame. Their BDD results ``cp, ok`` (B, n, t) and (B, n)
    (positions to flip with n in unused slots, success) are those of
    ``_key_stack``, read again from the current key of a word that a
    backtrack changes. The state ``s`` is described in
    ``anchor_stack``. A backtrack's undo goes through ``_flip`` at once; the
    pass returns the flips of the components that apply their corrections.

    Until a frame's next backtrack its crossing anchors are fixed, so each
    component's outcome follows from its own BDD result: decoded and
    unblocked, it applies its flips and becomes (or stays) an anchor;
    blocked, it adds a conflict to each blocking anchor and loses its own
    status; failed, it loses it. The backtrack comes at the first component
    that takes a blocking anchor past ``threshold`` conflicts: those
    anchors' corrections are undone and they lose their status. If another
    blocker survives, the component is blocked; if not, its word is
    decoded again and proposed anew. A round finds and makes the next
    backtrack of every frame, then re-decodes the words it changed from
    their keys in one call. Nothing in the pass reads the state of its own
    components, so their outcomes are applied once, after the last round.
    The loop ends at the first round with no backtrack. A round changes
    only the frames it hits, so the new conflicts a frame finds in its
    last round (the round with no backtrack for it) are final: they are
    the conflicts the pass records for that frame.

    The work follows the conflicts and flips of the pass, not B * n * n. A
    round counts conflicts on the (component, blocking anchor) pairs, at
    most t per blocked component, grouped by (frame, anchor) with a stable
    sort. The outcomes reach the state through the lists of flips, of the
    anchors that lose their status and of the new conflicts."""
    frames, n = s["dec"].shape[:2]
    own, cross = half % 2, 1 - half % 2
    anchor, nconf, conflicts, applied, touched = (s[k] for k in _ANCHOR_STATE)
    own_conf = conflicts[:, own]
    # the crossing anchors and False at n: ca[b, cp[b, i]] marks the
    # blockers of component i. Crossing anchors only leave during a pass,
    # so the blockers of a word change only where an anchor is backtracked
    # or the word re-decoded; from its visit on, ``blocked`` keeps a
    # component's outcome
    ca = np.zeros((frames, n + 1), dtype=bool)
    ca[:, :n] = anchor[:, cross]
    blocked = _any_slot(ca[np.arange(frames)[:, None, None], cp])
    dirty = np.zeros((frames, n), dtype=bool)  # re-decoded before its visit
    start = np.zeros(frames, dtype=np.intp)
    upto = np.zeros(frames, dtype=np.intp)
    pending = np.arange(frames)
    settled = []  # the new conflicts of each frame's last round
    while True:
        # the new conflicts (frame pb, component pi, anchor pa) of the
        # blocked components, and the conflicts of the anchor up to each:
        # the recorded ones plus a running count of the new ones. Up to
        # ``start`` the counts are those of the components' visits, none
        # past the threshold, so the first pair past it is the backtrack
        qb, qi = np.nonzero(blocked[pending])
        qb = pending[qb]
        c = cp[qb, qi]  # component pi (row q of c) of frame pb, anchor pa
        q, k = np.nonzero(ca[qb[:, None], c])
        pb, pi, pa = qb[q], qi[q], c[q, k]
        new = ~own_conf[pb, pi, pa]
        q, pb, pi, pa = q[new], pb[new], pi[new], pa[new]
        over = pb  # with no new pair, none past the threshold
        if pb.size:
            group = pb * n + pa
            order = np.argsort(group, kind="stable")
            group = group[order]
            count = np.empty_like(group)
            count[order] = np.arange(len(group)) - np.searchsorted(group, group)
            count += nconf[pb, cross, pa]
            over = np.flatnonzero(count >= threshold)
        if not over.size:
            settled.append((pb, pi, pa))
            break
        # component hi of frame hit makes the frame's next backtrack: the
        # anchors it takes past the threshold undo their corrections
        head = np.ones(len(over), dtype=bool)
        np.not_equal(pb[over[1:]], pb[over[:-1]], out=head[1:])
        at = over[head]
        hit, hi = pb[at], pi[at]
        # a frame with no backtrack is left as it is: its pairs are final
        calm = np.ones(frames, dtype=bool)
        calm[hit] = False
        calm = calm[pb]
        settled.append((pb[calm], pi[calm], pa[calm]))
        upto[hit] = hi
        gone = over[pi[over] == upto[pb[over]]]
        bb, bp = pb[gone], pa[gone]
        k, i = np.nonzero(applied[bb, cross, bp])
        _flip(s, half, bb[k], i, bp[k], kern.col_keys)
        k, i = np.nonzero(touched[bb, cross, bp])
        ca[bb, bp] = applied[bb, cross, bp] = touched[bb, cross, bp] = False
        own_conf[bb, :, bp] = False
        still = _any_slot(ca[qb[:, None], c])
        held = still[q[at]]  # a blocker of hi survives
        start[pending] = n
        start[hit] = hi + held
        blocked[qb, qi] = still | (qi < start[qb])
        # changed words ahead are decoded again, and so are the components
        # whose blockers were all backtracked, which propose anew
        ahead = i > upto[bb[k]]
        rb, ri = bb[k[ahead]], i[ahead]
        dirty[rb, ri] = True
        redo = ~held
        ops["bdd_calls"][hit] += redo
        rb, ri = np.concatenate([rb, hit[redo]]), np.concatenate([ri, hi[redo]])
        if rb.size:
            cp[rb, ri], ok[rb, ri] = kern.corrections(s["key"][rb, own, ri])
            blocked[rb, ri] = _any_slot(ca[rb[:, None], cp[rb, ri]])
        pending = hit

    # each component's outcome at its visit; an anchor that loses its
    # status drops its flips and the conflicts against it
    ops["bdd_calls"] += dirty.sum(axis=1)
    go = ok & ~blocked
    lb, li = np.nonzero(anchor[:, own] & ~go)
    applied[lb, own, li] = touched[lb, own, li] = False
    conflicts[lb, cross, :, li] = nconf[lb, own, li] = 0
    anchor[:, own] = go
    anchor[:, cross] = ca[:, :n]
    nconf[:, cross] *= ca[:, :n]
    b, i, k = np.nonzero((cp < n) & go[:, :, None])
    p = cp[b, i, k]
    applied[b, own, i, p] ^= True
    touched[b, own, i, p] = True
    # the blocked components' conflicts with the surviving anchors
    pb, pi, pa = (np.concatenate(x) for x in zip(*settled))
    own_conf[pb, pi, pa] = True
    np.add.at(nconf[:, cross], (pb, pa), 1)
    return b, i, p


def anchor_stack(spec: ProductCodeSpec, received: np.ndarray, l_max: int,
                 threshold: int) -> DecoderResult:
    """``anchor_decode`` on a (B, n, n) stack of frames: ``_key_stack`` with
    ``_anchor_pass`` as its line rule. The anchor state rides with ``dec``
    and ``key`` in the state of ``_iterate``, frames along axis 0, in
    ``key``'s line layout: (B, 2, n) and (B, 2, n, n), component c = (d, i)
    being row i (d = 0) or column i (d = 1), and j indexing the components
    crossing it, those of direction 1 - d:

    * ``anchor[b, d, i]``: c is an anchor;
    * ``nconf[b, d, i]``: the number of components counting toward c's
      conflicts, so that a pass need not sum ``conflicts`` over (B, n, n);
    * ``conflicts[b, d, i, j]``: c was blocked by the crossing anchor j and
      counts toward j's conflicts;
    * ``applied[b, d, i, j]``, ``touched[b, d, i, j]``: the anchor c has
      flipped its position j an odd number of times, or at all (a backtrack
      undoes the first and re-decodes the crossing words in the second).

    A component that is not an anchor has no flips, and no component has
    a conflict with it (its ``nconf`` is 0)."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    dec = _stack(spec, received, "received", bits=True)
    frames, n = len(dec), spec.n
    return _key_stack(spec, dec, l_max, partial(_anchor_pass, threshold=threshold,
                                                kern=kernel_for(spec.component)),
                      anchor=np.zeros((frames, 2, n), dtype=bool),
                      nconf=np.zeros((frames, 2, n), dtype=np.intp),
                      **{k: np.zeros((frames, 2, n, n), dtype=bool) for k in _ANCHOR_STATE[2:]})


def anchor_decode(spec: ProductCodeSpec, received: np.ndarray, l_max: int,
                  threshold: int) -> DecoderResult:
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
