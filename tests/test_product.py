import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    ReliabilityVector,
    all_codewords,
    batch_gmd_without_skip,
    genie_bdd,
    gmd_decode,
    oracle_anchor_decode,
    plain_iterate,
)
from pcdec import bch, harness, kernels, product
from pcdec.channel import ChannelParams, frame_rng, hard_decide, llr, modulate, transmit
from pcdec.gf import build_field
from pcdec.product import (
    DecoderResult,
    ProductCodeSpec,
    anchor_decode,
    anchor_stack,
    check_w,
    ibdd,
    ibdd_sr,
    ibdd_sr_stack,
    ibdd_stack,
    ideal_ibdd,
    ideal_ibdd_stack,
    igmdd_sr,
    igmdd_sr_stack,
    is_pc_codeword,
    pc_encode,
    scaled_reliability_message,
)
from pcdec.tpd import tpd_decode, tpd_stack


@pytest.fixture(scope="module")
def pc15():
    return ProductCodeSpec(bch.construct_ebch(build_field(4), 2, extend=False))


@pytest.fixture(scope="module")
def cw15(pc15):
    return all_codewords(pc15.component)


def noisy_frame(pc, ebno_db, seed):
    params = ChannelParams.make(ebno_db, pc.rate)
    rng = frame_rng(seed, 0)
    c = np.zeros((pc.n, pc.n), dtype=np.uint8)
    L = llr(transmit(modulate(c), params, rng), params)
    return c, L


# ---------------------------------------------------------------- encoding


def test_pc_encode_zero(pc15):
    out = pc_encode(pc15, np.zeros((7, 7), dtype=np.uint8))
    assert not out.any()
    assert is_pc_codeword(pc15, out)


def test_pc_encode_valid_and_order_free(pc15):
    rng = np.random.default_rng(51)
    comp = pc15.component
    for _ in range(10):
        info = rng.integers(0, 2, (7, 7)).astype(np.uint8)
        arr = pc_encode(pc15, info)
        assert is_pc_codeword(pc15, arr)
        # columns-then-rows must give the same array
        cols = np.stack([bch.encode(comp, info[:, j]) for j in range(7)], axis=1)
        alt = np.stack([bch.encode(comp, cols[a]) for a in range(comp.n)])
        assert np.array_equal(arr, alt)


def test_pc_rate(pc15):
    assert pc15.rate == pytest.approx((7 / 15) ** 2)
    big = ProductCodeSpec(bch.construct_ebch(build_field(8), 2, extend=True))
    assert big.rate == pytest.approx(239 ** 2 / 256 ** 2, rel=1e-12)


def test_is_pc_codeword_flags_single_flip(pc15):
    rng = np.random.default_rng(52)
    arr = pc_encode(pc15, rng.integers(0, 2, (7, 7)).astype(np.uint8))
    assert is_pc_codeword(pc15, arr)
    arr[3, 4] ^= 1
    assert not is_pc_codeword(pc15, arr)


def test_encode_and_codeword_test_reject_non_bit_or_misshaped_input(pc15):
    # a cast to uint8 would read an all-2 or all -1.5 array as a codeword
    # and encode an info block of 3s as one of 1s
    for bad in (np.full((15, 15), 2), np.full((15, 15), -1.5)):
        with pytest.raises(ValueError, match="array must hold only the bits 0 and 1"):
            is_pc_codeword(pc15, bad)
    with pytest.raises(ValueError, match=re.escape("array must have shape (15, 15), "
                                                   "got (15, 16)")):
        is_pc_codeword(pc15, np.zeros((15, 16), dtype=np.uint8))
    with pytest.raises(ValueError, match="info must hold only the bits 0 and 1"):
        pc_encode(pc15, np.full((7, 7), 3))
    with pytest.raises(ValueError, match="info must be 7x7"):
        pc_encode(pc15, np.zeros((7, 8), dtype=np.uint8))


def test_check_w_takes_one_positive_finite_weight_per_iteration():
    with pytest.raises(ValueError, match="w must hold 3 weights, one per iteration, got 2"):
        check_w((1.0, 1.0), 3)
    for bad in (0, -1, math.nan, math.inf):
        with pytest.raises(ValueError, match="w must hold positive weights, not NaN or "
                                             "infinite"):
            check_w((0.5, bad), 2)
    w = check_w([1, 2], 2)
    assert w == (1.0, 2.0) and all(type(x) is float for x in w)


# ---------------------------------------------------------------- iBDD


def ref_ibdd(pc, received, l_max, c_true=None):
    """Straightforward scalar reference for iBDD, and with the sent
    codeword c_true for ideal iBDD. Returns the decisions and the
    iterations used."""
    arr = received.copy()
    decode = (lambda word, true: bch.bdd(pc.component, word)) if c_true is None else (
        lambda word, true: genie_bdd(pc.component, word, true))
    true = np.zeros_like(arr) if c_true is None else c_true
    for it in range(1, l_max + 1):
        for i in range(pc.n):
            out = decode(arr[i], true[i])
            if out.corrected:
                arr[i] = out.word
        for j in range(pc.n):
            out = decode(arr[:, j], true[:, j])
            if out.corrected:
                arr[:, j] = out.word
        if is_pc_codeword(pc, arr):
            break
    return arr, it


def test_ibdd_codeword_converges_immediately(pc15):
    rng = np.random.default_rng(53)
    arr = pc_encode(pc15, rng.integers(0, 2, (7, 7)).astype(np.uint8))
    res = ibdd(pc15, arr, l_max=10)
    assert res.converged and res.iterations_used == 1
    assert np.array_equal(res.array, arr)
    assert res.op_counters["bdd_calls"] == 2 * pc15.n


def test_ibdd_single_error(pc15):
    arr = np.zeros((15, 15), dtype=np.uint8)
    arr[6, 11] = 1
    res = ibdd(pc15, arr, l_max=10)
    assert res.converged and not res.array.any()


def test_ibdd_row_correctable_pattern(pc15):
    rng = np.random.default_rng(54)
    arr = np.zeros((15, 15), dtype=np.uint8)
    for i in range(15):
        e = rng.integers(0, 3)
        arr[i, rng.choice(15, size=e, replace=False)] = 1
    res = ibdd(pc15, arr, l_max=10)
    assert res.converged and res.iterations_used == 1
    assert not res.array.any()


def test_ibdd_matches_scalar_reference(pc15):
    for seed in range(8):
        _, L = noisy_frame(pc15, 3.0, seed)
        received = hard_decide(L)
        res = ibdd(pc15, received, l_max=4)
        assert np.array_equal(res.array, ref_ibdd(pc15, received, 4)[0])
        assert res.converged == is_pc_codeword(pc15, res.array)


def test_ibdd_bdd_call_count(pc15):
    _, L = noisy_frame(pc15, 1.0, 99)
    received = hard_decide(L)
    res = ibdd(pc15, received, l_max=5)
    assert res.op_counters["bdd_calls"] == 2 * pc15.n * res.iterations_used


def test_ibdd_deterministic(pc15):
    _, L = noisy_frame(pc15, 2.0, 7)
    received = hard_decide(L)
    a = ibdd(pc15, received, l_max=6)
    b = ibdd(pc15, received, l_max=6)
    assert np.array_equal(a.array, b.array)
    assert a.iterations_used == b.iterations_used


# ---------------------------------------------------------------- anchor


def weight5_codeword(cw15):
    idx = np.flatnonzero(cw15.sum(axis=1) == 5)[0]
    return cw15[idx]


def test_anchor_error_free_matches_ibdd(pc15):
    rng = np.random.default_rng(55)
    arr = pc_encode(pc15, rng.integers(0, 2, (7, 7)).astype(np.uint8))
    res = anchor_decode(pc15, arr, l_max=5, threshold=1)
    ref = ibdd(pc15, arr, l_max=5)
    assert res.converged and np.array_equal(res.array, ref.array)


def test_anchor_backtracks_miscorrected_row(pc15, cw15):
    # row 0 carries 3 bits of a weight-5 codeword: BDD miscorrects it onto
    # that codeword, then the crossing single-error columns conflict with
    # the freshly anchored row until it gets backtracked
    cstar = weight5_codeword(cw15)
    support = np.flatnonzero(cstar)
    arr = np.zeros((15, 15), dtype=np.uint8)
    arr[0, support[:3]] = 1
    mis = bch.bdd(pc15.component, arr[0])
    assert mis.corrected and np.array_equal(mis.word, cstar)  # miscorrection
    res = anchor_decode(pc15, arr, l_max=10, threshold=1)
    assert res.converged
    assert not res.array.any()


def test_anchor_blocks_when_threshold_not_reached(pc15, cw15):
    # with a huge threshold the miscorrected anchor is never backtracked:
    # the contested bits keep the anchor's values
    cstar = weight5_codeword(cw15)
    support = np.flatnonzero(cstar)
    arr = np.zeros((15, 15), dtype=np.uint8)
    arr[0, support[:3]] = 1
    res = anchor_decode(pc15, arr, l_max=1, threshold=10)
    assert not res.converged
    assert np.array_equal(res.array[0], cstar)
    assert not res.array[1:].any()


def test_anchor_deterministic(pc15):
    _, L = noisy_frame(pc15, 2.0, 11)
    received = hard_decide(L)
    a = anchor_decode(pc15, received, l_max=6, threshold=1)
    b = anchor_decode(pc15, received, l_max=6, threshold=1)
    assert np.array_equal(a.array, b.array)


# (m, t) of the BCH(31, 11) and eBCH(32, 11) codes: m*t = 25 is past the
# coset-leader table (kernels.MAX_KEY_BITS), so the kernel decodes them row
# by row with the scalar decoder. Their waterfall is at 3-4 dB.
PAST_TABLE = (5, 5)
# (m, t) -> Eb/N0 range of the anchor decoder's waterfall on the
# (2^m-1)^2 and (2^m)^2 codes
ORACLE_EBNO = {(4, 2): (1.5, 4.5), (4, 3): (1.5, 4.5), (5, 2): (2.0, 4.0),
               (5, 3): (2.0, 4.0), (6, 2): (3.0, 4.2), (6, 3): (3.0, 4.2),
               PAST_TABLE: (2.5, 4.5)}


@st.composite
def anchor_cases(draw):
    m, t = draw(st.sampled_from(sorted(ORACLE_EBNO)))
    slow = (m, t) == PAST_TABLE
    frames = draw(st.integers(1, 2 if slow else 5))
    ebnos = draw(st.lists(st.floats(*ORACLE_EBNO[m, t]), min_size=frames, max_size=frames))
    rand = draw(st.lists(st.booleans(), min_size=frames, max_size=frames))
    return (m, t, draw(st.booleans()), ebnos, rand, draw(st.integers(0, 2 ** 32 - 1)),
            draw(st.integers(1, 3 if slow else 10)), draw(st.sampled_from([0, 1, 3])))


def test_anchor_stack_matches_sequential_oracle():
    # the array form against the component-by-component walk it replaced:
    # same arrays, iterations, convergence and op counters
    seen = {"backtracks": 0, "redecodes": 0}

    @settings(deadline=None, max_examples=40)
    @given(case=anchor_cases())
    @example(case=(*PAST_TABLE, True, [3.0, 3.5], [False, True], 7, 3, 1))
    def check(case):
        m, t, extended, ebnos, rand, seed, l_max, threshold = case
        pc = ProductCodeSpec(bch.construct_ebch(build_field(m), t, extended))
        L, _ = frame_stack(pc, ebnos, seed, rand)
        res = anchor_stack(pc, hard_decide(L), l_max, threshold)
        want = [oracle_anchor_decode(pc, hard_decide(x), l_max, threshold) for x in L]
        assert np.array_equal(res.array, np.stack([w[0] for w in want]))
        assert res.iterations_used.tolist() == [w[1] for w in want]
        assert res.converged.tolist() == [w[2] for w in want]
        assert res.op_counters == {k: sum(w[3][k] for w in want) for k in res.op_counters}
        seen["backtracks"] += sum(w[4] for w in want)
        seen["redecodes"] += (res.op_counters["bdd_calls"]
                              - 2 * pc.n * int(res.iterations_used.sum()))

    check()
    assert seen["backtracks"] and seen["redecodes"], seen


@pytest.mark.parametrize("threshold", [0, 1, 3])
def test_anchor_stack_matches_oracle_on_a_waterfall_stack(threshold):
    # perfbench's m6 AD point: 28 frames of the (64,51,6)^2 code at 4.0 dB in
    # one stack, so a round holds the next backtrack of many frames at once
    # (the drawn cases above hold 1-5 frames)
    pc = ProductCodeSpec(bch.construct_ebch(build_field(6), 2, True))
    L, _ = frame_stack(pc, [4.0] * 28, 0, [False] * 28)
    res = anchor_stack(pc, hard_decide(L), 10, threshold)
    halves = [[] for _ in L]
    want = [oracle_anchor_decode(pc, hard_decide(x), 10, threshold, halves=h)
            for x, h in zip(L, halves)]
    assert np.array_equal(res.array, np.stack([w[0] for w in want]))
    assert res.iterations_used.tolist() == [w[1] for w in want]
    assert res.converged.tolist() == [w[2] for w in want]
    assert res.op_counters == {k: sum(w[3][k] for w in want) for k in res.op_counters}
    # frames that backtrack in the same half-iteration, the most of any
    together = max(sum(len(h) > j and h[j] > 0 for h in halves) for j in range(20))
    assert together >= 20, halves


# A 31x31 hard-decision frame (packed bits) on which anchor decoding with
# threshold 1 backtracks 16 times in 4 iterations. Conflicts recorded
# against a component that loses its anchor status must be dropped at the
# end of the pass: kept, they count toward its threshold once it is an
# anchor again, and it is backtracked too early (3 bits and one BDD call
# differ from the sequential walk).
STALE_CONFLICT_FRAME = (
    "0210008280100080410002040420400200200000022808020105442846400100"
    "010c8800000820060000000904000000008021002040040e4088019000000006"
    "8445002108000020404002004018000200c10000600000888000004041110000"
    "02200080028000000008160000020000000010112000120080")


def test_anchor_drops_conflicts_against_lost_anchors():
    pc = ProductCodeSpec(bch.construct_ebch(build_field(5), 2, extend=False))
    bits = np.unpackbits(np.frombuffer(bytes.fromhex(STALE_CONFLICT_FRAME), np.uint8))
    received = bits[:pc.n * pc.n].reshape(pc.n, pc.n)
    res = anchor_decode(pc, received, 4, threshold=1)
    array, iterations, converged, ops, backtracks = oracle_anchor_decode(
        pc, received, 4, 1)
    assert backtracks == 16
    assert np.array_equal(res.array, array)
    assert (res.iterations_used, res.converged) == (iterations, converged)
    assert res.op_counters == ops


# ---------------------------------------------------------------- iBDD-SR


def ref_ibdd_sr(pc, L, w, l_max):
    """Scalar reference for the scaled-reliability iteration. Returns the
    decisions and the iterations used."""
    ch = hard_decide(L)
    msg = ch.copy()
    for it in range(l_max):
        for axis in (0, 1):
            mubar = np.zeros_like(L)
            for a in range(pc.n):
                word = msg[a] if axis == 0 else msg[:, a]
                out = bch.bdd(pc.component, word)
                if out.corrected:
                    mu = 1.0 - 2.0 * out.word
                else:
                    mu = np.zeros(pc.n)
                if axis == 0:
                    mubar[a] = mu
                else:
                    mubar[:, a] = mu
            val = w[it] * mubar + L
            msg = np.where(val > 0, 0, np.where(val < 0, 1, ch)).astype(np.uint8)
        if is_pc_codeword(pc, msg):
            break
    return msg, it + 1


def test_ibdd_sr_message_mechanism():
    L = np.array([[0.5, -0.5, 3.0, -3.0]])
    ch = hard_decide(L)
    # decoder says bit 0 everywhere (mubar = +1), w = 1
    psi = scaled_reliability_message(np.ones((1, 4)), L, 1.0, ch)
    # w > |L|: decoder bit wins; w < |L| and disagreement: channel bit wins
    assert np.array_equal(psi, [[0, 0, 0, 1]])
    # failure (mubar = 0): channel hard decision everywhere
    psi = scaled_reliability_message(np.zeros((1, 4)), L, 1.0, ch)
    assert np.array_equal(psi, ch)
    # exact tie w == |L| with disagreement: falls back to the channel bit
    psi = scaled_reliability_message(np.ones((1, 4)), L, 0.5, ch)
    assert np.array_equal(psi, [[0, 1, 0, 1]])


@st.composite
def sr_message_inputs(draw):
    """A weight, LLRs that include exact ties +-w and signed zeros, and
    decoder messages mubar in {-1, 0, +1} (signed zero included)."""
    w = draw(st.floats(min_value=0.0, max_value=1e6, exclude_min=True))
    size = draw(st.integers(1, 24))
    llr_values = st.one_of(st.floats(-1e6, 1e6),
                           st.sampled_from([w, -w, 0.0, -0.0]))
    L = draw(st.lists(llr_values, min_size=size, max_size=size))
    mubar = draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
                          min_size=size, max_size=size))
    return w, np.array([L]), np.array([mubar])


@settings(deadline=None)
@given(sr_message_inputs())
def test_scaled_reliability_message_equals_float_formula(inputs):
    w, L, mubar = inputs
    ch = hard_decide(L)
    val = w * mubar + L
    want = np.where(val > 0, 0, np.where(val < 0, 1, ch))
    got = scaled_reliability_message(mubar, L, w, ch)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)


def test_ibdd_sr_matches_scalar_reference(pc15):
    w = (0.6, 0.9, 1.4, 2.0)
    for seed in range(6):
        _, L = noisy_frame(pc15, 2.5, 100 + seed)
        res = ibdd_sr(pc15, L, w, l_max=4)
        want, iterations = ref_ibdd_sr(pc15, L, w, 4)
        assert np.array_equal(res.array, want) and res.iterations_used == iterations


def test_ibdd_sr_matches_scalar_reference_at_weight_ties(pc15):
    # |L| exactly at, just below and just above each weight: the decoder
    # keeps |L| as its rank among the weights, which must agree with the
    # float formula B(w * mubar + L) on every side of every weight
    w = (0.6, 0.9, 0.9, 1.4)
    levels = np.array([0.0, 0.6, 0.9, 1.4, 3.0])
    levels = np.concatenate([levels, np.nextafter(levels, -1), np.nextafter(levels, 9)])
    rng = np.random.default_rng(59)
    for _ in range(8):
        L = rng.choice(levels, (15, 15)) * rng.choice([-1.0, 1.0], (15, 15))
        res = ibdd_sr(pc15, L, w, l_max=4)
        want, iterations = ref_ibdd_sr(pc15, L, w, 4)
        assert np.array_equal(res.array, want) and res.iterations_used == iterations


# codes for the scaled-reliability tests: t = 1..3, extended or not, and
# the code past the table
SR_CODES = [(m, t, ext) for m in (3, 4, 5, 6) for t in (1, 2, 3)
            for ext in (False, True)] + [(*PAST_TABLE, True)]


def snapped_stack(code, frames, w, ebno, seed):
    """The product code and a stack of noisy frames, half of whose |L| are
    moved to a weight of the schedule w or the float just below or above it."""
    m, t, ext = code
    try:
        pc = ProductCodeSpec(bch.construct_ebch(build_field(m), t, ext))
    except bch.UnsupportedParametersError:
        assume(False)
    L, _ = frame_stack(pc, [ebno + 0.5 * i for i in range(frames)], seed,
                       [i % 2 == 1 for i in range(frames)])
    levels = np.array(w)
    levels = np.concatenate([levels, np.nextafter(levels, 0), np.nextafter(levels, 99)])
    rng = np.random.default_rng(seed)
    snap = rng.random(L.shape) < 0.5
    L[snap] = np.copysign(rng.choice(levels, snap.sum()), L[snap])
    return pc, L


@settings(deadline=None, max_examples=30)
@given(code=st.sampled_from(SR_CODES), frames=st.integers(1, 3),
       w=st.lists(st.sampled_from((1.0, 2.5, 4.0, 6.0)), min_size=1, max_size=4),
       ebno=st.sampled_from((2.0, 3.0, 4.0, 5.0)), seed=st.integers(0, 2 ** 32 - 1))
@example(code=(*PAST_TABLE, True), frames=2, w=[1.0, 2.5, 4.0], ebno=3.0, seed=5)
def test_ibdd_sr_stack_matches_scalar_reference(code, frames, w, ebno, seed):
    # |L| at, just below and just above the weights: the decisions and
    # iterations of every frame of the stack are those of the float formula
    pc, L = snapped_stack(code, frames, w, ebno, seed)
    res = ibdd_sr_stack(pc, L, w, len(w))
    want = [ref_ibdd_sr(pc, x, w, len(w)) for x in L]
    assert np.array_equal(res.array, np.stack([x[0] for x in want]))
    assert res.iterations_used.tolist() == [x[1] for x in want]


def test_ibdd_sr_decodes_the_lines_in_place(monkeypatch):
    # every pass takes one syndrome product of the messages, from the left
    # for the columns, and makes no BDD call on dense words
    pc = stack_spec(6, 2)
    L, _ = frame_stack(pc, (4.0, 3.9, 3.7, 3.5, 12.0), 11, [False, True, False, True, False])
    keys, iterate = kernels.ComponentKernel.keys, product._iterate
    calls, passes = [], []

    def counted(self, words, columns=False):
        calls.append(columns)
        return keys(self, words, columns)

    def dense(*args, **kwargs):
        raise AssertionError("a BDD call on dense words")

    def checked_iterate(spec, state, half_step, values, name="dec"):
        def checked(s, half, ops):
            calls.clear()
            done = half_step(s, half, ops)
            passes.append((half, calls[:]))
            return done
        return iterate(spec, state, checked, values, name)

    monkeypatch.setattr(kernels.ComponentKernel, "keys", counted)
    monkeypatch.setattr(kernels.ComponentKernel, "batch_bdd", dense)
    monkeypatch.setattr(product, "_iterate", checked_iterate)
    res = ibdd_sr_stack(pc, L, sr_weights(10), 10)
    assert res.iterations_used.max() >= 3 and res.converged.any()
    assert len(passes) == 2 * res.iterations_used.max()
    assert all(calls == [half % 2 == 1] for half, calls in passes)


def test_ibdd_sr_noiseless_converges(pc15):
    c = np.zeros((15, 15), dtype=np.uint8)
    L = np.full((15, 15), 8.0)
    res = ibdd_sr(pc15, L, (1.0,) * 3, l_max=3)
    assert res.converged and res.iterations_used == 1
    assert np.array_equal(res.array, c)


def test_ibdd_sr_rejects_bad_schedule(pc15):
    _, L = noisy_frame(pc15, 3.0, 1)
    for decode in (ibdd_sr, igmdd_sr):
        with pytest.raises(ValueError, match="w must hold 3 weights, one per iteration, "
                                             "got 2"):
            decode(pc15, L, (1.0, 1.0), l_max=3)


# ---------------------------------------------------------------- iGMDD-SR


def ref_igmdd_sr(pc, L, w, l_max):
    """Scalar reference built on gmd_decode."""
    ch = hard_decide(L)
    soft = L.copy()
    hard = ch
    for it in range(l_max):
        for axis in (0, 1):
            mubar = np.zeros_like(L)
            for a in range(pc.n):
                vec = soft[a] if axis == 0 else soft[:, a]
                chv = ch[a] if axis == 0 else ch[:, a]
                word = np.where(vec > 0, 0, np.where(vec < 0, 1, chv)).astype(np.uint8)
                out = gmd_decode(pc.component, word,
                                 ReliabilityVector.from_values(np.abs(vec)))
                mu = (1.0 - 2.0 * out.word) if out.corrected else np.zeros(pc.n)
                if axis == 0:
                    mubar[a] = mu
                else:
                    mubar[:, a] = mu
            soft = w[it] * mubar + L
        hard = np.where(soft > 0, 0, np.where(soft < 0, 1, ch)).astype(np.uint8)
        if is_pc_codeword(pc, hard):
            break
    return hard


def test_igmdd_sr_matches_scalar_reference(pc15):
    w = (0.6, 1.0, 1.6)
    for seed in range(5):
        _, L = noisy_frame(pc15, 2.0, 200 + seed)
        res = igmdd_sr(pc15, L, w, l_max=3)
        assert np.array_equal(res.array, ref_igmdd_sr(pc15, L, w, 3))


def test_igmdd_sr_matches_scalar_reference_at_weight_ties(pc15):
    # |L| exactly at, just below and just above each weight: where |L| = w
    # and the component disagrees with the channel, w * mubar + L is 0, and
    # both the GMD input and the decision resolve B(0) to B(L)
    w = (0.6, 0.9, 0.9, 1.4)
    levels = np.array([0.0, 0.6, 0.9, 1.4, 3.0])
    levels = np.concatenate([levels, np.nextafter(levels, -1), np.nextafter(levels, 9)])
    rng = np.random.default_rng(59)
    for _ in range(8):
        L = rng.choice(levels, (15, 15)) * rng.choice([-1.0, 1.0], (15, 15))
        res = igmdd_sr(pc15, L, w, l_max=4)
        assert np.array_equal(res.array, ref_igmdd_sr(pc15, L, w, 4))


@settings(deadline=None, max_examples=20)
@given(code=st.sampled_from([(m, t, ext) for m in (3, 4, 5) for t in (1, 2)
                             for ext in (False, True)]),
       frames=st.integers(1, 2),
       w=st.lists(st.sampled_from((1.0, 2.5, 4.0, 6.0)), min_size=1, max_size=3),
       ebno=st.sampled_from((2.0, 3.0, 4.0, 5.0)), seed=st.integers(0, 2 ** 32 - 1))
# two GMD candidates of a column of frame 0 (iteration 3, column 7) tie in
# real arithmetic; both sides must add the metric in the same order to
# keep the earlier trial
@example(code=(5, 1, True), frames=2, w=[1.0, 4.0, 4.0], ebno=4.0, seed=5565716)
def test_igmdd_sr_stack_matches_scalar_reference(code, frames, w, ebno, seed):
    # |L| at, just below and just above the weights, where the decision
    # compares |L| < w: every frame of the stack decides as the float formula
    pc, L = snapped_stack(code, frames, w, ebno, seed)
    res = igmdd_sr_stack(pc, L, w, len(w))
    for frame, got in zip(L, res.array):
        assert np.array_equal(got, ref_igmdd_sr(pc, frame, w, len(w)))


def test_igmdd_sr_state_is_the_llrs_and_the_messages(pc15, monkeypatch):
    # the decision takes B(L) and |L| < w from the pass's L rows, so no
    # B(L) or |L| arrays ride in the state
    iterate, states = product._iterate, []

    def recorded(spec, state, half_step, values, name="dec"):
        states.append(sorted(state))
        return iterate(spec, state, half_step, values, name)

    monkeypatch.setattr(product, "_iterate", recorded)
    L, _ = frame_stack(pc15, [3.0, 3.5], 5, [False, True])
    igmdd_sr_stack(pc15, L, (2.0,) * 3, 3)
    assert states == [["dec", "ext", "llr", "llr_t"]]


def test_igmdd_sr_noiseless_converges(pc15):
    L = np.full((15, 15), 9.0)
    res = igmdd_sr(pc15, L, (1.0,), l_max=1)
    assert res.converged
    assert not res.array.any()


def test_igmdd_sr_gmd_failure_falls_back_to_llr(pc15):
    # saturate the array with errors so at least some component decodings
    # fail; reference equality already pins the fallback, this exercises a
    # run where failures are guaranteed to occur
    rng = np.random.default_rng(57)
    L = np.where(rng.random((15, 15)) < 0.5, -1.0, 1.0) * rng.random((15, 15))
    res = igmdd_sr(pc15, L, (0.8, 0.8), l_max=2)
    assert np.array_equal(res.array, ref_igmdd_sr(pc15, L, (0.8, 0.8), 2))


def test_igmdd_sr_erasure_call_budget(pc15):
    # every component runs t + 1 error-erasure trials, 2t + 1 BDDs (the
    # unerased word and both fills of each erasure set); gd_evals is the
    # count of valid candidates that the two-fill code scored on this frame
    _, L = noisy_frame(pc15, 1.5, 301)
    res = igmdd_sr(pc15, L, (1.0,) * 4, l_max=4)
    t = pc15.component.t
    components = 2 * pc15.n * res.iterations_used
    assert res.iterations_used == 4
    assert res.op_counters["erasure_calls"] == (t + 1) * components
    assert res.op_counters["bdd_calls"] == (2 * t + 1) * components
    assert res.op_counters["gd_evals"] == 123


def test_igmdd_sr_codeword_skip_keeps_results_and_counters(pc15, monkeypatch):
    # from the second iteration on many GMD rows are codewords, whose trials
    # batch_gmd skips; running them anyway changes neither the decisions,
    # the iterations nor an op counter, with frames that stop early and not
    L, _ = frame_stack(pc15, [2.5, 3.0, 3.5, 4.0], 5, [False, True, False, True])
    skip = igmdd_sr_stack(pc15, L, (4.0,) * 6, 6)
    monkeypatch.setattr(product, "batch_gmd", batch_gmd_without_skip)
    full = igmdd_sr_stack(pc15, L, (4.0,) * 6, 6)
    assert skip.iterations_used.min() < 6 and skip.iterations_used.max() == 6
    assert np.array_equal(skip.array, full.array)
    assert np.array_equal(skip.iterations_used, full.iterations_used)
    assert skip.op_counters == full.op_counters


# ------------------------------------------------------ fixed-point exit

SR_STACKS = {"ibdd-sr": ibdd_sr_stack, "igmdd-sr": igmdd_sr_stack}


def sr_decode_counted(name, pc, L, w, iterate=None):
    """``name``'s stack decoder on ``iterate`` in place of ``product._iterate``
    (that one if None), and the number of frame half-steps it ran."""
    iterate, steps = iterate or product._iterate, []

    def counted(spec, state, half_step, values, name="dec"):
        def step(s, half, ops):
            steps.append(len(s["dec"]))
            return half_step(s, half, ops)
        return iterate(spec, state, step, values, name)

    with mock.patch.object(product, "_iterate", counted):
        res = SR_STACKS[name](pc, L, w, len(w))
    return res, sum(steps)


@st.composite
def fixed_point_cases(draw):
    """An SR decoder, an m = 4..6 code, a schedule of constant runs and a
    last weight (mostly another one), and a stack of 1-3 frames."""
    name = draw(st.sampled_from(sorted(SR_STACKS)))
    code = draw(st.sampled_from([(m, t, ext) for m in (4, 5, 6) for t in (2, 3)
                                 for ext in (False, True)]))
    levels = st.sampled_from((1.0, 2.5, 4.0, 6.0))
    runs = draw(st.lists(st.tuples(levels, st.integers(1, 4)), min_size=1, max_size=3))
    w = tuple(x for x, r in runs for _ in range(r)) + (draw(levels),)
    frames = draw(st.integers(1, 3))
    ebnos = draw(st.lists(st.sampled_from((2.0, 3.0, 3.5, 4.0, 4.5, 5.0)),
                          min_size=frames, max_size=frames))
    rand = draw(st.lists(st.booleans(), min_size=frames, max_size=frames))
    return name, code, w, ebnos, draw(st.integers(0, 2 ** 32 - 1)), rand


@settings(deadline=None, max_examples=40)
@given(case=fixed_point_cases())
# the frame repeats after iteration 6, waits out the two weights 1.0,
# rejoins at the weight 4.0 of iteration 9 and converges there
@example(case=("ibdd-sr", (4, 2, False), (1.0, 1.0, 2.5, 2.5, 1.0, 1.0, 1.0, 1.0, 4.0),
               [5.0], 395584478, [True]))
# the frame repeats after iteration 7 and ends parked at l_max = 9, not
# converged: the schedule ends on a run of 2.5
@example(case=("igmdd-sr", (6, 2, True), (2.5, 2.5, 2.5, 2.5, 4.0, 2.5, 2.5, 2.5, 2.5),
               [3.5], 1920830188, [False]))
# the decisions repeat while the soft messages still change, so the frame
# must not park on its decisions alone
@example(case=("igmdd-sr", (6, 3, True), (2.5, 2.5, 2.5, 2.5), [2.0], 1, [False]))
def test_sr_fixed_point_exit_is_exact(case):
    # a frame whose messages repeat under an unchanged weight leaves the
    # stack until the weight changes; the result, op counters included,
    # is that of the plain loop that runs every iteration
    name, (m, t, ext), w, ebnos, seed, rand = case
    try:
        pc = ProductCodeSpec(bch.construct_ebch(build_field(m), t, ext))
    except bch.UnsupportedParametersError:
        assume(False)
    L, _ = frame_stack(pc, ebnos, seed, rand)
    res, steps = sr_decode_counted(name, pc, L, w)
    want, plain_steps = sr_decode_counted(name, pc, L, w, plain_iterate)
    assert np.array_equal(res.array, want.array)
    assert np.array_equal(res.iterations_used, want.iterations_used)
    assert np.array_equal(res.converged, want.converged)
    assert res.op_counters == want.op_counters
    assert steps <= plain_steps


def test_fixed_point_exit_parks_frames_by_runs(pc15):
    # a toy half-step, no decoder: an iteration takes each frame's message
    # to min(msg + step, value + off), value the iteration's, and a frame
    # stops once its message reaches its target. Frame 0 parks in the runs
    # of 1 and 3 and converges at 7; frame 1 parks in the run of 1 and in
    # the last run, ending unconverged at l_max = 10; frame 2 converges at 3
    sched = (1, 1, 1, 3, 3, 3, 4, 4, 4, 4)
    sizes = []

    def toy(s, half, ops):
        ops["bdd_calls"] += 1
        if half % 2 == 0:
            return None
        sizes.append(len(s["msg"]))
        np.minimum(s["msg"] + s["step"], sched[half // 2] + s["off"], out=s["msg"])
        ops["msg_updates"] += s["msg"]
        s["dec"][:, 0, 0] = s["msg"]
        return s["msg"] == s["target"]

    def run(iterate):
        sizes.clear()
        state = {"dec": np.zeros((3, pc15.n, pc15.n), dtype=np.uint8),
                 "msg": np.zeros(3, dtype=np.int64), "step": np.array([2, 1, 1]),
                 "off": np.array([0, 0, 5]), "target": np.array([4, 100, 3])}
        return iterate(pc15, state, toy, sched, "msg"), sizes[:]

    res, sizes_parked = run(product._iterate)
    want, sizes_plain = run(plain_iterate)
    assert np.array_equal(res.array, want.array)
    assert res.iterations_used.tolist() == want.iterations_used.tolist() == [7, 10, 3]
    assert res.converged.tolist() == want.converged.tolist() == [True, False, True]
    assert res.op_counters == want.op_counters
    # frames 0 and 1 sit out iteration 3, frame 0 iteration 6 and frame 1
    # iterations 9 and 10
    assert sizes_parked == [3, 3, 1, 2, 2, 1, 2, 1]
    assert sum(sizes_parked) < sum(sizes_plain) == 3 * 3 + 2 * 4 + 3


def test_ibdd_sr_frame_waits_out_a_repeating_weight():
    # a frame of perfbench's m=6 ibdd-sr point (3.9 dB, the default
    # schedule: 2.44, then 7.31 for iterations 2-9, then 10.97) repeats
    # its messages from iteration 4 on, skips iterations 5-9 and converges
    # at iteration 10, as the scalar reference does
    cfg = harness.SimConfig(algorithm="ibdd-sr", code_m=6)
    pc, w = cfg.product_spec(), cfg.resolve_w()
    L, _ = frame_stack(pc, [3.9], 0, [False])
    res, steps = sr_decode_counted("ibdd-sr", pc, L, w)
    assert steps < 2 * cfg.iterations
    assert res.iterations_used.tolist() == [10] and res.converged.all()
    arr, its = ref_ibdd_sr(pc, L[0], w, cfg.iterations)
    assert np.array_equal(res.array[0], arr) and its == 10


def test_igmdd_sr_parked_frame_counts_every_iteration():
    # a frame of perfbench's m=8 igmdd-sr point (4.35 dB, 7.507 for
    # iterations 1-9, then 13.1372) repeats from iteration 5 and converges
    # at 10; its skipped iterations still count t + 1 erasure trials per
    # component
    cfg = harness.SimConfig(algorithm="igmdd-sr", code_m=8)
    pc, w = cfg.product_spec(), cfg.resolve_w()
    L, _ = frame_stack(pc, [4.35], 3, [False])
    res, steps = sr_decode_counted("igmdd-sr", pc, L, w)
    its = int(res.iterations_used[0])
    assert steps < 2 * its and res.converged.all()
    assert res.op_counters["erasure_calls"] == (pc.component.t + 1) * 2 * pc.n * its


@pytest.mark.parametrize("name", ["tpd", "ibdd-sr", "igmdd-sr"])
def test_soft_and_sr_op_counters(monkeypatch, name):
    # every op counter of the decoders outside _key_stack, on m=6 frames
    # that stop at different iterations under the default schedules, some
    # SR frames parked. Per component and iteration TPD makes 2^p BDD
    # calls; iBDD-SR one and n message updates; iGMDD-SR 2t+1, t+1
    # erasure trials, n message updates and the GD evaluations batch_gmd
    # reports, which a run of every iteration sums
    pc = stack_spec(6, 2)
    n, t = pc.n, pc.component.t
    L, _ = frame_stack(pc, (2.0, 2.4, 2.8, 3.2, 4.0), 3, [False, True, False, True, False])
    gmd, gd_evals = product.batch_gmd, []

    def counted_gmd(*args):
        out = gmd(*args)
        gd_evals.append(out[2]["gd_evals"])
        return out

    if name == "tpd":
        res = tpd_stack(pc, L, 4, 10)
    else:
        w = harness.SimConfig(algorithm=name, code_m=6).resolve_w()
        res, steps = sr_decode_counted(name, pc, L, w)
        monkeypatch.setattr(product, "batch_gmd", counted_gmd)
        _, plain_steps = sr_decode_counted(name, pc, L, w, plain_iterate)
        assert steps < plain_steps
    assert len(set(res.iterations_used.tolist())) >= 3
    bdd, erasure, msgs = {"tpd": (2 ** 4, 0, 0), "ibdd-sr": (1, 0, n),
                          "igmdd-sr": (2 * t + 1, t + 1, n)}[name]
    lines = 2 * n * int(res.iterations_used.sum())
    assert (name == "igmdd-sr") == (sum(gd_evals) > 0)
    assert res.op_counters == {"bdd_calls": bdd * lines, "erasure_calls": erasure * lines,
                               "gd_evals": sum(gd_evals), "msg_updates": msgs * lines}


# ---------------------------------------------------------------- genie


def test_ideal_ibdd_error_free_matches_ibdd(pc15):
    rng = np.random.default_rng(58)
    arr = pc_encode(pc15, rng.integers(0, 2, (7, 7)).astype(np.uint8))
    res = ideal_ibdd(pc15, arr, arr, l_max=4)
    ref = ibdd(pc15, arr, l_max=4)
    assert res.converged and np.array_equal(res.array, ref.array)


def test_ideal_ibdd_never_adds_errors(pc15):
    c = np.zeros((15, 15), dtype=np.uint8)
    for seed in range(20):
        _, L = noisy_frame(pc15, 1.0, 400 + seed)
        received = hard_decide(L)
        res = ideal_ibdd(pc15, received, c, l_max=10)
        out_err = res.array != c
        in_err = received != c
        assert not (out_err & ~in_err).any()


def test_ideal_ibdd_beats_plain_on_miscorrection_frame(pc15):
    # first frame (fixed seed scan) where a miscorrection makes the plain
    # decoder diverge from the genie
    c = np.zeros((15, 15), dtype=np.uint8)
    for seed in range(200):
        _, L = noisy_frame(pc15, 1.2, 500 + seed)
        received = hard_decide(L)
        plain = ibdd(pc15, received, l_max=10)
        genie = ideal_ibdd(pc15, received, c, l_max=10)
        if not np.array_equal(plain.array, genie.array):
            assert (genie.array != c).sum() <= (plain.array != c).sum()
            return
    pytest.fail("no diverging frame found")


def test_ideal_ibdd_keeps_the_count_of_a_wrong_codeword_line(monkeypatch):
    # an all-zero frame whose only errors are one weight-6 codeword along
    # row 5: the row's key is 0, so the row pass leaves it and its genie
    # count at 6; each of the six columns holds one error, and the column
    # pass corrects them all, taking the row's count to 0
    pc = stack_spec(6, 2)
    kern = kernels.kernel_for(pc.component)
    word = np.zeros(pc.n, dtype=np.uint8)
    for first in range(pc.n - 7):
        word[:] = 0
        word[[first, first + 1, first + 3, first + 7]] = 1
        cp, ok = kern.corrections(kern.keys(word[None]))
        if ok[0] and (cp[0] < pc.n).sum() == 2:
            word[cp[0][cp[0] < pc.n]] ^= 1
            break
    assert word.sum() == 6 and not kern.keys(word[None]).any()
    received = np.zeros((1, pc.n, pc.n), dtype=np.uint8)
    received[0, 5] = word
    iterate, counts = product._iterate, []

    def recorded(spec, state, half_step, values):
        def checked(s, half, ops):
            done = half_step(s, half, ops)
            counts.append(s["errors"][0, 0, 5])
            return done
        return iterate(spec, state, checked, values)

    monkeypatch.setattr(product, "_iterate", recorded)
    res = ideal_ibdd_stack(pc, received, np.zeros_like(received), 4)
    assert counts == [6, 0]
    assert res.converged.all() and not res.array.any()


def test_decoder_result_contract_all_decoders(pc15):
    # n x n output, converged <=> product codeword, bit-identical reruns
    _, L = noisy_frame(pc15, 2.0, 600)
    received = hard_decide(L)
    w = (1.2,) * 3
    runs = [
        lambda: ibdd(pc15, received, 3),
        lambda: anchor_decode(pc15, received, 3, 1),
        lambda: ideal_ibdd(pc15, received, np.zeros_like(received), 3),
        lambda: ibdd_sr(pc15, L, w, 3),
        lambda: igmdd_sr(pc15, L, w, 3),
        lambda: tpd_decode(pc15, L, 4, 3),
    ]
    for run in runs:
        res, again = run(), run()
        assert isinstance(res, DecoderResult)
        assert res.array.shape == (15, 15)
        assert res.converged == is_pc_codeword(pc15, res.array)
        assert np.array_equal(res.array, again.array)
        assert res.iterations_used == again.iterations_used


MALFORMED_INPUT_RUNS = {
    "ibdd": lambda pc, x, c, l_max: ibdd(pc, x, l_max),
    "ad": lambda pc, x, c, l_max: anchor_decode(pc, x, l_max, 1),
    "ideal-ibdd": lambda pc, x, c, l_max: ideal_ibdd(pc, x, c, l_max),
    "ibdd-sr": lambda pc, x, c, l_max: ibdd_sr(pc, x, (1.0,) * l_max, l_max),
    "igmdd-sr": lambda pc, x, c, l_max: igmdd_sr(pc, x, (1.0,) * l_max, l_max),
    "tpd": lambda pc, x, c, l_max: tpd_decode(pc, x, 4, l_max),
}


@pytest.mark.parametrize("name", list(MALFORMED_INPUT_RUNS))
def test_decoders_reject_malformed_input(pc15, name):
    run = MALFORMED_INPUT_RUNS[name]
    zeros = np.zeros((15, 15), dtype=np.uint8)
    for bad in (zeros[:, :14], zeros[:, :, None], zeros.ravel()):
        with pytest.raises(ValueError, match=re.escape(str(bad.shape))):
            run(pc15, bad, zeros, 2)
    with pytest.raises(ValueError, match="l_max"):
        run(pc15, zeros, zeros, 0)
    if name in ("ibdd", "ad", "ideal-ibdd"):
        # hard inputs must be bits; a uint8 cast would turn -3.7 into 253
        with pytest.raises(ValueError, match="bits 0 and 1"):
            run(pc15, np.full((15, 15), -3.7), zeros, 2)
    if name in ("ibdd-sr", "igmdd-sr", "tpd"):
        # unchecked, a NaN decoded as a converged all-zero frame in tpd and
        # a -inf as five confident ones
        for bad in (math.nan, math.inf, -math.inf):
            L = np.full((15, 15), 3.0)
            L[4, 7] = bad
            with pytest.raises(ValueError, match="llrs must hold only finite values"):
                run(pc15, L, zeros, 2)
    if name == "ideal-ibdd":
        with pytest.raises(ValueError, match=re.escape("(14, 15)")):
            run(pc15, zeros, zeros[:14], 2)
    assert run(pc15, zeros, zeros, 2).converged


# ---------------------------------------------------------------- stacks

# id -> (stack decoder, per-frame decoder), both called as
# (spec, llrs, sent codewords, l_max), plus the anchor threshold for ad
STACK_DECODERS = {
    "ibdd": (lambda pc, L, c, l_max: ibdd_stack(pc, hard_decide(L), l_max),
             lambda pc, L, c, l_max: ibdd(pc, hard_decide(L), l_max)),
    "ad": (lambda pc, L, c, l_max, threshold=1:
               anchor_stack(pc, hard_decide(L), l_max, threshold),
           lambda pc, L, c, l_max, threshold=1:
               anchor_decode(pc, hard_decide(L), l_max, threshold)),
    "ideal-ibdd": (
        lambda pc, L, c, l_max: ideal_ibdd_stack(pc, hard_decide(L), c, l_max),
        lambda pc, L, c, l_max: ideal_ibdd(pc, hard_decide(L), c, l_max)),
    "ibdd-sr": (lambda pc, L, c, l_max: ibdd_sr_stack(pc, L, sr_weights(l_max), l_max),
                lambda pc, L, c, l_max: ibdd_sr(pc, L, sr_weights(l_max), l_max)),
    "igmdd-sr": (lambda pc, L, c, l_max: igmdd_sr_stack(pc, L, sr_weights(l_max), l_max),
                 lambda pc, L, c, l_max: igmdd_sr(pc, L, sr_weights(l_max), l_max)),
    "tpd": (lambda pc, L, c, l_max: tpd_stack(pc, L, 4, l_max),
            lambda pc, L, c, l_max: tpd_decode(pc, L, 4, l_max)),
}
# (m, t) -> extended component code; all by table lookup but PAST_TABLE
STACK_CODES = {(4, 2): False, (4, 3): True, (6, 2): True, (6, 3): True, PAST_TABLE: True}
STACK_EBNO = (0.0, 2.0, 3.0, 3.5, 4.0, 4.5, 5.0, 7.0, 12.0)


def sr_weights(l_max):
    return tuple(2.0 + i for i in range(l_max))


def stack_spec(m, t):
    return ProductCodeSpec(bch.construct_ebch(build_field(m), t, STACK_CODES[(m, t)]))


def frame_stack(pc, ebnos, seed, random_codewords):
    """LLRs and sent codewords, one frame per Eb/N0, each from its own
    stream; frames at different Eb/N0 converge at different iterations."""
    L, sent = [], []
    for i, (ebno, rand) in enumerate(zip(ebnos, random_codewords)):
        rng = frame_rng(seed, i)
        c = (pc_encode(pc, rng.integers(0, 2, (pc.k, pc.k)).astype(np.uint8)) if rand
             else np.zeros((pc.n, pc.n), dtype=np.uint8))
        params = ChannelParams.make(ebno, pc.rate)
        L.append(llr(transmit(modulate(c), params, rng), params))
        sent.append(c)
    return np.stack(L), np.stack(sent)


def assert_stack_equals_frames(name, pc, L, sent, l_max, **kw):
    stacked, single = STACK_DECODERS[name]
    res = stacked(pc, L, sent, l_max, **kw)
    frames = [single(pc, L[i], sent[i], l_max, **kw) for i in range(len(L))]
    assert res.array.shape == L.shape and res.array.dtype == np.uint8
    assert np.array_equal(res.array, np.stack([f.array for f in frames]))
    assert res.iterations_used.tolist() == [f.iterations_used for f in frames]
    assert res.converged.tolist() == [f.converged for f in frames]
    assert res.op_counters == {k: sum(f.op_counters[k] for f in frames)
                               for k in res.op_counters}
    return res


@st.composite
def stack_cases(draw):
    m, t = draw(st.sampled_from(sorted(STACK_CODES)))
    slow = (m, t) == PAST_TABLE
    frames = draw(st.integers(1, 3 if slow else 6))
    l_max = draw(st.integers(1, 2 if slow else 6))
    ebnos = draw(st.lists(st.sampled_from(STACK_EBNO), min_size=frames, max_size=frames))
    rand = draw(st.lists(st.booleans(), min_size=frames, max_size=frames))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    threshold = draw(st.sampled_from([0, 1, 3]))
    return m, t, ebnos, rand, seed, l_max, threshold


@pytest.mark.parametrize("name", list(STACK_DECODERS))
@settings(deadline=None, max_examples=12)
@given(case=stack_cases())
@example(case=(*PAST_TABLE, [3.5, 12.0], [False, True], 3, 2, 1))
def test_stack_decoding_equals_per_frame(name, case):
    m, t, ebnos, rand, seed, l_max, threshold = case
    pc = stack_spec(m, t)
    if name == "tpd" and (m, t) == PAST_TABLE:
        ebnos, rand = ebnos[:1], rand[:1]  # 16 scalar decodings per row
    L, sent = frame_stack(pc, ebnos, seed, rand)
    kw = {"threshold": threshold} if name == "ad" else {}
    assert_stack_equals_frames(name, pc, L, sent, l_max, **kw)


@pytest.mark.parametrize("name", list(STACK_DECODERS))
def test_stack_frames_leave_at_their_own_iteration(name):
    # a clean frame, frames in the waterfall and a hopeless one: the stack
    # mixes iteration counts and converged with unconverged frames
    pc = stack_spec(6, 2)
    ebnos = {"ibdd": (12.0, 4.4, 4.2, 4.0, 3.8, 1.0),
             "ad": (12.0, 4.2, 4.0, 3.8, 3.6, 1.0),
             "ideal-ibdd": (12.0, 4.0, 3.8, 3.6, 3.4, 1.0),
             "ibdd-sr": (12.0, 4.0, 3.9, 3.7, 3.5, 1.0),
             "igmdd-sr": (12.0, 3.6, 3.3, 3.1, 2.9, 0.0),
             "tpd": (12.0, 3.2, 2.9, 2.7, 2.5, 0.0)}[name]
    L, sent = frame_stack(pc, ebnos, 7, [i % 2 == 1 for i in range(len(ebnos))])
    res = assert_stack_equals_frames(name, pc, L, sent, 10)
    assert res.converged[0] and not res.converged[-1]
    assert len(set(res.iterations_used[res.converged].tolist())) >= 2


@pytest.mark.parametrize("name", ["ibdd", "ideal-ibdd", "ad"])
def test_keyed_stacks_compute_syndromes_once(monkeypatch, name):
    # iBDD, ideal iBDD and AD carry the key of every row and column: one
    # syndrome product for the rows and one for the columns per stack,
    # and no BDD call on dense words or codeword check per half-step (AD's
    # re-decodes after a backtrack included)
    pc = stack_spec(6, 2)
    L, sent = frame_stack(pc, (4.4, 4.2, 4.0, 3.8, 3.6, 12.0), 11, [False, True] * 3)
    keys = kernels.ComponentKernel.keys
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args[0].shape)
        return keys(self, *args, **kwargs)

    def dense(*args, **kwargs):
        raise AssertionError("a dense pass over the words")

    monkeypatch.setattr(kernels.ComponentKernel, "keys", counted)
    monkeypatch.setattr(kernels.ComponentKernel, "batch_bdd", dense)
    monkeypatch.setattr(kernels.ComponentKernel, "codeword_mask", dense)
    received = hard_decide(L)
    res = {"ibdd": lambda: ibdd_stack(pc, received, 10),
           "ideal-ibdd": lambda: ideal_ibdd_stack(pc, received, sent, 10),
           "ad": lambda: anchor_stack(pc, received, 10, 1)}[name]()
    assert res.iterations_used.max() >= 3 and res.converged.any()
    assert len(calls) <= 2


# codes for the keyed half-step: t = 1..3 by table lookup, extended or not;
# past the table (6, 4), and (6, 11), whose keys take two words
KEYED_CODES = [(m, t, ext) for m in (3, 4, 5, 6) for t in (1, 2, 3)
               for ext in (False, True)] + [(6, 4, True), (6, 11, False)]


@settings(deadline=None, max_examples=60)
@given(code=st.sampled_from(KEYED_CODES), name=st.sampled_from(("ibdd", "ideal-ibdd", "ad")),
       threshold=st.sampled_from((0, 1, 3)), frames=st.integers(1, 3),
       l_max=st.integers(1, 4), ebno=st.sampled_from((1.0, 3.0, 4.0, 5.0, 7.0)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(code=(6, 4, True), name="ibdd", threshold=1, frames=2, l_max=3, ebno=3.0, seed=1)
@example(code=(6, 4, True), name="ideal-ibdd", threshold=1, frames=2, l_max=3, ebno=3.0,
         seed=2)
@example(code=(6, 11, False), name="ibdd", threshold=1, frames=2, l_max=4, ebno=5.0, seed=3)
@example(code=(6, 11, False), name="ideal-ibdd", threshold=1, frames=2, l_max=4, ebno=5.0,
         seed=3)
@example(code=(6, 4, True), name="ad", threshold=0, frames=2, l_max=3, ebno=3.0, seed=1)
@example(code=(6, 4, True), name="ad", threshold=1, frames=2, l_max=3, ebno=3.0, seed=2)
@example(code=(6, 4, True), name="ad", threshold=3, frames=2, l_max=3, ebno=3.0, seed=3)
def test_keyed_half_steps_carry_the_syndrome_keys(code, name, threshold, frames, l_max, ebno,
                                                  seed):
    # after every half-step (AD's backtracks included) the carried keys are
    # those of the rows and columns of the decisions, and for ideal iBDD
    # the error counts those of the lines against the sent codewords; the
    # decisions and iterations are those of the scalar reference, and for
    # AD the convergence and op counters too, those of the sequential oracle
    m, t, ext = code
    try:
        pc = ProductCodeSpec(bch.construct_ebch(build_field(m), t, ext))
    except bch.UnsupportedParametersError:
        assume(False)
    L, sent = frame_stack(pc, [ebno + 0.5 * i for i in range(frames)], seed,
                          [i % 2 == 1 for i in range(frames)])
    received = hard_decide(L)
    kern = kernels.kernel_for(pc.component)
    ideal = name == "ideal-ibdd"
    iterate = product._iterate
    seen = []

    def checked_iterate(spec, state, half_step, values):
        def checked(s, half, ops):
            done = half_step(s, half, ops)
            assert np.array_equal(s["key"], kern.line_keys(s["dec"]))
            assert np.array_equal(done, ~s["key"].any(axis=(1, 2, 3)))
            seen.append((half, s["dec"].copy(), s["errors"].copy() if ideal else None))
            return done
        return iterate(spec, state, checked, values)

    with mock.patch.object(product, "_iterate", checked_iterate):
        res = {"ibdd": lambda: ibdd_stack(pc, received, l_max),
               "ideal-ibdd": lambda: ideal_ibdd_stack(pc, received, sent, l_max),
               "ad": lambda: anchor_stack(pc, received, l_max, threshold)}[name]()
    assert len(seen) == 2 * res.iterations_used.max()
    for half, dec, errors in seen if ideal else ():
        wrong = dec != sent[res.iterations_used > half // 2]
        assert np.array_equal(errors, np.stack([wrong.sum(axis=2), wrong.sum(axis=1)], axis=1))
    if name == "ad":
        want = [oracle_anchor_decode(pc, x, l_max, threshold) for x in received]
        assert res.converged.tolist() == [w[2] for w in want]
        assert res.op_counters == {k: sum(w[3][k] for w in want) for k in res.op_counters}
    else:
        want = [ref_ibdd(pc, received[b], l_max, sent[b] if ideal else None)
                for b in range(frames)]
    assert np.array_equal(res.array, np.stack([w[0] for w in want]))
    assert res.iterations_used.tolist() == [w[1] for w in want]


def test_chase_and_gmd_calls_respect_trial_bit_cap(monkeypatch):
    # 28 frames of 31 rows. Every slice is one decode_trials call; its
    # trial bits are rows x trials x n, at most product.MAX_TRIAL_BITS.
    pc = ProductCodeSpec(bch.construct_ebch(build_field(5), 2, extend=False))
    L, _ = frame_stack(pc, [3.0] * 28, 5, [False] * 28)
    words, bits, gmd_calls, gmd_words, noisy_words = [], [], [], [], []
    trials = kernels.ComponentKernel.decode_trials
    gmd = product.batch_gmd

    def counted_trials(self, hard, positions, flips, *rest):
        words.append(len(hard) * flips.shape[-2])
        bits.append(words[-1] * hard.shape[1])
        return trials(self, hard, positions, flips, *rest)

    def counted_gmd(spec, hard, rel):
        before = len(words)
        out = gmd(spec, hard, rel)
        gmd_calls.append(len(words) - before)
        gmd_words.append(sum(words[before:]))
        # batch_gmd runs the trials only on the rows that are not codewords
        noisy_words.append(5 * int((~kernels.kernel_for(spec).codeword_mask(hard)).sum()))
        return out

    monkeypatch.setattr(kernels.ComponentKernel, "decode_trials", counted_trials)
    monkeypatch.setattr(product, "batch_gmd", counted_gmd)
    tpd_stack(pc, L, 4, 1)
    assert len(words) == 2  # a slice holds 2114 rows of 16 x 31 trial bits
    assert max(bits) <= product.MAX_TRIAL_BITS
    assert sum(words) == 2 * 28 * 31 * 16
    # capped at 256 rows (2^4 x 31 x 256 trial bits): 4 slices per half-step
    monkeypatch.setattr(product, "MAX_TRIAL_BITS", 16 * 31 * 256)
    words.clear()
    bits.clear()
    tpd_stack(pc, L, 4, 1)
    assert len(words) == 2 * 4
    assert max(bits) <= product.MAX_TRIAL_BITS
    assert sum(words) == 2 * 28 * 31 * 16
    words.clear()
    bits.clear()
    igmdd_sr_stack(pc, L, (2.0,), 1)
    assert gmd_calls == [1] * (2 * 2)  # 2 slices of 819 rows, one call each
    assert max(bits) <= product.MAX_TRIAL_BITS
    assert gmd_words == noisy_words
    # a row of 2^12 trial words of 31 bits is past a cap of one m=8 row of
    # 2^4; a slice still holds one row
    monkeypatch.setattr(product, "MAX_TRIAL_BITS", 16 * 256)
    words.clear()
    tpd_stack(pc, L[:1], 12, 1)
    assert words == [4096] * (2 * 31)


def test_chase_and_gmd_results_do_not_depend_on_the_slices(monkeypatch):
    # one row per slice gives the same decisions, iterations and counters
    pc = ProductCodeSpec(bch.construct_ebch(build_field(5), 2, extend=False))
    L, _ = frame_stack(pc, [2.5, 3.0, 3.0, 3.5], 66, [False, True, False, True])
    runs = []
    for cap in (product.MAX_TRIAL_BITS, 1):
        monkeypatch.setattr(product, "MAX_TRIAL_BITS", cap)
        runs.append([tpd_stack(pc, L, 4, 3), igmdd_sr_stack(pc, L, (1.0, 2.0, 2.0), 3)])
    for got, want in zip(*runs):
        assert np.array_equal(got.array, want.array)
        assert np.array_equal(got.iterations_used, want.iterations_used)
        assert np.array_equal(got.converged, want.converged)
        assert got.op_counters == want.op_counters


def test_stack_decoders_reject_malformed_stacks(pc15):
    zeros = np.zeros((2, 15, 15), dtype=np.uint8)
    for stack_decode in (ibdd_stack, lambda pc, x, l_max: anchor_stack(pc, x, l_max, 1)):
        for bad in (zeros[0], zeros[:0], zeros[:, :14]):
            with pytest.raises(ValueError, match=re.escape(str(bad.shape))):
                stack_decode(pc15, bad, 2)
        with pytest.raises(ValueError, match="bits 0 and 1"):
            stack_decode(pc15, np.full((2, 15, 15), 2), 2)
        with pytest.raises(ValueError, match="l_max"):
            stack_decode(pc15, zeros, 0)
    with pytest.raises(ValueError, match="threshold"):
        anchor_stack(pc15, zeros, 2, -1)
    with pytest.raises(ValueError, match="c_true holds 1 frames, received 2"):
        ideal_ibdd_stack(pc15, zeros, zeros[:1], 2)
    for name in ("ibdd-sr", "igmdd-sr", "tpd"):
        for bad in (math.nan, math.inf, -math.inf):
            L = np.full((2, 15, 15), 3.0)
            L[1, 4, 7] = bad
            with pytest.raises(ValueError, match="llrs must hold only finite values"):
                STACK_DECODERS[name][0](pc15, L, zeros, 2)
