import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import all_codewords, ascending_sum
from pcdec import bch
from pcdec.channel import ChannelParams, frame_rng, llr, modulate, transmit
from pcdec.gf import build_field
from pcdec.product import ProductCodeSpec, is_pc_codeword, pc_encode
from pcdec.kernels import kernel_for
from pcdec.harness import SimConfig
from pcdec.tpd import ALPHA, BETA, _chase_batch, check_p, tpd_decode, tpd_stack


@pytest.fixture(scope="module")
def comp15():
    return bch.construct_ebch(build_field(4), 2, extend=False)


@pytest.fixture(scope="module")
def cw15(comp15):
    return all_codewords(comp15)


@pytest.fixture(scope="module")
def p():
    return 4


def at(table, half_iter):
    """A per-half-iteration table's entry; the last one holds after its end."""
    return table[min(half_iter, len(table) - 1)]


def ref_chase(spec, soft_in, p, half_iter):
    """Plain-loop reference for the Chase component decoding; also returns
    the decision codeword (None when every pattern fails). A candidate's
    metric adds |soft_in| over the positions where it differs from the
    hard decision in ascending position order, as the kernel does."""
    n = spec.n
    hard = (soft_in < 0).astype(np.uint8)
    mag = np.abs(soft_in)
    least = np.argsort(mag, kind="stable")[:p]
    cands, metrics = [], []
    for s in range(1 << p):
        trial = hard.copy()
        for j in range(p):
            if (s >> j) & 1:
                trial[least[j]] ^= 1
        out = bch.bdd(spec, trial)
        if out.corrected:
            cands.append(out.word)
            metrics.append(ascending_sum(mag[out.word != hard]))
    if not cands:
        return np.zeros(n), None
    best = int(np.argmin(metrics))
    decision, m_best = cands[best], metrics[best]
    dsign = 1.0 - 2.0 * decision
    w = np.empty(n)
    for i in range(n):
        comp = [m for c, m in zip(cands, metrics) if c[i] != decision[i]]
        if comp:
            w[i] = (min(comp) - m_best) * dsign[i] - soft_in[i]
        else:
            w[i] = at(BETA, half_iter) * dsign[i]
    return at(ALPHA, half_iter) * w, decision


def test_chase_tables_and_p_range(comp15, p):
    assert ALPHA == (0.2, 0.3, 0.5, 0.7, 0.9, 1.0)
    assert BETA == (0.2, 0.4, 0.6, 0.8, 1.0)
    # the last values hold after the end of each table: half-iteration 100
    # damps and falls back as 5 does, which differs from 4
    soft = np.array([[4.0] * 15])
    ext = [_chase_batch(comp15, soft, p, half)[0] for half in (4, 5, 100)]
    assert np.array_equal(ext[1], ext[2]) and not np.array_equal(ext[0], ext[1])
    # a row's 2^p test words must fit one kernel call
    for bad in (0, 13):
        with pytest.raises(ValueError, match="p must be between 1 and 12"):
            check_p(bad, 256)
    check_p(12, 256)


def test_chase_noiseless_decision_and_extrinsic_signs(comp15, cw15, p):
    c = cw15[90]
    soft = 5.0 * (1.0 - 2.0 * c)
    ext = _chase_batch(comp15, soft[None], p, half_iter=0)[0][0]
    # extrinsics all point toward the decided codeword
    assert ((1.0 - 2.0 * c) * ext >= 0).all()
    _, decision = ref_chase(comp15, soft, p, 0)
    assert np.array_equal(decision, c)
    assert np.array_equal(((soft + ext) < 0).astype(np.uint8), c)


def test_chase_matches_reference(comp15, p):
    rng = np.random.default_rng(61)
    for trial in range(100):
        soft = rng.normal(0, 2, 15)
        for half in (0, 3, 7):
            got = _chase_batch(comp15, soft[None], p, half)[0][0]
            want, _ = ref_chase(comp15, soft, p, half)
            assert np.allclose(got, want, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(m=st.sampled_from([4, 5, 6]), t=st.integers(1, 3), extend=st.booleans(),
       p=st.integers(1, 12), nrows=st.integers(1, 4), scale=st.sampled_from([1.0, 2.0]),
       half=st.integers(0, 7), seed=st.integers(0, 2 ** 32 - 1))
# decisions of more than 8 slots whose 9th slot bit matters
@example(m=6, t=3, extend=True, p=12, nrows=4, scale=2.0, half=0, seed=2)
@example(m=5, t=3, extend=False, p=12, nrows=4, scale=2.0, half=0, seed=1)
def test_chase_batch_bit_exact_against_reference(m, t, extend, p, nrows, scale, half, seed):
    # Rows of three kinds: noisy codewords; random words, every trial of
    # which may fail; and codewords with up to p weak errors among their p
    # least reliable bits and up to t strong ones, whose decisions differ
    # from the hard word in up to p + t positions (past 8, the decision's
    # slot bits take 16-bit cells). Quantized inputs tie on |soft| and
    # hold zeros.
    spec = bch.construct_ebch(build_field(m), t, extend=extend)
    rng = np.random.default_rng(seed)
    cw = kernel_for(spec).encode(rng.integers(0, 2, (nrows, spec.k)))
    soft = 2.0 * (1.0 - 2.0 * cw) + rng.normal(0, 1.5, cw.shape)
    for i, kind in enumerate(rng.integers(0, 3, nrows)):
        if kind == 1:
            soft[i] = rng.normal(0, 2, spec.n)
        elif kind == 2:
            soft[i] = 4.0 * (1.0 - 2.0 * cw[i])
            pos = rng.permutation(spec.n)[:p + t]
            soft[i, pos[:p]] *= rng.uniform(0.0, 0.3, p)
            soft[i, pos[:rng.integers(0, p + 1)]] *= -1.0
            soft[i, pos[p:p + rng.integers(0, t + 1)]] *= -1.0
    soft = np.round(soft * scale) / scale
    ext, dec = _chase_batch(spec, soft, p, half)
    for i in range(nrows):
        want, word = ref_chase(spec, soft[i], p, half)
        assert np.array_equal(ext[i].view(np.int64), want.view(np.int64))
        assert np.array_equal(dec[i], (soft[i] < 0) if word is None else word)


@settings(deadline=None, max_examples=30)
@given(m=st.sampled_from([4, 6]), extend=st.booleans(), nrows=st.integers(2, 40),
       quantized=st.booleans(), half=st.integers(0, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_chase_batch_rows_equal_single_rows(m, extend, nrows, quantized, half, seed):
    # noisy codewords; quantized inputs tie on |soft| and include zeros
    spec = bch.construct_ebch(build_field(m), 2, extend=extend)
    p = 4
    rng = np.random.default_rng(seed)
    cw = kernel_for(spec).encode(rng.integers(0, 2, (nrows, spec.k)))
    soft = 2.0 * (1.0 - 2.0 * cw) + rng.normal(0, 1.5, cw.shape)
    if quantized:
        soft = np.round(soft)
    ext, dec = _chase_batch(spec, soft, p, half)
    for i in range(nrows):
        ext_i, dec_i = _chase_batch(spec, soft[i:i + 1], p, half)
        assert np.array_equal(ext[i], ext_i[0])
        assert np.array_equal(dec[i], dec_i[0])


def test_chase_decisions_of_more_than_64_slots():
    # the (127,1) repetition code, t = 63, p = 3: 66 slots. Row 0's
    # decision (all zeros) differs from its hard word in 62 strong and 3
    # weak positions, 65 slots; the other codeword competes at all of them
    spec = bch.construct_ebch(build_field(7), 63, extend=False)
    soft = np.full((2, 127), 4.0)
    soft[:, :62] = -3.0
    soft[0, [70, 90, 126]] = [-0.1, -0.2, -0.05]
    soft[1, [62, 63, 64]] = [-0.3, 0.0, -0.3]
    ext, dec = _chase_batch(spec, soft, 3, 2)
    assert not dec[0].any()
    for i in range(2):
        want, word = ref_chase(spec, soft[i], 3, 2)
        assert np.array_equal(ext[i].view(np.int64), want.view(np.int64))
        assert np.array_equal(dec[i], word)


def test_chase_pattern_list_recovers_beyond_t(comp15, cw15, p):
    # three errors (> t) parked on the least reliable positions: only test
    # patterns flipping them leave a decodable word, and the decision is
    # the transmitted codeword
    c = cw15[5]
    soft = 4.0 * (1.0 - 2.0 * c)
    soft[[2, 6, 11]] *= -0.03  # errors, and the three least reliable bits
    assert not bch.bdd(comp15, (soft < 0).astype(np.uint8)).corrected \
        or not np.array_equal(bch.bdd(comp15, (soft < 0).astype(np.uint8)).word, c)
    ext, decision = ref_chase(comp15, soft, p, 0)
    assert np.array_equal(decision, c)
    got = _chase_batch(comp15, soft[None], p, half_iter=0)[0][0]
    assert np.allclose(got, ext, atol=1e-12)
    # the error bits that found competitors are pulled toward the decision
    assert ((soft + got) < 0).astype(np.uint8)[2] == c[2]
    assert ((soft + got) < 0).astype(np.uint8)[11] == c[11]


def test_chase_single_weak_error(comp15, cw15, p):
    # corrected by the unmodified test pattern's BDD already
    c = cw15[42]
    soft = 3.0 * (1.0 - 2.0 * c)
    soft[7] *= -0.1
    _, decision = ref_chase(comp15, soft, p, 1)
    assert np.array_equal(decision, c)
    got = _chase_batch(comp15, soft[None], p, half_iter=1)[0][0]
    want, _ = ref_chase(comp15, soft, p, 1)
    assert np.allclose(got, want, atol=1e-12)


def test_chase_all_fail_gives_zero_extrinsic(p):
    spec = bch.construct_ebch(build_field(4), 2, extend=True)  # (16,7,6)
    rng = np.random.default_rng(62)
    for _ in range(500):
        soft = rng.normal(0, 1, 16)
        _, decision = ref_chase(spec, soft, p, 0)
        if decision is None:
            ext = _chase_batch(spec, soft[None], p, half_iter=0)[0][0]
            assert np.array_equal(ext, np.zeros(16))
            return
    pytest.fail("no all-fail instance found")


def test_tpd_first_input_is_llr_matrix(comp15, p):
    # one iteration on strong LLRs: rows see exactly L (zero extrinsics)
    pc = ProductCodeSpec(comp15)
    L = np.full((15, 15), 6.0)
    res = tpd_decode(pc, L, p, l_max=1)
    assert res.converged
    assert not res.array.any()


def test_tpd_corrects_noisy_frame(comp15, p):
    pc = ProductCodeSpec(comp15)
    params = ChannelParams.make(3.0, pc.rate)
    rng = frame_rng(63, 0)
    c = np.zeros((15, 15), dtype=np.uint8)
    L = llr(transmit(modulate(c), params, rng), params)
    res = tpd_decode(pc, L, p, l_max=6)
    assert res.converged
    assert not res.array.any()
    assert res.op_counters["bdd_calls"] == 2 * 15 * 16 * res.iterations_used


def test_tpd_fixed_point_persists(comp15, p):
    pc = ProductCodeSpec(comp15)
    params = ChannelParams.make(3.5, pc.rate)
    checked = 0
    for seed in range(20):
        rng = frame_rng(64 + seed, 0)
        c = np.zeros((15, 15), dtype=np.uint8)
        L = llr(transmit(modulate(c), params, rng), params)
        short = tpd_decode(pc, L, p, l_max=4)
        if not short.converged:
            continue
        longer = tpd_decode(pc, L, p, l_max=8)
        assert np.array_equal(short.array, longer.array)
        assert is_pc_codeword(pc, longer.array)
        checked += 1
    assert checked >= 5


def ref_tpd(pc, L, p, l_max):
    """Row-by-row reference for tpd_decode built on ref_chase: each
    component decodes L plus the extrinsic of the crossing half-step, the
    decisions are those of the last half-step, and the run stops after the
    first iteration that ends on a product codeword. Returns (array,
    iterations used, converged)."""
    n = pc.n
    ext = np.zeros((n, n))
    dec = np.zeros((n, n), dtype=np.uint8)
    for it in range(1, l_max + 1):
        for half in (2 * it - 2, 2 * it - 1):
            # the components of this half-step are the rows of these views
            llr_t, ext_t, dec_t = (x if half % 2 == 0 else x.T for x in (L, ext, dec))
            new = np.zeros((n, n))
            for a in range(n):
                soft = llr_t[a] + ext_t[a]
                new[a], word = ref_chase(pc.component, soft, p, half)
                dec_t[a] = (soft < 0) if word is None else word
            ext = new if half % 2 == 0 else new.T
        if is_pc_codeword(pc, dec):
            return dec, it, True
    return dec, l_max, False


def test_tpd_matches_row_by_row_reference(comp15, p):
    pc = ProductCodeSpec(comp15)
    rng = np.random.default_rng(65)
    # two iterations: one frame stops after the first, one never converges
    iterations = []
    for ebno in (2.5, 2.5, 3.0, 3.0, 3.5):
        params = ChannelParams.make(ebno, pc.rate)
        c = pc_encode(pc, rng.integers(0, 2, (pc.k, pc.k)))
        L = llr(transmit(modulate(c), params, rng), params)
        res = tpd_decode(pc, L, p, l_max=2)
        array, used, ok = ref_tpd(pc, L, p, 2)
        assert np.array_equal(res.array, array)
        assert (res.iterations_used, res.converged) == (used, ok)
        iterations.append(used if ok else None)
    assert {1, 2, None} <= set(iterations)


def test_tpd_rejects_more_chase_bits_than_the_component_length():
    # n = 8: p = 9 test bits do not fit a row, which the config already says
    with pytest.raises(ValueError, match=r"p = 9 .* n = 8"):
        SimConfig("tpd", code_m=3, code_t=1, chase_p=9, max_frames=1)
    pc = SimConfig("tpd", code_m=3, code_t=1, chase_p=8, max_frames=1).product_spec()
    with pytest.raises(ValueError, match=r"p = 9 .* n = 8"):
        tpd_stack(pc, np.ones((1, 8, 8)), 9, 1)
    # p = n still runs: every bit of a row is a test bit
    assert tpd_stack(pc, np.ones((1, 8, 8)), 8, 1).converged.all()


def test_chase_extrinsic_independent_of_own_input_at_fallback_bits(comp15, cw15, p):
    # where no competitor exists the extrinsic is beta * decision sign: it
    # must not move when that bit's own input magnitude changes (as long
    # as the hard decision and the least-reliable set stay put)
    c = cw15[17]
    soft = 4.0 * (1.0 - 2.0 * c)
    ext, decision = ref_chase(comp15, soft, p, 2)
    got = _chase_batch(comp15, soft[None], p, 2)[0][0]
    fallback = np.flatnonzero(np.abs(np.abs(got) -
                                     ALPHA[2] * BETA[2]) < 1e-12)
    assert fallback.size > 0
    j = int(fallback[0])
    bumped = soft.copy()
    bumped[j] *= 1.7
    got2 = _chase_batch(comp15, bumped[None], p, 2)[0][0]
    assert got2[j] == got[j]
