import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_codewords
from pcdec import bch
from pcdec.channel import ChannelParams, frame_rng, llr, modulate, transmit
from pcdec.gf import build_field
from pcdec.product import ProductCodeSpec, is_pc_codeword, pc_encode
from pcdec.kernels import kernel_for
from pcdec.harness import SimConfig
from pcdec.tpd import ChaseConfig, _chase_batch, tpd_decode, tpd_stack


@pytest.fixture(scope="module")
def comp15():
    return bch.construct_ebch(build_field(4), 2, extend=False)


@pytest.fixture(scope="module")
def cw15(comp15):
    return all_codewords(comp15)


@pytest.fixture(scope="module")
def cfg():
    return ChaseConfig.default(l_max=10)


def ref_chase(spec, soft_in, cfg, half_iter):
    """Plain-loop reference for the Chase component decoding; also returns
    the decision codeword (None when every pattern fails)."""
    n = spec.n
    hard = (soft_in < 0).astype(np.uint8)
    mag = np.abs(soft_in)
    least = np.argsort(mag, kind="stable")[: cfg.p]
    cands, metrics = [], []
    for s in range(1 << cfg.p):
        trial = hard.copy()
        for j in range(cfg.p):
            if (s >> j) & 1:
                trial[least[j]] ^= 1
        out = bch.bdd(spec, trial)
        if out.corrected:
            cands.append(out.word)
            metrics.append(float(mag[out.word != hard].sum()))
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
            w[i] = cfg.beta(half_iter) * dsign[i]
    return cfg.alpha(half_iter) * w, decision


def test_chase_config_defaults():
    c = ChaseConfig.default(l_max=10)
    assert c.p == 4
    assert len(c.alpha_schedule) >= 20 and len(c.beta_schedule) >= 20
    assert c.alpha_schedule[:6] == (0.2, 0.3, 0.5, 0.7, 0.9, 1.0)
    assert c.beta_schedule[:5] == (0.2, 0.4, 0.6, 0.8, 1.0)
    assert c.alpha(100) == 1.0
    with pytest.raises(ValueError):
        ChaseConfig(p=0, alpha_schedule=(1.0,), beta_schedule=(1.0,))
    # a row's 2^p test words must fit one kernel call
    assert ChaseConfig(p=12, alpha_schedule=(1.0,), beta_schedule=(1.0,)).p == 12
    with pytest.raises(ValueError, match="p must be between 1 and 12"):
        ChaseConfig(p=13, alpha_schedule=(1.0,), beta_schedule=(1.0,))


def test_chase_noiseless_decision_and_extrinsic_signs(comp15, cw15, cfg):
    c = cw15[90]
    soft = 5.0 * (1.0 - 2.0 * c)
    ext = _chase_batch(comp15, soft[None], cfg, half_iter=0)[0][0]
    # extrinsics all point toward the decided codeword
    assert ((1.0 - 2.0 * c) * ext >= 0).all()
    _, decision = ref_chase(comp15, soft, cfg, 0)
    assert np.array_equal(decision, c)
    assert np.array_equal(((soft + ext) < 0).astype(np.uint8), c)


def test_chase_matches_reference(comp15, cfg):
    rng = np.random.default_rng(61)
    for trial in range(100):
        soft = rng.normal(0, 2, 15)
        for half in (0, 3, 7):
            got = _chase_batch(comp15, soft[None], cfg, half)[0][0]
            want, _ = ref_chase(comp15, soft, cfg, half)
            assert np.allclose(got, want, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(m=st.sampled_from([4, 6]), extend=st.booleans(), nrows=st.integers(2, 40),
       quantized=st.booleans(), half=st.integers(0, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_chase_batch_rows_equal_single_rows(m, extend, nrows, quantized, half, seed):
    # noisy codewords; quantized inputs tie on |soft| and include zeros
    spec = bch.construct_ebch(build_field(m), 2, extend=extend)
    cfg = ChaseConfig.default(l_max=4)
    rng = np.random.default_rng(seed)
    cw = kernel_for(spec).encode(rng.integers(0, 2, (nrows, spec.k)))
    soft = 2.0 * (1.0 - 2.0 * cw) + rng.normal(0, 1.5, cw.shape)
    if quantized:
        soft = np.round(soft)
    ext, dec = _chase_batch(spec, soft, cfg, half)
    for i in range(nrows):
        ext_i, dec_i = _chase_batch(spec, soft[i:i + 1], cfg, half)
        assert np.array_equal(ext[i], ext_i[0])
        assert np.array_equal(dec[i], dec_i[0])


def test_chase_pattern_list_recovers_beyond_t(comp15, cw15, cfg):
    # three errors (> t) parked on the least reliable positions: only test
    # patterns flipping them leave a decodable word, and the decision is
    # the transmitted codeword
    c = cw15[5]
    soft = 4.0 * (1.0 - 2.0 * c)
    soft[[2, 6, 11]] *= -0.03  # errors, and the three least reliable bits
    assert not bch.bdd(comp15, (soft < 0).astype(np.uint8)).corrected \
        or not np.array_equal(bch.bdd(comp15, (soft < 0).astype(np.uint8)).word, c)
    ext, decision = ref_chase(comp15, soft, cfg, 0)
    assert np.array_equal(decision, c)
    got = _chase_batch(comp15, soft[None], cfg, half_iter=0)[0][0]
    assert np.allclose(got, ext, atol=1e-12)
    # the error bits that found competitors are pulled toward the decision
    assert ((soft + got) < 0).astype(np.uint8)[2] == c[2]
    assert ((soft + got) < 0).astype(np.uint8)[11] == c[11]


def test_chase_single_weak_error(comp15, cw15, cfg):
    # corrected by the unmodified test pattern's BDD already
    c = cw15[42]
    soft = 3.0 * (1.0 - 2.0 * c)
    soft[7] *= -0.1
    _, decision = ref_chase(comp15, soft, cfg, 1)
    assert np.array_equal(decision, c)
    got = _chase_batch(comp15, soft[None], cfg, half_iter=1)[0][0]
    want, _ = ref_chase(comp15, soft, cfg, 1)
    assert np.allclose(got, want, atol=1e-12)


def test_chase_all_fail_gives_zero_extrinsic(cfg):
    spec = bch.construct_ebch(build_field(4), 2, extend=True)  # (16,7,6)
    rng = np.random.default_rng(62)
    for _ in range(500):
        soft = rng.normal(0, 1, 16)
        _, decision = ref_chase(spec, soft, cfg, 0)
        if decision is None:
            ext = _chase_batch(spec, soft[None], cfg, half_iter=0)[0][0]
            assert np.array_equal(ext, np.zeros(16))
            return
    pytest.fail("no all-fail instance found")


def test_tpd_first_input_is_llr_matrix(comp15, cfg):
    # one iteration on strong LLRs: rows see exactly L (zero extrinsics)
    pc = ProductCodeSpec(comp15)
    L = np.full((15, 15), 6.0)
    res = tpd_decode(pc, L, cfg, l_max=1)
    assert res.converged
    assert not res.array.any()


def test_tpd_corrects_noisy_frame(comp15, cfg):
    pc = ProductCodeSpec(comp15)
    params = ChannelParams.make(3.0, pc.rate)
    rng = frame_rng(63, 0)
    c = np.zeros((15, 15), dtype=np.uint8)
    L = llr(transmit(modulate(c), params, rng), params)
    res = tpd_decode(pc, L, cfg, l_max=6)
    assert res.converged
    assert not res.array.any()
    assert res.op_counters["bdd_calls"] == 2 * 15 * 16 * res.iterations_used


def test_tpd_fixed_point_persists(comp15, cfg):
    pc = ProductCodeSpec(comp15)
    params = ChannelParams.make(3.5, pc.rate)
    checked = 0
    for seed in range(20):
        rng = frame_rng(64 + seed, 0)
        c = np.zeros((15, 15), dtype=np.uint8)
        L = llr(transmit(modulate(c), params, rng), params)
        short = tpd_decode(pc, L, cfg, l_max=4)
        if not short.converged:
            continue
        longer = tpd_decode(pc, L, cfg, l_max=8)
        assert np.array_equal(short.array, longer.array)
        assert is_pc_codeword(pc, longer.array)
        checked += 1
    assert checked >= 5


def ref_tpd(pc, L, cfg, l_max):
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
                new[a], word = ref_chase(pc.component, soft, cfg, half)
                dec_t[a] = (soft < 0) if word is None else word
            ext = new if half % 2 == 0 else new.T
        if is_pc_codeword(pc, dec):
            return dec, it, True
    return dec, l_max, False


def test_tpd_matches_row_by_row_reference(comp15, cfg):
    pc = ProductCodeSpec(comp15)
    rng = np.random.default_rng(65)
    # two iterations: one frame stops after the first, one never converges
    iterations = []
    for ebno in (2.5, 2.5, 3.0, 3.0, 3.5):
        params = ChannelParams.make(ebno, pc.rate)
        c = pc_encode(pc, rng.integers(0, 2, (pc.k, pc.k)))
        L = llr(transmit(modulate(c), params, rng), params)
        res = tpd_decode(pc, L, cfg, l_max=2)
        array, used, ok = ref_tpd(pc, L, cfg, 2)
        assert np.array_equal(res.array, array)
        assert (res.iterations_used, res.converged) == (used, ok)
        iterations.append(used if ok else None)
    assert {1, 2, None} <= set(iterations)


def test_tpd_rejects_short_schedules(comp15):
    pc = ProductCodeSpec(comp15)
    cfg = ChaseConfig(p=4, alpha_schedule=(0.2, 0.3), beta_schedule=(0.2, 0.4))
    with pytest.raises(ValueError):
        tpd_decode(pc, np.ones((15, 15)), cfg, l_max=4)


def test_tpd_rejects_more_chase_bits_than_the_component_length():
    # n = 8: p = 9 test bits do not fit a row, which the config already says
    with pytest.raises(ValueError, match=r"p = 9 .* n = 8"):
        SimConfig("tpd", code_m=3, code_t=1, chase_p=9, max_frames=1)
    pc = SimConfig("tpd", code_m=3, code_t=1, chase_p=8, max_frames=1).product_spec()
    with pytest.raises(ValueError, match=r"p = 9 .* n = 8"):
        tpd_stack(pc, np.ones((1, 8, 8)), ChaseConfig.default(1, p=9), 1)
    # p = n still runs: every bit of a row is a test bit
    assert tpd_stack(pc, np.ones((1, 8, 8)), ChaseConfig.default(1, p=8), 1).converged.all()


def test_chase_extrinsic_independent_of_own_input_at_fallback_bits(comp15, cw15, cfg):
    # where no competitor exists the extrinsic is beta * decision sign: it
    # must not move when that bit's own input magnitude changes (as long
    # as the hard decision and the least-reliable set stay put)
    c = cw15[17]
    soft = 4.0 * (1.0 - 2.0 * c)
    ext, decision = ref_chase(comp15, soft, cfg, 2)
    got = _chase_batch(comp15, soft[None], cfg, 2)[0][0]
    fallback = np.flatnonzero(np.abs(np.abs(got) -
                                     cfg.alpha(2) * cfg.beta(2)) < 1e-12)
    assert fallback.size > 0
    j = int(fallback[0])
    bumped = soft.copy()
    bumped[j] *= 1.7
    got2 = _chase_batch(comp15, bumped[None], cfg, 2)[0][0]
    assert got2[j] == got[j]
