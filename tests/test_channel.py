import numpy as np
import pytest
from scipy.stats import norm

from pcdec.channel import (
    ChannelParams,
    frame_rng,
    hard_decide,
    llr,
    modulate,
    transmit,
)
from pcdec.harness import SimConfig, _FrameSimulator
from pcdec.product import pc_encode


def test_modulate():
    bits = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    x = modulate(bits)
    assert np.array_equal(x, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(modulate(np.zeros((3, 3))), np.ones((3, 3)))


def test_sigma2_formula():
    p = ChannelParams.make(4.0, 0.8622)
    assert p.sigma2 == pytest.approx(0.23087, abs=1e-4)
    assert p.sigma2 == pytest.approx(1.0 / (2 * 0.8622 * 10 ** 0.4), rel=1e-12)
    with pytest.raises(ValueError):
        ChannelParams.make(4.0, 1.5)


@pytest.mark.parametrize("ebno_db", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_ebno_is_rejected(ebno_db):
    # NaN gave a silent error-free point, -inf a ZeroDivisionError and +inf
    # sigma2 = 0, which divides the LLRs by zero
    with pytest.raises(ValueError, match=f"Eb/N0 must be finite, got {ebno_db} dB"):
        ChannelParams.make(ebno_db, 0.5)


def test_noise_variance_statistics():
    p = ChannelParams.make(3.0, 0.5)
    rng = np.random.default_rng(41)
    x = np.zeros(1_000_000)
    z = transmit(x, p, rng)
    assert z.var() == pytest.approx(p.sigma2, rel=0.01)
    assert abs(z.mean()) < 4 * np.sqrt(p.sigma2 / len(z))


def test_llr_scaling_and_sign():
    p = ChannelParams.make(2.0, 0.5)
    y = np.array([0.0, 1.3, -0.2])
    L = llr(y, p)
    assert L[0] == 0.0
    assert np.array_equal(hard_decide(L), [0, 0, 1])
    assert np.allclose(llr(3.0 * y, p), 3.0 * L, rtol=1e-14)


def test_hard_decide_convention():
    assert hard_decide(np.array([3.0])) == [0]
    assert hard_decide(np.array([-3.0])) == [1]
    assert hard_decide(np.array([0.0])) == [0]


def test_noiseless_roundtrip():
    rng = np.random.default_rng(42)
    bits = rng.integers(0, 2, (16, 16)).astype(np.uint8)
    p = ChannelParams.make(40.0, 0.9)  # essentially noiseless
    y = transmit(modulate(bits), p, rng)
    assert np.array_equal(hard_decide(llr(y, p)), bits)


def test_prefec_ber_matches_q_function():
    for ebno_db, rate in [(2.0, 0.8622), (4.0, 0.8622), (6.0, 0.8622)]:
        p = ChannelParams.make(ebno_db, rate)
        rng = np.random.default_rng(43)
        nbits = 2_000_000
        bits = np.zeros(nbits, dtype=np.uint8)
        out = hard_decide(llr(transmit(modulate(bits), p, rng), p))
        ber = out.mean()
        q = norm.sf(1.0 / np.sqrt(p.sigma2))
        tol = 3 * np.sqrt(q * (1 - q) / nbits)
        assert abs(ber - q) < tol


def test_frame_rng_deterministic_and_distinct():
    a = frame_rng(7, 3).normal(size=5)
    b = frame_rng(7, 3).normal(size=5)
    c = frame_rng(7, 4).normal(size=5)
    d = frame_rng(8, 3).normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("transmission", ["all-zero", "random"])
@pytest.mark.parametrize("algorithm", ["none", "ibdd-sr"])  # HD and SD
def test_simulator_channel_matches_normal_draws(algorithm, transmission):
    # the simulator draws each frame's noise in place; its channel stack
    # must equal x + rng.normal(0, sigma, size), then y < 0 (HD) or the LLRs
    # 2y/sigma2 (SD), bit for bit, on each frame's own stream
    cfg = SimConfig(algorithm, code_m=6, transmission=transmission, master_seed=9)
    sim = _FrameSimulator(cfg, 3.5)
    seen = {}
    decode = sim.decode

    def spy(s, channel, sent):
        seen["channel"], seen["sent"] = channel.copy(), sent.copy()
        return decode(s, channel, sent)

    sim.decode = spy
    errs = sim(3, 9)
    spec, sigma2 = sim.spec, sim.params.sigma2
    for b, frame_index in enumerate(range(3, 9)):
        rng = frame_rng(9, frame_index)
        c = np.zeros((spec.n, spec.n), dtype=np.uint8)
        if transmission == "random":
            c = pc_encode(spec, rng.integers(0, 2, (spec.k, spec.k)).astype(np.uint8))
        y = modulate(c) + rng.normal(0.0, np.sqrt(sigma2), size=c.shape)
        want = (y < 0).astype(np.uint8) if algorithm == "none" else 2.0 * y / sigma2
        assert seen["channel"][b].dtype == want.dtype
        assert seen["channel"][b].tobytes() == want.tobytes()
        assert np.array_equal(seen["sent"][b], c)
        if algorithm == "none":
            assert errs[b] == np.count_nonzero(want != c)
    assert transmission == "all-zero" or seen["sent"].any()
    assert seen["channel"].any() and all(type(e) is int for e in errs)
