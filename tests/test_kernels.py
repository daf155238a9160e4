import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcdec.bch import bdd, construct_ebch, encode, genie_bdd
from pcdec.gf import build_field
from pcdec.kernels import kernel_for, least_reliable


def all_words(n_bits):
    return ((np.arange(1 << n_bits)[:, None] >> np.arange(n_bits)[None, :]) & 1
            ).astype(np.uint8)


def scalar_reference(spec, words):
    out = words.copy()
    ok = np.zeros(len(words), dtype=bool)
    for i, w in enumerate(words):
        res = bdd(spec, w)
        out[i], ok[i] = res.word, res.corrected
    return out, ok


def test_batch_matches_scalar_exhaustive_15_7():
    spec = construct_ebch(build_field(4), 2, extend=False)
    kern = kernel_for(spec)
    words = all_words(15)
    out, ok = kern.batch_bdd(words)
    ref_out, ref_ok = scalar_reference(spec, words)
    assert np.array_equal(ok, ref_ok)
    assert np.array_equal(out, ref_out)


def test_batch_matches_scalar_extended_16_7():
    spec = construct_ebch(build_field(4), 2, extend=True)
    kern = kernel_for(spec)
    rng = np.random.default_rng(21)
    words = rng.integers(0, 2, size=(20000, 16)).astype(np.uint8)
    out, ok = kern.batch_bdd(words)
    ref_out, ref_ok = scalar_reference(spec, words)
    assert np.array_equal(ok, ref_ok)
    assert np.array_equal(out, ref_out)


@pytest.mark.parametrize("m,extend", [(6, True), (8, True)])
def test_batch_matches_scalar_larger_codes(m, extend):
    spec = construct_ebch(build_field(m), 2, extend=extend)
    kern = kernel_for(spec)
    rng = np.random.default_rng(22)
    # mix of light error patterns (decodable region) and uniform noise
    zero = np.zeros((1500, spec.n), dtype=np.uint8)
    for row in zero:
        e = rng.integers(0, 5)
        row[rng.choice(spec.n, size=e, replace=False)] = 1
    uniform = rng.integers(0, 2, size=(500, spec.n)).astype(np.uint8)
    words = np.concatenate([zero, uniform])
    out, ok = kern.batch_bdd(words)
    ref_out, ref_ok = scalar_reference(spec, words)
    assert np.array_equal(ok, ref_ok)
    assert np.array_equal(out, ref_out)


def test_batch_generic_t3_fallback():
    spec = construct_ebch(build_field(4), 3, extend=False)  # (15, 5, 7)
    kern = kernel_for(spec)
    rng = np.random.default_rng(23)
    words = rng.integers(0, 2, size=(400, 15)).astype(np.uint8)
    out, ok = kern.batch_bdd(words)
    ref_out, ref_ok = scalar_reference(spec, words)
    assert np.array_equal(ok, ref_ok)
    assert np.array_equal(out, ref_out)


def test_codeword_mask():
    spec = construct_ebch(build_field(6), 2, extend=True)
    kern = kernel_for(spec)
    rng = np.random.default_rng(24)
    cws = np.stack([encode(spec, rng.integers(0, 2, spec.k).astype(np.uint8))
                    for _ in range(50)])
    assert kern.codeword_mask(cws).all()
    dirty = cws.copy()
    dirty[:, 5] ^= 1
    assert not kern.codeword_mask(dirty).any()


def test_batch_genie_matches_scalar():
    spec = construct_ebch(build_field(4), 2, extend=False)
    kern = kernel_for(spec)
    rng = np.random.default_rng(25)
    c = encode(spec, rng.integers(0, 2, 7).astype(np.uint8))
    words = np.tile(c, (3000, 1))
    flips = rng.integers(0, 2, size=words.shape).astype(np.uint8)
    words ^= (flips & (rng.random(words.shape) < 0.25)).astype(np.uint8)
    true = np.tile(c, (3000, 1))
    out, ok = kern.batch_genie(words, true)
    for i, w in enumerate(words):
        ref = genie_bdd(spec, w, c)
        assert ok[i] == ref.corrected
        assert np.array_equal(out[i], ref.word)


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("extend", [False, True])
@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_generator_encode_matches_scalar(m, t, extend):
    spec = construct_ebch(build_field(m), t, extend=extend)
    kern = kernel_for(spec)
    rng = np.random.default_rng([26, m, t, extend])
    msgs = np.concatenate([np.eye(spec.k, dtype=np.uint8),
                           rng.integers(0, 2, (40, spec.k)).astype(np.uint8)])
    out = kern.encode(msgs)
    assert out.dtype == np.uint8
    assert np.array_equal(out, np.stack([encode(spec, msg) for msg in msgs]))


@st.composite
def reliabilities(draw):
    """Rows of nonnegative values with planted ties and zeros, and k."""
    n = draw(st.sampled_from([16, 64, 256]))
    k = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    # few distinct levels force ties across the k-th value; zeros included
    levels = draw(st.sampled_from([2, 3, 8, 1000]))
    values = rng.integers(0, levels, (rows, n)) * draw(st.sampled_from([0.5, 1.7]))
    if draw(st.booleans()):
        values = values + rng.random((rows, n)) * (rng.random((rows, n)) < 0.5)
    return values, k


@settings(deadline=None, max_examples=300)
@given(reliabilities())
def test_least_reliable_equals_stable_argsort_prefix(case):
    values, k = case
    want = np.argsort(values, axis=1, kind="stable")[:, :k]
    assert np.array_equal(least_reliable(values, k), want)
