import numpy as np
import pytest

from helpers import (
    TooManyErasuresError,
    all_codewords,
    error_erasure_decode,
    genie_bdd,
    oracle_bdd,
)
from pcdec.bch import UnsupportedParametersError, bdd, construct_ebch, encode, syndromes
from pcdec.gf import alpha_pow, build_field


@pytest.fixture(scope="module")
def bch15():
    return construct_ebch(build_field(4), t_design=2, extend=False)


@pytest.fixture(scope="module")
def cw15(bch15):
    return all_codewords(bch15)


def polymul_gf2(a, b):
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def test_construct_256_239_6():
    spec = construct_ebch(build_field(8), t_design=2, extend=True)
    assert (spec.n, spec.k, spec.d_min, spec.t) == (256, 239, 6, 2)
    assert spec.extended
    # generator = product of the minimal polynomials of alpha (the
    # primitive polynomial) and alpha^3, multiplied here independently of
    # the library's polynomial arithmetic
    assert build_field(8).primitive_poly == 0x11D
    assert spec.generator_poly == polymul_gf2(0x11D, 0x177) == 0x16F63


def test_construct_15_7_5(bch15):
    assert (bch15.n, bch15.k, bch15.d_min, bch15.t) == (15, 7, 5, 2)
    assert bch15.generator_poly.bit_length() - 1 == 8
    # x^8+x^7+x^6+x^4+1, the standard generator for this code
    assert bch15.generator_poly == 0b111010001


@pytest.mark.parametrize("m,t,n,k,octal", [
    (4, 1, 15, 11, "23"), (4, 2, 15, 7, "721"), (4, 3, 15, 5, "2467"),
    (5, 2, 31, 21, "3551"), (5, 3, 31, 16, "107657"),
    (6, 2, 63, 51, "12471"), (6, 3, 63, 45, "1701317"),
    (7, 2, 127, 113, "41567"),
    (8, 1, 255, 247, "435"), (8, 2, 255, 239, "267543"),
    (8, 3, 255, 231, "156720665"),
])
def test_construct_matches_standard_generators(m, t, n, k, octal):
    # (n, k) and the octal generator of each primitive narrow-sense BCH
    # code, as tabulated in the literature (Lin & Costello, Appendix C)
    spec = construct_ebch(build_field(m), t_design=t, extend=False)
    assert (spec.n, spec.k) == (n, k)
    assert spec.generator_poly == int(octal, 8)


def test_construct_64_51_6():
    spec = construct_ebch(build_field(6), t_design=2, extend=True)
    assert (spec.n, spec.k, spec.d_min, spec.t) == (64, 51, 6, 2)
    assert spec.generator_poly.bit_length() - 1 == 12


def test_construct_rejects_overlong():
    with pytest.raises(UnsupportedParametersError):
        construct_ebch(build_field(2), t_design=2, extend=False)


def test_encode_zero(bch15):
    assert not encode(bch15, np.zeros(7, dtype=np.uint8)).any()
    e = construct_ebch(build_field(6), 2, extend=True)
    assert not encode(e, np.zeros(51, dtype=np.uint8)).any()


@pytest.mark.parametrize("m,extend", [(4, False), (4, True), (6, True), (8, True)])
def test_encode_yields_codewords(m, extend):
    spec = construct_ebch(build_field(m), 2, extend=extend)
    rng = np.random.default_rng(3)
    for _ in range(20):
        msg = rng.integers(0, 2, spec.k).astype(np.uint8)
        cw = encode(spec, msg)
        syn, parity = syndromes(spec, cw)
        assert all(s == 0 for s in syn)
        if extend:
            assert parity == 0
            assert cw[-1] == cw[:-1].sum() % 2


def test_encode_systematic(bch15):
    rng = np.random.default_rng(4)
    msg = rng.integers(0, 2, 7).astype(np.uint8)
    cw = encode(bch15, msg)
    assert np.array_equal(cw[8:], msg)


def test_min_weight_15_7_is_5(cw15):
    weights = cw15.sum(axis=1)
    assert weights[0] == 0
    assert weights[1:].min() == 5


def test_syndromes_single_error(bch15):
    f = bch15.field
    for p in (0, 3, 14):
        r = np.zeros(15, dtype=np.uint8)
        r[p] = 1
        syn, parity = syndromes(bch15, r)
        assert parity is None
        assert syn == [alpha_pow(f, j * p) for j in (1, 2, 3, 4)]


def test_syndromes_extension_bit_error():
    spec = construct_ebch(build_field(6), 2, extend=True)
    r = np.zeros(64, dtype=np.uint8)
    r[63] = 1
    syn, parity = syndromes(spec, r)
    assert all(s == 0 for s in syn)
    assert parity == 1


def test_bdd_corrects_up_to_t(bch15, cw15):
    rng = np.random.default_rng(5)
    for _ in range(200):
        c = cw15[rng.integers(len(cw15))]
        e = rng.choice(15, size=rng.integers(0, 3), replace=False)
        r = c.copy()
        r[e] ^= 1
        out = bdd(bch15, r)
        assert out.corrected
        assert np.array_equal(out.word, c)
        assert out.flips == frozenset(int(p) for p in e)


def test_bdd_codeword_fixed_point(bch15, cw15):
    out = bdd(bch15, cw15[77])
    assert out.corrected and out.flips == frozenset()
    assert np.array_equal(out.word, cw15[77])


def test_bdd_failure_echoes_input(bch15, cw15):
    rng = np.random.default_rng(6)
    seen_failure = False
    for _ in range(500):
        c = cw15[rng.integers(len(cw15))]
        e = rng.choice(15, size=3, replace=False)
        r = c.copy()
        r[e] ^= 1
        expect_ok, expect_word = oracle_bdd(cw15, r, t=2)
        out = bdd(bch15, r)
        assert out.corrected == expect_ok
        assert np.array_equal(out.word, expect_word)
        if not expect_ok:
            seen_failure = True
            assert np.array_equal(out.word, r)
    assert seen_failure


def test_bdd_miscorrection_matches_eq2(bch15, cw15):
    # r at distance 3 from the transmitted c but 2 from another codeword
    c = cw15[1]
    dists = (cw15 != c[None, :]).sum(axis=1)
    idx = np.flatnonzero(dists == 5)[0]
    c_alt = cw15[idx]
    diff = np.flatnonzero(c != c_alt)
    r = c.copy()
    r[diff[:3]] ^= 1  # 3 of the 5 differing bits -> distance 2 from c_alt
    assert (r != c).sum() == 3 and (r != c_alt).sum() == 2
    out = bdd(bch15, r)
    assert out.corrected
    assert np.array_equal(out.word, c_alt)


def test_bdd_extended_code_random_vs_oracle():
    spec = construct_ebch(build_field(4), 2, extend=True)  # (16, 7, 6)
    cws = all_codewords(spec)
    rng = np.random.default_rng(8)
    for _ in range(1500):
        r = rng.integers(0, 2, 16).astype(np.uint8)
        expect_ok, expect_word = oracle_bdd(cws, r, t=2)
        out = bdd(spec, r)
        assert out.corrected == expect_ok
        assert np.array_equal(out.word, expect_word)


def test_error_erasure_pure_erasures(bch15, cw15):
    rng = np.random.default_rng(9)
    for _ in range(100):
        c = cw15[rng.integers(len(cw15))]
        era = rng.choice(15, size=4, replace=False)  # d_min - 1 erasures
        r = c.copy()
        r[era] = rng.integers(0, 2, 4)
        out = error_erasure_decode(bch15, r, era)
        assert out.corrected
        assert np.array_equal(out.word, c)


def test_error_erasure_within_bound(bch15, cw15):
    rng = np.random.default_rng(10)
    for _ in range(500):
        c = cw15[rng.integers(len(cw15))]
        while True:
            e = int(rng.integers(0, 3))
            s = int(rng.integers(0, 5))
            if 2 * e + s <= 4:
                break
        picks = rng.choice(15, size=e + s, replace=False)
        err, era = picks[:e], picks[e:]
        r = c.copy()
        r[err] ^= 1
        r[era] = rng.integers(0, 2, s)
        out = error_erasure_decode(bch15, r, era)
        assert out.corrected
        assert np.array_equal(out.word, c)
        assert len(out.flips) <= bch15.t + s


def test_error_erasure_zero_erasures_is_bdd(bch15):
    rng = np.random.default_rng(11)
    for _ in range(300):
        r = rng.integers(0, 2, 15).astype(np.uint8)
        a = bdd(bch15, r)
        b = error_erasure_decode(bch15, r, [])
        assert a.corrected == b.corrected
        assert np.array_equal(a.word, b.word)
        assert a.flips == b.flips


def test_error_erasure_failure_echoes(bch15, cw15):
    rng = np.random.default_rng(12)
    seen = False
    for _ in range(400):
        r = rng.integers(0, 2, 15).astype(np.uint8)
        era = rng.choice(15, size=1, replace=False)
        out = error_erasure_decode(bch15, r, era)
        if not out.corrected:
            seen = True
            assert np.array_equal(out.word, r)
            assert out.flips == frozenset()
    assert seen


def test_error_erasure_rejects_too_many(bch15):
    with pytest.raises(TooManyErasuresError):
        error_erasure_decode(bch15, np.zeros(15, dtype=np.uint8), range(5))


def test_flip_counts_bounded(bch15):
    rng = np.random.default_rng(14)
    for _ in range(400):
        r = rng.integers(0, 2, 15).astype(np.uint8)
        assert len(bdd(bch15, r).flips) <= bch15.t
        s = int(rng.integers(0, 5))
        era = rng.choice(15, size=s, replace=False)
        out = error_erasure_decode(bch15, r, era)
        assert len(out.flips) <= bch15.t + s


def test_genie_passes_true_corrections(bch15, cw15):
    c = cw15[33]
    r = c.copy()
    r[[2, 9]] ^= 1
    out = genie_bdd(bch15, r, c)
    assert out.corrected and np.array_equal(out.word, c)


def test_genie_blocks_miscorrection(bch15, cw15):
    c = cw15[1]
    dists = (cw15 != c[None, :]).sum(axis=1)
    c_alt = cw15[np.flatnonzero(dists == 5)[0]]
    diff = np.flatnonzero(c != c_alt)
    r = c.copy()
    r[diff[:3]] ^= 1
    assert bdd(bch15, r).corrected  # plain BDD miscorrects here
    out = genie_bdd(bch15, r, c)
    assert not out.corrected
    assert np.array_equal(out.word, r)


def test_genie_passes_failures(bch15, cw15):
    rng = np.random.default_rng(13)
    for _ in range(200):
        c = cw15[rng.integers(len(cw15))]
        r = rng.integers(0, 2, 15).astype(np.uint8)
        plain = bdd(bch15, r)
        g = genie_bdd(bch15, r, c)
        if not plain.corrected:
            assert not g.corrected and np.array_equal(g.word, r)
