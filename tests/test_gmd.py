import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    GmdOutcome,
    ReliabilityVector,
    all_codewords,
    batch_gmd_without_skip,
    error_erasure_decode,
    generalized_distance,
    gmd_decode,
)
from pcdec.bch import UnsupportedParametersError, bdd, construct_ebch
from pcdec.gf import build_field
from pcdec.gmd import batch_gmd, erasure_profile
from pcdec.kernels import kernel_for


@pytest.fixture(scope="module")
def bch15():
    return construct_ebch(build_field(4), 2, extend=False)


@pytest.fixture(scope="module")
def cw15(bch15):
    return all_codewords(bch15)


def eq3_reference(r, c_hat, alphas):
    """Independent scorer for the generalized distance."""
    total = 0.0
    for ri, ci, a in zip(r, c_hat, alphas):
        total += (1 - a) if ri == ci else (1 + a)
    return total


def test_erasure_profile():
    assert erasure_profile(6) == [5, 3]
    assert erasure_profile(5) == [4, 2]
    assert erasure_profile(3) == [2]
    with pytest.raises(ValueError):
        erasure_profile(2)


def test_profile_trial_count_is_t_plus_1():
    for d in (3, 4, 5, 6, 7, 8):
        t = (d - 1) // 2
        assert len(erasure_profile(d)) + 1 == t + 1


def test_generalized_distance_uniform_is_twice_hamming():
    rng = np.random.default_rng(31)
    r = rng.integers(0, 2, 15).astype(np.uint8)
    c = rng.integers(0, 2, 15).astype(np.uint8)
    rel = ReliabilityVector.from_values(np.full(15, 2.7))
    assert generalized_distance(r, c, rel) == 2 * int((r != c).sum())


def test_generalized_distance_agreement_only():
    rng = np.random.default_rng(32)
    r = rng.integers(0, 2, 10).astype(np.uint8)
    vals = rng.random(10)
    rel = ReliabilityVector.from_values(vals)
    d = generalized_distance(r, r, rel)
    assert d == pytest.approx(np.sum(1 - rel.alphas))
    assert d <= 10


def test_generalized_distance_hand_example():
    r = np.array([0, 0, 0], dtype=np.uint8)
    c = np.array([0, 1, 0], dtype=np.uint8)
    rel = ReliabilityVector.from_values([1.0, 0.5, 0.25])
    assert generalized_distance(r, c, rel) == pytest.approx(2.25)


def test_reliability_all_zero_degrades_to_ones():
    rel = ReliabilityVector.from_values(np.zeros(5))
    assert np.array_equal(rel.alphas, np.ones(5))


def test_gmd_matches_bdd_under_uniform_reliability(bch15, cw15):
    rng = np.random.default_rng(33)
    rel = ReliabilityVector.from_values(np.ones(15))
    checked = 0
    for _ in range(2000):
        r = rng.integers(0, 2, 15).astype(np.uint8)
        b = bdd(bch15, r)
        if not b.corrected:
            continue
        g = gmd_decode(bch15, r, rel)
        assert g.corrected
        assert np.array_equal(g.word, b.word)
        assert g.metric == 2 * len(b.flips)
        checked += 1
    assert checked > 500


def test_gmd_beyond_half_distance(bch15, cw15):
    c = cw15[57]
    errs = np.array([1, 5, 9])
    r = c.copy()
    r[errs] ^= 1
    vals = np.ones(15)
    vals[errs] = 0.05
    vals[12] = 0.1  # fourth least reliable, error-free
    rel = ReliabilityVector.from_values(vals)
    out = gmd_decode(bch15, r, rel)
    assert out.corrected
    assert np.array_equal(out.word, c)
    # sanity: this is genuinely beyond BDD (distance 3 > t)
    b = bdd(bch15, r)
    assert not (b.corrected and np.array_equal(b.word, c))


def test_gmd_failure_echoes_input(bch15):
    rng = np.random.default_rng(34)
    seen = False
    for _ in range(3000):
        r = rng.integers(0, 2, 15).astype(np.uint8)
        rel = ReliabilityVector.from_values(rng.random(15))
        out = gmd_decode(bch15, r, rel)
        assert out.trials_attempted == bch15.t + 1
        if not out.corrected:
            seen = True
            assert np.array_equal(out.word, r)
            assert out.metric is None
            break
    assert seen


def test_gmd_scorer_decoder_decomposition(bch15):
    rng = np.random.default_rng(35)
    for _ in range(300):
        r = rng.integers(0, 2, 15).astype(np.uint8)
        vals = rng.random(15)
        rel = ReliabilityVector.from_values(vals)
        # independent trial enumeration + independent scorer
        sizes = [0] + sorted(erasure_profile(bch15.d_min))
        order = np.argsort(vals, kind="stable")
        best, best_metric = None, np.inf
        for m in sizes:
            out = error_erasure_decode(bch15, r, order[:m])
            if out.corrected:
                metric = eq3_reference(r, out.word, rel.alphas)
                if metric < best_metric - 1e-12:
                    best, best_metric = out.word, metric
        g = gmd_decode(bch15, r, rel)
        assert g.corrected == (best is not None)
        if best is not None:
            assert np.array_equal(g.word, best)
            assert g.metric == pytest.approx(best_metric)


def test_gmd_never_worse_than_bdd(bch15):
    rng = np.random.default_rng(36)
    for _ in range(500):
        r = rng.integers(0, 2, 15).astype(np.uint8)
        rel = ReliabilityVector.from_values(rng.random(15))
        b = bdd(bch15, r)
        if not b.corrected:
            continue
        g = gmd_decode(bch15, r, rel)
        assert g.corrected
        assert g.metric <= generalized_distance(r, b.word, rel) + 1e-12


def test_gmd_relabeling_equivariance(bch15):
    # relabelings must preserve the codebook, so use cyclic shifts
    # (automorphisms of the cyclic code); arbitrary permutations would
    # decode against a different code entirely
    rng = np.random.default_rng(37)
    for _ in range(200):
        r = rng.integers(0, 2, 15).astype(np.uint8)
        vals = rng.random(15)
        g = gmd_decode(bch15, r, ReliabilityVector.from_values(vals))
        shift = int(rng.integers(1, 15))
        perm = (np.arange(15) - shift) % 15  # new[i] = old[i - shift]
        gp = gmd_decode(bch15, r[perm], ReliabilityVector.from_values(vals[perm]))
        assert g.corrected == gp.corrected
        assert np.array_equal(gp.word, g.word[perm])


@st.composite
def gmd_rows(draw):
    """A t = 2 code with m = 4..6, rows near codewords (0-6 errors) or
    random, and reliabilities that are continuous or from two or three
    levels, with some rows all zero. With levels, the errors sit on
    zero-reliability bits half the time: then distinct candidates often
    tie on the generalized distance, and the first trial in order must
    win."""
    m = draw(st.sampled_from([4, 5, 6]))
    spec = construct_ebch(build_field(m), 2, extend=draw(st.booleans()))
    nrows = draw(st.integers(1, 64))
    levels = draw(st.sampled_from([None, 2, 3]))
    zero = draw(st.lists(st.booleans(), min_size=nrows, max_size=nrows))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    words = kernel_for(spec).encode(rng.integers(0, 2, (nrows, spec.k)))
    if levels is None:
        reliab = rng.random((nrows, spec.n))
    else:
        reliab = rng.integers(0, levels, (nrows, spec.n)).astype(np.float64)
    for row, rel in zip(words, reliab):
        if rng.random() < 0.1:
            row[:] = rng.integers(0, 2, spec.n)
            continue
        err = rng.choice(spec.n, size=rng.integers(0, 7), replace=False)
        row[err] ^= 1
        if rng.random() < 0.5:
            rel[err] = 0.0
    reliab[zero] = 0.0
    return spec, words, reliab


@settings(deadline=None, max_examples=60)
@given(case=gmd_rows())
def test_batch_gmd_matches_scalar(case):
    spec, words, reliab = case
    out, ok, stats = batch_gmd(spec, words, reliab)
    assert stats["attempts"] == len(words) * (spec.t + 1)
    for i in range(len(words)):
        ref = gmd_decode(spec, words[i], ReliabilityVector.from_values(reliab[i]))
        assert ok[i] == ref.corrected
        assert np.array_equal(out[i], ref.word)


@st.composite
def mixed_gmd_rows(draw):
    """A t = 2 or 3 code with m = 4..6, rows that are codewords mixed with
    rows near codewords (1 to d errors) or random, and reliabilities that
    are continuous, from two or three levels, or all zero."""
    m, t = draw(st.sampled_from([4, 5, 6])), draw(st.sampled_from([2, 3]))
    try:
        spec = construct_ebch(build_field(m), t, extend=draw(st.booleans()))
    except UnsupportedParametersError:
        assume(False)
    nrows = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["continuous", "levels", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    words = kernel_for(spec).encode(rng.integers(0, 2, (nrows, spec.k)))
    if kind == "continuous":
        reliab = rng.random((nrows, spec.n))
    else:
        reliab = rng.integers(0, 3, (nrows, spec.n)) * float(kind == "levels")
    for row in words[rng.random(nrows) < 0.6]:
        row[rng.choice(spec.n, size=rng.integers(1, spec.d_min + 1), replace=False)] ^= 1
    words[rng.random(nrows) < 0.1] = rng.integers(0, 2, spec.n)
    return spec, words, reliab


@settings(deadline=None, max_examples=60)
@given(case=mixed_gmd_rows())
def test_batch_gmd_skips_codewords_exactly(case):
    # codeword rows skip the trials: the words match gmd_decode row by row,
    # and the stats those of the trials run on every row
    spec, words, reliab = case
    out, ok, stats = batch_gmd(spec, words, reliab)
    for i in range(len(words)):
        ref = gmd_decode(spec, words[i], ReliabilityVector.from_values(reliab[i]))
        assert ok[i] == ref.corrected
        assert np.array_equal(out[i], ref.word)
    all_out, all_ok, all_stats = batch_gmd_without_skip(spec, words, reliab)
    assert stats.keys() == all_stats.keys()
    assert all(np.array_equal(stats[k], all_stats[k]) for k in stats)
    assert np.array_equal(out, all_out) and np.array_equal(ok, all_ok)
