import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import ascending_sum, genie_bdd, reference_keys
from pcdec import kernels
from pcdec.bch import UnsupportedParametersError, bdd, construct_ebch, encode, syndromes
from pcdec.gf import build_field
from pcdec.kernels import flip_support, kernel_for, least_reliable


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


def light_errors(spec, rng, rows):
    """Codewords with 0..t+2 flipped bits: decodable, miscorrected and
    failed words."""
    words = np.stack([encode(spec, rng.integers(0, 2, spec.k).astype(np.uint8))
                      for _ in range(rows)])
    for row in words:
        row[rng.choice(spec.n, size=rng.integers(0, spec.t + 3), replace=False)] ^= 1
    return words


# (15, 5, 7) decodes by table lookup; m = 8 is beyond MAX_KEY_BITS and
# decodes row by row
@pytest.mark.parametrize("m,extend", [(4, False), (8, True)])
def test_batch_generic_t3_fallback(m, extend):
    spec = construct_ebch(build_field(m), 3, extend=extend)
    kern = kernel_for(spec)
    rng = np.random.default_rng(23)
    words = rng.integers(0, 2, size=(400, spec.n)).astype(np.uint8)
    words = np.concatenate([words, light_errors(spec, rng, 200)])
    out, ok = kern.batch_bdd(words)
    ref_out, ref_ok = scalar_reference(spec, words)
    assert np.array_equal(ok, ref_ok)
    assert np.array_equal(out, ref_out)


@pytest.mark.parametrize("m,t,extend", [(4, 1, False), (8, 1, True), (10, 2, True),
                                         (4, 3, False), (5, 3, True), (6, 3, True)])
def test_table_path_never_calls_the_scalar_decoder(monkeypatch, m, t, extend):
    spec = construct_ebch(build_field(m), t, extend=extend)
    assert m * t <= kernels.MAX_KEY_BITS
    rng = np.random.default_rng([27, m, t])
    words = np.concatenate([light_errors(spec, rng, 300),
                            rng.integers(0, 2, (100, spec.n)).astype(np.uint8)])
    ref_out, ref_ok = scalar_reference(spec, words)

    def no_scalar(*args):
        raise AssertionError("row-by-row fallback")

    # past the table each key is decoded by the scalar core
    monkeypatch.setattr(kernels.bch, "decode_syndromes", no_scalar)
    out, ok = kernel_for(spec).batch_bdd(words)
    assert np.array_equal(ok, ref_ok)
    assert np.array_equal(out, ref_out)


def test_specs_of_one_code_share_a_kernel():
    # a run builds a fresh spec per point; the tables are built once per code
    spec = construct_ebch(build_field(6), 2)
    assert kernel_for(construct_ebch(build_field(6), 2)) is kernel_for(spec)
    assert kernel_for(construct_ebch(build_field(6), 2, extend=False)) is not kernel_for(spec)
    assert kernel_for(construct_ebch(build_field(6, 0b1100111), 2)) is not kernel_for(spec)


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
    # with columns, per column of each matrix of a stack: a matrix's columns
    # are the codewords of its transpose, and a flipped bit spoils one
    stack = kern.encode(rng.integers(0, 2, (2, spec.n, spec.k))).swapaxes(1, 2)
    assert kern.codeword_mask(stack, columns=True).all()
    stack[1, 7, 3] ^= 1
    mask = kern.codeword_mask(stack, columns=True)
    assert mask.shape == (2, spec.n) and np.argwhere(~mask).tolist() == [[1, 3]]
    assert np.array_equal(mask, kern.codeword_mask(stack.swapaxes(1, 2)))


def genie_by_weight(kern, words, true):
    """Ideal iBDD's genie on a batch of lines: a line keeps the corrections
    read by its key only when it has at most t wrong bits."""
    cpos, ok = kern.corrections(kern.keys(words))
    ok &= (words != true).sum(axis=1) <= kern.spec.t
    return flip_support(words, np.where(ok[:, None], cpos, kern.spec.n)), ok


def test_batch_genie_matches_scalar():
    spec = construct_ebch(build_field(4), 2, extend=False)
    kern = kernel_for(spec)
    rng = np.random.default_rng(25)
    c = encode(spec, rng.integers(0, 2, 7).astype(np.uint8))
    words = np.tile(c, (3000, 1))
    flips = rng.integers(0, 2, size=words.shape).astype(np.uint8)
    words ^= (flips & (rng.random(words.shape) < 0.25)).astype(np.uint8)
    true = np.tile(c, (3000, 1))
    out, ok = genie_by_weight(kern, words, true)
    for i, w in enumerate(words):
        ref = genie_bdd(spec, w, c)
        assert ok[i] == ref.corrected
        assert np.array_equal(out[i], ref.word)


@settings(deadline=None, max_examples=200)
@given(m=st.integers(3, 10), t=st.integers(1, 4), extend=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_matches_scalar_oracle_on_random_codes(m, t, extend, seed):
    # codes with m * t <= MAX_KEY_BITS decode by table lookup, larger ones
    # row by row
    try:
        spec = construct_ebch(build_field(m), t, extend=extend)
    except UnsupportedParametersError:
        assume(False)
    kern = kernel_for(spec)
    rng = np.random.default_rng(seed)
    true = np.stack([encode(spec, rng.integers(0, 2, spec.k).astype(np.uint8))
                     for _ in range(8)])
    # light error patterns around codewords (0..t+2 flips: decodable,
    # miscorrected and failed words), then uniform noise
    words = true.copy()
    for row in words[:6]:
        row[rng.choice(spec.n, size=rng.integers(0, spec.t + 3), replace=False)] ^= 1
    words[6:] = rng.integers(0, 2, (2, spec.n))
    out, ok = kern.batch_bdd(words)
    cpos, fixed = kern.corrections(kern.keys(words))
    assert np.array_equal(fixed, ok) and (cpos[~fixed] == spec.n).all()  # a failure flips nothing
    genie_out, genie_ok = genie_by_weight(kern, words, true)
    mask = kern.codeword_mask(words)
    # a key is 0 exactly for a codeword, the parity dropped if not extended
    assert np.array_equal(~kern.keys(words).any(axis=1), mask)
    for i, word in enumerate(words):
        ref = bdd(spec, word)
        assert ok[i] == ref.corrected and np.array_equal(out[i], ref.word)
        ref = genie_bdd(spec, word, true[i])
        assert genie_ok[i] == ref.corrected and np.array_equal(genie_out[i], ref.word)
        syn, parity = syndromes(spec, word)
        assert mask[i] == (not any(syn) and not parity)


def test_corrections_past_the_table_skip_zero_keys(monkeypatch):
    # a key of 0 is a codeword: no flips and success, with no call to the
    # scalar core, which decodes each nonzero key once
    spec = construct_ebch(build_field(6), 4)
    kern = kernel_for(spec)
    assert spec.field.m * spec.t > kernels.MAX_KEY_BITS
    rng = np.random.default_rng(36)
    words = np.zeros((2, 5, spec.n), dtype=np.uint8)
    words[0, 1, [3, 9]] = words[1, 0, 40] = words[1, 3, :7] = 1
    words[1, 4] = rng.integers(0, 2, spec.n)
    keys = kern.keys(words)
    zero = ~keys.any(axis=-1)
    assert zero.sum() == 6
    decode, calls = kernels.bch.decode_syndromes, []

    def counted(*args):
        calls.append(args)
        return decode(*args)

    monkeypatch.setattr(kernels.bch, "decode_syndromes", counted)
    cpos, ok = kern.corrections(keys)
    assert len(calls) == 4
    assert ok[zero].all() and (cpos[zero] == spec.n).all()
    for b, i in zip(*np.nonzero(~zero)):
        ref = bdd(spec, words[b, i])
        assert ok[b, i] == ref.corrected
        assert np.array_equal(flip_support(words[b, i][None], cpos[b, i][None])[0], ref.word)


# m*t + 1 > 63 takes two key words; (6, 10) fills 61 bits of one
@pytest.mark.parametrize("m,t,extend", [(5, 2, False), (6, 10, True), (6, 11, False),
                                         (6, 11, True), (7, 9, False), (7, 9, True),
                                         (8, 8, True)])
def test_keys_hold_every_syndrome_bit(m, t, extend):
    spec = construct_ebch(build_field(m), t, extend=extend)
    kern = kernel_for(spec)
    rng = np.random.default_rng([35, m, t, extend])
    stack = rng.integers(0, 2, (2, spec.n, spec.n)).astype(np.uint8)
    stack[1, :, 3:] = 0  # many codeword rows and zero keys
    words = np.concatenate([stack[0], stack[1], stack[1].T])
    keys = kern.keys(words)
    size = m * t + extend  # the syndromes, and the parity if extended
    assert keys.dtype == np.int64 and keys.shape == (len(words), -(-size // 63))

    def unpacked(keys):
        return ((keys[:, :, None] >> np.arange(63)) & 1).reshape(len(keys), -1)

    def scalar_bits(words):
        # S_1, S_3, ..., S_2t-1 as m-bit blocks, then the parity if extended
        out = []
        for word in words:
            syn, parity = syndromes(spec, word)
            out.append([s >> i & 1 for s in syn[::2] for i in range(m)] + [parity] * extend)
        return np.array(out)

    assert np.array_equal(unpacked(keys)[:, :size], scalar_bits(words))
    assert not unpacked(keys)[:, size:].any()
    assert np.array_equal(~keys.any(axis=1), kern.codeword_mask(words))
    # the keys of a stack's rows and columns, the columns without a transpose
    lines = kern.line_keys(stack)
    assert np.array_equal(lines[:, 0], kern.keys(stack))
    assert np.array_equal(lines[:, 1], kern.keys(stack.swapaxes(1, 2)))
    assert np.array_equal(lines[:, 1], kern.keys(stack, columns=True))
    # a single error's key, and the XOR of keys of a sum of words
    eye = np.eye(spec.n, dtype=np.uint8)
    assert np.array_equal(unpacked(kern.col_keys)[:, :size], scalar_bits(eye))
    assert np.array_equal(kern.keys(words[:1] ^ words[1:2]), keys[:1] ^ keys[1:2])


# n % 8 != 0 for the non-extended codes, which pads the bytes of rows and
# columns; (6, 11) takes two key words
@settings(max_examples=60, deadline=None)
@given(code=st.sampled_from([(3, 1, False), (4, 2, True), (5, 2, False), (6, 2, True),
                             (6, 11, False), (7, 9, False), (8, 2, True)]),
       frames=st.integers(1, 3), flat=st.booleans(),
       dtype=st.sampled_from([np.uint8, np.bool_, np.float32, np.float64]),
       density=st.sampled_from([0.0, 0.02, 0.5, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_keys_equal_the_xor_of_single_error_keys(code, frames, flat, dtype, density, seed):
    m, t, extend = code
    kern = kernel_for(construct_ebch(build_field(m), t, extend=extend))
    n = kern.spec.n
    stack = (np.random.default_rng(seed).random((frames, n, n)) < density).astype(dtype)
    rows, columns = reference_keys(kern, stack), reference_keys(kern, stack.swapaxes(1, 2))
    words = stack.reshape(-1, n) if flat else stack
    assert np.array_equal(kern.keys(words), rows.reshape(words.shape[:-1] + (-1,)))
    assert np.array_equal(kern.keys(stack, columns=True), columns)
    assert np.array_equal(kern.line_keys(stack), np.stack([rows, columns], axis=1))


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


def test_least_reliable_with_non_finite_values():
    # argmin rounds mask picks with +inf, so rows holding inf or NaN
    # would repeat a pick; those take the stable sort
    values = np.array([[np.inf, np.inf, 1.0, np.inf], [0.5, np.nan, 0.5, 2.0]])
    for k in (1, 2, 3):
        want = np.argsort(values, axis=1, kind="stable")[:, :k]
        assert np.array_equal(least_reliable(values, k), want)


def dense_trials(kern, words, positions, flips, weights):
    """decode_trials' reference: the trial words built densely, batch_bdd,
    and the sums of the weights over the ascending positions where a
    candidate differs."""
    rows, n = words.shape
    flips = np.broadcast_to(flips, (rows,) + flips.shape[-2:])
    trials = np.repeat(words[:, None, :], flips.shape[1], axis=1)
    for r in range(rows):
        trials[r][:, positions[r]] ^= flips[r]
    cands, ok = kern.batch_bdd(trials.reshape(-1, n))
    cands = cands.reshape(trials.shape)
    differs = cands != words[:, None, :]
    disc = np.array([[ascending_sum(weights[r][differs[r, j]]) for j in range(flips.shape[1])]
                     for r in range(rows)])
    return cands, ok.reshape(rows, -1), disc


def check_trials_against_dense(spec, rng, rows, p, ntrials, shared, levels):
    kern = kernel_for(spec)
    n = spec.n
    words = np.concatenate([light_errors(spec, rng, rows),
                            rng.integers(0, 2, (2, n)).astype(np.uint8)])
    rows = len(words)
    positions = np.argsort(rng.random((rows, n)), axis=1)[:, :p]
    flips = rng.random((ntrials, p) if shared else (rows, ntrials, p)) < 0.5
    # few levels make ties; either way the weights span 16 decades
    if levels > 100:
        weights = 10.0 ** rng.uniform(-8, 8, (rows, n))
    else:
        weights = rng.integers(0, levels, (rows, n)) * 10.0 ** rng.uniform(-8, 8, (rows, 1))
    support, ok, disc = kern.decode_trials(words, positions, flips, weights)
    cands, ref_ok, ref_disc = dense_trials(kern, words, positions, flips, weights)
    # slot-major: support[:, r, j] is candidate j of row r
    assert support.shape == (p + spec.t, rows, ntrials)
    support = np.moveaxis(support, 0, -1).astype(np.intp)
    assert np.array_equal(ok, ref_ok)
    # ascending positions, n in unused slots
    used = np.where(support < n, support, -1)
    assert np.all(np.diff(used, axis=2)[(support[..., 1:] < n)
                                        & (used[..., :-1] >= 0)] > 0)
    got = flip_support(np.repeat(words, ntrials, axis=0), support.reshape(rows * ntrials, -1))
    assert np.array_equal(got, cands.reshape(-1, n))
    # every listed position differs from the hard word: none is listed twice
    assert np.array_equal((support < n).sum(axis=2), (cands != words[:, None, :]).sum(axis=2))
    assert np.array_equal(disc.view(np.int64), ref_disc.view(np.int64))
    return ok


@settings(deadline=None, max_examples=60)
@given(m=st.integers(3, 8), t=st.integers(1, 3), extend=st.booleans(),
       p=st.integers(1, 6), shared=st.booleans(), levels=st.sampled_from([2, 4, 1000]),
       ntrials=st.integers(1, 20), seed=st.integers(0, 2 ** 32 - 1))
def test_decode_trials_matches_dense_trials(m, t, extend, p, shared, levels, ntrials, seed):
    try:
        spec = construct_ebch(build_field(m), t, extend=extend)
    except UnsupportedParametersError:
        assume(False)
    assume(p <= spec.n)
    check_trials_against_dense(spec, np.random.default_rng(seed), 6, p, ntrials, shared,
                               levels)


# m * t > MAX_KEY_BITS: trial keys decoded one by one, same format; the
# keys of (6, 11) take two words
@pytest.mark.parametrize("m,t,extend", [(7, 3, False), (8, 3, True), (6, 11, False)])
def test_decode_trials_past_the_table_matches_dense_trials(m, t, extend):
    spec = construct_ebch(build_field(m), t, extend=extend)
    assert m * spec.t > kernels.MAX_KEY_BITS
    ok = check_trials_against_dense(spec, np.random.default_rng([32, m]), 6, 5, 32,
                                    False, 3)
    assert ok.any() and not ok.all()


def test_decode_trials_table_path_builds_no_trial_words(monkeypatch):
    spec = construct_ebch(build_field(8), 2, extend=True)
    rng = np.random.default_rng(33)

    def no_bdd(*args):
        raise AssertionError("trial words went through batch_bdd")

    monkeypatch.setattr(kernels.ComponentKernel, "batch_bdd", no_bdd)
    kern = kernel_for(spec)
    words = light_errors(spec, rng, 20)
    flips = (np.arange(16)[:, None] >> np.arange(4)) & 1
    positions = np.argsort(rng.random((20, spec.n)), axis=1)[:, :4]
    _, ok, _ = kern.decode_trials(words, positions, flips, rng.random((20, spec.n)))
    assert ok.any()


def apply_network(x, width):
    for i, j in kernels.sorting_network(width):
        assert 0 <= i < j < width
        x[i], x[j] = np.minimum(x[i], x[j]), np.maximum(x[i], x[j])
    return x


@pytest.mark.parametrize("width", range(1, 17))
def test_sorting_network_sorts_every_zero_one_input(width):
    # the 0-1 principle: a comparator network that sorts every 0/1 input
    # sorts every input
    x = (np.arange(1 << width)[None, :] >> np.arange(width)[:, None]) & 1
    assert np.all(np.diff(apply_network(x, width), axis=0) >= 0)


def test_sorting_network_sorts_random_permutations():
    # up to width 40: GMD past the table sorts 3t + 1 slots, 34 at t = 11
    rng = np.random.default_rng(36)
    for width in range(1, 41):
        x = np.argsort(rng.random((width, 300)), axis=0)
        assert np.array_equal(apply_network(x, width),
                              np.broadcast_to(np.arange(width)[:, None], x.shape))


@pytest.mark.parametrize("n", [7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 255, 256,
                               1023, 1024])
def test_support_sum_adds_in_ascending_position_order(n):
    # a trial's discrepancy is its weights added left to right over its
    # ascending used positions, for any number of slots; numpy's pairwise
    # row sum groups 8 or more terms differently
    rng = np.random.default_rng([34, n])
    rows = 40
    weights = 10.0 ** rng.uniform(-8, 8, (rows, n))
    dense = np.broadcast_to(np.arange(n), (rows, 1, n))
    sparse = np.sort(np.argsort(rng.random((rows, 8, n)), axis=2)[..., :min(n, 12)], axis=2)
    sparse[rng.random(sparse.shape) < 0.3] = n
    # up to 32 used slots, every fifth slot unused
    wide = np.sort(np.argsort(rng.random((rows, 8, n)), axis=2)[..., :min(n, 40)], axis=2)
    wide[:, :, ::5] = n
    for support in (dense, sparse, wide):
        want = np.array([[ascending_sum(weights[r, s[s < n]]) for s in support[r]]
                         for r in range(rows)])
        got = kernels._support_sum(weights, np.moveaxis(support, -1, 0))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
