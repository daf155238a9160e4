"""Chase-Pyndiah turbo product decoding baseline.

``_chase_batch`` Chase-decodes a batch of component words at once. For
each word it builds 2^p test sequences by toggling the p least reliable
hard-decision bits, BDD-decodes all of them in one kernel call, keeps the
candidate minimizing the correlation discrepancy sum_{disagree} |soft|,
and emits per-bit extrinsics from the metric gap to the best competitor
with the opposite bit (or the reliability fallback ``BETA`` when no
competitor exists). Extrinsics are damped by ``ALPHA`` before the
crossing dimension consumes them. Half-iteration h reads both tables at
``min(h, len - 1)``: the last value holds for every later one.

Each half-step is a rule on ``product._soft_stack``: a slice's rows of
L plus the crossing damped extrinsic give the Chase decisions and the
next extrinsic.
"""

from __future__ import annotations

import numpy as np

from .bch import ComponentCodeSpec
from .kernels import flip_support, kernel_for, least_reliable
from .product import (MAX_WORDS_PER_CALL, DecoderResult, ProductCodeSpec, _frame, _one,
                      _soft_stack)

# the classic per-half-iteration damping and no-competitor fallback
ALPHA = (0.2, 0.3, 0.5, 0.7, 0.9, 1.0)
BETA = (0.2, 0.4, 0.6, 0.8, 1.0)
# most test-pattern bits: 2^MAX_P = MAX_WORDS_PER_CALL
MAX_P = MAX_WORDS_PER_CALL.bit_length() - 1


def check_p(p: int, n: int) -> None:
    """Reject a Chase p whose 2^p test words of a row overrun one kernel
    call, or whose p test bits exceed the component length n."""
    if not 1 <= p <= MAX_P:
        raise ValueError(f"p must be between 1 and {MAX_P}, so that a row's 2^p "
                         f"test words fit one kernel call, got {p}")
    if p > n:
        raise ValueError(f"Chase p = {p} test bits exceed the component length n = {n}")


def _chase_batch(spec: ComponentCodeSpec, soft_in: np.ndarray,
                 p: int, half_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of soft_in: (scaled extrinsic, decision word).

    Rows where every test pattern fails keep their input hard decision as
    the decision word and emit the all-zero extrinsic."""
    soft_in = np.asarray(soft_in, dtype=np.float64)
    nrows, n = soft_in.shape
    hard = (soft_in < 0).astype(np.uint8)
    mag = np.abs(soft_in)

    npat = 1 << p
    flip = ((np.arange(npat)[:, None] >> np.arange(p)[None, :]) & 1).astype(bool)
    support, ok, metric = kernel_for(spec).decode_trials(
        hard, least_reliable(mag, p), flip, mag)
    metric[~ok] = np.inf
    any_ok = ok.any(axis=1)

    rows = np.arange(nrows)
    didx = np.argmin(metric, axis=1)
    m_best = metric[rows, didx]
    best = np.where(any_ok[:, None], support[rows, didx], n)
    decision = flip_support(hard, best)

    # The best competitor of each bit, in a flat (rows, n) buffer with one
    # spare cell for empty support slots. A candidate differs from the
    # decision at a bit off the decision's support where its own support
    # holds the bit, and at a bit on it where its support does not.
    spare = nrows * n
    cells = np.where(support < n, rows[:, None, None] * n + support, spare)
    comp = np.full(spare + 1, np.inf)
    slots = support.shape[2]
    np.minimum.at(comp, cells.reshape(-1), np.repeat(metric.reshape(-1), slots))
    bcells = np.where(best < n, rows[:, None] * n + best, spare)
    # which slot of the decision's support each trial's support holds
    slot = np.full(spare + 1, slots, dtype=np.int8)
    slot[bcells] = np.arange(slots)
    slot[spare] = slots
    held = np.zeros((nrows, npat, slots + 1), dtype=bool)
    held.reshape(-1)[np.arange(0, held.size, slots + 1).reshape(nrows, npat, 1)
                     + slot[cells]] = True
    comp[bcells] = np.where(held[..., :slots], np.inf, metric[..., None]).min(axis=1)

    # (comp - best) * sign - soft_in, or beta * sign without a competitor,
    # sign = -1 where the decision is 1; built in place
    ext = comp[:spare].reshape(nrows, n)
    has_comp = np.isfinite(ext)
    ext -= np.where(np.isfinite(m_best), m_best, 0.0)[:, None]
    ext[~has_comp] = BETA[min(half_iter, len(BETA) - 1)]
    np.negative(ext, out=ext, where=decision == 1)
    np.subtract(ext, soft_in, out=ext, where=has_comp)
    ext[~any_ok] = 0.0
    ext *= ALPHA[min(half_iter, len(ALPHA) - 1)]
    return ext, decision


def tpd_stack(spec: ProductCodeSpec, llrs: np.ndarray, p: int,
              l_max: int) -> DecoderResult:
    """``tpd_decode`` on a (B, n, n) stack of LLR frames. The rows of the
    stack are Chase-decoded in slices of at most
    ``product.MAX_WORDS_PER_CALL`` test-pattern words."""
    check_p(p, spec.n)

    def rule(soft, llr, half, ops):
        soft[...], dec = _chase_batch(spec.component, soft, p, half)
        return dec

    return _soft_stack(spec, llrs, l_max, 1 << p, rule)


def tpd_decode(spec: ProductCodeSpec, llrs: np.ndarray, p: int,
               l_max: int) -> DecoderResult:
    """Pyndiah iteration: rows then columns, soft input L + extrinsic from
    the crossing dimension, 2^p Chase test patterns per component. The
    final array holds the last half-iteration's Chase decisions (failed
    components keep their input hard decisions); deciding instead on the
    sign of L plus both extrinsics leaves a measurable error floor from
    confidently wrong channel bits that both component decisions had
    already overruled."""
    return _one(tpd_stack(spec, _frame(spec, llrs, "llrs"), p, l_max))
