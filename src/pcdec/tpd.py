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

The competitors come from the candidates' slot-major supports (see
``kernels``): one scatter-min gives each bit the least metric of the
candidates whose support holds it, which is its competitor off the
decision's support. For the bits on it, a per-cell bitmask of the
decision's slots, OR-ed over each candidate's support, tells which
candidates hold which of the decision's positions, and the competitor is
the least metric of those that do not. The extrinsic starts as the dense
fallback of the decision and is overwritten at the bits that have a
competitor.

Each half-step is a rule on ``product._soft_stack``: a slice's rows of
L plus the crossing damped extrinsic give the Chase decisions and the
next extrinsic.
"""

from __future__ import annotations

import numpy as np

from .bch import ComponentCodeSpec
from .kernels import flip_support, kernel_for, least_reliable
from .product import DecoderResult, ProductCodeSpec, _frame, _one, _soft_stack

# the classic per-half-iteration damping and no-competitor fallback
ALPHA = (0.2, 0.3, 0.5, 0.7, 0.9, 1.0)
BETA = (0.2, 0.4, 0.6, 0.8, 1.0)
# by a held bit (1) or not (0): the penalty a trial's metric takes, and
# the sign of a decided bit
_HOLDS = np.array([-np.inf, np.inf])
_SIGN = np.array([1.0, -1.0])
# most test-pattern bits: a row's 2^12 test words of n = 256 bits fill one
# kernel call (product.MAX_TRIAL_BITS); longer rows get a call each
MAX_P = 12


def check_p(p: int, n: int) -> None:
    """Reject a Chase p outside 1..MAX_P, or whose p test bits exceed the
    component length n. MAX_P is sized for n = 256; a longer row's 2^p test
    words can overrun product.MAX_TRIAL_BITS and get a kernel call each."""
    if not 1 <= p <= MAX_P:
        raise ValueError(f"p must be between 1 and {MAX_P}, so that a 256-bit row's "
                         f"2^p test words fit one kernel call, got {p}")
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
    best = np.where(any_ok, support[:, rows, didx], n)
    decision = flip_support(hard, best.T)

    # The best competitor of each bit, in a (rows, n + 1) table whose last
    # column takes the empty support slots. A candidate differs from the
    # decision at a bit off the decision's support where its own support
    # holds the bit, and at a bit on it where its support does not.
    offsets = rows * (n + 1)
    cells = support + offsets[:, None]
    comp = np.full((nrows, n + 1), np.inf)
    np.minimum.at(comp.reshape(-1), cells.reshape(-1),
                  np.broadcast_to(metric, cells.shape).reshape(-1))
    bcells = best + offsets
    # per cell, one bit for each slot of the decision's support holding
    # it; OR-ed over a trial's support, the decision slots the trial holds.
    # Trial-major copies: the minima over a row's trials run down columns.
    metric_t = np.ascontiguousarray(metric.T)
    for lo in range(0, len(bcells), 64):
        group = bcells[lo:lo + 64]
        bits = np.zeros((nrows, n + 1), dtype=np.min_scalar_type((1 << len(group)) - 1))
        bits.reshape(-1)[group] = (1 << np.arange(len(group), dtype=bits.dtype))[:, None]
        bits[:, n] = 0
        held = np.ascontiguousarray(np.bitwise_or.reduce(np.take(bits, cells), axis=0).T)
        for s, cell in enumerate(group):
            # +inf where the trial holds the slot's position, else -inf
            skip = np.take(_HOLDS, held >> s & 1)
            comp.reshape(-1)[cell] = np.maximum(skip, metric_t, out=skip).min(axis=0)

    # alpha * beta * sign without a competitor, sign = -1 where the
    # decision is 1; alpha * ((comp - best) * sign - soft_in) with one
    alpha = ALPHA[min(half_iter, len(ALPHA) - 1)]
    fallback = BETA[min(half_iter, len(BETA) - 1)] * alpha
    ext = np.take(np.array([fallback, -fallback]), decision)
    comp[:, n] = np.inf
    cell = np.flatnonzero(np.isfinite(comp))
    row = cell // (n + 1)
    bit = cell - row  # row * n + column
    val = comp.reshape(-1)[cell] - m_best[row]
    val *= np.take(_SIGN, decision.reshape(-1)[bit])
    val -= soft_in.reshape(-1)[bit]
    val *= alpha
    ext.reshape(-1)[bit] = val
    ext[~any_ok] = 0.0
    return ext, decision


def tpd_stack(spec: ProductCodeSpec, llrs: np.ndarray, p: int,
              l_max: int) -> DecoderResult:
    """``tpd_decode`` on a (B, n, n) stack of LLR frames. The rows of the
    stack are Chase-decoded in slices of at most ``product.MAX_TRIAL_BITS``
    trial bits (2^p test words of n bits per row), at least one row each."""
    check_p(p, spec.n)

    def rule(soft, llr, half, ops):
        soft[...], dec = _chase_batch(spec.component, soft, p, half)
        return dec

    return _soft_stack(spec, llrs, range(l_max), 1 << p, rule)


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
