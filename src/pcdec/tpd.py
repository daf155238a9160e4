"""Chase-Pyndiah turbo product decoding baseline.

``_chase_batch`` Chase-decodes a batch of component words at once. For
each word it builds 2^p test sequences by toggling the p least reliable
hard-decision bits, BDD-decodes all of them in one kernel call, keeps the
candidate minimizing the correlation discrepancy sum_{disagree} |soft|,
and emits per-bit extrinsics from the metric gap to the best competitor
with the opposite bit (or the reliability fallback beta when no
competitor exists). Extrinsics are damped by the per-half-iteration
alpha before the crossing dimension consumes them.

Each half-step is a rule on ``product._soft_stack``: the components of a
slice Chase-decode L plus the crossing half-step's damped extrinsic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bch import ComponentCodeSpec
from .kernels import flip_support, kernel_for, least_reliable
from .product import (MAX_WORDS_PER_CALL, DecoderResult, ProductCodeSpec, _frame, _one,
                      _soft_stack)

# classic damping/fallback schedules; repeated-last-value padding covers
# longer runs
DEFAULT_ALPHA = (0.2, 0.3, 0.5, 0.7, 0.9, 1.0)
DEFAULT_BETA = (0.2, 0.4, 0.6, 0.8, 1.0)
# most test-pattern bits: 2^MAX_P = MAX_WORDS_PER_CALL
MAX_P = MAX_WORDS_PER_CALL.bit_length() - 1


@dataclass(frozen=True)
class ChaseConfig:
    """Test-pattern count (2^p) and per-half-iteration scaling schedules."""

    p: int
    alpha_schedule: tuple[float, ...]
    beta_schedule: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= self.p <= MAX_P:
            raise ValueError(f"p must be between 1 and {MAX_P}, so that a row's 2^p "
                             f"test words fit one kernel call, got {self.p}")
        if not self.alpha_schedule or not self.beta_schedule:
            raise ValueError("schedules must be non-empty")

    @classmethod
    def default(cls, l_max: int = 10, p: int = 4) -> "ChaseConfig":
        need = 2 * l_max
        alpha = DEFAULT_ALPHA + (DEFAULT_ALPHA[-1],) * max(0, need - len(DEFAULT_ALPHA))
        beta = DEFAULT_BETA + (DEFAULT_BETA[-1],) * max(0, need - len(DEFAULT_BETA))
        return cls(p=p, alpha_schedule=alpha, beta_schedule=beta)

    def alpha(self, half_iter: int) -> float:
        return self.alpha_schedule[min(half_iter, len(self.alpha_schedule) - 1)]

    def beta(self, half_iter: int) -> float:
        return self.beta_schedule[min(half_iter, len(self.beta_schedule) - 1)]


def _chase_batch(spec: ComponentCodeSpec, soft_in: np.ndarray,
                 cfg: ChaseConfig, half_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of soft_in: (scaled extrinsic, decision word).

    Rows where every test pattern fails keep their input hard decision as
    the decision word and emit the all-zero extrinsic."""
    soft_in = np.asarray(soft_in, dtype=np.float64)
    nrows, n = soft_in.shape
    hard = (soft_in < 0).astype(np.uint8)
    mag = np.abs(soft_in)

    p = cfg.p
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
    ext[~has_comp] = cfg.beta(half_iter)
    np.negative(ext, out=ext, where=decision == 1)
    np.subtract(ext, soft_in, out=ext, where=has_comp)
    ext[~any_ok] = 0.0
    ext *= cfg.alpha(half_iter)
    return ext, decision


def tpd_stack(spec: ProductCodeSpec, llrs: np.ndarray, cfg: ChaseConfig,
              l_max: int) -> DecoderResult:
    """``tpd_decode`` on a (B, n, n) stack of LLR frames. The rows of the
    stack are Chase-decoded in slices of at most
    ``product.MAX_WORDS_PER_CALL`` test-pattern words."""
    if (len(cfg.alpha_schedule) < 2 * l_max
            or len(cfg.beta_schedule) < 2 * l_max):
        raise ValueError(f"schedules must cover {2 * l_max} half-iterations")
    if cfg.p > spec.n:
        raise ValueError(f"Chase p = {cfg.p} test bits exceed the component length "
                         f"n = {spec.n}")

    def rule(soft, ext, dec, s, half, sl, ops):
        ext[...], dec[...] = _chase_batch(spec.component, soft, cfg, half)

    return _soft_stack(spec, llrs, l_max, 1 << cfg.p, rule)


def tpd_decode(spec: ProductCodeSpec, llrs: np.ndarray, cfg: ChaseConfig,
               l_max: int) -> DecoderResult:
    """Pyndiah iteration: rows then columns, soft input L + extrinsic from
    the crossing dimension. The final array holds the last half-iteration's
    Chase decisions (failed components keep their input hard decisions);
    deciding instead on the sign of L plus both extrinsics leaves a
    measurable error floor from confidently wrong channel bits that both
    component decisions had already overruled."""
    return _one(tpd_stack(spec, _frame(spec, llrs, "llrs"), cfg, l_max))
