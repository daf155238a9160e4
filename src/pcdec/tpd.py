"""Chase-Pyndiah turbo product decoding baseline.

Each component decoding builds 2^p test sequences by toggling the p
least reliable hard-decision bits, BDD-decodes all of them, keeps the
candidate minimizing the correlation discrepancy sum_{disagree} |soft|,
and emits per-bit extrinsics from the metric gap to the best competitor
with the opposite bit (or the reliability fallback beta when no
competitor exists). Extrinsics are damped by the per-half-iteration
alpha before the crossing dimension consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bch import ComponentCodeSpec
from .kernels import kernel_for, least_reliable
from .product import (
    DecoderResult,
    ProductCodeSpec,
    _both_passes,
    _frame,
    _iterate,
    _one,
    _pass_rows,
    _put_rows,
    _row_slices,
    _rows,
    _stack,
)

# classic damping/fallback schedules; repeated-last-value padding covers
# longer runs
DEFAULT_ALPHA = (0.2, 0.3, 0.5, 0.7, 0.9, 1.0)
DEFAULT_BETA = (0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass(frozen=True)
class ChaseConfig:
    """Test-pattern count (2^p) and per-half-iteration scaling schedules."""

    p: int
    alpha_schedule: tuple[float, ...]
    beta_schedule: tuple[float, ...]

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
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
                 cfg: ChaseConfig, half_iter: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of soft_in: (scaled extrinsic, decision word, decoded flag).

    Rows where every test pattern fails keep their input hard decision as
    the decision word and emit the all-zero extrinsic."""
    kern = kernel_for(spec)
    soft_in = np.asarray(soft_in, dtype=np.float64)
    nrows, n = soft_in.shape
    hard = (soft_in < 0).astype(np.uint8)
    mag = np.abs(soft_in)

    p = cfg.p
    npat = 1 << p
    least = least_reliable(mag, p)
    flip = ((np.arange(npat)[:, None] >> np.arange(p)[None, :]) & 1).astype(np.uint8)
    words = np.repeat(hard[:, None, :], npat, axis=1)
    for j in range(p):
        sel = np.flatnonzero(flip[:, j])
        words[np.arange(nrows)[:, None], sel[None, :], least[:, j, None]] ^= 1

    cands, ok = kern.batch_bdd(words.reshape(nrows * npat, n))
    cands = cands.reshape(nrows, npat, n)
    ok = ok.reshape(nrows, npat)

    # one test pattern at a time, so float temporaries are (nrows, n)
    metric = np.empty((nrows, npat))
    for j in range(npat):
        metric[:, j] = np.where(cands[:, j] != hard, mag, 0.0).sum(axis=1)
    metric[~ok] = np.inf
    any_ok = ok.any(axis=1)

    didx = np.argmin(metric, axis=1)
    rows = np.arange(nrows)
    decision = cands[rows, didx]
    m_best = metric[rows, didx]
    dsign = 1.0 - 2.0 * decision

    comp_metric = np.full((nrows, n), np.inf)
    for j in range(npat):
        np.minimum(comp_metric,
                   np.where(cands[:, j] != decision, metric[:, j, None], np.inf),
                   out=comp_metric)
    has_comp = np.isfinite(comp_metric)

    beta = cfg.beta(half_iter)
    safe_comp = np.where(has_comp, comp_metric, 0.0)
    safe_best = np.where(np.isfinite(m_best), m_best, 0.0)[:, None]
    extrinsic = np.where(has_comp,
                         (safe_comp - safe_best) * dsign - soft_in,
                         beta * dsign)
    extrinsic[~any_ok] = 0.0
    decision[~any_ok] = hard[~any_ok]
    return cfg.alpha(half_iter) * extrinsic, decision, any_ok


def chase_pyndiah_component(spec: ComponentCodeSpec, soft_in: np.ndarray,
                            cfg: ChaseConfig, half_iter: int) -> np.ndarray:
    """Soft-in extrinsic-out decoding of one component word; the output is
    already scaled by the half-iteration's alpha. A run where every test
    pattern fails yields the all-zero extrinsic."""
    soft_in = np.asarray(soft_in, dtype=np.float64)
    if soft_in.shape != (spec.n,):
        raise ValueError(f"soft input must have length {spec.n}")
    return _chase_batch(spec, soft_in[None, :], cfg, half_iter)[0][0]


def tpd_stack(spec: ProductCodeSpec, llrs: np.ndarray, cfg: ChaseConfig,
              l_max: int) -> DecoderResult:
    """``tpd_decode`` on a (B, n, n) stack of LLR frames. The rows of the
    stack are Chase-decoded in slices of at most
    ``product.MAX_WORDS_PER_CALL`` test-pattern words."""
    if (len(cfg.alpha_schedule) < 2 * l_max
            or len(cfg.beta_schedule) < 2 * l_max):
        raise ValueError(f"schedules must cover {2 * l_max} half-iterations")
    llrs = _stack(spec, llrs, "llrs", bits=False)
    state = {**_both_passes("llr", llrs),
             "ext": np.zeros_like(llrs),  # from the last half-iteration
             "dec": np.zeros(llrs.shape, dtype=np.uint8)}

    def half_step(s, half, ops):
        soft = _pass_rows(s, "llr", half) + _rows(s["ext"], half)
        ext = np.empty_like(soft)
        dec = np.empty(soft.shape, dtype=np.uint8)
        for sl in _row_slices(len(soft), 1 << cfg.p):
            ext[sl], dec[sl], _ = _chase_batch(spec.component, soft[sl], cfg, half)
        _put_rows(s["ext"], half, ext)
        _put_rows(s["dec"], half, dec)
        ops["bdd_calls"] += len(soft) << cfg.p

    return _iterate(spec, l_max, state, half_step, lambda s: s["dec"])


def tpd_decode(spec: ProductCodeSpec, llrs: np.ndarray, cfg: ChaseConfig,
               l_max: int) -> DecoderResult:
    """Pyndiah iteration: rows then columns, soft input L + extrinsic from
    the crossing dimension. The final array holds the last half-iteration's
    Chase decisions (failed components keep their input hard decisions);
    deciding instead on the sign of L plus both extrinsics leaves a
    measurable error floor from confidently wrong channel bits that both
    component decisions had already overruled."""
    return _one(tpd_stack(spec, _frame(spec, llrs, "llrs"), cfg, l_max))
