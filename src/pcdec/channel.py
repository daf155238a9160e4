"""Binary-input AWGN channel: BPSK mapping, calibrated noise, LLRs.

Sign convention, fixed here for the whole package: bit b maps to the
bipolar symbol (-1)^b, so a positive channel LLR supports bit 0. The
hard-decision map B takes positive values to 0 and negative values to 1;
an exact 0 resolves to bit 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    """Operating point; sigma2 = 1 / (2 * rate * Eb/N0_linear)."""

    ebno_db: float
    rate: float
    sigma2: float

    @classmethod
    def make(cls, ebno_db: float, rate: float) -> "ChannelParams":
        if not 0 < rate < 1:
            raise ValueError("rate must be in (0, 1)")
        if not np.isfinite(ebno_db):
            raise ValueError(f"Eb/N0 must be finite, got {ebno_db} dB")
        ebno = 10.0 ** (ebno_db / 10.0)
        return cls(ebno_db=ebno_db, rate=rate, sigma2=1.0 / (2.0 * rate * ebno))


def modulate(bits: np.ndarray) -> np.ndarray:
    """(-1)^bit as float: 0 -> +1, 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def transmit(x, params: ChannelParams, rng: np.random.Generator,
             out: np.ndarray | None = None) -> np.ndarray:
    """The channel output x + sigma * z, z standard normal noise from
    ``rng``, drawn and scaled as ``x + rng.normal(0, sigma, x.shape)`` draws
    and scales it, so the two are equal bit for bit. With ``out`` (float64,
    C-contiguous) the noise is drawn into it and x, an array or a scalar,
    added in place."""
    if out is None:
        out = np.empty(np.shape(x))
    rng.standard_normal(out=out)
    out *= np.sqrt(params.sigma2)
    out += x
    return out


def llr(y: np.ndarray, params: ChannelParams, out: np.ndarray | None = None) -> np.ndarray:
    """The LLRs 2y / sigma2, written over ``out`` when given."""
    out = np.multiply(y, 2.0, out=out)
    out /= params.sigma2
    return out


def hard_decide(llr_values: np.ndarray) -> np.ndarray:
    """B(L): 0 for L >= 0, 1 for L < 0."""
    return (np.asarray(llr_values) < 0).astype(np.uint8)


def frame_rng(master_seed: int, frame_index: int) -> np.random.Generator:
    """Counter-based per-frame stream: reproducible and independent of
    worker scheduling."""
    return np.random.default_rng([master_seed, frame_index])
