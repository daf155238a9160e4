"""Product-code FEC toolkit: iterative BDD/GMD decoders, a Chase-Pyndiah
turbo baseline, and a bi-AWGN Monte Carlo harness."""

__version__ = "0.1.0"

from .bch import ComponentCodeSpec, DecodeOutcome, bdd, construct_ebch, encode
from .channel import ChannelParams, hard_decide, llr, modulate, transmit
from .gf import FieldSpec, build_field
from .harness import BerRecord, SimConfig, run_ber_point, run_sweep
from .product import (
    DecoderResult,
    ProductCodeSpec,
    anchor_decode,
    ibdd,
    ibdd_sr,
    ideal_ibdd,
    igmdd_sr,
    is_pc_codeword,
    pc_encode,
)
from .tpd import tpd_decode

__all__ = [
    "BerRecord", "ChannelParams", "ComponentCodeSpec",
    "DecodeOutcome", "DecoderResult", "FieldSpec", "ProductCodeSpec",
    "SimConfig", "anchor_decode", "bdd", "build_field",
    "construct_ebch", "encode", "hard_decide", "ibdd", "ibdd_sr",
    "ideal_ibdd", "igmdd_sr", "is_pc_codeword", "llr", "modulate",
    "pc_encode", "run_ber_point", "run_sweep", "tpd_decode", "transmit",
]
