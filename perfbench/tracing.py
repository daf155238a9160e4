"""Spans recorded from outside pcdec, and the per-layer metrics derived
from them.

``Tracer.installed()`` replaces pcdec's public functions by timing
wrappers at the names through which the calling layer looks them up, and
restores them on exit. pcdec's source is not changed. Spans are kept in
memory, each with its parent and the request id (workload, algorithm,
Eb/N0, frame) of the frame it belongs to; ``write`` stores them and
``layer_metrics`` derives self times and counts from them.

Run traced passes serially: spans of forked pool workers would be lost.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time

import numpy as np

from pcdec import bch, harness, kernels, product

# decoder functions as the harness binds them, with their algorithm ids
DECODERS = {
    "ibdd": "ibdd", "anchor_decode": "ad", "ibdd_sr": "ibdd-sr",
    "ideal_ibdd": "ideal-ibdd", "igmdd_sr": "igmdd-sr", "tpd_decode": "tpd",
}
DECODER_IDS = tuple(DECODERS.values())
PRODUCT_DECODER_IDS = DECODER_IDS[:-1]

# (owner, attribute, span name, layer). pc_encode lives in product.py but
# its work is the scalar bch.encode per row, so it counts as the bch layer.
# kernels calls the scalar fallback as ``bch.bdd``, so wrapping the module
# attribute catches exactly those calls.
WRAPPED = (
    (harness, "run_ber_point", "harness.run_ber_point", "harness"),
    (harness, "optimize_scaling", "harness.optimize_scaling", "harness"),
    (harness, "pc_encode", "product.pc_encode", "bch"),
    (harness, "modulate", "channel.modulate", "channel"),
    (harness, "transmit", "channel.transmit", "channel"),
    (harness, "llr", "channel.llr", "channel"),
    (harness, "hard_decide", "channel.hard_decide", "channel"),
    (harness, "ibdd", "product.ibdd", "product"),
    (harness, "anchor_decode", "product.anchor_decode", "product"),
    (harness, "ibdd_sr", "product.ibdd_sr", "product"),
    (harness, "ideal_ibdd", "product.ideal_ibdd", "product"),
    (harness, "igmdd_sr", "product.igmdd_sr", "product"),
    (harness, "tpd_decode", "tpd.tpd_decode", "tpd"),
    (product, "batch_gmd", "gmd.batch_gmd", "gmd"),
    (kernels.ComponentKernel, "batch_bdd", "kernels.batch_bdd", "kernels"),
    (kernels.ComponentKernel, "codeword_mask", "kernels.codeword_mask", "kernels"),
    (bch, "bdd", "bch.bdd", "bch"),
)
LAYER = {name: layer for _, _, name, layer in WRAPPED}


def _note(name: str, out):
    """What a span records of its call's public return value."""
    if name == "kernels.batch_bdd":
        return [len(out[1]), int(out[1].sum())]
    if name == "gmd.batch_gmd":
        return [out[2]["attempts"], out[2]["gd_evals"]]
    if name == "harness.run_ber_point":
        return [out.frames]
    if name.rsplit(".", 1)[1] in DECODERS:
        return [out.iterations_used, bool(out.converged)]
    return None


class Tracer:
    """Spans of one traced pass. A span is
    [parent index or None, name, start, end, request id, note]."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._open: list[int] = []
        self.context: tuple = (workload, None, None)
        self.request: tuple = self.context + (None,)

    def at_point(self, algorithm: str, ebno_db: float) -> None:
        """Name the (algorithm, Eb/N0) the following calls belong to."""
        self.context = (self.workload, algorithm, ebno_db)
        self.request = self.context + (None,)

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            rec = [open_[-1] if open_ else None, name, 0.0, 0.0, self.request, None]
            open_.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                open_.pop()
                if name == "harness.run_ber_point":
                    self.request = self.context + (None,)
            rec[5] = _note(name, out)
            return out
        return traced

    def _frame_rng(self, fn):
        def hooked(master_seed, frame_index):
            self.request = self.context + (int(frame_index),)
            return fn(master_seed, frame_index)
        return hooked

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in WRAPPED]
        saved.append((harness, "frame_rng", harness.frame_rng))
        try:
            for owner, attr, name, _ in WRAPPED:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            harness.frame_rng = self._frame_rng(harness.frame_rng)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def write(self, path: str) -> None:
        """One JSON line per span: id, parent, name, layer, start and
        duration in microseconds, request id, note."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt") as f:
            for i, (parent, name, start, end, req, note) in enumerate(self.spans):
                f.write(json.dumps([i, parent, name, LAYER[name],
                                    round((start - t0) * 1e6, 1),
                                    round((end - start) * 1e6, 1),
                                    list(req), note]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Self times per layer and per decoder, and the counts the spans
        carry. A span's self time is its duration minus its children's."""
        spans = self.spans
        dur = np.array([s[3] - s[2] for s in spans])
        child = np.zeros(len(spans))
        for s, d in zip(spans, dur):
            if s[0] is not None:
                child[s[0]] += d
        own = dur - child

        def decoder_of(i: int) -> str | None:
            while i is not None:
                fn = spans[i][1].rsplit(".", 1)[1]
                if fn in DECODERS:
                    return DECODERS[fn]
                i = spans[i][0]
            return None

        m: dict[str, float] = {}
        for layer in ("harness", "channel", "bch", "kernels", "product", "gmd", "tpd"):
            m[f"{layer}.self_s"] = 0.0
        decoder_self = dict.fromkeys(PRODUCT_DECODER_IDS, 0.0)
        decodes: dict[str, list] = {d: [] for d in DECODER_IDS}
        points = frames = kcalls = krows = kok = attempts = gd_evals = tpd_rows = 0
        for i, (parent, name, _, _, _, note) in enumerate(spans):
            m[f"{LAYER[name]}.self_s"] += own[i]
            fn = name.rsplit(".", 1)[1]
            if fn in DECODERS:
                dec = DECODERS[fn]
                decodes[dec].append((note[0], note[1], dur[i]))
                if dec in decoder_self:
                    decoder_self[dec] += own[i]
            elif name == "harness.run_ber_point":
                points += 1
                frames += note[0]
            elif name == "kernels.batch_bdd":
                kcalls += 1
                krows += note[0]
                kok += note[1]
                if decoder_of(parent) == "tpd":
                    tpd_rows += note[0]
            elif name == "gmd.batch_gmd":
                attempts += note[0]
                gd_evals += note[1]
        del m["product.self_s"]  # reported per decoder below
        m["harness.points"] = points
        m["channel.ms_per_frame"] = 1e3 * m["channel.self_s"] / max(frames, 1)
        m["kernels.calls"] = kcalls
        m["kernels.rows"] = krows
        m["kernels.ok_ratio"] = kok / krows if krows else 0.0
        for dec, s in decoder_self.items():
            m[f"product.self_s.{dec}"] = s
        for dec, rows in decodes.items():
            its = np.array([r[0] for r in rows], dtype=float)
            conv = np.array([r[1] for r in rows], dtype=float)
            ms = 1e3 * np.array([r[2] for r in rows], dtype=float)
            m[f"product.iterations_mean.{dec}"] = float(its.mean()) if rows else 0.0
            m[f"product.converged_frac.{dec}"] = float(conv.mean()) if rows else 0.0
            m[f"product.frame_ms_p50.{dec}"] = float(np.percentile(ms, 50)) if rows else 0.0
            m[f"product.frame_ms_p99.{dec}"] = float(np.percentile(ms, 99)) if rows else 0.0
            m[f"product.frames.{dec}"] = len(rows)
        m["gmd.attempts"] = attempts
        m["gmd.gd_evals"] = gd_evals
        m["tpd.bdd_rows"] = tpd_rows
        return {k: v if isinstance(v, int) else float(v) for k, v in m.items()}
