"""Acceptance suite: each test enforces one release criterion at its
stated tolerance and reports one PASS/FAIL line (also echoed in the
pytest terminal summary).

The desk-scale waterfall criteria run on the (64,51,6)^2 product code in
minutes. The full (256,239,6)^2 pipeline (scaling optimization, sweeps,
gain bands) takes hours and only runs when PCDEC_FULL_ACCEPTANCE=1 is
set; see the README for the expected output.
"""

import dataclasses
import os

import numpy as np
import pytest
from scipy.stats import norm

from conftest import record_criterion
from helpers import all_codewords
from pcdec import bch
from pcdec.channel import ChannelParams, hard_decide
from pcdec.cli import main as cli_main
from pcdec.gf import build_field
from pcdec.gmd import ReliabilityVector, gmd_decode
from pcdec.harness import (
    SimConfig,
    capacity_threshold_ebno_db,
    optimize_scaling,
    required_ebno,
    run_ber_point,
)
from pcdec.product import scaled_reliability_message

FULL = os.environ.get("PCDEC_FULL_ACCEPTANCE", "") == "1"
WORKERS = int(os.environ.get("PCDEC_WORKERS", "2"))


def check(name: str, passed: bool, detail: str = "") -> None:
    record_criterion(name, bool(passed), detail)
    assert passed, f"{name}: {detail}"


# -------------------------------------------------------------- criterion 1


def test_c1_bdd_oracle_equivalence_exhaustive():
    spec = bch.construct_ebch(build_field(4), 2, extend=False)
    cws = all_codewords(spec)  # (128, 15)
    words = ((np.arange(1 << 15)[:, None] >> np.arange(15)[None, :]) & 1
             ).astype(np.uint8)
    # brute-force rule: unique codeword within distance t, else echo
    mismatches = 0
    for chunk in np.array_split(words, 16):
        dists = (chunk[:, None, :] != cws[None, :, :]).sum(axis=2)
        idx = dists.argmin(axis=1)
        dmin = dists[np.arange(len(chunk)), idx]
        for r, ci, d in zip(chunk, idx, dmin):
            out = bch.bdd(spec, r)
            want_ok = d <= spec.t
            want = cws[ci] if want_ok else r
            if out.corrected != want_ok or not np.array_equal(out.word, want):
                mismatches += 1
    check("C1 bdd-oracle-equivalence",
          mismatches == 0, f"{mismatches} mismatches over 32768 words")


# -------------------------------------------------------------- criterion 2


@pytest.mark.parametrize("m,extend", [(4, False), (6, True)])
def test_c2_error_erasure_bound(m, extend):
    spec = bch.construct_ebch(build_field(m), 2, extend=extend)
    rng = np.random.default_rng(1000 + m)
    trials_per_pair = 10_000
    failures = 0
    pairs = [(e, s) for e in range(spec.t + 1)
             for s in range(spec.d_min - 2 * e)]
    msgs = rng.integers(0, 2, size=(64, spec.k)).astype(np.uint8)
    basis = np.stack([bch.encode(spec, msg) for msg in msgs])
    for e, s in pairs:
        for _ in range(trials_per_pair):
            c = basis[rng.integers(len(basis))]
            picks = rng.choice(spec.n, size=e + s, replace=False)
            r = c.copy()
            r[picks[:e]] ^= 1
            if s:
                r[picks[e:]] = rng.integers(0, 2, s)
            out = bch.error_erasure_decode(spec, r, picks[e:])
            if not (out.corrected and np.array_equal(out.word, c)):
                failures += 1
    check(f"C2 error-erasure-bound (n={spec.n})", failures == 0,
          f"{failures} failures over {len(pairs) * trials_per_pair} trials "
          f"with 2e+s <= {spec.d_min - 1}")


# -------------------------------------------------------------- criterion 3


def test_c3_gmd_consistency_uniform_reliabilities():
    spec = bch.construct_ebch(build_field(4), 2, extend=False)
    rng = np.random.default_rng(77)
    rel = ReliabilityVector.from_values(np.full(15, 3.3))
    successes = mismatches = metric_errors = 0
    attempts = 0
    while successes < 10_000 and attempts < 200_000:
        attempts += 1
        r = rng.integers(0, 2, 15).astype(np.uint8)
        b = bch.bdd(spec, r)
        if not b.corrected:
            continue
        successes += 1
        g = gmd_decode(spec, r, rel)
        if not (g.corrected and np.array_equal(g.word, b.word)):
            mismatches += 1
        if g.metric != 2 * len(b.flips):  # uniform alphas: exactly 2*d_H
            metric_errors += 1
    check("C3 gmd-consistency", successes == 10_000 and mismatches == 0
          and metric_errors == 0,
          f"{successes} bdd-success trials, {mismatches} word mismatches, "
          f"{metric_errors} metric errors")


# -------------------------------------------------------------- criterion 4


def test_c4_scaled_reliability_sign_table():
    w = 1.0
    bad = []
    for mubar in (-1.0, 0.0, 1.0):
        for l_mag in (0.5, 2.0):      # |L| below / above w
            for l_sign in (1.0, -1.0):
                L = np.array([[l_sign * l_mag]])
                ch = hard_decide(L)
                psi = scaled_reliability_message(
                    np.array([[mubar]]), L, w, ch)[0, 0]
                if mubar == 0.0:
                    want = ch[0, 0]            # failure -> channel decision
                elif w > l_mag:
                    want = 0 if mubar > 0 else 1   # decoder bit wins
                else:
                    want = ch[0, 0]            # reliable channel wins
                if psi != want:
                    bad.append((mubar, l_sign * l_mag, psi, want))
    # exact tie |L| == w with disagreement resolves to the channel bit
    L = np.array([[-1.0]])
    tie = scaled_reliability_message(np.array([[1.0]]), L, 1.0, hard_decide(L))
    ok = not bad and tie[0, 0] == 1
    check("C4 eq4-sign-table", ok, f"violations: {bad}" if bad else "18 cases")


# ---------------------------------------------------- criteria 5/6 machinery


def measure_crossing(alg, code_m, grid, min_fe, max_frames, target,
                     w=None, seed=21):
    """Required Eb/N0 at the target BER.

    Extends the grid by 0.1 dB steps when every point sits on one side of
    the target, and bisects when the waterfall drops from above-target
    straight past the measurable range (zero observed errors)."""
    points: dict[float, object] = {}
    pending = sorted(grid)
    for _ in range(6):
        for ebno in pending:
            if ebno in points:
                continue
            cfg = SimConfig(
                algorithm=alg, code_m=code_m, code_t=2, extended=True,
                iterations=10, min_frame_errors=min_fe, max_frames=max_frames,
                master_seed=seed, workers=WORKERS, batch_frames=128, w=w)
            points[ebno] = run_ber_point(cfg, ebno)
        ordered = sorted(points)
        recs = [points[e] for e in ordered]
        try:
            return required_ebno(recs, target)
        except Exception:
            bers = [points[e].ber for e in ordered]
            above = [i for i, b in enumerate(bers) if b > target]
            if len(above) == len(bers):
                pending = [round(ordered[-1] + 0.1, 3)]
            elif not above:
                pending = [round(ordered[0] - 0.1, 3)]
            else:
                hi = max(above)
                if hi + 1 >= len(ordered):
                    pending = [round(ordered[-1] + 0.1, 3)]
                else:
                    mid = round((ordered[hi] + ordered[hi + 1]) / 2, 3)
                    if mid in points:
                        raise
                    pending = [mid]
    raise AssertionError(f"{alg}: crossing not bracketed after extensions")


# calibrated m=6 smoke grids: each algorithm's 1e-4 crossing sits inside
# its bracket (ibdd 4.20, ad 3.93, ibdd-sr 3.86, ideal 3.77, igmdd 3.24,
# tpd 2.87); shipped optimizer schedules are used for the SR decoders
SMOKE_BUDGETS = {
    "ibdd": ((4.0, 4.2, 4.4), 60, 25_000),
    "ad": ((3.8, 4.0, 4.2), 60, 25_000),
    "ibdd-sr": ((3.7, 3.9, 4.1), 60, 25_000),
    "ideal-ibdd": ((3.6, 3.8, 4.0), 60, 25_000),
    "igmdd-sr": ((3.1, 3.2, 3.3), 60, 25_000),
    "tpd": ((2.7, 2.8, 2.9), 60, 15_000),
}


@pytest.mark.slow
def test_c5_waterfall_ordering_smoke():
    target = 1e-4
    x = {alg: measure_crossing(alg, 6, grid, fe, cap, target)
         for alg, (grid, fe, cap) in SMOKE_BUDGETS.items()}
    detail = " ".join(f"{a}={v:.3f}" for a, v in x.items())
    eps = 0.05  # the near-coincident pair gets the criterion-6 slack
    ok = (x["ibdd"] > x["ad"] > x["ibdd-sr"]
          and x["ibdd-sr"] >= x["ideal-ibdd"] - eps
          and x["ideal-ibdd"] > x["igmdd-sr"] > x["tpd"])
    check("C5 waterfall-ordering (64,51,6)^2 smoke", ok, detail)


FULL_BUDGETS = {
    "ibdd": ((4.85, 4.95, 5.05), 60, 50_000),
    "ad": ((4.70, 4.78, 4.86), 60, 40_000),
    "ibdd-sr": ((4.60, 4.70, 4.80), 60, 40_000),
    "ideal-ibdd": ((4.55, 4.65, 4.75), 60, 50_000),
    "igmdd-sr": ((4.25, 4.35, 4.45), 60, 20_000),
    "tpd": ((3.80, 3.90, 4.00), 60, 15_000),
}


@pytest.mark.skipif(not FULL, reason="hours-long (256,239,6)^2 pipeline; "
                    "set PCDEC_FULL_ACCEPTANCE=1 to run")
def test_c5_c6_full_256():
    target = 1e-4
    base = SimConfig(algorithm="ibdd", code_m=8, code_t=2, extended=True,
                     iterations=10, master_seed=17, opt_frames=192,
                     batch_frames=48, workers=WORKERS,
                     opt_grid=tuple(round(0.4 + 0.2 * i, 1) for i in range(14)))
    schedules = {}
    for alg, anchor in (("ibdd-sr", 4.6), ("igmdd-sr", 4.3)):
        sched = optimize_scaling(dataclasses.replace(base, algorithm=alg), anchor)
        assert sched.is_monotone()
        schedules[alg] = sched.w
        print(f"optimized {alg}: {sched.w}")
    x = {alg: measure_crossing(alg, 8, grid, fe, cap, target,
                               w=schedules.get(alg))
         for alg, (grid, fe, cap) in FULL_BUDGETS.items()}
    detail = " ".join(f"{a}={v:.3f}" for a, v in x.items())
    eps = 0.05
    ordering = (x["ibdd"] > x["ad"] > x["ibdd-sr"]
                and x["ibdd-sr"] >= x["ideal-ibdd"] - eps
                and x["ideal-ibdd"] > x["igmdd-sr"] > x["tpd"])
    check("C5 waterfall-ordering (256,239,6)^2 full", ordering, detail)

    gains = {alg: x["ibdd"] - x[alg] for alg in x}
    closure = gains["igmdd-sr"] / gains["tpd"]
    checks = {
        "igmdd-sr in [0.40, 0.80]": 0.40 <= gains["igmdd-sr"] <= 0.80,
        "ibdd-sr in [0.15, 0.35]": 0.15 <= gains["ibdd-sr"] <= 0.35,
        "ad in [0.08, 0.28]": 0.08 <= gains["ad"] <= 0.28,
        "|ibdd-sr - ideal| <= 0.05":
            abs(x["ibdd-sr"] - x["ideal-ibdd"]) <= 0.05,
        "igmdd-sr closes >= 40% of tpd gap": closure >= 0.40,
    }
    bad = [k for k, v in checks.items() if not v]
    gain_txt = " ".join(f"{a}=+{g:.3f}" for a, g in gains.items() if a != "ibdd")
    check("C6 coding-gains (256,239,6)^2", not bad,
          f"{gain_txt} closure={closure:.2f}"
          + (f" FAILED: {bad}" if bad else ""))


@pytest.mark.skipif(not FULL, reason="slow optimizer sensitivity check; "
                    "set PCDEC_FULL_ACCEPTANCE=1 to run")
def test_ibdd_sr_schedule_insensitive_to_anchor():
    # the iBDD-SR schedule optimized at different operating points should
    # perform almost identically (qualitative check on the small code)
    base = SimConfig(algorithm="ibdd-sr", code_m=6, code_t=2, extended=True,
                     iterations=10, master_seed=17, opt_frames=300,
                     batch_frames=100, workers=WORKERS,
                     opt_grid=tuple(round(0.4 + 0.2 * i, 1) for i in range(14)))
    scheds = {anchor: optimize_scaling(base, anchor).w for anchor in (3.7, 4.0)}
    bers = {}
    for anchor, w in scheds.items():
        cfg = SimConfig(algorithm="ibdd-sr", code_m=6, code_t=2, extended=True,
                        iterations=10, min_frame_errors=80, max_frames=30_000,
                        master_seed=23, workers=WORKERS, batch_frames=128, w=w)
        bers[anchor] = run_ber_point(cfg, 3.85).ber
    lo, hi = min(bers.values()), max(bers.values())
    print(f"anchor sensitivity: schedules {scheds} -> bers {bers}")
    assert lo > 0
    assert hi / lo < 3.0, f"anchor choice changed BER by {hi / lo:.1f}x"


# -------------------------------------------------------------- criterion 7


def test_c7_capacity_gap_consistency():
    rate = 0.8622
    hd_thr = capacity_threshold_ebno_db(rate, "HD")
    sd_thr = capacity_threshold_ebno_db(rate, "SD")
    # published reference relations at BER 1e-5: iBDD sits 0.98 dB from the
    # HD threshold; gains place iGMDD-SR 0.60 dB and TPD 1.08 dB left of it
    ebno_ibdd = hd_thr + 0.98
    ebno_igmdd = ebno_ibdd - 0.60
    ebno_tpd = ebno_ibdd - 1.08
    gap_igmdd = ebno_igmdd - sd_thr
    gap_tpd = ebno_tpd - sd_thr
    identity = gap_igmdd - gap_tpd          # must equal 1.08 - 0.60
    ok = abs(identity - 0.48) <= 0.02
    # absolute reproduction of the published SD gaps carries the published
    # values' rounding, so it gets a slightly wider band
    ok_abs = abs(gap_igmdd - 1.66) <= 0.04 and abs(gap_tpd - 1.18) <= 0.04
    check("C7 capacity-gap-consistency", ok and ok_abs,
          f"identity={identity:.3f} (target 0.48+-0.02), "
          f"SD gaps {gap_igmdd:.3f}/{gap_tpd:.3f} vs 1.66/1.18, "
          f"HD thr {hd_thr:.3f} dB, SD thr {sd_thr:.3f} dB")


# -------------------------------------------------------------- criterion 8


def test_c8_prefec_q_function():
    rate = (51 / 64) ** 2
    bad = []
    for ebno in (3.0, 4.0, 5.0):
        cfg = SimConfig(algorithm="none", code_m=6, code_t=2, extended=True,
                        iterations=1, min_frame_errors=10 ** 9,
                        max_frames=256, master_seed=5, batch_frames=64)
        rec = run_ber_point(cfg, ebno)
        nbits = rec.frames * 64 * 64
        sigma2 = ChannelParams.make(ebno, rate).sigma2
        q = norm.sf(1 / np.sqrt(sigma2))
        tol = 3 * np.sqrt(q * (1 - q) / nbits)
        if not nbits >= 1_000_000:
            bad.append(f"{ebno}: only {nbits} bits")
        if abs(rec.ber - q) >= tol:
            bad.append(f"{ebno}: |{rec.ber:.3e} - {q:.3e}| >= {tol:.2e}")
    check("C8 prefec-q-function", not bad, "; ".join(bad) or "3 points, 3-sigma")


# -------------------------------------------------------------- criterion 9


def test_c9_csv_determinism(tmp_path):
    cfg_text = """
[simulation]
code_m = 4
code_t = 2
extended = false
iterations = 3
ebno = 3.0,5.0
min_frame_errors = 15
max_frames = 200
seed = 33
batch_frames = 32
algorithms = ibdd,ibdd-sr
[ibdd-sr]
w = 0.9;1.2;1.5
"""
    cfg = tmp_path / "det.ini"
    cfg.write_text(cfg_text)

    def run(out, workers):
        assert cli_main(["simulate", "--config", str(cfg), "--out", out,
                         "--workers", str(workers)]) == 0
        with open(out, "rb") as fh:
            return b"".join(ln for ln in fh if not ln.startswith(b"#"))

    a = run(str(tmp_path / "a.csv"), 1)
    b = run(str(tmp_path / "b.csv"), 1)
    c = run(str(tmp_path / "c.csv"), 2)
    check("C9 csv-determinism", a == b == c,
          "byte-identical bodies for repeat runs and workers in {1, 2}")
