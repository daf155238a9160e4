import ctypes
import dataclasses
import glob
import inspect
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import norm

from pcdec import harness
from pcdec.channel import ChannelParams
from pcdec.harness import (
    BerRecord,
    CensoredCrossingError,
    NotBracketedError,
    SimConfig,
    biawgn_capacity,
    capacity_gap,
    capacity_threshold_ebno_db,
    coding_gain,
    hd_capacity,
    optimize_scaling,
    required_ebno,
    run_ber_point,
    run_sweep,
)
from pcdec.product import ScalingSchedule


def small_cfg(algorithm, **kw):
    base = dict(algorithm=algorithm, code_m=4, code_t=2, extended=False,
                iterations=3, min_frame_errors=20, max_frames=400,
                master_seed=9, batch_frames=16)
    base.update(kw)
    return SimConfig(**base)


def strip_time(rec: BerRecord):
    return dataclasses.replace(rec, wall_time=0.0)


def make_rec(algorithm, ebno_db, ber, frames=10 ** 6):
    bits = int(round(ber * frames * 225))
    return BerRecord(algorithm=algorithm, ebno_db=ebno_db, iterations=10,
                     frames=frames, bit_errors=bits, frame_errors=min(frames, bits),
                     ber=ber, fer=min(1.0, ber * 225), seed=0, w=None,
                     wall_time=0.0, budget_exhausted=False)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg("nope")
    with pytest.raises(ValueError):
        small_cfg("ibdd", min_frame_errors=0)
    with pytest.raises(ValueError):
        small_cfg("ibdd", ebno_grid=(3.0, 2.0))
    with pytest.raises(ValueError):
        small_cfg("ibdd", transmission="sometimes")
    with pytest.raises(ValueError, match="ibdd takes no scaling schedule"):
        SimConfig("ibdd", w=(5.0,))
    with pytest.raises(ValueError, match="code_m must be one of 2, 3, .*, 10, got 12"):
        SimConfig("ibdd", code_m=12)
    with pytest.raises(ValueError, match="code_t must be >= 1"):
        SimConfig("ibdd", code_t=0)
    # settings that would crash a run later (max_frames = 0 divides by
    # zero frames), fail only inside a decoded batch, or be ignored
    for field, value, least in (("max_frames", 0, 1), ("opt_frames", 0, 1),
                                ("chase_p", 0, 1), ("anchor_threshold", -1, 0),
                                ("workers", 0, 1), ("workers", -2, 1),
                                ("batch_frames", 0, 1), ("iterations", 0, 1)):
        with pytest.raises(ValueError, match=f"{field} must be >= {least}, got {value}"):
            SimConfig("ibdd", **{field: value})
    SimConfig("ad", anchor_threshold=0)
    # 2^13 Chase test words per row would overrun one kernel call
    with pytest.raises(ValueError, match="chase_p: p must be between 1 and 12"):
        SimConfig("tpd", chase_p=13)
    # an explicit schedule is checked here, not in the first decoded batch
    with pytest.raises(ValueError, match="w must hold 3 weights, one per iteration, got 2"):
        SimConfig("ibdd-sr", iterations=3, w=(5.0, 5.0))
    with pytest.raises(ValueError, match="w must hold positive weights"):
        SimConfig("igmdd-sr", iterations=2, w=(5.0, 0.0))
    # NaN fails every comparison, so a `<= 0` test let it through
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="not NaN or infinite"):
            SimConfig("ibdd-sr", code_m=4, w=(bad,) * 10)


def test_noiseless_point_is_error_free():
    rec = run_ber_point(small_cfg("ibdd", max_frames=64), ebno_db=15.0)
    assert rec.bit_errors == 0 and rec.frame_errors == 0
    assert rec.ber == 0.0 and rec.fer == 0.0
    assert rec.budget_exhausted  # stop rule hit the frame cap, not errors


def test_prefec_matches_q_function():
    cfg = small_cfg("none", min_frame_errors=10 ** 9, max_frames=300)
    rec = run_ber_point(cfg, ebno_db=4.0)
    rate = (7 / 15) ** 2
    sigma2 = ChannelParams.make(4.0, rate).sigma2
    q = norm.sf(1 / np.sqrt(sigma2))
    nbits = rec.frames * 225
    assert abs(rec.ber - q) < 3 * np.sqrt(q * (1 - q) / nbits)
    assert rec.bit_errors == int(rec.ber * nbits)


def test_record_formulas_and_determinism():
    cfg = small_cfg("ibdd")
    a = run_ber_point(cfg, 3.0)
    b = run_ber_point(cfg, 3.0)
    assert strip_time(a) == strip_time(b)
    assert a.ber == a.bit_errors / (a.frames * 225)
    assert a.fer == a.frame_errors / a.frames
    assert a.iterations == cfg.iterations and a.seed == cfg.master_seed


def test_worker_count_invariance():
    for alg, w in (("ibdd", None), ("ibdd-sr", (1.0, 1.2, 1.4))):
        cfg1 = small_cfg(alg, workers=1, w=w)
        cfg2 = small_cfg(alg, workers=2, w=w)
        a = run_ber_point(cfg1, 3.0)
        b = run_ber_point(cfg2, 3.0)
        assert strip_time(a) == strip_time(dataclasses.replace(b, seed=a.seed))


@pytest.mark.parametrize("alg", ["none", "ibdd", "ad", "ibdd-sr", "ideal-ibdd",
                                 "igmdd-sr", "tpd"])
def test_batch_size_and_worker_invariance(alg):
    # the frame cap ends every run, so the counts must not depend on how
    # the frames are stacked or split across workers
    w = (1.0, 1.2, 1.4) if alg in ("ibdd-sr", "igmdd-sr") else None
    counts = set()
    for batch_frames in (1, 7, 64):
        for workers in (1, 2):
            rec = run_ber_point(small_cfg(alg, w=w, transmission="random",
                                          min_frame_errors=10 ** 9, max_frames=100,
                                          batch_frames=batch_frames,
                                          workers=workers), 2.0)
            counts.add((rec.frames, rec.bit_errors, rec.frame_errors))
    assert len(counts) == 1
    frames, bit_errors, frame_errors = counts.pop()
    assert frames == 100 and 0 < frame_errors <= bit_errors


def blas_threads():
    """Threads of the OpenBLAS bundled with numpy in this process, or None
    when numpy uses another BLAS."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def test_pool_workers_run_one_blas_thread():
    # workers share the cores; BLAS threads of their own oversubscribe them
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(1, initializer=harness._pool_init,
                  initargs=(small_cfg("ibdd"), 3.0)) as pool:
        assert pool.apply_async(blas_threads).get(timeout=60) in (None, 1)


def test_serial_run_uses_one_blas_thread():
    # a fresh process, so that no earlier test has pinned BLAS already
    child = "\n".join([
        "import ctypes, glob, os",
        "import numpy as np",
        "from pcdec.harness import SimConfig, run_ber_point",
        inspect.getsource(blas_threads),
        "run_ber_point(SimConfig('ibdd', code_m=4, extended=False, iterations=3,"
        " max_frames=16, batch_frames=16), 3.0)",
        "print(blas_threads())"])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split()[-1] in ("None", "1")


def test_random_codeword_transmission():
    cfg = small_cfg("ibdd", transmission="random", max_frames=32)
    rec = run_ber_point(cfg, 15.0)
    assert rec.bit_errors == 0


@pytest.mark.parametrize("transmission", ["all-zero", "random"])
def test_hd_decoders_get_hard_decisions_not_llrs(transmission):
    # an HD decoder reads only the signs of the LLRs 2y/sigma^2: it is
    # handed the bytes y < 0, drawn from the same streams as the LLRs of
    # an SD decoder
    seen = {}
    for alg, w in (("ibdd", None), ("ibdd-sr", (1.0,) * 3)):
        sim = harness._FrameSimulator(small_cfg(alg, transmission=transmission, w=w), 1.0)
        sim.decode = lambda sim, channel, sent, alg=alg: seen.setdefault(alg, channel) * 0
        sim(5, 13)
    assert seen["ibdd"].dtype == np.uint8 and seen["ibdd-sr"].dtype == np.float64
    assert np.array_equal(seen["ibdd"], seen["ibdd-sr"] < 0)
    assert seen["ibdd"].any()


def test_all_algorithms_error_free_at_high_snr():
    for alg in ("ibdd", "ad", "ibdd-sr", "igmdd-sr", "ideal-ibdd", "tpd", "none"):
        cfg = small_cfg(alg, max_frames=48, min_frame_errors=5,
                        w=(0.8, 1.0, 1.2) if alg in ("ibdd-sr", "igmdd-sr") else None)
        rec = run_ber_point(cfg, 18.0)
        assert rec.algorithm == alg
        assert rec.frames == 48
        assert rec.bit_errors == 0


def test_run_sweep_single_point_matches_run_ber_point():
    cfg = small_cfg("ibdd", ebno_grid=(3.0,))
    sweep = run_sweep(cfg)
    assert len(sweep) == 1
    assert strip_time(sweep[0]) == strip_time(run_ber_point(cfg, 3.0))


def test_run_sweep_order_and_monotonicity():
    cfg = small_cfg("ibdd", ebno_grid=(2.0, 5.0, 8.0), min_frame_errors=25,
                    max_frames=600)
    recs = run_sweep(cfg)
    assert [r.ebno_db for r in recs] == [2.0, 5.0, 8.0]
    assert recs[0].ber >= recs[1].ber >= recs[2].ber


def test_run_sweep_floor_abort():
    cfg = small_cfg("ibdd", ebno_grid=(12.0, 14.0, 16.0), max_frames=64,
                    ber_floor=1e-3)
    recs = run_sweep(cfg)
    assert len(recs) == 1


def test_run_sweep_stops_after_first_point_below_floor():
    # BER 0.14, 0.024, 0.0083 and 0 on this grid: with a floor between the
    # first two the sweep ends with the second point, without one it runs
    # the whole grid, and the points both ran agree
    cfg = small_cfg("ibdd", ebno_grid=(2.0, 4.0, 5.0, 8.0), min_frame_errors=25,
                    max_frames=600)
    full = run_sweep(cfg)
    floored = run_sweep(dataclasses.replace(cfg, ber_floor=0.05))
    assert [r.ebno_db for r in full] == [2.0, 4.0, 5.0, 8.0]
    assert [strip_time(r) for r in floored] == [strip_time(r) for r in full[:2]]
    assert floored[0].ber >= 0.05 > floored[1].ber


def test_optimizer_single_iteration_is_grid_argmin():
    grid = (0.5, 1.0, 2.0)
    cfg = small_cfg("ibdd-sr", iterations=1, opt_frames=60, opt_grid=grid)
    sched = optimize_scaling(cfg, 3.5)
    assert isinstance(sched, ScalingSchedule)
    assert len(sched.w) == 1
    # independent argmin over the materialized grid (relative values times
    # the LLR magnitude scale) with the same paired evaluation
    scale = 2.0 / ChannelParams.make(3.5, cfg.product_spec().rate).sigma2
    cand = [round(g * scale, 4) for g in grid]
    bers = {}
    for g in cand:
        c = dataclasses.replace(cfg, w=(g,), min_frame_errors=10 ** 9,
                                max_frames=cfg.opt_frames)
        bers[g] = run_ber_point(c, 3.5).ber
    best = min(cand, key=lambda g: (bers[g], cand.index(g)))
    assert sched.w[0] == best


def test_optimizer_output_monotone_and_deterministic():
    cfg = small_cfg("ibdd-sr", iterations=3, opt_frames=40,
                    opt_grid=(0.6, 1.2, 2.4))
    a = optimize_scaling(cfg, 3.0)
    b = optimize_scaling(cfg, 3.0)
    assert a == b
    assert a.is_monotone()


@pytest.mark.parametrize("grid", [(0.6, math.nan), (math.inf,), (0.0, 1.0), ()])
def test_optimizer_rejects_bad_grids(grid):
    with pytest.raises(ValueError, match="grid must be positive and finite"):
        optimize_scaling(small_cfg("ibdd-sr", opt_frames=8, opt_grid=grid), 3.0)


@pytest.mark.parametrize("algorithm", ["none", "ibdd", "ad", "ideal-ibdd", "tpd"])
def test_optimizer_rejects_algorithms_without_schedule(algorithm):
    # these ignore w, so every grid point would measure the same BER
    with pytest.raises(ValueError, match="no scaling schedule"):
        optimize_scaling(small_cfg(algorithm, opt_frames=8), 3.0)


# ------------------------------------------------------------ gain math


def test_required_ebno_interpolates_in_log_domain():
    recs = [make_rec("x", 4.0, 1e-3), make_rec("x", 4.2, 1e-5)]
    assert required_ebno(recs, 1e-4) == pytest.approx(4.1)
    assert required_ebno(recs, 1e-3) == pytest.approx(4.0)
    assert required_ebno(recs, 1e-5) == pytest.approx(4.2)


def test_coding_gain_identities():
    a = [make_rec("a", 3.0, 1e-3), make_rec("a", 3.5, 1e-6)]
    b = [make_rec("b", x + 0.4, r) for x, r in [(3.0, 1e-3), (3.5, 1e-6)]]
    assert coding_gain(a, a, 1e-4) == 0.0
    assert coding_gain(a, b, 1e-4) == pytest.approx(0.4)
    assert coding_gain(b, a, 1e-4) == pytest.approx(-0.4)


def test_coding_gain_not_bracketed():
    a = [make_rec("a", 3.0, 1e-3), make_rec("a", 3.5, 5e-4)]
    with pytest.raises(NotBracketedError):
        required_ebno(a, 1e-6)
    zero = [make_rec("a", 3.0, 0.0), make_rec("a", 3.5, 0.0)]
    with pytest.raises(NotBracketedError):
        required_ebno(zero, 1e-4)


def test_required_ebno_censored_crossing():
    # from above the target straight to zero observed errors: the crossing
    # is bracketed but cannot be interpolated
    drop = [make_rec("a", 3.0, 1e-2), make_rec("a", 3.2, 1e-3),
            make_rec("a", 3.4, 0.0), make_rec("a", 3.6, 0.0)]
    with pytest.raises(CensoredCrossingError, match="3.2 dB.*3.4 dB"):
        required_ebno(drop, 1e-4)
    assert issubclass(CensoredCrossingError, NotBracketedError)
    # a curve already below the target before the zero point never crosses
    with pytest.raises(NotBracketedError) as exc:
        required_ebno(drop, 1e-1)
    assert not isinstance(exc.value, CensoredCrossingError)
    # a measured crossing wins over a zero point elsewhere on the curve
    mixed = drop[:2] + [make_rec("a", 3.3, 0.0), make_rec("a", 3.4, 1e-5)]
    assert required_ebno(mixed, 1e-4) == pytest.approx(3.3)


# ------------------------------------------------------------ capacity


def ref_hd_capacity(sigma2):
    from scipy.special import erfc
    p = 0.5 * erfc(1 / np.sqrt(2 * sigma2))
    if p in (0.0, 1.0):
        return 1.0
    return 1 + p * np.log2(p) + (1 - p) * np.log2(1 - p)


def test_hd_capacity_against_reference_formula():
    for s2 in (0.1, 0.3, 0.7, 1.5):
        assert hd_capacity(s2) == pytest.approx(ref_hd_capacity(s2), abs=1e-12)


def test_sd_threshold_at_rate_half_is_standard_value():
    # the binary-input AWGN threshold at rate 1/2 is a textbook constant
    assert capacity_threshold_ebno_db(0.5, "SD") == pytest.approx(0.187, abs=2e-3)


def test_sd_capacity_bounds():
    # soft capacity exceeds hard capacity, both below 1
    for s2 in (0.2, 0.5, 1.0):
        sd, hd = biawgn_capacity(s2), hd_capacity(s2)
        assert 0 < hd < sd < 1


def test_capacity_gap_zero_at_threshold():
    for mode in ("HD", "SD"):
        thr = capacity_threshold_ebno_db(0.8622, mode)
        assert capacity_gap(0.8622, thr, mode) == pytest.approx(0.0, abs=1e-9)
        assert capacity_gap(0.8622, thr + 1.0, mode) == pytest.approx(1.0, abs=1e-9)


def test_capacity_threshold_monotone_in_rate():
    for mode in ("HD", "SD"):
        t1 = capacity_threshold_ebno_db(0.5, mode)
        t2 = capacity_threshold_ebno_db(0.8, mode)
        t3 = capacity_threshold_ebno_db(0.95, mode)
        assert t1 < t2 < t3
