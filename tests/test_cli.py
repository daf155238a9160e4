import argparse
import dataclasses
import hashlib
import json
import os
import re

import numpy as np
import pytest

from pcdec.cli import CSV_HEADER, load_config, main
from pcdec.harness import ALGORITHMS, SimConfig

MINI_SIM = """
[simulation]
code_m = 4
code_t = 2
extended = false
iterations = 2
ebno = 6.0
min_frame_errors = 4
max_frames = 64
seed = 11
workers = 1
batch_frames = 16
algorithms = ibdd
"""


def body_lines(path):
    with open(path) as fh:
        return [ln for ln in fh.read().splitlines() if not ln.startswith("#")]


def write(tmp, name, text):
    p = tmp / name
    p.write_text(text)
    return str(p)


def test_simulate_minimal_config(tmp_path):
    cfg = write(tmp_path, "sim.ini", MINI_SIM)
    out = str(tmp_path / "r.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    lines = body_lines(out)
    assert lines[0] == ("algorithm,ebno_db,iterations,frames,bit_errors,"
                        "frame_errors,ber,fer,seed,w")
    assert len(lines) == 2
    assert lines[1].startswith("ibdd,6.0,2,")


def test_simulate_seed_reproducible_bodies(tmp_path):
    cfg = write(tmp_path, "sim.ini", MINI_SIM)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["simulate", "--config", cfg, "--out", out1, "--seed", "5"]) == 0
    assert main(["simulate", "--config", cfg, "--out", out2, "--seed", "5"]) == 0
    assert body_lines(out1) == body_lines(out2)
    out3 = str(tmp_path / "c.csv")
    assert main(["simulate", "--config", cfg, "--out", out3, "--seed", "6"]) == 0
    assert body_lines(out1) != body_lines(out3)


def test_simulate_all_algorithms_one_csv(tmp_path):
    cfg = write(tmp_path, "sim.ini", MINI_SIM + """
[ibdd-sr]
w = 0.9;1.1
[igmdd-sr]
w = 0.9;1.1
""")
    out = str(tmp_path / "all.csv")
    rc = main(["simulate", "--config", cfg, "--out", out,
               "--algorithms", "ibdd,ad,ibdd-sr,ideal-ibdd,igmdd-sr,tpd",
               "--max-frames", "32", "--min-frame-errors", "2"])
    assert rc == 0
    algs = [ln.split(",")[0] for ln in body_lines(out)[1:]]
    assert algs == ["ibdd", "ad", "ibdd-sr", "ideal-ibdd", "igmdd-sr", "tpd"]


def test_manifest_hash_traceability(tmp_path):
    cfg = write(tmp_path, "sim.ini", MINI_SIM)
    out = str(tmp_path / "r.csv")
    main(["simulate", "--config", cfg, "--out", out])
    with open(out) as fh:
        first = fh.readline().strip()
    assert first.startswith("# manifest=")
    digest = first.split("=", 1)[1]
    blob = open(out + ".manifest.json", "rb").read().rstrip(b"\n")
    assert hashlib.sha256(blob).hexdigest() == digest
    man = json.loads(blob)
    assert man["tool"] == "pcdec"
    assert man["config"]["ibdd"]["master_seed"] == 11
    assert out in man["outputs"]


def test_optimize_w_roundtrip(tmp_path):
    base = write(tmp_path, "sim.ini", MINI_SIM.replace(
        "algorithms = ibdd", "algorithms = ibdd-sr").replace(
        "iterations = 2", "iterations = 2\noptimize_at = 5.0") + """
[ibdd-sr]
opt_grid = 0.8,1.6
opt_frames = 24
""")
    frag = str(tmp_path / "sched.ini")
    assert main(["optimize-w", "--config", base, "--out", frag]) == 0
    text = open(frag).read()
    assert "[ibdd-sr]" in text and "w =" in text
    ws = [float(x) for x in text.split("w =")[1].strip().splitlines()[0].split(";")]
    assert ws == sorted(ws)  # monotone
    out = str(tmp_path / "r.csv")
    assert main(["simulate", "--config", base, "--config", frag,
                 "--out", out]) == 0
    w_field = body_lines(out)[1].split(",")[9]
    assert [float(x) for x in w_field.split(";")] == ws


def make_curve(alg, cross, target_exp=-5):
    # two points straddling 10^target_exp, log-linear
    lines = []
    for dx, exp in ((-0.05, target_exp + 1), (0.05, target_exp - 1)):
        ber = 10.0 ** exp
        lines.append(f"{alg},{cross + dx:.6f},10,1000,{int(ber * 1e9)},10,"
                     f"{ber},{min(1.0, ber * 650)},1,")
    return lines


def test_report_reproduces_reference_gains(tmp_path, capsys):
    x0 = 4.94
    rows = []
    for alg, gain in [("ibdd", 0.0), ("ad", 0.18), ("ibdd-sr", 0.25),
                      ("ideal-ibdd", 0.28), ("igmdd-sr", 0.60), ("tpd", 1.08)]:
        rows += make_curve(alg, x0 - gain)
    csv = write(tmp_path, "fig3.csv",
                "algorithm,ebno_db,iterations,frames,bit_errors,frame_errors,"
                "ber,fer,seed,w\n" + "\n".join(rows) + "\n")
    assert main(["report", csv, "--target-ber", "1e-5", "--rate", "0.8622"]) == 0
    out = capsys.readouterr().out
    got = {}
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] in ("ad", "ibdd-sr", "ideal-ibdd", "igmdd-sr", "tpd"):
            got[parts[0]] = float(parts[2])
    assert got["ad"] == pytest.approx(0.18, abs=1e-6)
    assert got["ibdd-sr"] == pytest.approx(0.25, abs=1e-6)
    assert got["ideal-ibdd"] == pytest.approx(0.28, abs=1e-6)
    assert got["igmdd-sr"] == pytest.approx(0.60, abs=1e-6)
    assert got["tpd"] == pytest.approx(1.08, abs=1e-6)


def test_report_single_curve_and_duplicate(tmp_path, capsys):
    rows = make_curve("ibdd", 4.5)
    csv = write(tmp_path, "one.csv",
                "algorithm,ebno_db,iterations,frames,bit_errors,frame_errors,"
                "ber,fer,seed,w\n" + "\n".join(rows) + "\n")
    assert main(["report", csv, "--target-ber", "1e-5", "--rate", "0.8622"]) == 0
    out = capsys.readouterr().out
    assert "ibdd" in out and "ad" not in out

    rows += [r.replace("ibdd", "ad", 1) for r in make_curve("ibdd", 4.5)]
    csv2 = write(tmp_path, "two.csv",
                 "algorithm,ebno_db,iterations,frames,bit_errors,frame_errors,"
                 "ber,fer,seed,w\n" + "\n".join(rows) + "\n")
    main(["report", csv2, "--target-ber", "1e-5", "--rate", "0.8622"])
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("ad"):
            assert float(line.split()[2]) == pytest.approx(0.0, abs=1e-9)


def test_report_not_bracketed_is_na(tmp_path, capsys):
    rows = make_curve("ibdd", 4.5) + [
        "tpd,3.0,10,1000,500000,1000,0.002,1.0,1,",
        "tpd,3.2,10,1000,400000,1000,0.0016,1.0,1,",
        "ad,4.0,10,1000,500000,1000,0.002,1.0,1,",
        "ad,4.2,10,1000,0,0,0.0,0.0,1,",
    ]
    csv = write(tmp_path, "na.csv",
                "algorithm,ebno_db,iterations,frames,bit_errors,frame_errors,"
                "ber,fer,seed,w\n" + "\n".join(rows) + "\n")
    assert main(["report", csv, "--target-ber", "1e-5", "--rate", "0.8622"]) == 0
    out = capsys.readouterr().out
    assert any(line.startswith("tpd") and "n/a" in line
               for line in out.splitlines())
    # from above the target straight to zero errors: censored, not n/a
    assert any(line.split()[:2] == ["ad", "censored"]
               for line in out.splitlines())


def test_report_requires_ibdd(tmp_path, capsys):
    rows = make_curve("tpd", 4.0)
    csv = write(tmp_path, "x.csv",
                "algorithm,ebno_db,iterations,frames,bit_errors,frame_errors,"
                "ber,fer,seed,w\n" + "\n".join(rows) + "\n")
    assert main(["report", csv]) == 2


def test_report_without_rate_or_manifest_exits(tmp_path, capsys):
    rows = make_curve("ibdd", 4.5)
    csv = write(tmp_path, "bare.csv",
                "algorithm,ebno_db,iterations,frames,bit_errors,frame_errors,"
                "ber,fer,seed,w\n" + "\n".join(rows) + "\n")
    assert main(["report", csv, "--target-ber", "1e-5"]) == 2
    assert "--rate" in capsys.readouterr().err
    assert main(["report", csv, "--target-ber", "1e-5", "--rate", "0.8622"]) == 0


@pytest.mark.parametrize("text,where", [
    ("algorithm,ebno_db\nibdd,3.0\n", ":2: 2 fields, expected 10"),
    (CSV_HEADER + "\nibdd,4.4,10,1000,1,1,x,0.001,1,\n", ":2: ber: "),
    ("# manifest=0\n" + CSV_HEADER + "\nibdd,4.4,10,1000,1,1,1e-6,0.001,1,\n"
     "ibdd,4.6,10,1000,1,1,1e-7,0.001,1,0.5;y\n", ":4: w: "),
], ids=["short-row", "bad-ber", "bad-w"])
def test_report_malformed_csv_row_exits_2_naming_its_line(tmp_path, capsys, text, where):
    csv = write(tmp_path, "bad.csv", text)
    assert main(["report", csv, "--rate", "0.8622"]) == 2
    assert f"error: {csv}{where}" in capsys.readouterr().err


def test_bad_config_exits_nonzero(tmp_path):
    cfg = write(tmp_path, "bad.ini", "[simulation]\nalgorithms = warp\nebno = 4\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2


def test_strict_mode_flags_budget_exhaustion(tmp_path):
    cfg = write(tmp_path, "sim.ini", MINI_SIM)
    out = str(tmp_path / "r.csv")
    # at a noiseless operating point the error target is unreachable
    assert main(["simulate", "--config", cfg, "--out", out,
                 "--ebno", "15.0", "--strict"]) == 3
    assert main(["simulate", "--config", cfg, "--out", out,
                 "--ebno", "15.0"]) == 0


@pytest.mark.parametrize("fault,key", [
    (MINI_SIM + "[ibdd]\nw = 5;5\n", "'w'"),
    (MINI_SIM + "[ibdd]\nthreshold = 9\n", "'threshold'"),
    (MINI_SIM + "iteration = 7\n", "'iteration'"),
    (MINI_SIM + "[ad]\niterations = 7\n", "'iterations'"),
    (MINI_SIM + "[warp]\n", "[warp]"),
    (MINI_SIM.replace("algorithms = ibdd", ""), "algorithms"),
    (MINI_SIM.replace("max_frames = 64", "max_frames = 0"), "max_frames"),
    # a schedule of the wrong length fails before any point is simulated
    (MINI_SIM.replace("algorithms = ibdd", "algorithms = ibdd,ibdd-sr")
     .replace("iterations = 2", "iterations = 3") + "[ibdd-sr]\nw = 5;5\n",
     "w must hold 3 weights"),
    (MINI_SIM.replace("algorithms = ibdd", "algorithms = ibdd,tpd") + "[tpd]\np = 13\n",
     "chase_p: p must be between 1 and 12"),
])
def test_config_faults_exit_2_naming_the_key(tmp_path, capsys, fault, key):
    cfg = write(tmp_path, "bad.ini", fault)
    out = str(tmp_path / "r.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 2
    assert key in capsys.readouterr().err
    assert not os.path.exists(out)


def test_chase_p_past_the_component_length_exits_2_before_any_point(tmp_path, capsys):
    # n = 7, and ibdd runs before tpd: rejected only by tpd_stack, the ibdd
    # point would be simulated and then thrown away
    sim = (MINI_SIM.replace("code_m = 4", "code_m = 3").replace("code_t = 2", "code_t = 1")
           .replace("algorithms = ibdd", "algorithms = ibdd,tpd") + "[tpd]\np = 9\n")
    cfg = write(tmp_path, "bad.ini", sim)
    out = str(tmp_path / "r.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "chase_p: Chase p = 9 test bits exceed the component length n = 7" in err
    assert " dB: " not in err  # no progress line: no point was simulated
    assert not os.path.exists(out)


def test_missing_schedule_exits_2_before_any_point(tmp_path, capsys):
    # no shipped ibdd-sr schedule for m = 4: the ibdd point ran first, then
    # the run failed without writing its results
    sim = MINI_SIM.replace("algorithms = ibdd", "algorithms = ibdd,ibdd-sr")
    cfg = write(tmp_path, "bad.ini", sim)
    out = str(tmp_path / "r.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "no scaling schedule for ibdd-sr (m=4)" in err
    assert " dB: " not in err  # no progress line: no point was simulated
    assert not os.path.exists(out)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_ebno_exits_2_before_any_point(tmp_path, capsys, value):
    # at NaN the point came out error-free and the run exited 0
    cfg = write(tmp_path, "sim.ini", MINI_SIM)
    out = str(tmp_path / "r.csv")
    assert main(["simulate", "--config", cfg, "--out", out, "--ebno", f"3.0,{value}"]) == 2
    err = capsys.readouterr().err
    assert "ebno grid must be finite" in err and value in err
    assert " dB: " not in err  # no progress line: no point was simulated
    assert not os.path.exists(out)


@pytest.mark.parametrize("flags,message", [
    *(pytest.param([f"--target-ber={target}", "--rate", "0.8622"],
                   "target BER must be in (0, 1)", id=target)
      for target in ("0", "-1e-4", "1", "nan")),
    # a bad rate printed the header before failing at the first capacity
    # gap, and a whole table, exiting 0, when no curve crossed the target
    *(pytest.param(["--rate", rate], "rate must be in (0, 1)", id=f"rate={rate}")
      for rate in ("1.5", "0", "1", "-0.5", "nan", "inf")),
    pytest.param(["--rate", "1.5", "--target-ber", "1e-9"], "rate must be in (0, 1)",
                 id="rate=1.5-uncrossed"),
])
def test_report_target_ber_outside_0_1_exits_2(tmp_path, capsys, flags, message):
    # a target of 0 printed "censored" for ibdd and exited 0
    csv = write(tmp_path, "one.csv", CSV_HEADER + "\n" + "\n".join(make_curve("ibdd", 4.5)))
    assert main(["report", csv, *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("line,fault,message", [
    ("code_m = 4", "code_m = 12", "code_m must be one of 2, 3, 4, 5, 6, 7, 8, 9, 10, got 12"),
    ("code_t = 2", "code_t = 0", "code_t must be >= 1"),
])
def test_unsupported_code_exits_2(tmp_path, capsys, line, fault, message):
    cfg = write(tmp_path, "bad.ini", MINI_SIM.replace(line, fault))
    out = str(tmp_path / "r.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key,value", [
    ("code_m", "x"), ("ebno", "3.0,abc"), ("extended", "maybe"),
    ("seed", "1.5"), ("batch_frames", ""),
])
def test_malformed_ini_value_names_its_key(tmp_path, capsys, key, value):
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", MINI_SIM, flags=re.M)
    if f"{key} = {value}" not in text:
        text += f"{key} = {value}\n"
    cfg = write(tmp_path, "bad.ini", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    assert f"error: {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--ebno", "3.0,x"), ("--seed", "q"), ("--workers", "two"),
    ("--max-frames", "1e3"), ("--min-frame-errors", "-"),
])
def test_malformed_flag_value_names_the_flag(tmp_path, capsys, flag, value):
    cfg = write(tmp_path, "sim.ini", MINI_SIM)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.csv"),
              f"{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err
    assert "_parse" not in err and "<lambda>" not in err


def test_malformed_workers_environment_names_it(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PCDEC_WORKERS", "many")
    cfg = write(tmp_path, "sim.ini", MINI_SIM.replace("workers = 1\n", ""))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    assert "error: PCDEC_WORKERS: " in capsys.readouterr().err


def test_unset_keys_take_simconfig_defaults(tmp_path, monkeypatch):
    monkeypatch.delenv("PCDEC_WORKERS", raising=False)
    # uncoded frames at 0 dB all fail, so the default error target ends
    # the run after two batches even on the default (256,239,6)^2 code
    cfg = write(tmp_path, "min.ini", "[simulation]\nalgorithms = none\nebno = 0.0\n")
    out = str(tmp_path / "r.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    man = json.load(open(out + ".manifest.json"))
    want = SimConfig("none", ebno_grid=(0.0,))
    assert man["config"] == {
        "none": json.loads(json.dumps(dataclasses.asdict(want)))}
    assert man["rate"] == want.product_spec().rate


def test_workers_precedence_flag_ini_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PCDEC_WORKERS", "3")
    bare = write(tmp_path, "bare.ini", MINI_SIM.replace("workers = 1\n", ""))
    pinned = write(tmp_path, "pinned.ini", MINI_SIM)

    def workers(path, flag=None):
        setup = load_config([path], argparse.Namespace(workers=flag))
        return setup["configs"]["ibdd"].workers

    assert workers(bare) == 3
    assert workers(pinned) == 1
    assert workers(pinned, flag=2) == 2


def test_readme_example_config_loads(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    example = re.search(r"```ini\n(.*?)```", open(readme).read(), re.S).group(1)
    setup = load_config([write(tmp_path, "example.ini", example)],
                        argparse.Namespace())
    assert tuple(setup["configs"]) == ALGORITHMS[1:]
    assert len(setup["configs"]["ibdd-sr"].w) == 10
    assert setup["configs"]["tpd"].chase_p == 4


def test_report_reads_rate_from_manifest(tmp_path, capsys):
    cfg = write(tmp_path, "sim.ini", MINI_SIM)
    out = str(tmp_path / "r.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    assert main(["report", out]) == 0
    assert f"rate {(7 / 15) ** 2:.4f}" in capsys.readouterr().out


def test_optimize_w_needs_an_ebno(tmp_path, capsys):
    base = write(tmp_path, "sim.ini", MINI_SIM.replace(
        "algorithms = ibdd", "algorithms = ibdd-sr"))
    frag = str(tmp_path / "sched.ini")
    assert main(["optimize-w", "--config", base, "--out", frag]) == 2
    assert "--at" in capsys.readouterr().err
    assert not os.path.exists(frag)


def test_optimize_w_without_a_schedule_to_tune_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "sim.ini", MINI_SIM)
    frag = str(tmp_path / "sched.ini")
    assert main(["optimize-w", "--config", cfg, "--algorithms", "ibdd,ad",
                 "--at", "4.0", "--out", frag]) == 2
    assert "ibdd-sr, igmdd-sr" in capsys.readouterr().err
    assert not os.path.exists(frag)
