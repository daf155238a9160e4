"""Command-line front end: simulate, optimize-w, report.

Configuration is flat INI text: a [simulation] section with the shared
settings and one optional section per algorithm. Common settings can be
overridden from the command line. Results go to a CSV with the fixed
header

    algorithm,ebno_db,iterations,frames,bit_errors,frame_errors,ber,fer,seed,w

preceded by one comment line carrying the manifest hash; the manifest
itself (config snapshot, version, timestamps, seed, outputs) is written
next to the CSV as JSON.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone

from . import __version__
from .harness import (
    ALGORITHMS,
    REGISTRY,
    NotBracketedError,
    SimConfig,
    capacity_gap,
    optimize_scaling,
    required_ebno,
    run_sweep,
)

CSV_HEADER = "algorithm,ebno_db,iterations,frames,bit_errors,frame_errors,ber,fer,seed,w"


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_floats(s: str, sep: str = ",") -> tuple[float, ...]:
    return tuple(float(x) for x in s.replace(" ", "").split(sep) if x)


def load_config(paths: list[str], overrides: argparse.Namespace) -> dict:
    """Merge config files (later files win) and CLI overrides into the
    per-algorithm SimConfig set plus output options."""
    parser = configparser.ConfigParser()
    for path in paths:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    sim = parser["simulation"] if parser.has_section("simulation") else {}

    def pick(flag_value, key, default, conv):
        if flag_value is not None:
            return flag_value
        if key in sim:
            return conv(sim[key])
        return default

    algorithms = pick(getattr(overrides, "algorithms", None), "algorithms",
                      "ibdd", str)
    if isinstance(algorithms, str):
        algorithms = tuple(a for a in algorithms.replace(" ", "").split(",") if a)
    ebno = pick(getattr(overrides, "ebno", None), "ebno", (), str)
    if isinstance(ebno, str):
        ebno = _parse_floats(ebno)

    common = dict(
        code_m=int(sim.get("code_m", 8)),
        code_t=int(sim.get("code_t", 2)),
        extended=_parse_bool(sim.get("extended", "true")),
        iterations=int(sim.get("iterations", 10)),
        ebno_grid=ebno,
        min_frame_errors=pick(getattr(overrides, "min_frame_errors", None),
                              "min_frame_errors", 100, int),
        max_frames=pick(getattr(overrides, "max_frames", None),
                        "max_frames", 1_000_000, int),
        master_seed=pick(getattr(overrides, "seed", None), "seed", 1, int),
        workers=pick(getattr(overrides, "workers", None), "workers",
                     int(os.environ.get("PCDEC_WORKERS", "1")), int),
        transmission=sim.get("transmission", "all-zero"),
        batch_frames=int(sim.get("batch_frames", 64)),
        ber_floor=float(sim["ber_floor"]) if "ber_floor" in sim else None,
    )

    configs = {}
    for alg in algorithms:
        extra = {}
        if parser.has_section(alg):
            sect = parser[alg]
            if "w" in sect:
                extra["w"] = _parse_floats(sect["w"], sep=";")
            if "threshold" in sect:
                extra["anchor_threshold"] = int(sect["threshold"])
            if "p" in sect:
                extra["chase_p"] = int(sect["p"])
            if "opt_grid" in sect:
                extra["opt_grid"] = _parse_floats(sect["opt_grid"])
            if "opt_frames" in sect:
                extra["opt_frames"] = int(sect["opt_frames"])
        configs[alg] = SimConfig(algorithm=alg, **common, **extra)
    return {
        "configs": configs,
        "out": getattr(overrides, "out", None) or sim.get("out", "results.csv"),
        "optimize_at": float(sim["optimize_at"]) if "optimize_at" in sim else None,
    }


def _manifest(configs: dict, out_path: str, started: float) -> dict:
    snapshot = {alg: dataclasses.asdict(cfg) for alg, cfg in configs.items()}
    return {
        "tool": "pcdec",
        "version": __version__,
        "config": snapshot,
        "master_seed": next(iter(configs.values())).master_seed if configs else None,
        "started": datetime.fromtimestamp(started, timezone.utc).isoformat(),
        "finished": datetime.now(timezone.utc).isoformat(),
        "outputs": [out_path],
    }


def _write_results(out_path: str, records, configs: dict, started: float) -> None:
    manifest = _manifest(configs, out_path, started)
    blob = json.dumps(manifest, sort_keys=True, default=str).encode()
    digest = hashlib.sha256(blob).hexdigest()
    with open(out_path + ".manifest.json", "w") as fh:
        fh.write(blob.decode())
        fh.write("\n")
    lines = [f"# manifest={digest}", CSV_HEADER]
    for r in records:
        w_field = ";".join(str(x) for x in r.w) if r.w else ""
        lines.append(
            f"{r.algorithm},{r.ebno_db},{r.iterations},{r.frames},"
            f"{r.bit_errors},{r.frame_errors},{r.ber},{r.fer},{r.seed},{w_field}")
    with open(out_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _progress(info: dict) -> None:
    n2 = info.get("_n2", 1)
    ber = info["bit_errors"] / max(1, info["frames"] * n2)
    rel = (1.0 / max(1, info["frame_errors"]) ** 0.5) if info["frame_errors"] else 1.0
    print(f"  {info['algorithm']} @ {info['ebno_db']:.3f} dB: "
          f"{info['frames']} frames, {info['frame_errors']} frame errors, "
          f"ber~{ber:.3e} (+-{100 * rel:.0f}%)",
          file=sys.stderr, flush=True)


def cmd_simulate(args) -> int:
    started = time.time()
    setup = load_config(args.config, args)
    records = []
    for alg, cfg in setup["configs"].items():
        if not cfg.ebno_grid:
            print("error: no ebno grid configured", file=sys.stderr)
            return 2
        n2 = cfg.product_spec().n ** 2

        def progress(info, _n2=n2):
            info["_n2"] = _n2
            _progress(info)

        records.extend(run_sweep(cfg, progress=progress))
    _write_results(setup["out"], records, setup["configs"], started)
    print(f"wrote {setup['out']} ({len(records)} points)", file=sys.stderr)
    if args.strict and any(r.budget_exhausted for r in records):
        print("error: frame budget exhausted before the error target",
              file=sys.stderr)
        return 3
    return 0


def cmd_optimize_w(args) -> int:
    setup = load_config(args.config, args)
    ebno = args.at if args.at is not None else setup["optimize_at"]
    if ebno is None:
        grids = [cfg.ebno_grid for cfg in setup["configs"].values() if cfg.ebno_grid]
        if not grids:
            print("error: give --at or an ebno grid", file=sys.stderr)
            return 2
        ebno = grids[0][len(grids[0]) // 2]
    parser = configparser.ConfigParser()
    for alg, cfg in setup["configs"].items():
        if not REGISTRY[alg].takes_w:
            continue
        sched = optimize_scaling(cfg, ebno)
        parser[alg] = {"w": ";".join(str(x) for x in sched.w)}
        print(f"{alg}: w = {';'.join(str(x) for x in sched.w)}", file=sys.stderr)
    with open(args.out or "schedules.ini", "w") as fh:
        parser.write(fh)
    return 0


def _read_csv(path: str) -> dict[str, list]:
    from .harness import BerRecord

    curves: dict[str, list] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("algorithm,"):
                continue
            f = line.split(",")
            rec = BerRecord(
                algorithm=f[0], ebno_db=float(f[1]), iterations=int(f[2]),
                frames=int(f[3]), bit_errors=int(f[4]), frame_errors=int(f[5]),
                ber=float(f[6]), fer=float(f[7]), seed=int(f[8]),
                w=tuple(float(x) for x in f[9].split(";")) if f[9] else None,
                wall_time=0.0, budget_exhausted=False)
            curves.setdefault(rec.algorithm, []).append(rec)
    return curves


def cmd_report(args) -> int:
    curves = _read_csv(args.results)
    if "ibdd" not in curves:
        print("error: report needs an ibdd curve as the baseline", file=sys.stderr)
        return 2
    rate = args.rate
    if rate is None:
        man_path = args.results + ".manifest.json"
        if os.path.exists(man_path):
            with open(man_path) as fh:
                cfg = next(iter(json.load(fh)["config"].values()))
            spec = SimConfig(**{k: tuple(v) if isinstance(v, list) else v
                                for k, v in cfg.items()}).product_spec()
            rate = spec.rate
        else:
            print("error: no run manifest next to the results; give the code "
                  "rate with --rate", file=sys.stderr)
            return 2
    target = args.target_ber
    print(f"target BER {target:g}, rate {rate:.4f}")
    print(f"{'algorithm':<12} {'Eb/N0 [dB]':>11} {'gain over ibdd [dB]':>20} "
          f"{'gap from capacity [dB]':>23}")
    base = None
    try:
        base = required_ebno(curves["ibdd"], target)
    except NotBracketedError:
        pass
    for alg in [a for a in ALGORITHMS if a in curves]:
        try:
            x = required_ebno(curves[alg], target)
            gain = "-" if alg == "ibdd" else (
                f"{base - x:+.3f}" if base is not None else "n/a")
            mode = REGISTRY[alg].capacity_mode
            gap = f"{capacity_gap(rate, x, mode):.3f} ({mode})"
            print(f"{alg:<12} {x:>11.3f} {gain:>20} {gap:>23}")
        except NotBracketedError:
            print(f"{alg:<12} {'n/a':>11} {'n/a':>20} {'n/a':>23}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pcdec",
                                 description="product-code decoder simulations")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run BER sweeps and write a CSV")
    sim.add_argument("--config", action="append", default=[],
                     help="INI config file; repeat to merge fragments")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--workers", type=int, default=None)
    sim.add_argument("--algorithms", type=str, default=None)
    sim.add_argument("--ebno", type=str, default=None,
                     help="comma-separated Eb/N0 grid in dB")
    sim.add_argument("--min-frame-errors", dest="min_frame_errors", type=int,
                     default=None)
    sim.add_argument("--max-frames", dest="max_frames", type=int, default=None)
    sim.add_argument("--out", type=str, default=None)
    sim.add_argument("--strict", action="store_true",
                     help="fail when the frame budget runs out")
    sim.set_defaults(func=cmd_simulate)

    opt = sub.add_parser("optimize-w", help="optimize scaling schedules")
    opt.add_argument("--config", action="append", default=[])
    opt.add_argument("--at", type=float, default=None,
                     help="Eb/N0 (dB) to optimize at")
    opt.add_argument("--seed", type=int, default=None)
    opt.add_argument("--workers", type=int, default=None)
    opt.add_argument("--algorithms", type=str, default=None)
    opt.add_argument("--ebno", type=str, default=None)
    opt.add_argument("--out", type=str, default=None)
    opt.set_defaults(func=cmd_optimize_w)

    rep = sub.add_parser("report", help="gains over ibdd and capacity gaps")
    rep.add_argument("results", help="CSV produced by simulate")
    rep.add_argument("--target-ber", dest="target_ber", type=float, default=1e-4)
    rep.add_argument("--rate", type=float, default=None,
                     help="code rate (default: from the manifest)")
    rep.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
