"""Command-line front end: simulate, optimize-w, report.

Configuration is flat INI text: a [simulation] section with the shared
settings and one optional section per algorithm with its own keys (KEYS and
SECTION_KEYS); flags override shared keys. Results go to a CSV with the fixed
header

    algorithm,ebno_db,iterations,frames,bit_errors,frame_errors,ber,fer,seed,w

preceded by one comment line carrying the manifest hash; the manifest
itself (config snapshot, version, timestamps, seed, code rate, outputs) is
written next to the CSV as JSON.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import hashlib
import json
import os
import re
import sys
import time
from datetime import datetime, timezone

from . import __version__
from .harness import (
    ALGORITHMS,
    REGISTRY,
    BerRecord,
    CensoredCrossingError,
    NotBracketedError,
    SimConfig,
    capacity_gap,
    optimize_scaling,
    required_ebno,
    run_sweep,
)

CSV_HEADER = "algorithm,ebno_db,iterations,frames,bit_errors,frame_errors,ber,fer,seed,w"


def _parse_bool(s: str) -> bool:
    if s.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {s!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[s.lower()]


def _parse_tuple(s: str, conv=float, sep: str = ",") -> tuple:
    return tuple(conv(x) for x in s.replace(" ", "").split(sep) if x)


# INI key -> (SimConfig field, parser); "algorithms", "out" and
# "optimize_at" are run settings, not SimConfig fields. A command-line flag
# overrides the key it is named after.
KEYS = {
    "algorithms": ("algorithms", lambda s: _parse_tuple(s, str)),
    "out": ("out", str),
    "optimize_at": ("optimize_at", float),
    "code_m": ("code_m", int),
    "code_t": ("code_t", int),
    "extended": ("extended", _parse_bool),
    "iterations": ("iterations", int),
    "ebno": ("ebno_grid", _parse_tuple),
    "min_frame_errors": ("min_frame_errors", int),
    "max_frames": ("max_frames", int),
    "seed": ("master_seed", int),
    "workers": ("workers", int),
    "transmission": ("transmission", str),
    "batch_frames": ("batch_frames", int),
    "ber_floor": ("ber_floor", float),
    "threshold": ("anchor_threshold", int),
    "p": ("chase_p", int),
    "w": ("w", lambda s: _parse_tuple(s, sep=";")),
    "opt_grid": ("opt_grid", _parse_tuple),
    "opt_frames": ("opt_frames", int),
}
# a decoder's section takes the keys of its registry fields, and
# [simulation] every key that no decoder's section takes
SECTION_KEYS = {a.name: [k for k, (f, _) in KEYS.items() if f in a.fields]
                for a in REGISTRY.values()}
SECTION_KEYS["simulation"] = [
    k for k in KEYS if not any(k in keys for keys in SECTION_KEYS.values())]


def _parse(parse, text: str, name: str):
    """``parse(text)``, with ``name`` leading the ValueError it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _flag(key: str):
    """The argparse type of the flag that overrides ``key``; argparse
    prefixes its error with the flag."""
    def parse(text: str):
        try:
            return KEYS[key][1](text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def load_config(paths: list[str], overrides: argparse.Namespace) -> dict:
    """Merge config files (later files win) and CLI overrides into the
    per-algorithm SimConfig set plus the run settings. Unset keys take the
    SimConfig defaults; PCDEC_WORKERS sets workers when neither the flag
    nor the INI does. Unknown or misplaced keys, a missing algorithms
    setting and a value SimConfig rejects raise ValueError naming the key."""
    parser = configparser.ConfigParser()
    for path in paths:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    sections = {}
    for name in parser.sections():
        if name not in SECTION_KEYS:
            raise ValueError(f"unknown section [{name}]")
        allowed = SECTION_KEYS[name]
        for key in parser[name]:
            if key not in allowed:
                raise ValueError(f"key {key!r} is not allowed in [{name}], which "
                                 f"takes: {', '.join(allowed) or 'no keys'}")
        sections[name] = {KEYS[k][0]: _parse(KEYS[k][1], v, k)
                          for k, v in parser[name].items()}
    shared = sections.pop("simulation", {})
    shared.update({KEYS[k][0]: getattr(overrides, k) for k in SECTION_KEYS["simulation"]
                   if getattr(overrides, k, None) is not None})
    if "workers" not in shared and "PCDEC_WORKERS" in os.environ:
        shared["workers"] = _parse(KEYS["workers"][1], os.environ["PCDEC_WORKERS"],
                                   "PCDEC_WORKERS")
    algorithms, out, optimize_at = (
        shared.pop(k, None) for k in ("algorithms", "out", "optimize_at"))
    if not algorithms:
        raise ValueError("no algorithms: set algorithms in [simulation] "
                         "or give --algorithms")
    try:
        configs = {alg: SimConfig(algorithm=alg, **shared, **sections.get(alg, {}))
                   for alg in algorithms}
    except ValueError as exc:
        # SimConfig's messages lead with the field: name the key written instead
        field, rest = re.match(r"(\w*)(.*)", str(exc), re.S).groups()
        key = next((k for k, (f, _) in KEYS.items() if f == field), field)
        raise ValueError(key + rest) from None
    return {"configs": configs, "out": out or "results.csv", "optimize_at": optimize_at}


def _write_results(out_path: str, records, configs: dict, started: float) -> None:
    first = next(iter(configs.values()))
    manifest = {
        "tool": "pcdec",
        "version": __version__,
        "config": {alg: dataclasses.asdict(cfg) for alg, cfg in configs.items()},
        "master_seed": first.master_seed,
        "rate": first.product_spec().rate,
        "started": datetime.fromtimestamp(started, timezone.utc).isoformat(),
        "finished": datetime.now(timezone.utc).isoformat(),
        "outputs": [out_path],
    }
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
    rel = (1.0 / max(1, info["frame_errors"]) ** 0.5) if info["frame_errors"] else 1.0
    print(f"  {info['algorithm']} @ {info['ebno_db']:.3f} dB: "
          f"{info['frames']} frames, {info['frame_errors']} frame errors, "
          f"ber~{info['ber']:.3e} (+-{100 * rel:.0f}%)",
          file=sys.stderr, flush=True)


def cmd_simulate(args) -> int:
    started = time.time()
    setup = load_config(args.config, args)
    configs = setup["configs"].values()
    for cfg in configs:
        if not cfg.ebno_grid:
            print("error: no ebno grid configured", file=sys.stderr)
            return 2
        cfg.resolve_w()  # a missing schedule fails before the first point
    records = [rec for cfg in configs for rec in run_sweep(cfg, progress=_progress)]
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
        print("error: give the Eb/N0 to optimize at with --at or optimize_at",
              file=sys.stderr)
        return 2
    tuned = {a: cfg for a, cfg in setup["configs"].items() if "w" in REGISTRY[a].fields}
    if not tuned:
        takes_w = ", ".join(a for a in ALGORITHMS if "w" in REGISTRY[a].fields)
        print(f"error: nothing to optimize: only {takes_w} take a w schedule",
              file=sys.stderr)
        return 2
    parser = configparser.ConfigParser()
    for alg, cfg in tuned.items():
        w = ";".join(str(x) for x in optimize_scaling(cfg, ebno).w)
        parser[alg] = {"w": w}
        print(f"{alg}: w = {w}", file=sys.stderr)
    with open(args.out or "schedules.ini", "w") as fh:
        parser.write(fh)
    return 0


# the parser of each CSV_HEADER field, named as in BerRecord
CSV_FIELDS = dict(zip(CSV_HEADER.split(","), (
    str, float, int, int, int, int, float, float, int,
    lambda s: _parse_tuple(s, sep=";") or None)))


def _read_csv(path: str) -> dict[str, list]:
    """The records of a results CSV by algorithm. A short row or a bad value
    raises a ValueError naming ``path:line`` (and the field)."""
    curves: dict[str, list] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("algorithm,"):
                continue
            where, values = f"{path}:{lineno}", line.split(",")
            if len(values) != len(CSV_FIELDS):
                raise ValueError(f"{where}: {len(values)} fields, expected "
                                 f"{len(CSV_FIELDS)} ({CSV_HEADER})")
            fields = {name: _parse(parse, text, f"{where}: {name}")
                      for (name, parse), text in zip(CSV_FIELDS.items(), values)}
            rec = BerRecord(**fields, wall_time=0.0, budget_exhausted=False)
            curves.setdefault(rec.algorithm, []).append(rec)
    return curves


def cmd_report(args) -> int:
    curves = _read_csv(args.results)
    if "ibdd" not in curves:
        print("error: report needs an ibdd curve as the baseline", file=sys.stderr)
        return 2
    rate = args.rate
    if rate is None and os.path.exists(args.results + ".manifest.json"):
        with open(args.results + ".manifest.json") as fh:
            rate = json.load(fh).get("rate")
    if rate is None:
        print("error: no code rate in a run manifest next to the results; "
              "give it with --rate", file=sys.stderr)
        return 2
    if not 0 < rate < 1:  # NaN too
        print(f"error: rate must be in (0, 1), got {rate:g}", file=sys.stderr)
        return 2
    target = args.target_ber
    base = None
    with contextlib.suppress(NotBracketedError):  # a bad target raises before any output
        base = required_ebno(curves["ibdd"], target)
    print(f"target BER {target:g}, rate {rate:.4f}")
    print(f"{'algorithm':<12} {'Eb/N0 [dB]':>11} {'gain over ibdd [dB]':>20} "
          f"{'gap from capacity [dB]':>23}")
    for alg in [a for a in ALGORITHMS if a in curves]:
        try:
            x = required_ebno(curves[alg], target)
            gain = "-" if alg == "ibdd" else (
                f"{base - x:+.3f}" if base is not None else "n/a")
            mode = REGISTRY[alg].capacity_mode
            gap = f"{capacity_gap(rate, x, mode):.3f} ({mode})"
            print(f"{alg:<12} {x:>11.3f} {gain:>20} {gap:>23}")
        except NotBracketedError as exc:
            why = "censored" if isinstance(exc, CensoredCrossingError) else "n/a"
            print(f"{alg:<12} {why:>11} {'n/a':>20} {'n/a':>23}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pcdec",
                                 description="product-code decoder simulations")
    sub = ap.add_subparsers(dest="command", required=True)

    # flags shared by simulate and optimize-w; each overrides the INI key
    # of the same name
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", action="append", default=[],
                     help="INI config file; repeat to merge fragments")
    run.add_argument("--seed", type=_flag("seed"))
    run.add_argument("--workers", type=_flag("workers"))
    run.add_argument("--algorithms", type=_flag("algorithms"))
    run.add_argument("--ebno", type=_flag("ebno"),
                     help="comma-separated Eb/N0 grid in dB")
    run.add_argument("--out", type=str)

    sim = sub.add_parser("simulate", parents=[run],
                         help="run BER sweeps and write a CSV")
    sim.add_argument("--min-frame-errors", dest="min_frame_errors",
                     type=_flag("min_frame_errors"))
    sim.add_argument("--max-frames", dest="max_frames", type=_flag("max_frames"))
    sim.add_argument("--strict", action="store_true",
                     help="fail when the frame budget runs out")
    sim.set_defaults(func=cmd_simulate)

    opt = sub.add_parser("optimize-w", parents=[run],
                         help="optimize scaling schedules")
    opt.add_argument("--at", type=float, help="Eb/N0 (dB) to optimize at")
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
    except (ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
