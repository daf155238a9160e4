"""Golden CSV bodies: `pcdec simulate` for every algorithm id on small
configs must reproduce, byte for byte, the bodies checked in under
tests/golden/. C9 only checks run-to-run determinism; these files pin the
results themselves across refactors of the decoders and the harness.

The files were written by the pre-refactor code; the m8-ad ones by the
component-by-component anchor walk that the array form replaced, and the
m8-igmdd-sr one by the GMD half-step that ran every trial on every row. To
rewrite them after a change that is meant to alter results, run
`python tests/test_golden.py`.
"""

import os
import sys

import pytest

from pcdec.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
ALL_IDS = "none,ibdd,ad,ibdd-sr,ideal-ibdd,igmdd-sr,tpd"

M4 = """
[simulation]
code_m = 4
code_t = 2
extended = false
iterations = 4
transmission = {tx}
min_frame_errors = 12
max_frames = 96
batch_frames = 32
algorithms = {ids}
[ibdd-sr]
w = 2.0;3.0;4.0;6.0
[igmdd-sr]
w = 2.0;3.0;4.0;5.0
"""

M6 = """
[simulation]
code_m = 6
code_t = 2
extended = true
iterations = 10
transmission = {tx}
min_frame_errors = 1000
max_frames = 6
batch_frames = 6
algorithms = {ids}
[ibdd-sr]
w = 2.4;7.3;7.3;7.3;7.3;7.3;7.3;7.3;7.3;11.0
[igmdd-sr]
w = 11.9;11.9;11.9;11.9;11.9;11.9;11.9;11.9;11.9;11.9
"""

# anchor decoding on the paper's code at the m8-waterfall point, where
# backtracks are frequent
M8_AD = """
[simulation]
code_m = 8
code_t = 2
extended = true
iterations = 10
transmission = random
min_frame_errors = 1000
max_frames = 6
batch_frames = 6
algorithms = ad
[ad]
threshold = {threshold}
"""

# iGMDD-SR on the paper's code with its default schedule, in the waterfall
M8_IGMDD_SR = """
[simulation]
code_m = 8
code_t = 2
extended = true
iterations = 10
transmission = random
min_frame_errors = 1000
max_frames = 6
batch_frames = 6
algorithms = igmdd-sr
"""

# name -> (config, Eb/N0 grid, seed)
CASES = {
    "m4-all-zero": (M4.format(ids=ALL_IDS, tx="all-zero"), "2.5,4.0,5.5", 3),
    "m4-random": (M4.format(ids=ALL_IDS, tx="random"), "3.0,5.0", 4),
    "m6-random": (M6.format(ids=ALL_IDS, tx="random"), "3.0,3.6", 5),
    "m8-ad-t1": (M8_AD.format(threshold=1), "4.6,4.78", 6),
    "m8-ad-t0": (M8_AD.format(threshold=0), "4.6,4.78", 7),
    "m8-igmdd-sr": (M8_IGMDD_SR, "4.2,4.35", 8),
}


def simulate_body(tmp_dir: str, name: str) -> bytes:
    text, ebno, seed = CASES[name]
    cfg = os.path.join(tmp_dir, f"{name}.ini")
    with open(cfg, "w") as fh:
        fh.write(text)
    out = os.path.join(tmp_dir, f"{name}.csv")
    rc = main(["simulate", "--config", cfg, "--out", out, "--ebno", ebno,
               "--seed", str(seed)])
    assert rc == 0
    with open(out, "rb") as fh:
        return b"".join(ln for ln in fh if not ln.startswith(b"#"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_matches_golden_csv(tmp_path, name):
    with open(os.path.join(GOLDEN_DIR, f"{name}.csv"), "rb") as fh:
        want = fh.read()
    assert simulate_body(str(tmp_path), name) == want


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            body = simulate_body(tmp, case)
            with open(os.path.join(GOLDEN_DIR, f"{case}.csv"), "wb") as fh:
                fh.write(body)
            print(f"wrote {case}.csv", file=sys.stderr)
