"""Set-up cost in a fresh process: import pcdec, build the code and its
component kernel, and decode the first frame.

    python3 perfbench/setup_probe.py CODE_M EBNO_DB

Run from the root of a checkout. Prints the elapsed seconds, then the
median time of the calibration kernel (calibrate.py) run right after
(after a few untimed calls that warm it up), so that the caller can
normalize the set-up time for the machine's speed.
The first frame is decoded with ibdd, which builds the kernel.
"""

import os
import statistics
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from pcdec.harness import SimConfig, run_ber_point  # noqa: E402

code_m, ebno_db = sys.argv[1:3]
cfg = SimConfig(algorithm="ibdd", code_m=int(code_m), min_frame_errors=10 ** 9,
                max_frames=1)
run_ber_point(cfg, float(ebno_db))
elapsed = time.perf_counter() - start

import calibrate  # noqa: E402

kernel = calibrate.Kernel(2 ** int(code_m))
for _ in range(3):
    kernel.seconds()
print(elapsed)
print(statistics.median(kernel.seconds() for _ in range(9)))
