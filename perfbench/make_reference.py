"""Regenerate reference.json: every task's checksum for seeds 0-15.

    python3 perfbench/make_reference.py

Run from the root of a checkout, on the commit whose results are to be
the reference. Tasks run serially; results do not depend on the worker
count.
"""

import json
import os
import re

from run import load_pcdec

HERE = os.path.dirname(os.path.abspath(__file__))

SEEDS = range(16)


def main() -> None:
    load_pcdec()
    import workloads
    reference = {}
    for name, wl in workloads.WORKLOADS.items():
        reference[name] = {}
        for seed in SEEDS:
            tasks = map(workloads.serial, workloads.build_tasks(wl, seed))
            reference[name][str(seed)] = {t.key: workloads.checksum(t, t.run())
                                          for t in tasks}
            print(name, seed, flush=True)
    text = json.dumps(reference, indent=1, sort_keys=True)
    # one line per checksum
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        f.write(text + "\n")


if __name__ == "__main__":
    main()
