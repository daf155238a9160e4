"""The workload seed: the same seed reproduces every checksum, and another
seed changes them.

    python3 -m pytest perfbench/test_perfbench.py

Every task is shrunk to one frame (two per optimizer evaluation) so the
test takes seconds; the seed reaches pcdec the same way as in a full run.
"""

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import workloads  # noqa: E402


def shrunk(task: workloads.Task) -> workloads.Task:
    small = {"opt_frames": 2} if task.optimize else {"max_frames": 1}
    return dataclasses.replace(
        task, cfg=dataclasses.replace(task.cfg, workers=1, **small))


def checksums(name: str, seed: int) -> dict:
    tasks = map(shrunk, workloads.build_tasks(workloads.WORKLOADS[name], seed))
    return {t.key: workloads.checksum(t, t.run()) for t in tasks}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_reproduces_other_seed_changes(name):
    first = checksums(name, 1)
    assert checksums(name, 1) == first
    assert checksums(name, 2) != first


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        workloads.build_tasks(workloads.WORKLOADS["m6-waterfall"], -1)
