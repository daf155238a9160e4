"""The benchmark under perfbench/ reaches into pcdec by name: its modules
import pcdec functions, and its tracer replaces pcdec attributes by
timing wrappers. A rename or a dropped import in pcdec breaks
``perfbench/run.py`` (``--trace 1`` in particular) without failing any
other test, so this test resolves those names."""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def perfbench_modules():
    sys.path.insert(0, os.path.abspath(PERFBENCH))
    try:
        # importing resolves their ``from pcdec ... import`` names
        yield {name: importlib.import_module(name)
               for name in ("tracing", "workloads", "micro")}
    finally:
        sys.path.remove(os.path.abspath(PERFBENCH))


def test_every_traced_name_exists(perfbench_modules):
    tracing = perfbench_modules["tracing"]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.WRAPPED if not hasattr(owner, attr)]
    assert not missing
