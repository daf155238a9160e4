"""``pcdec.__all__`` is the public API: a name dropped from the package
but left in the list would only fail at ``from pcdec import *``, which no
other test runs."""

import pcdec


def test_every_public_name_resolves():
    assert len(set(pcdec.__all__)) == len(pcdec.__all__)
    assert [name for name in pcdec.__all__ if not hasattr(pcdec, name)] == []


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from pcdec import *", namespace)
    assert set(pcdec.__all__) <= namespace.keys()
