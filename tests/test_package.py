"""The package's public export list."""

import rotorgrating


def test_every_export_resolves_once():
    names = rotorgrating.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(rotorgrating, n)] == []
    namespace = {}
    exec("from rotorgrating import *", namespace)
    assert set(names) <= set(namespace)
