"""The public names of the dicesim package."""

import dicesim


def test_every_public_name_resolves():
    assert len(set(dicesim.__all__)) == len(dicesim.__all__)
    assert [name for name in dicesim.__all__ if not hasattr(dicesim, name)] == []
    namespace = {}
    exec("from dicesim import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(dicesim.__all__)
