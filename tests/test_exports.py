"""The package's hand-kept export list, ``chemofv.__all__``, against the
names its imports bind."""

import types

import chemofv


def test_every_export_is_bound():
    assert [name for name in chemofv.__all__ if not hasattr(chemofv, name)] == []


def test_every_public_name_is_exported():
    public = {
        name
        for name, value in vars(chemofv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(chemofv.__all__)) == []
