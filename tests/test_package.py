"""The package namespace: ``__all__`` names exactly the public API."""

from __future__ import annotations

from types import ModuleType

import f2units as f


def test_all_resolves_and_lists_every_public_name():
    assert len(set(f.__all__)) == len(f.__all__)
    missing = [name for name in f.__all__ if not hasattr(f, name)]
    assert missing == []
    # Submodules are attributes of the package once imported; of them only
    # ``errors`` is exported.
    public = {
        name
        for name, value in vars(f).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(f.__all__) == public | {"errors"}
