"""Shared fixtures."""

import sys

import pytest


@pytest.fixture
def clear_caches():
    """A function that empties every memo of the package, as a fresh process has them."""

    def clear():
        for name, mod in list(sys.modules.items()):
            if name.startswith("sphereheat."):
                for obj in list(vars(mod).values()):
                    if hasattr(obj, "cache_clear"):
                        obj.cache_clear()

    return clear
