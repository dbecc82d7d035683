import importlib

import pytest

MODULES = ("capacity", "channel", "cli", "harness", "lloydfb", "mathcore", "ratedist")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined_in_their_module(name):
    mod = importlib.import_module(f"diffcsi.{name}")
    for attr in getattr(mod, "__all__", ()):
        assert hasattr(mod, attr), f"{name}.__all__ names missing {attr!r}"
        obj = getattr(mod, attr)
        # classes and functions carry their home module; constants must
        # at least be bound in this module's own namespace
        assert getattr(obj, "__module__", mod.__name__) == mod.__name__, attr
        assert attr in vars(mod), attr


def test_package_exports_resolve():
    pkg = importlib.import_module("diffcsi")
    for attr in pkg.__all__:
        assert hasattr(pkg, attr), attr
