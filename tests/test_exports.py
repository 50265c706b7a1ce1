"""Every name a calibkit module exports in `__all__` exists in that module."""

import importlib
import pkgutil

import pytest

import calibkit

MODULES = sorted(info.name for info in pkgutil.iter_modules(calibkit.__path__))


def test_every_module_is_listed():
    assert {"calibrate", "cli", "core", "io", "metrics", "optim", "sweep", "synthetic"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"calibkit.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []
