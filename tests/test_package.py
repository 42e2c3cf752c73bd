"""Package layout: every name a module exports exists on it."""

import importlib
import pkgutil

import pytest

import sft_tensor

MODULES = ["sft_tensor"] + [
    f"sft_tensor.{info.name}" for info in pkgutil.iter_modules(sft_tensor.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # A stale __all__ entry breaks `from module import *` with an
    # AttributeError; a module without __all__ exports nothing stale.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
