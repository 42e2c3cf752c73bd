"""Package layout: every name a module exports exists on it, and formula
nodes stay slotted."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import sft_tensor
from sft_tensor.formula import Atom, Prod, Sum, Tensor
from sft_tensor.linalg import identity
from sft_tensor.semiring import Tag

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


def test_formula_nodes_have_no_instance_dict():
    # Formula nodes are slotted: a per-instance dict (or a dataclass
    # without slots) would cost memory and construction time per node.
    a = Atom(identity(2, Tag.RATIONAL))
    for node in (a, Sum(a, a), Prod(a, a), Tensor(a, a)):
        assert not hasattr(node, "__dict__")


def test_bench_wrap_points_resolve():
    # The bench times each layer by wrapping these module attributes; one
    # that is gone drops that layer's metrics without failing a run.
    path = Path(__file__).resolve().parent.parent / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    missing = [
        (module, attr)
        for points in run.SPAN_POINTS.values()
        for module, attr in points
        if not hasattr(importlib.import_module(f"sft_tensor.{module}"), attr)
    ]
    assert missing == []
