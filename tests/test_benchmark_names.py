"""The benchmark's tracer finds the functions it wraps by name; a rename or a
cut under ``src/`` must fail here rather than silently untrace a layer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from momentkit import eig

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, names in module.TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", _traced())
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_jacobi_kernel_resolves():
    # benchmark/run.py reads it to report which Jacobi path ran
    assert callable(eig._jacobi_kernel)
