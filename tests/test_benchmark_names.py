"""The benchmark's tracer finds the functions it wraps by name; a rename or a
cut under ``src/`` must fail here rather than silently untrace a layer."""

import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_traced_modules_are_loaded_beside_numpy():
    # The tracer binds its wrappers into the momentkit modules it finds in
    # sys.modules.  The package defers its modules only while numpy is not
    # loaded, and the benchmark imports numpy first, so every traced module
    # is there by the time the tracer looks, whichever verbs ran.
    modules = sorted({module for module, _ in _traced()})
    code = ("import sys\nimport numpy\nimport momentkit\nfrom momentkit import cli\n"
            f"missing = [m for m in {modules!r} if m not in sys.modules]\n"
            "assert not missing, missing\n")
    env = {**os.environ, "PYTHONPATH": str(Path(eig.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_jacobi_kernel_resolves():
    # benchmark/run.py reads it to report which Jacobi path ran
    assert callable(eig._jacobi_kernel)
