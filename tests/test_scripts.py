"""Smoke test: every demo script runs to completion on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "certificate_boundary_sweep.py": ["--steps", "3"],
    "extension_rules_demo.py": ["--points", "4", "--dim-w", "2", "--targets", "2"],
    "roundtrip_stats.py": ["--trials", "20", "--max-atoms", "3"],
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *SCRIPTS[script]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
