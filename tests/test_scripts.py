"""Smoke test: every demo script runs to completion on small arguments."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from momentkit.cli import EXIT_CODES

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "certificate_boundary_sweep.py": ["--steps", "3"],
    "extension_rules_demo.py": ["--points", "4", "--dim-w", "2", "--targets", "2"],
    "lp_replay.py": ["--workload", "moment-check", "--seeds", "7", "--repeats", "1"],
    "roundtrip_stats.py": ["--trials", "20", "--max-atoms", "3"],
    "src_lines.py": [],
}


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    proc = _run(script, *SCRIPTS[script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_compare_outputs_self_diff(tmp_path):
    dump = tmp_path / "dump.jsonl"
    proc = _run("compare_outputs.py", "dump", "--workload", "moment-extend", "edge",
                "--seeds", "7", "--out", str(dump))
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in dump.read_text(encoding="utf-8").splitlines()]
    assert any(r["workload"] == "moment-extend" for r in rows)
    # the edge corpus reaches every verdict of the exit-code table, each with its code
    edge = [r for r in rows if r["workload"] == "edge"]
    assert {r["verdict"] for r in edge} == set(EXIT_CODES)
    assert all(r["exit_code"] == EXIT_CODES[r["verdict"]] for r in edge)
    proc = _run("compare_outputs.py", "diff", str(dump), str(dump))
    assert proc.returncode == 0, proc.stderr
    assert "0 outputs changed" in proc.stdout
    assert "differences: 0" in proc.stdout


def test_bench_pairs_one_pair(tmp_path):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("bench_pairs.py checks revisions out of a git repository")
    out = tmp_path / "BENCH_0.json"
    proc = _run("bench_pairs.py", "--parent", "HEAD", "--change", "HEAD",
                "--workloads", "moment-extend", "--seeds", "7", "--seconds", "1",
                "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    body = doc["workloads"]["moment-extend"]
    assert [(r["side"], r["first"]) for r in body["runs"]] == [("parent", True),
                                                              ("change", False)]
    summary = body["summary"]
    assert summary["correct_all"] and summary["digest_block0_equal"] == 1
    assert summary["ops_per_s"]["pairs"] == 1 and summary["failed"] == {"parent": [0],
                                                                         "change": [0]}
    assert doc["env"]["jacobi_path"] == "python"


def test_compare_outputs_drift_per_path(tmp_path):
    def dump(name, witness, distances, lp_solves):
        output = json.dumps({"grid_check": {"witness_poly": witness, "witness_value": 0.5},
                             "density": {"distances": distances},
                             "diagnostics": {"lp_solves": lp_solves}})
        row = {"workload": "finite-space", "seed": 7, "verb": "build-measure",
               "input": "fs.json", "verdict": "ok", "exit_code": 0, "output": output}
        path = tmp_path / name
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        return str(path)

    a = dump("a.jsonl", [1.0, 2.0], [0.0, 0.25], 12)
    b = dump("b.jsonl", [1.0, 2.5], [0.0, 0.125], 5)
    proc = _run("compare_outputs.py", "diff", a, b)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "  grid_check.witness_poly: 0.25" in lines
    assert "  density.distances: 0.125" in lines
    assert not any("witness_value" in line or "lp_solves" in line for line in lines)
    assert "max float drift 0.25" in proc.stdout
    assert "differences: 0" in proc.stdout


def test_lp_replay_against_its_own_checkout():
    # --root captures in a child process and replays that checkout's solver
    # beside this one's: on the same checkout, every bit must agree.
    proc = _run("lp_replay.py", "--workload", "finite-space", "--seeds", "7", "--repeats", "1",
                "--root", str(ROOT))
    assert proc.returncode == 0, proc.stderr
    assert "extend.hb_extend_step" in proc.stdout
    assert "captures bitwise equal across checkouts: True" in proc.stdout
    assert "root's solver bitwise equal on this capture: True" in proc.stdout
