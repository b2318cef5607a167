#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarised in one JSON file.

Usage, from the repository root::

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --seeds 5001 5002 5003 5004 5005 --seconds 25 --out BENCH_8.json

Both revisions are exported with ``git archive`` into a temporary
directory, so each side runs its own committed files.  For every seed and
workload one pair runs ``benchmark/run.py --workload W --seed S --seconds T``
on the parent and on the change; the side that runs first alternates from
pair to pair.  The output file holds, per workload, the last stdout line of
every run (with the block-0 digest and per-verb medians from the line before
it), the medians, quartiles and wins of each end-to-end metric, and the
environment the runs reported.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("moment-check", "moment-extend", "finite-space")


def _git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _run(tree, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(tree / "benchmark" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True)
    report, last = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return report, last


def _quartiles(xs):
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def _summary(runs, better):
    by_side = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    pairs = len(by_side["change"])
    out = {}
    for name, direction in better.items():
        vals = {side: [r["last_line"]["metrics"][name]["value"] for r in rs]
                for side, rs in by_side.items()}
        sign = 1 if direction == "higher" else -1
        parent, change = _quartiles(vals["parent"]), _quartiles(vals["change"])
        out[name] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"])),
            "pairs": pairs,
            "median_change_rel": change["median"] / parent["median"] - 1.0,
        }
    for key in ("failed", "attempted"):
        out[key] = {side: [r["last_line"][key] for r in rs] for side, rs in by_side.items()}
    out["correct_all"] = all(r["last_line"]["correct"] for r in runs)
    out["digest_block0_equal"] = sum(p["digest_block0"] == c["digest_block0"]
                                     for p, c in zip(by_side["parent"], by_side["change"]))
    for verb in runs[0]["per_verb_p50_ms"]:
        out[verb] = {side: _quartiles([r["per_verb_p50_ms"][verb] for r in rs])
                     for side, rs in by_side.items()}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="revision to compare against")
    parser.add_argument("--change", default="HEAD", help="revision under test")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True, help="one pair per seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    revs = {side: _git("rev-parse", "--short", rev)
            for side, rev in (("parent", args.parent), ("change", args.change))}
    runs = {w: [] for w in args.workloads}
    env = None
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                     capture_output=True).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(trees[side])
        for pair, seed in enumerate(args.seeds):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in args.workloads:
                for side in order:
                    report, last = _run(trees[side], workload, seed, args.seconds)
                    env = env or report["env"]
                    runs[workload].append({
                        "pair": pair, "seed": seed, "side": side, "first": side == order[0],
                        "last_line": last,
                        "digest_block0": report["digest_block0"],
                        "per_verb_p50_ms": {k: v["value"]
                                            for k, v in report["per_verb_p50_ms"].items()},
                    })
                    m = last["metrics"]
                    print(f"{workload} seed {seed} {side}: "
                          f"ops_per_s {m['ops_per_s']['value']:.1f}, "
                          f"p50 {m['latency_p50_ms']['value']:.3f} ms, "
                          f"failed {last['failed']}, correct {last['correct']}", flush=True)

    doc = {
        "description": "Alternating parent/change runs of `python3 benchmark/run.py --workload W "
                       f"--seed S --seconds {args.seconds:g}`, one pair per seed, the side that "
                       "runs first alternating from pair to pair. `runs` holds the last stdout "
                       "line of every run; `summary` the medians, quartiles and wins (pairs where "
                       "the change is better; ties count for neither).",
        "parent": revs["parent"],
        "change": revs["change"],
        "change_subject": _git("log", "-1", "--format=%s", revs["change"]),
        "seconds": args.seconds,
        "env": env,
        "workloads": {w: {"seeds": list(args.seeds), "summary": _summary(rs, better), "runs": rs}
                      for w, rs in runs.items()},
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for w, body in doc["workloads"].items():
        s = body["summary"]
        print(f"{w}: " + ", ".join(
            f"{name} {s[name]['parent']['median']:.4g} -> {s[name]['change']['median']:.4g} "
            f"({s[name]['change_wins']}/{s[name]['pairs']} wins)" for name in better))
    return 0


if __name__ == "__main__":
    sys.exit(main())
