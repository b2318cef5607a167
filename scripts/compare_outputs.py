#!/usr/bin/env python3
"""Dump and diff the outputs of the benchmark's workload inputs.

``dump`` runs every operation of the given blocks (the inputs that
``benchmark/run.py`` generates from each seed) once, in process, and writes
one JSON line per operation: workload, seed, verb, input name, verdict,
exit code and canonical JSON output.  ``diff`` compares two dumps, for
example of two commits::

    python3 scripts/compare_outputs.py dump --workload finite-space --seeds 7 8 \\
        --blocks 2 --out new.jsonl
    python3 scripts/compare_outputs.py dump --root ../old-checkout --workload finite-space \\
        --seeds 7 8 --blocks 2 --out old.jsonl
    python3 scripts/compare_outputs.py diff old.jsonl new.jsonl

The ``edge`` workload is a fixed corpus instead of generated inputs (seeds
and blocks do not apply to it): it reaches every verdict of the CLI's exit
code table, including an input of the wrong kind, a JSON syntax error (with
\n, \r\n and lone \r line ends), a byte order mark, bytes that are not
UTF-8, a directory and a ``--schema-check-only`` run, which the benchmark's
inputs never produce.
It runs once, in its own directory, so no path differs between dumps.

``diff`` prints, per workload, the operations whose verdict or exit code
differ, how many outputs changed with and without their ``diagnostics``,
and the largest float drift |a - b| / max(1, |a|), overall and per JSON
path (list indices left out) outside ``diagnostics``.  It exits 1 when a
verdict or an exit code differs or an operation is missing on one side.
"""

import argparse
import importlib.util
import json
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENERATED = ("moment-check", "moment-extend", "finite-space")
WORKLOADS = GENERATED + ("edge",)

_MOMENTS = {"moments": [1, 0, 1]}
_NOT_PSD = {"moments": [1, 0, -1]}
_FINITE = {"points": ["p0", "p1"], "basis": {"one": [1, 1]}, "functional": {"one": 2.0},
           "sigma_algebra": [[0], [1]]}
_NOT_POSITIVE = {"points": ["a", "b"], "basis": {"one": [1, 1], "g": [1, 0]},
                 "functional": {"one": 1.0, "g": -5e-9}, "sigma_algebra": [[0], [1]]}
# (input name, verb, input, Command fields); the input is a document, raw text
# or raw bytes, or None for a directory
EDGE = [
    ("representable", "check", _MOMENTS, {}),
    ("not_representable", "check", _NOT_PSD, {}),
    ("inconclusive", "check", {"moments": [1, 0, 1, 0, 1]}, {}),
    ("interval_grid", "check", {"moments": [1, 0, 0.5], "support": {"type": "interval",
                                                                   "a": -1, "b": 1}}, {}),
    ("represented", "represent", _MOMENTS, {}),
    ("not_psd", "represent", _NOT_PSD, {}),
    ("atom_overflows", "represent", {"moments": [1e-320, 1e-10, 1]}, {}),
    ("extended", "extend-moments", _MOMENTS, {}),
    ("no_extension", "extend-moments", _NOT_PSD, {}),
    ("verified", "verify", dict(_MOMENTS, atomic_measure={"atoms": [-1, 1],
                                                          "weights": [0.5, 0.5]}), {}),
    ("misfit", "verify", dict(_MOMENTS, atomic_measure={"atoms": [1], "weights": [1]}), {}),
    ("no_fit", "verify", _MOMENTS, {}),
    ("blocks_verified", "verify", dict(_FINITE, measure={"mass": [1.0, 1.0]}), {}),
    ("extended_positive", "hb-extend", dict(_FINITE, targets={"t0": [1, 0]}), {}),
    ("positivity_failed", "hb-extend", _NOT_POSITIVE, {"tol": 1e-9}),
    ("not_sandwiched", "hb-extend", {"points": ["p0", "p1"], "basis": {"e0": [1, 0]},
                                     "functional": {"e0": 1.0},
                                     "targets": {"t0": [2, 0], "t1": [0, 1]}}, {}),
    ("certified", "build-measure", _FINITE, {}),
    ("density_failed", "build-measure", dict(_FINITE, b_basis={"one": [1, 1]}), {}),
    ("not_certified", "build-measure", _NOT_POSITIVE, {"tol": 1e-9}),
    ("negative_block", "build-measure", dict(_NOT_POSITIVE, functional={"one": 1.0, "g": 2.0}),
     {}),
    ("wrong_kind_moments", "check", _FINITE, {}),
    ("wrong_kind_finite", "build-measure", _MOMENTS, {}),
    ("syntax_error", "check", '{"moments": [1, 0, 1]', {}),
    ("syntax_error_crlf", "check", b'{"moments": [1, 0, 1],\r\n  :\r\n}', {}),
    ("syntax_error_cr", "check", b'{"moments": [1, 0, 1],\r  :\r}', {}),
    ("byte_order_mark", "check", b'\xef\xbb\xbf{"moments": [1, 0, 1]}', {}),
    ("not_utf8", "check", b'{"moments": [1, 0, 1], "note": "caf\xe9"}', {}),
    ("directory", "check", None, {}),
    ("schema_ok", "check", _MOMENTS, {"schema_check_only": True}),
    ("schema_bad", "check", {"moments": [1, 0]}, {"schema_check_only": True}),
]


def load_runner(root: Path):
    """``benchmark/run.py`` of ``root``, with ``root/src`` first on the path."""
    sys.path[:0] = [str(root / "src"), str(root / "benchmark")]
    spec = importlib.util.spec_from_file_location("benchmark_run", root / "benchmark" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dump(args) -> int:
    root = Path(args.root).resolve()
    runner = load_runner(root)
    from momentkit import cli

    runner.configure_logging()
    with tempfile.TemporaryDirectory() as tmp, open(args.out, "w", encoding="utf-8") as out:
        def record(workload, seed, command):
            result = cli.run(command)
            out.write(json.dumps({
                "workload": workload, "seed": seed, "verb": command.verb,
                "input": Path(command.input_path).name, "verdict": result.verdict,
                "exit_code": result.exit_code, "output": result.to_json(),
            }) + "\n")

        for workload in args.workload:
            if workload == "edge":
                _dump_edge(Path(tmp), record, cli.Command)
                continue
            for seed in args.seeds:
                for index in range(args.blocks):
                    block = Path(tmp) / f"{workload}-s{seed}-b{index:03d}"
                    block.mkdir()
                    for verb, path in runner.block_ops(workload, seed, index, block):
                        record(workload, seed, cli.Command(verb, path))
    return 0


def _dump_edge(tmp: Path, record, command) -> None:
    """Record the edge corpus, run with relative paths from its own
    directory: a syntax error's message names the file."""
    block = tmp / "edge"
    block.mkdir()
    here = os.getcwd()
    os.chdir(block)
    try:
        for name, verb, doc, fields in EDGE:
            path = Path(f"{name}.json")
            if doc is None:
                path.mkdir()
            elif isinstance(doc, bytes):
                path.write_bytes(doc)
            else:
                path.write_text(doc if isinstance(doc, str) else json.dumps(doc),
                                encoding="utf-8")
            record("edge", None, command(verb, str(path), **fields))
    finally:
        os.chdir(here)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        rows = (json.loads(line) for line in fh if line.strip())
        return {(r["workload"], r["seed"], r["verb"], r["input"]): r for r in rows}


def _drift(a, b, path="", out=None):
    """Largest |a - b| / max(1, |a|) per JSON path of two JSON values, as a
    dict (list indices are left out of the path, so ``density.distances``
    covers every distance), or None when they differ in anything but
    numbers."""
    out = {} if out is None else out
    if type(a) is not type(b) and not {type(a), type(b)} <= {int, float}:
        return None
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return None
        pairs = [(f"{path}.{k}" if path else k, a[k], b[k]) for k in a]
    elif isinstance(a, list):
        if len(a) != len(b):
            return None
        pairs = [(path, x, y) for x, y in zip(a, b)]
    elif isinstance(a, (int, float)) and not isinstance(a, bool):
        out[path] = max(out.get(path, 0.0), abs(a - b) / max(1.0, abs(a)))
        return out
    else:
        return out if a == b else None
    for sub, x, y in pairs:
        if _drift(x, y, sub, out) is None:
            return None
    return out


def _without_diagnostics(text):
    doc = json.loads(text)
    doc.pop("diagnostics", None)
    return doc


def diff(args) -> int:
    old, new = _read(args.a), _read(args.b)
    bad = 0
    for key in sorted(old.keys() ^ new.keys()):
        print(f"only in {'A' if key in old else 'B'}: {' '.join(map(str, key))}")
        bad += 1
    stats = defaultdict(lambda: {"ops": 0, "changed": 0, "changed_without_diagnostics": 0,
                                 "non_numeric": 0, "drift": defaultdict(float)})
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        s = stats[key[0]]
        s["ops"] += 1
        if (a["verdict"], a["exit_code"]) != (b["verdict"], b["exit_code"]):
            print(f"verdict differs: {' '.join(map(str, key))}: "
                  f"{a['verdict']} ({a['exit_code']}) -> {b['verdict']} ({b['exit_code']})")
            bad += 1
        if a["output"] == b["output"]:
            continue
        s["changed"] += 1
        doc_a, doc_b = _without_diagnostics(a["output"]), _without_diagnostics(b["output"])
        s["changed_without_diagnostics"] += doc_a != doc_b
        d = _drift(doc_a, doc_b)
        if d is None:
            s["non_numeric"] += 1
            continue
        for path, value in d.items():
            s["drift"][path] = max(s["drift"][path], value)
    for workload, s in sorted(stats.items()):
        print(f"{workload}: {s['ops']} ops, {s['changed']} outputs changed, "
              f"{s['changed_without_diagnostics']} without diagnostics, "
              f"{s['non_numeric']} in more than numbers, "
              f"max float drift {max(s['drift'].values(), default=0.0):.3g}")
        for path, value in sorted(s["drift"].items(), key=lambda kv: (-kv[1], kv[0])):
            if value:
                print(f"  {path}: {value:.3g}")
    print(f"verdict, exit-code or missing-op differences: {bad}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="run the workload inputs and write JSONL")
    p.add_argument("--workload", nargs="+", choices=WORKLOADS, required=True)
    p.add_argument("--seeds", nargs="+", type=int, default=[],
                   help="input seeds of the generated workloads (edge takes none)")
    p.add_argument("--blocks", type=int, default=1, help="input blocks per seed (default 1)")
    p.add_argument("--root", default=str(ROOT),
                   help="checkout whose src/ and benchmark/ are used (default: this one)")
    p.add_argument("--out", required=True, help="JSONL file to write")
    p.set_defaults(func=dump)
    p = sub.add_parser("diff", help="compare two dumps")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=diff)
    args = parser.parse_args(argv)
    if args.command == "dump" and not args.seeds and set(args.workload) & set(GENERATED):
        parser.error("--seeds is required for a generated workload")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
