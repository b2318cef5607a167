#!/usr/bin/env python3
"""Capture the LPs of a workload's benchmark inputs and replay them per call site.

Every operation of the given blocks (the inputs that ``benchmark/run.py``
generates from each seed, as ``compare_outputs.py`` runs them) runs once, in
process, with ``solve_lp`` wrapped: each call's arguments and result are kept
with its site, the first calling function outside ``simplex.py``, and, for a
solve started from an earlier one (``solve_lp``'s ``start``), that call's
index.  The replay solves every captured LP ``--repeats`` times in capture
order, a started one from its predecessor's replay, keeps the fastest time
of each, and prints per site the solves, how many of them started from an
earlier solve, the pivots per solve and the microseconds per solve::

    python3 scripts/lp_replay.py --workload finite-space moment-check --seeds 7 --blocks 1

It exits 1 unless every replay returns bitwise the captured result: status,
iterations, ``x``, objective and duals (signs of zero included), or the same
``LpFailure`` message.

With ``--root DIR`` the same inputs are also captured in the checkout ``DIR``
(in a child process, with that checkout's ``src/`` and ``benchmark/``), and
that checkout's ``solve_lp``, loaded beside this one's, replays this capture
too: the two solvers alternate call by call, and which goes first alternates
from one round of replays to the next.  Its microseconds per solve and the
ratio of this checkout's to them are printed, and the script exits 1 unless
both captures hold bitwise the same LP calls, in the same order, with the
same results, and both solvers return them::

    python3 scripts/lp_replay.py --workload finite-space --seeds 7 8 --blocks 2 \\
        --root ../parent-checkout

A checkout whose ``solve_lp`` takes no ``start`` captures different LPs (its
steps carry no predecessor, and its positivity audit is another LP), so the
captures differ and the script exits 1; its solver replays this capture's
started solves cold, and the timings still compare the two.  Every LP is
over nonnegative variables, the one form of ``solve_lp``.
"""

import argparse
import base64
import importlib.util
import inspect
import json
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from compare_outputs import load_runner  # a sibling script: its directory is on sys.path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("moment-check", "moment-extend", "finite-space")
ARGS = ("c", "a_ub", "b_ub", "a_eq", "b_eq")


def _array(value):
    """A float array as JSON: its shape and its bytes, so equal JSON is equal bits."""
    a = np.ascontiguousarray(value, dtype=float)
    return {"shape": list(a.shape), "bytes": base64.b64encode(a.tobytes()).decode("ascii")}


def _unarray(doc):
    data = np.frombuffer(base64.b64decode(doc["bytes"]), dtype=float)
    return data.reshape(doc["shape"]).copy()


def _solution(sol):
    """An ``LpSolution`` in the capture's encoding."""
    return {"status": sol.status, "iterations": sol.iterations,
            **{name: None if getattr(sol, name) is None else _array(getattr(sol, name))
               for name in ("x", "objective", "duals")}}


def _timed(solve, failure, args):
    """``solve(**args)``, that result in the capture's encoding, and the
    seconds the call took; ``failure`` is the ``LpFailure`` class of the
    solver's package.  The solution is None when the call failed."""
    start = time.perf_counter()
    try:
        sol = solve(**args)
    except failure as exc:
        return None, {"error": str(exc)}, time.perf_counter() - start
    seconds = time.perf_counter() - start
    return sol, _solution(sol), seconds


def _load_package(root: Path, name: str):
    """The ``momentkit`` package of ``root`` under another name, so that two
    checkouts' solvers run in one process (its imports are all relative)."""
    init = root / "src" / "momentkit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _site(frame) -> str:
    """The first caller outside the simplex module, as ``module.qualname``."""
    while frame.f_globals.get("__name__") == "momentkit.simplex":
        frame = frame.f_back
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?").removeprefix("momentkit.")
    return f"{module}.{getattr(code, 'co_qualname', code.co_name)}".replace("<locals>.", "")


def capture(root: Path, workloads, seeds, blocks):
    """Every ``solve_lp`` call of the operations of the given blocks, in order:
    ``{"workload", "site", "args", "start", "result"}``, where ``start`` is
    the index of the call whose solution the call started from, or None."""
    runner = load_runner(root)
    from momentkit import cli, simplex

    runner.configure_logging()
    original = simplex.solve_lp
    calls, solutions = [], {}  # id of each returned solution -> (its call's index, it)

    def recording(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, *, start=None):
        args = dict(zip(ARGS, (c, a_ub, b_ub, a_eq, b_eq)))
        record = {"workload": workload, "site": _site(sys._getframe(1)),
                  "args": {k: None if v is None else _array(v) for k, v in args.items()},
                  "start": None if start is None else solutions[id(start)][0]}
        calls.append(record)
        if start is not None:  # a solver without starts is never given one
            args["start"] = start
        try:
            sol = original(**args)
        except simplex.LpFailure as exc:
            record["result"] = {"error": str(exc)}
            raise
        record["result"] = _solution(sol)
        solutions[id(sol)] = (len(calls) - 1, sol)  # kept alive, so no id is reused
        return sol

    modules = [m for k, m in list(sys.modules.items())
               if k == "momentkit" or k.startswith("momentkit.")]
    bound = [(m, name) for m in modules for name, v in vars(m).items() if v is original]
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            for seed in seeds:
                for index in range(blocks):
                    block = Path(tmp) / f"{workload}-s{seed}-b{index:03d}"
                    block.mkdir()
                    ops = runner.block_ops(workload, seed, index, block)
                    for m, name in bound:
                        setattr(m, name, recording)
                    try:
                        for verb, path in ops:
                            cli.run(cli.Command(verb, path))
                    finally:
                        for m, name in bound:
                            setattr(m, name, original)
    return calls


def replay(calls, solvers, repeats):
    """Replay every call with each ``(solve, LpFailure class)`` of ``solvers``,
    ``repeats`` times, alternating which solver goes first from round to round.
    Calls run in capture order, and a started one starts from that solver's
    replay of its predecessor in the same round; a solver whose ``solve_lp``
    takes no ``start`` solves it cold.  Returns, per solver, the fastest time
    of each call in seconds and whether every replay returned bitwise the
    captured result."""
    decoded = [{k: None if v is None else _unarray(v) for k, v in call["args"].items()}
               for call in calls]
    starts = [call.get("start") for call in calls]
    chains = ["start" in inspect.signature(solve).parameters for solve, _ in solvers]
    best = [[float("inf")] * len(calls) for _ in solvers]
    equal = [True] * len(solvers)
    for round_ in range(repeats):
        order = list(range(len(solvers)))[::1 if round_ % 2 == 0 else -1]
        replayed = [[None] * len(calls) for _ in solvers]
        for i, (call, args, start) in enumerate(zip(calls, decoded, starts)):
            for j in order:
                kwargs = dict(args)
                if start is not None and chains[j]:
                    kwargs["start"] = replayed[j][start]
                replayed[j][i], result, seconds = _timed(*solvers[j], kwargs)
                best[j][i] = min(best[j][i], seconds)
                equal[j] = equal[j] and result == call["result"]
    return best, equal


def _by_site(calls, seconds):
    """Per ``"workload site"`` and per ``"workload total"``: solves, started
    solves, pivots, failures and the seconds of each solver."""
    sites = defaultdict(lambda: {"solves": 0, "started": 0, "pivots": 0, "failures": 0,
                                 "s": [0.0] * len(seconds)})
    for i, call in enumerate(calls):
        for key in (call["workload"] + " " + call["site"], call["workload"] + " total"):
            row = sites[key]
            row["solves"] += 1
            row["started"] += call.get("start") is not None
            row["pivots"] += call["result"].get("iterations", 0)
            row["failures"] += "error" in call["result"]
            for j, times in enumerate(seconds):
                row["s"][j] += times[i]
    return sites


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--blocks", type=int, default=1, help="input blocks per seed (default 1)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="replays of each LP; the fastest counts (default 5)")
    parser.add_argument("--root", type=Path,
                        help="another checkout to capture in and compare with bitwise")
    parser.add_argument("--save", type=Path, help=argparse.SUPPRESS)  # the child's capture
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.blocks < 1:
        parser.error("--repeats and --blocks must be at least 1")

    if args.save is not None:  # the child of a --root run: capture in that checkout
        calls = capture(args.root.resolve(), args.workload, args.seeds, args.blocks)
        args.save.write_text(json.dumps(calls), encoding="utf-8")
        return 0

    other = None
    if args.root is not None:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "capture.json"
            subprocess.run([sys.executable, __file__, "--workload", *args.workload,
                            "--seeds", *map(str, args.seeds), "--blocks", str(args.blocks),
                            "--root", str(args.root), "--save", str(out)], check=True)
            other = json.loads(out.read_text(encoding="utf-8"))
    calls = capture(ROOT, args.workload, args.seeds, args.blocks)
    from momentkit.errors import LpFailure
    from momentkit.simplex import solve_lp

    solvers = [(solve_lp, LpFailure)]
    if other is not None:
        theirs = _load_package(args.root.resolve(), "momentkit_root")
        solvers.append((theirs.simplex.solve_lp, theirs.errors.LpFailure))
    seconds, equal = replay(calls, solvers, args.repeats)

    header = f"{'site':<48} {'solves':>7} {'started':>7} {'pivots/solve':>12} {'us/solve':>9}"
    if other is not None:
        header += f" {'root us':>9} {'ratio':>6}"
    print(header)
    sites = _by_site(calls, seconds)
    for key, row in sorted(sites.items(), key=lambda kv: (kv[0].endswith(" total"), kv[0])):
        us = [1e6 * s / row["solves"] for s in row["s"]]
        line = (f"{key:<48} {row['solves']:>7} {row['started']:>7} "
                f"{row['pivots'] / row['solves']:>12.2f} {us[0]:>9.1f}")
        if other is not None:
            line += f" {us[1]:>9.1f} {row['s'][0] / row['s'][1]:>6.3f}"
        print(line)
    failures = sum(row["failures"] for key, row in sites.items() if key.endswith(" total"))
    print(f"{len(calls)} LPs, {failures} LpFailure; fastest of {args.repeats} "
          f"interleaved replays each")
    print(f"replay bitwise equal to its capture: {equal[0]}")
    bad = not equal[0]
    if other is not None:
        same = other == calls
        print(f"root's solver bitwise equal on this capture: {equal[1]}")
        print(f"captures bitwise equal across checkouts: {same}")
        bad = bad or not equal[1] or not same
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
