#!/usr/bin/env python3
"""momentkit benchmark: closed-loop CLI workloads with oracle-checked verdicts.

Usage, from the repository root::

    python3 benchmark/run.py --workload moment-check --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``moment-check``: ``check``, ``represent`` and ``verify`` (on
  ``represent``'s own output) over moment files;
* ``moment-extend``: ``extend-moments`` on flat truncations and non-PSD bases;
* ``finite-space``: ``hb-extend`` then ``build-measure`` on finite spaces;
* ``all``: each of the above in turn (for reading, not for comparison).

One caller drives ``momentkit.cli.run(Command)`` and ``RunResult.to_json()``
in process, the path ``momentkit VERB ...`` takes with ``--jobs 1``.  The
loop runs whole passes, each over one block of inputs.  A run has a fixed
number of distinct blocks, set by ``--seconds`` alone; it passes over them
in turn, and starts again from the first, until ``--seconds`` have been
measured.  Inputs come from ``--seed`` alone, so ``attempted`` and
``failed``, which count distinct operations, depend only on the seed and
``--seconds``, never on the speed of the host.
Reported times are normalized for the host's speed (see speed.py); the raw
figures are kept in the report line.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced pass over block 0,
alternated with untraced passes over the same block to measure the tracing
overhead.  The line before it is a JSON report with the output digest, the
environment, per-verb medians, the failure breakdown and the oracle result.
A readable summary goes to stderr.  The exit code is 0 when a result was
printed and 2 when the program under test is missing.
"""

import os

# Pin BLAS and OpenMP pools before numpy is imported; the child
# interpreters timed for set-up inherit the same environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("moment-check", "moment-extend", "finite-space")
SETUP_REPEATS = 7
TAIL_BEYOND = 10
# Rough seconds of one pass on a 2-vCPU host.  A run holds about
# ``--seconds / PASS_S`` distinct blocks, so that their first passes fill
# most of the measured time.  A fixed figure, not a timing: the set of
# inputs, and with it the failures, must not depend on the host's speed.
PASS_S = {"moment-check": 1.0, "moment-extend": 11.0, "finite-space": 3.0}


class Record(NamedTuple):
    """One verb call of a pass: its raw latency and the speed factor that
    normalizes it (see speed.py)."""

    verb: str
    path: str
    raw_s: float
    scale: float
    verdict: str
    text: str | None

    @property
    def seconds(self) -> float:
        return self.raw_s * self.scale


class _Discard(logging.Handler):
    """Formats each record as the CLI's stderr handler does, then drops it,
    so logging costs what it costs under ``momentkit VERB`` without the
    benchmark's output filling with per-op error lines."""

    def emit(self, record):
        self.format(record)


def configure_logging():
    handler = _Discard()
    handler.setFormatter(logging.Formatter("momentkit:%(levelname)s: %(message)s"))
    root = logging.getLogger()
    root.addHandler(handler)
    root.setLevel(logging.ERROR)


# --- inputs ------------------------------------------------------------------------------

def block_ops(workload, seed, index, out_dir):
    """Operations ``(verb, path)`` of one pass over input block ``index``."""
    from momentkit import cli

    rng = np.random.default_rng([seed, index])
    prefix = f"b{index:03d}"
    if workload == "moment-extend":
        return [("extend-moments", p) for p in workloads.moment_extend_block(rng, out_dir, prefix)]
    if workload == "finite-space":
        return [(verb, p) for p in workloads.finite_space_block(rng, out_dir, prefix)
                for verb in ("hb-extend", "build-measure")]
    ops = []
    for path in workloads.moment_check_block(rng, out_dir, prefix):
        ops += [("check", path), ("represent", path)]
        # verify reads represent's own output, written here, outside timing.
        fit = cli.run(cli.Command("represent", path)).payload.get("atomic_measure")
        if fit is not None:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            doc["atomic_measure"] = fit
            vpath = path[: -len(".json")] + "_fit.json"
            Path(vpath).write_text(json.dumps(doc), encoding="utf-8")
            ops.append(("verify", vpath))
    return ops


# --- measurement ------------------------------------------------------------------------

def timed_pass(ops, tracer=None):
    """Run ``ops`` once as a closed loop and return their records.

    The speed reference is timed before the first op, after the last, and
    between ops whenever ``speed.CALIBRATE_EVERY`` seconds have passed.
    """
    from momentkit import cli

    records, pending = [], []
    clock = time.perf_counter
    ref = speed.reference_seconds()
    due = clock() + speed.CALIBRATE_EVERY
    for i, (verb, path) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            result = cli.run(cli.Command(verb, path))
            text, verdict = result.to_json(), result.verdict
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            text, verdict = None, f"escaped {type(exc).__name__}: {exc}"
        pending.append((verb, path, clock() - t0, verdict, text))
        if clock() >= due or i == len(ops) - 1:
            prev, ref = ref, speed.reference_seconds()
            scale = speed.NOMINAL_S / (0.5 * (prev + ref))
            records += [Record(v, p, dt, scale, vd, tx) for v, p, dt, vd, tx in pending]
            pending.clear()
            due = clock() + speed.CALIBRATE_EVERY
    return records


def measure_setup(workload, out_dir):
    """Wall times of fresh interpreters that import momentkit and run one
    tiny op per verb of the workload, each run after one of the start-up
    reference (see speed.py).  Returns ``(probe times, reference times)``."""
    ops = json.dumps(workloads.tiny_inputs(workload, out_dir))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), ops]
    probe, reference = [], []
    for _ in range(SETUP_REPEATS):
        for times, argv in ((reference, speed.START_REFERENCE), (probe, cmd)):
            t0 = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return probe, reference


def warm_up(workload, out_dir):
    from momentkit import cli

    for verb, path, _ in workloads.tiny_inputs(workload, out_dir):
        cli.run(cli.Command(verb, path)).to_json()


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it,
    as ``(seconds, percentile)``."""
    xs = sorted(latencies)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


# --- correctness ---------------------------------------------------------------------------

def judge(records):
    """Failure kind of every record, or None.  Each distinct (verb, path)
    is judged by the oracle once; its later runs must repeat its output
    byte for byte."""

    first, verdicts, kinds = {}, {}, []
    for r in records:
        key = (r.verb, r.path)
        if key not in first:
            first[key] = r.text
            if r.text is None:
                verdicts[key] = ("escaped_exception", r.verdict)
            elif (why := oracle.check(r.verb, r.path, r.text)) is not None:
                verdicts[key] = ("oracle_mismatch", why)
            elif r.verdict in ("numerical-failure", "input-error"):
                verdicts[key] = (r.verdict.replace("-", "_"), json.loads(r.text).get("error", ""))
            else:
                verdicts[key] = None
            kinds.append(verdicts[key])
        elif r.text != first[key]:
            kinds.append(("nondeterministic", "output differs from an earlier run of the same op"))
        else:
            kinds.append(verdicts[key])
    return kinds


def digest(records):
    h = hashlib.sha256()
    for r in records:
        h.update((r.text or "").encode("utf-8"))
    return h.hexdigest()


def environment():
    import scipy
    from momentkit import eig

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "jacobi_path": "numba" if hasattr(eig._jacobi_kernel, "py_func") else "python",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_pinned": {v: os.environ[v] for v in THREAD_VARS},
        "processes": 1,
    }


# --- runs --------------------------------------------------------------------------------

def _p50_ms(values):
    return 1e3 * statistics.median(values)


def _rate(records, attr="seconds"):
    return len(records) / sum(getattr(r, attr) for r in records)


def _e2e(passes, attr):
    """End-to-end figures of a run from the ``attr`` latency of each record."""
    records = [r for recs in passes for r in recs]
    tails = [tail([getattr(r, attr) for r in recs]) for recs in passes]
    by_verb = defaultdict(list)
    for r in records:
        by_verb[r.verb].append(getattr(r, attr))
    metrics = {
        "ops_per_s": (statistics.median(_rate(recs, attr) for recs in passes), "1/s"),
        "latency_p50_ms": (_p50_ms([getattr(r, attr) for r in records]), "ms"),
        "latency_tail_ms": (1e3 * statistics.median(t for t, _ in tails), "ms"),
    }
    per_verb = {f"{v.replace('-', '_')}.p50_ms": {"value": _p50_ms(xs), "unit": "ms",
                                                  "samples": len(xs)}
                for v, xs in by_verb.items()}
    return metrics, per_verb, tails


def distinct_blocks(workload, seconds):
    return max(1, round(seconds / PASS_S[workload]))


def untraced_run(workload, seed, seconds, work):
    setup_times, start_times = measure_setup(workload, work)
    warm_up(workload, work)
    n_blocks = distinct_blocks(workload, seconds)
    blocks, passes = [], []
    measured = 0.0
    while measured < seconds or len(passes) < n_blocks:
        i = len(passes)
        if i < n_blocks:
            block = work / f"b{i:03d}"
            block.mkdir()
            blocks.append(block_ops(workload, seed, i, block))
        passes.append(timed_pass(blocks[i % n_blocks]))
        measured += sum(r.raw_s for r in passes[-1])

    metrics, per_verb, tails = _e2e(passes, "seconds")
    setup_raw = statistics.median(setup_times)
    metrics["setup_s"] = (setup_raw * speed.NOMINAL_START_S / statistics.median(start_times), "s")
    raw, raw_per_verb, _ = _e2e(passes, "raw_s")
    raw["setup_s"] = (setup_raw, "s")
    records = [r for recs in passes for r in recs]
    report = {
        "per_verb_p50_ms": per_verb,
        "tail": {"percentile": [p for _, p in tails], "samples_per_pass": [len(r) for r in passes],
                 "rule": "median over passes of the latency with 10 samples beyond it"},
        "raw": {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
                "per_verb_p50_ms": raw_per_verb},
        "setup_runs_s": {"probe": setup_times, "start_reference": start_times},
        "speed_scale": {"median": statistics.median(r.scale for r in records),
                        "min": min(r.scale for r in records), "max": max(r.scale for r in records)},
        "passes": len(passes),
        "distinct_blocks": n_blocks,
        "measured_s": measured,
        "digest_block0": digest(passes[0]),
        "verdicts": _verdicts(records),
    }
    return metrics, report, records, True


def traced_run(workload, seed, seconds, work):
    warm_up(workload, work)
    block = work / "b000"
    block.mkdir()
    ops = block_ops(workload, seed, 0, block)
    tracer = tracing.Tracer()
    plain, traced, layers, reconcile = [], [], [], []
    measured = 0.0
    while measured < seconds or not traced:
        plain.append(timed_pass(ops))
        tracer.reset()
        with tracer.installed():
            traced.append(timed_pass(ops, tracer))
        # Layer times take the pass's mean speed factor.
        scale = sum(r.seconds for r in traced[-1]) / sum(r.raw_s for r in traced[-1])
        layers.append({k: v * scale if _layer_unit(k) in ("ms", "s") else v
                       for k, v in tracer.metrics().items()})
        reconcile.append(_reconcile(tracer, traced[-1]))
        if len(traced) == 1:
            tracer.write(WORK / f"spans-{workload}.jsonl")
        measured += sum(r.raw_s for r in plain[-1] + traced[-1])

    metrics = {}
    repeatable = True
    for name, value in layers[0].items():
        unit = _layer_unit(name)
        if unit in ("ms", "s"):
            metrics[name] = (statistics.median(m[name] for m in layers), unit)
        else:
            metrics[name] = (value, unit)
            repeatable &= all(m[name] == value for m in layers)
    untraced_rate = statistics.median(_rate(p) for p in plain)
    traced_rate = statistics.median(_rate(p) for p in traced)
    metrics.update({
        "jsonio.bytes_in": (sum(os.path.getsize(p) for _, p in ops), "bytes"),
        "jsonio.bytes_out": (sum(len(r.text or "") for r in plain[0]), "bytes"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.traced_ops_per_s": (traced_rate, "1/s"),
        "trace.slowdown": (untraced_rate / traced_rate, "ratio"),
    })
    report = {
        "lp_reconciliation": reconcile[0],
        "lp_reconciled": all(r["equal"] for r in reconcile),
        "counts_repeat": repeatable,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "digest_block0": digest(plain[0]),
        "verdicts": _verdicts(plain[0]),
    }
    records = [r for pair in zip(plain, traced) for recs in pair for r in recs]
    return metrics, report, records, report["lp_reconciled"] and repeatable


def _reconcile(tracer, records):
    """Traced LP totals against the payloads' own diagnostics, over the ops
    whose payload carries them."""
    solves, pivots = tracer.lp_per_op()
    payload = Counter()
    traced = Counter()
    uncovered = 0
    for i, r in enumerate(records):
        diag = json.loads(r.text).get("diagnostics") if r.text else None
        if diag is None:
            uncovered += solves[i] > 0
            continue
        payload["solves"] += diag["lp_solves"]
        payload["pivots"] += diag["lp_iterations"]
        traced["solves"] += solves[i]
        traced["pivots"] += pivots[i]
    return {"traced": dict(traced), "payload": dict(payload),
            "ops_without_diagnostics_with_lps": uncovered,
            "equal": traced == payload}


def _layer_unit(name):
    if name == "eig.size_mean":
        return "rows"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_mean", "_per_solve", "_per_query", "_per_call")):
        return "ratio"
    return "count"


def _verdicts(records):
    out = defaultdict(Counter)
    for r in records:
        out[r.verb][r.verdict] += 1
    return {v: dict(c) for v, c in out.items()}


def run_workload(workload, seed, seconds, trace):
    work = WORK / f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = traced_run if trace else untraced_run
        metrics, report, records, consistent = runner(workload, seed, seconds, work)
        t0 = time.perf_counter()
        kinds = judge(records)
        oracle_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # ``attempted`` and ``failed`` count distinct operations (verb, input):
    # repeats of an op must give its bytes again, so they add no new outcome,
    # and how many repeats fit into the time depends on the host.
    ops = {}
    for r, k in zip(records, kinds):
        if ops.get((r.verb, r.path)) is None:
            ops[(r.verb, r.path)] = k
    failures = [k for k in ops.values() if k is not None]
    counts = Counter(kind for kind, _ in failures)
    examples = list(dict.fromkeys(f"{r.verb} {Path(r.path).name}: {k[0]}: {k[1]}"
                                  for r, k in zip(records, kinds) if k is not None))[:5]
    # Wrong outputs are failed operations, counted in ``failed``; ``correct``
    # is false only when the run cannot vouch for its own figures.
    correct = consistent and not counts["nondeterministic"]
    report.update({
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "loop": "closed, 1 caller, in process",
        "failed_share": len(failures) / len(ops),
        "failures": dict(counts),
        "calls": {"total": len(records), "failed": sum(k is not None for k in kinds)},
        "oracle": {"checked": len(ops),
                   "mismatches": counts["oracle_mismatch"], "seconds": oracle_s,
                   "examples": examples},
        "env": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    result = {
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def _summary(report, result):
    lines = [f"== {report['workload']} (seed {report['seed']}, trace {report['trace']}): "
             f"correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']} failed_share={report['failed_share']:.4g}"]
    rows = dict(report["metrics"])
    rows.update(report.get("per_verb_p50_ms", {}))
    for name, m in rows.items():
        lines.append(f"   {name:<44} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"   oracle mismatches: {report['oracle']['mismatches']}; "
                 f"failures: {report['failures'] or 'none'}")
    lines.extend(f"     {e}" for e in report["oracle"]["examples"])
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "momentkit" / "__init__.py").is_file():
        print(f"benchmark: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import momentkit

    if Path(momentkit.__file__).resolve().parent != SRC / "momentkit":
        print(f"benchmark: imported momentkit from {momentkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    configure_logging()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in names:
        report, result = run_workload(workload, args.seed, args.seconds, args.trace)
        print(_summary(report, result), file=sys.stderr)
        print(json.dumps(report))
        results.append((workload, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{w}.{k}": v for w, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
