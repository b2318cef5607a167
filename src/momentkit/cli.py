"""Batch command-line front end.

Verbs: check, represent, extend-moments, hb-extend, build-measure, verify.
Each run reads one JSON input file, hands it to the library, and emits a
canonical JSON result; multiple inputs fan out with ``--jobs``.  Two tables
hold the stable contract: :data:`VERBS` gives each verb's input kind and
handler, and :data:`EXIT_CODES` each verdict's exit code:

    0  positive verdict / representation verified
    1  negative verdict (with a witness or reason in the payload)
    2  input error (unreadable file, schema violation)
    3  numerical failure (solver non-convergence, inconclusive band)
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, counters
from .errors import (
    DegreeTooHigh,
    EigFailure,
    IoError,
    LpFailure,
    LpUnbounded,
    MomentkitError,
    RankDetectionAmbiguous,
    SchemaError,
)
from .extend import hb_extend, verify_positive
from .funcspace import FunctionVec
from .jsonio import FiniteSpaceInput, MomentInput, dumps_canonical, encode_support, parse_input
from .measure import (
    BinningSpec,
    RepresentOptions,
    approx_below,
    gap_T,
    represent_via_adapted,
    seminorm_rho,
)
from .moments import (
    extend_search,
    haviland_grid_check,
    positivity_certificate,
    recover_atoms,
    riesz,
    verify_truncated,
)
from .tolerances import BIN_PAD, GRID_TOL_FLOOR, VERDICT_TOL

log = logging.getLogger("momentkit")

EXIT_CODES = {
    "schema-ok": 0,
    "representable": 0,
    "represented": 0,
    "extended": 0,
    "extended-positive": 0,
    "measure-certified": 0,
    "verified": 0,
    "failed": 1,
    "not-representable": 1,
    "verification-failed": 1,
    "no-positive-extension": 1,
    "positivity-failed": 1,
    "density-failed": 1,
    "not-certified": 1,
    "input-error": 2,
    "inconclusive": 3,
    "numerical-failure": 3,
}


class Command(NamedTuple):
    verb: str
    input_path: str
    tol: float = VERDICT_TOL
    grid: int = 200
    bins: int = 64
    rule: str = "midpoint"
    schema_check_only: bool = False


class RunResult(NamedTuple):
    verdict: str
    payload: dict

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]

    def to_json(self) -> str:
        doc = dict(self.payload)
        doc.setdefault("schema", "1")
        doc["verdict"] = self.verdict
        doc["exit_code"] = self.exit_code
        return dumps_canonical(doc) + "\n"


def run(cmd: Command) -> RunResult:
    """Execute one command; never raises on schema-valid input.

    Every payload names its verb, and every one but a schema check's reports
    its work in ``diagnostics``, failures included."""
    log.info("run %s on %s", cmd.verb, cmd.input_path)
    with counters.collect() as work:
        try:
            parsed = parse_input(cmd.input_path)
            if cmd.schema_check_only:
                return RunResult("schema-ok", {"verb": cmd.verb})
            if cmd.verb not in VERBS:
                raise SchemaError("verb", f"unknown verb {cmd.verb!r}")
            kind, handler = VERBS[cmd.verb]
            if kind is not None and not isinstance(parsed, kind):
                raise SchemaError("", f"verb {cmd.verb!r} expects {_KIND_NAMES[kind]} input file")
            result = handler(cmd, parsed)
        except (SchemaError, IoError, DegreeTooHigh) as exc:
            log.error("input error: %s", exc)
            result = RunResult("input-error", {"error": str(exc)})
        except (LpFailure, LpUnbounded, EigFailure, RankDetectionAmbiguous) as exc:
            log.error("numerical failure: %s", exc)
            result = RunResult("numerical-failure",
                               {"error": str(exc), "error_kind": type(exc).__name__})
        except MomentkitError as exc:
            log.error("negative verdict: %s", exc)
            result = RunResult("failed", {"error": str(exc), "error_kind": type(exc).__name__})
        except Exception as exc:  # defensive: exit-code totality
            log.exception("unexpected failure")
            result = RunResult("numerical-failure",
                               {"error": f"unexpected {type(exc).__name__}: {exc}"})
    result.payload.update(verb=cmd.verb, diagnostics=work)
    return result


# --- verb handlers ------------------------------------------------------------

def _moment_payload(seq, **fields) -> dict:
    """A moment verb's payload: the input sequence and support, then ``fields``."""
    return {"moments": list(seq.moments), "support": encode_support(seq.support), **fields}


def _run_check(cmd: Command, inp: MomentInput) -> RunResult:
    seq = inp.sequence
    cert = positivity_certificate(seq, cmd.tol)
    payload = _moment_payload(seq, certificate={
        "verdict": cert.verdict,
        "tol": cert.tol,
        "matrices": [
            {
                "label": w.label,
                "size": w.size,
                "lambda_min": w.lambda_min,
                **({"witness_poly": list(w.witness.coeffs),
                    "witness_value": riesz(seq, w.witness)} if w.witness else {}),
            }
            for w in cert.witnesses
        ],
        "notes": list(cert.notes),
    })
    grid_info = {"ran": False}
    if seq.support.kind == "interval" and cmd.grid >= 2:
        grid = np.linspace(seq.support.a, seq.support.b, cmd.grid)
        ok, worst = haviland_grid_check(seq, grid, max(cmd.tol, GRID_TOL_FLOOR))
        grid_info = {
            "ran": True,
            "points": cmd.grid,
            "passed": ok,
            "witness_poly": list(worst.coeffs),
            "witness_value": riesz(seq, worst),
        }
    payload["grid_check"] = grid_info
    return RunResult(cert.verdict, payload)


def _verification(report) -> dict:
    return {
        "through_degree": report.through_degree,
        "max_relative_residual": report.max_relative_residual,
        "degree_2d_residual": report.degree_2d_residual,
        "tol": report.tol,
        "passed": report.passed,
    }


def _run_represent(cmd: Command, inp: MomentInput) -> RunResult:
    seq = inp.sequence
    mu = recover_atoms(seq, cmd.tol)
    report = verify_truncated(seq, mu, tol=cmd.tol)
    payload = _moment_payload(seq,
                              atomic_measure={"atoms": list(mu.atoms), "weights": list(mu.weights)},
                              verification=_verification(report))
    return RunResult("represented" if report.passed else "verification-failed", payload)


def _run_extend_moments(cmd: Command, inp: MomentInput) -> RunResult:
    found = extend_search(inp.sequence, cmd.tol)
    if found is None:
        return RunResult("no-positive-extension", _moment_payload(inp.sequence, extension=None))
    return RunResult("extended", _moment_payload(inp.sequence, extension=found._asdict()))


def _run_hb_extend(cmd: Command, fs: FiniteSpaceInput) -> RunResult:
    if fs.functional is None:
        raise SchemaError("functional", "hb-extend requires functional values")
    current, trace = hb_extend(fs.functional, [t for _, t in fs.targets], cmd.rule)
    step_names = [fs.targets[step.target_index][0] for step in trace.steps]
    names = list(fs.basis_names) + step_names
    ok, worst = verify_positive(current, cmd.tol)
    payload = {
        "rule": cmd.rule,
        "trace": [{"target": name, "interval_lo": step.interval_lo,
                   "interval_hi": step.interval_hi, "chosen": step.chosen}
                  for name, step in zip(step_names, trace.steps)],
        "functional": {name: float(c) for name, c in zip(names, current.coeffs)},
        "positivity": {"ok": ok, "worst_value": worst, "tol": cmd.tol},
    }
    return RunResult("extended-positive" if ok else "positivity-failed", payload)


def _run_build_measure(cmd: Command, fs: FiniteSpaceInput) -> RunResult:
    if fs.functional is None:
        raise SchemaError("functional", "build-measure requires functional values")
    if fs.algebra is None:
        raise SchemaError("sigma_algebra", "build-measure requires a partition")
    opts = RepresentOptions(
        rule=cmd.rule,
        tol=cmd.tol,
        subspace_variant=fs.subspace_variant,
        witnesses=fs.witnesses or None,
    )
    mu, report = represent_via_adapted(fs.domain, fs.designated, fs.functional, fs.algebra, opts)

    binning = []
    if cmd.bins >= 1 and fs.domain.dim:
        Lt_one = report.extended(FunctionVec(fs.ground, np.ones(fs.ground.size)))
        for name, g in zip(fs.basis_names, fs.domain.basis):
            lo = float(g.values.min())
            hi = float(g.values.max())
            spec = BinningSpec(lo, hi + max(1.0, hi - lo) * BIN_PAD, cmd.bins)
            phi = approx_below(g, spec)
            rho = seminorm_rho(report.extended, g - phi.as_vec())
            bound = Lt_one * spec.width
            binning.append({
                "name": name,
                "width": spec.width,
                "rho_gap": rho,
                "bound": bound,
                "ok": rho <= bound + cmd.tol,
            })

    payload = {
        "measure": {"blocks": [list(b) for b in mu.algebra.blocks], "mass": list(mu.block_mass)},
        "density": {
            "distances": list(report.density.distances),
            "tol": report.density.tol,
            "dense": report.density.dense,
        },
        "residuals": {name: r for name, r in zip(fs.basis_names, report.residuals)},
        "max_residual": report.max_residual,
        "positivity": {"ok": report.positive_ok, "worst_value": report.worst_positive_value},
        "adaptedness": None if report.adaptedness is None else [
            {
                "target_index": e.target_index,
                "witness_index": e.witness_index,
                "passed": e.passed,
            }
            for e in report.adaptedness.entries
        ],
        "t_decay_ok": all(e.ok for e in report.t_decay),
        "binning": binning,
        "notes": list(report.notes),
        "certified": report.certified,
    }
    verdict = ("measure-certified" if report.certified
               else "not-certified" if report.density_ok else "density-failed")
    return RunResult(verdict, payload)


def _run_verify(cmd: Command, inp) -> RunResult:
    if isinstance(inp, MomentInput):
        if inp.atomic is None:
            raise SchemaError("atomic_measure", "verify requires an atomic_measure alongside moments")
        report = verify_truncated(inp.sequence, inp.atomic, tol=cmd.tol)
        payload, passed = {"verification": _verification(report)}, report.passed
    else:
        if inp.functional is None or inp.algebra is None or inp.measure is None:
            raise SchemaError("measure",
                              "finite-space verify requires functional, sigma_algebra and measure")
        residuals = {name: gap_T(inp.functional, inp.measure, inp.algebra, g)
                     for name, g in zip(inp.basis_names, inp.domain.basis)}
        worst = max((abs(r) for r in residuals.values()), default=0.0)
        payload = {"residuals": residuals, "max_residual": worst, "tol": cmd.tol}
        passed = worst <= cmd.tol
    return RunResult("verified" if passed else "verification-failed", payload)


# verb -> (the input kind it takes, None for either; its handler)
VERBS = {
    "check": (MomentInput, _run_check),
    "represent": (MomentInput, _run_represent),
    "extend-moments": (MomentInput, _run_extend_moments),
    "hb-extend": (FiniteSpaceInput, _run_hb_extend),
    "build-measure": (FiniteSpaceInput, _run_build_measure),
    "verify": (None, _run_verify),
}
_KIND_NAMES = {MomentInput: "a moment-sequence", FiniteSpaceInput: "a finite-space"}


# --- entry point ----------------------------------------------------------------

def ProcessPoolExecutor(max_workers: int):
    """A process pool, its module imported on first use: a run with one
    worker, the default, starts none."""
    from concurrent.futures import ProcessPoolExecutor as Pool

    return Pool(max_workers=max_workers)


def _worker(cmd: Command) -> tuple[str, str, int]:
    result = run(cmd)
    return cmd.input_path, result.to_json(), result.exit_code


def _configure_logging() -> None:
    level = os.environ.get("MOMENTKIT_LOG", "error").lower()
    mapping = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(stream=sys.stderr, level=mapping.get(level, logging.ERROR),
                        format="momentkit:%(levelname)s: %(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentkit",
        description="Positivity certificates, representing measures and "
                    "functional extension on desk-scale inputs.",
    )
    parser.add_argument("--version", action="version", version=f"momentkit {__version__}")
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("inputs", nargs="+", metavar="INPUT", help="input JSON file(s)")
    parser.add_argument("--tol", type=float, default=VERDICT_TOL,
                        help=f"verdict tolerance (default {VERDICT_TOL:g})")
    parser.add_argument("--grid", type=int, default=200,
                        help="grid size for the interval cross-check (default 200)")
    parser.add_argument("--bins", type=int, default=64,
                        help="bin count for the lower-approximation diagnostic (default 64)")
    parser.add_argument("--rule", choices=("midpoint", "lo", "hi"), default="midpoint",
                        help="extension value rule (default midpoint)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for many inputs")
    parser.add_argument("--output", default=None,
                        help="output file (single input) or directory (multiple inputs)")
    parser.add_argument("--schema-check-only", action="store_true",
                        help="validate the input schema and exit")
    return parser


def _refuse(message: str) -> int:
    print(f"momentkit: {message}", file=sys.stderr)
    return EXIT_CODES["input-error"]


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    if not 0 < args.tol < float("inf"):  # NaN fails both comparisons
        return _refuse("--tol must be positive and finite")
    if args.grid < 2:
        return _refuse("--grid must be at least 2")
    if args.bins < 1:
        return _refuse("--bins must be at least 1")
    if args.jobs < 1:
        return _refuse("--jobs must be at least 1")

    multi = len(args.inputs) > 1
    out = None if args.output is None else Path(args.output)
    if out is not None and multi:
        if out.exists() and not out.is_dir():
            return _refuse(f"cannot write {out}: it exists and is not a directory")
        seen = {}
        for path in args.inputs:
            name = Path(path).stem + ".out.json"
            if name in seen:
                return _refuse(f"{seen[name]} and {path} would both write {out / name}")
            seen[name] = path
    elif out is not None and not out.parent.is_dir():
        return _refuse(f"cannot write {out}: {out.parent} is not a directory")

    jobs = [Command(args.verb, path, tol=args.tol, grid=args.grid, bins=args.bins,
                    rule=args.rule, schema_check_only=args.schema_check_only)
            for path in args.inputs]

    # The fork start method launches every worker up front, so cap the pool.
    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_worker, jobs))
    else:
        results = [_worker(j) for j in jobs]

    worst = 0
    for path, text, code in results:
        worst = max(worst, code)
        if out is None:
            sys.stdout.write(text)
            continue
        target = out / (Path(path).stem + ".out.json") if multi else out
        try:
            if multi:
                out.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
        except OSError as exc:
            return _refuse(f"cannot write {target}: {exc.strerror or exc}")
    return worst


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
