"""Per-layer tracing of momentkit from outside the program.

Each traced function is wrapped once, and the wrapper is bound in place of
the original under every name that holds it in any loaded ``momentkit``
module, so calls that cross modules (``cli`` calling ``moments``,
``lambda_min`` calling ``jacobi_eigh``) go through it.  Nothing under
``src/`` is edited; the originals are restored on exit.

A span is ``[name, start, end, parent span index, op index, info]``; spans
stay in memory and are summarized into the per-layer metrics after a pass.
A layer's self time is its span time minus the time of its child spans.
The *site* of an LP or eigen call is its innermost enclosing traced caller
from the site lists below.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# Defining module -> traced public functions.
TRACED = {
    "momentkit.cli": ("run",),
    "momentkit.jsonio": ("parse_input", "dumps_canonical"),
    "momentkit.simplex": ("solve_lp",),
    "momentkit.eig": ("jacobi_eigh",),
    "momentkit.moments": ("positivity_certificate", "recover_atoms", "extend_search", "psd",
                          "haviland_grid_check"),
    "momentkit.funcspace": ("dominates", "hull_contains", "check_adapted"),
    "momentkit.extend": ("sublinear_p", "in_cone_plus_subspace", "verify_positive",
                         "hb_extend_step"),
    "momentkit.measure": ("density_check", "represent_via_adapted"),
}

LP_SITES = ("sublinear_p", "in_cone_plus_subspace", "verify_positive", "dominates",
            "hull_contains", "density_check", "haviland_grid_check")
EIG_SITES = ("positivity_certificate", "recover_atoms", "extend_search", "psd")


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _rows(a):
    return 0 if a is None else np.atleast_2d(np.asarray(a)).shape[0]


def _lp_info(args, kwargs, sol):
    """``(status, pivots, cells)``; cells are pivots times the tableau size
    computed from the argument shapes: (rows + 1) x (2n + rows + 1)."""
    n = np.atleast_1d(np.asarray(_arg(args, kwargs, 0, "c"))).shape[0]
    m_ub = _rows(_arg(args, kwargs, 1, "a_ub"))
    m = m_ub + _rows(_arg(args, kwargs, 3, "a_eq"))
    return sol.status, sol.iterations, sol.iterations * (m + 1) * (2 * n + m + 1)


INFO = {
    "solve_lp": _lp_info,
    "jacobi_eigh": lambda args, kwargs, result: np.shape(args[0])[0],
    "dominates": lambda args, kwargs, result: bool(result),
}


class Tracer:
    """Span recorder; ``op`` is the index of the operation in progress."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = "error"
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Bind the wrappers into every loaded momentkit module."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "momentkit" or k.startswith("momentkit.")]
        restore = []
        for modname, names in TRACED.items():
            for name in names:
                original = getattr(sys.modules[modname], name)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        setattr(mod, attr, wrapped)
                        restore.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in restore:
                setattr(mod, attr, original)

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self.op = -1

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op,
                                     "info": info if not isinstance(info, tuple) else list(info)}))
                fh.write("\n")

    # --- summaries ----------------------------------------------------------------------

    def _site(self, index, sites):
        parent = self.spans[index][3]
        while parent >= 0:
            name = self.spans[parent][0]
            if name in sites:
                return name
            parent = self.spans[parent][3]
        return None

    def lp_per_op(self):
        """Completed LP solves and pivots per op index."""
        solves, pivots = Counter(), Counter()
        for name, _, _, _, op, info in self.spans:
            if name == "solve_lp" and isinstance(info, tuple):
                solves[op] += 1
                pivots[op] += info[1]
        return solves, pivots

    def metrics(self):
        """Per-layer metrics of the spans recorded since the last reset:
        counts are totals, ``*_s`` are total self seconds and ``*_ms`` are
        mean milliseconds per call."""
        calls, total = Counter(), defaultdict(float)
        child = defaultdict(float)
        for name, t0, t1, parent, _, _ in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_time = defaultdict(float)
        for i, (name, t0, t1, *_rest) in enumerate(self.spans):
            self_time[name] += (t1 - t0) - child[i]

        def mean_ms(name):
            return 1e3 * total[name] / calls[name] if calls[name] else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        lp = Counter()
        eig_sites, eig_sizes = Counter(), []
        feasible = 0
        for i, (name, _, _, _, _, info) in enumerate(self.spans):
            if name == "solve_lp" and isinstance(info, tuple):
                status, pivots, cells = info
                site = self._site(i, LP_SITES)
                lp["solves"] += 1
                lp["pivots"] += pivots
                lp["cells"] += cells
                lp["infeasible"] += status == "infeasible"
                lp[f"solves.{site}"] += 1
                lp[f"pivots.{site}"] += pivots
            elif name == "jacobi_eigh":
                eig_sites[self._site(i, EIG_SITES)] += 1
                if info is not None and info != "error":
                    eig_sizes.append(info)
            elif name == "dominates":
                feasible += info is True

        out = {
            "cli.self_ms": 1e3 * ratio(self_time["run"], calls["run"]),
            "jsonio.parse_ms": mean_ms("parse_input"),
            "jsonio.encode_ms": mean_ms("dumps_canonical"),
            "simplex.solves": lp["solves"],
            "simplex.pivots": lp["pivots"],
            "simplex.self_s": self_time["solve_lp"],
            "simplex.pivots_per_solve": ratio(lp["pivots"], lp["solves"]),
            "simplex.infeasible_share": ratio(lp["infeasible"], lp["solves"]),
            "simplex.cells_computed": lp["cells"],
        }
        for site in LP_SITES:
            out[f"simplex.solves.{site}"] = lp[f"solves.{site}"]
            out[f"simplex.pivots.{site}"] = lp[f"pivots.{site}"]
        out.update({
            "eig.calls": calls["jacobi_eigh"],
            "eig.self_s": self_time["jacobi_eigh"],
            "eig.size_mean": float(np.mean(eig_sizes)) if eig_sizes else 0.0,
        })
        for site in EIG_SITES:
            out[f"eig.calls.{site}"] = eig_sites[site]
        out.update({
            "moments.certificate_ms": mean_ms("positivity_certificate"),
            "moments.recover_ms": mean_ms("recover_atoms"),
            "moments.extend_search_ms": mean_ms("extend_search"),
            "moments.extend_search.eig_per_query": ratio(eig_sites["extend_search"],
                                                         calls["extend_search"]),
            "moments.grid_check.lps_per_call": ratio(lp["solves.haviland_grid_check"],
                                                     calls["haviland_grid_check"]),
            "funcspace.dominates.calls": calls["dominates"],
            "funcspace.dominates.feasible_share": ratio(feasible, calls["dominates"]),
            "funcspace.check_adapted_ms": mean_ms("check_adapted"),
            "extend.hb_extend_step.calls": calls["hb_extend_step"],
            "extend.sublinear_p.calls": calls["sublinear_p"],
            "extend.wc_probe_share": ratio(lp["solves.in_cone_plus_subspace"], lp["solves"]),
            "measure.density_check_ms": mean_ms("density_check"),
            "measure.represent_ms": mean_ms("represent_via_adapted"),
        })
        return out
