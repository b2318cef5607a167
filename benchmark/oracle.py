"""Independent oracles for every verdict the benchmark collects.

Nothing here calls momentkit.  Eigenvalues come from
``numpy.linalg.eigvalsh`` and LP values from ``scipy.optimize.linprog``
(HiGHS).  Each check first compares the numbers a payload reports against
the oracle's own, within a tolerance scaled to the problem, and then
requires the verdict to follow from the reported numbers by the rule the
CLI documents.  A check returns None when the output agrees, else a short
reason.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import linprog

EIG_REL = 1e-10     # eigenvalue agreement, relative to max(1, ||H||_F)
WITNESS_REL = 1e-8  # witness value against lambda_min, same scale
LP_REL = 1e-6       # LP value agreement, relative to max(1, |value|)
RESID_ABS = 1e-12   # recomputed moment residuals
PSD_TOL = 1e-8      # recover_atoms' NotPSD threshold, relative to max(1, ||H||_F)
GRID_TOL = 1e-7     # check's grid threshold: max(--tol, 1e-7)
RESIDUAL_TOL = 1e-7  # build-measure's residual threshold for certification


def _lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    """``(status, value)`` of a free-variable LP, status in optimal,
    infeasible, unbounded."""
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(None, None), method="highs")
    if res.status == 0:
        return "optimal", float(res.fun)
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    raise RuntimeError(f"linprog status {res.status}: {res.message}")


def _near(a, b, rel, scale=1.0):
    return abs(a - b) <= rel * max(1.0, abs(scale), abs(a), abs(b))


def _frob(h):
    return max(1.0, float(np.sqrt(np.sum(h * h))))


# --- moment problems -----------------------------------------------------------------

def support_matrices(moments, support):
    """Hankel matrix plus the localizing matrix of the support class."""
    m = np.asarray(moments, dtype=float)
    d = (m.size - 1) // 2
    idx = np.add.outer(np.arange(d + 1), np.arange(d + 1))
    mats = [m[idx]]
    if d >= 1:
        k = np.add.outer(np.arange(d), np.arange(d))
        if support["type"] == "halfline":
            mats.append(m[k + 1])
        elif support["type"] == "interval":
            a, b = support["a"], support["b"]
            mats.append(-a * b * m[k] + (a + b) * m[k + 1] - m[k + 2])
    return mats


def _lambda_min(h):
    return float(np.linalg.eigvalsh(h)[0])


def _relative_residual(moments, atoms, weights):
    """Max relative residual over degrees 0..2d-1, and the degree-2d one."""
    m = np.asarray(moments, dtype=float)
    xs, ws = np.asarray(atoms, dtype=float), np.asarray(weights, dtype=float)
    mu = np.array([float(ws @ xs**k) for k in range(m.size)])
    scale = max(1.0, float(np.abs(m).max()))
    resid = np.abs(m - mu) / scale
    d = (m.size - 1) // 2
    return float(resid[: 2 * d].max(initial=0.0)), float(resid[-1])


_ORDER = ("not-representable", "inconclusive", "representable")


def _cert_verdict(lams, tol):
    if any(lam < -tol for lam in lams):
        return 0
    if all(lam > tol for lam in lams):
        return 2
    return 1


def check_check(inp, out):
    cert = out["certificate"]
    tol = cert["tol"]
    mats = support_matrices(inp["moments"], inp["support"])
    reported = cert["matrices"]
    if len(reported) != len(mats):
        return f"{len(reported)} matrices reported, expected {len(mats)}"
    lows, highs = [], []
    for h, rep in zip(mats, reported):
        lam, err = _lambda_min(h), EIG_REL * _frob(h)
        if rep["size"] != h.shape[0] or abs(rep["lambda_min"] - lam) > err:
            return f"{rep['label']}: lambda_min {rep['lambda_min']!r}, eigvalsh {lam!r}"
        lows.append(lam - err)
        highs.append(lam + err)
        if "witness_poly" in rep:
            value = float(np.dot(rep["witness_poly"], inp["moments"][: len(rep["witness_poly"])]))
            if value >= 0.0 or abs(value - lam) > WITNESS_REL * _frob(h):
                return f"{rep['label']}: witness value {value!r} against lambda_min {lam!r}"
        elif rep["lambda_min"] < -tol:
            return f"{rep['label']}: failing matrix without a witness"
    verdict = out["verdict"]
    if verdict not in _ORDER:
        return f"unexpected verdict {verdict!r}"
    if not _cert_verdict(lows, tol) <= _ORDER.index(verdict) <= _cert_verdict(highs, tol):
        return f"verdict {verdict!r} does not follow from eigvalsh {lows}..{highs}"
    if cert["verdict"] != verdict:
        return "certificate verdict differs from the top-level verdict"
    return _check_grid(inp, out["grid_check"])


def _check_grid(inp, grid):
    if inp["support"]["type"] != "interval":
        return None if not grid["ran"] else "grid check ran off an interval"
    m = np.asarray(inp["moments"], dtype=float)
    n = m.size
    x = np.linspace(inp["support"]["a"], inp["support"]["b"], grid["points"])
    vander = np.vander(x, n, increasing=True)
    eye, zero = np.eye(n), np.zeros((x.size, n))
    a_ub = np.block([[-vander, zero], [eye, -eye], [-eye, -eye],
                     [np.zeros((1, n)), np.ones((1, n))]])
    b_ub = np.concatenate([np.zeros(x.size + 2 * n), [1.0]])
    status, value = _lp(np.concatenate([m, np.zeros(n)]), a_ub, b_ub)
    if status != "optimal":
        return f"grid LP oracle status {status}"
    scale = float(np.abs(m).max())
    if not _near(grid["witness_value"], value, LP_REL, scale):
        return f"grid witness value {grid['witness_value']!r}, linprog {value!r}"
    coeffs = np.asarray(grid["witness_poly"], dtype=float)
    if (vander[:, : coeffs.size] @ coeffs).min() < -1e-9 or np.abs(coeffs).sum() > 1 + 1e-9:
        return "grid witness polynomial is not grid-nonnegative and normalized"
    if grid["passed"] != (grid["witness_value"] >= -GRID_TOL):
        return "grid verdict does not follow from its witness value"
    return None


def _fit_check(inp, verification, atoms, weights, verdict, ok_verdict):
    resid, top = _relative_residual(inp["moments"], atoms, weights)
    if abs(resid - verification["max_relative_residual"]) > RESID_ABS:
        return f"max residual {verification['max_relative_residual']!r}, recomputed {resid!r}"
    if abs(top - verification["degree_2d_residual"]) > RESID_ABS:
        return f"degree-2d residual {verification['degree_2d_residual']!r}, recomputed {top!r}"
    passed = verification["max_relative_residual"] <= verification["tol"]
    if verification["passed"] != passed or (verdict == ok_verdict) != passed:
        return f"verdict {verdict!r} does not follow from residual {resid!r}"
    return None


def check_represent(inp, out):
    mats = support_matrices(inp["moments"], inp["support"])
    # Per matrix: (lowest, highest) value of lambda_min / ||H||_F the eigen error allows.
    scaled = [(_lambda_min(h) / _frob(h) - EIG_REL, _lambda_min(h) / _frob(h) + EIG_REL) for h in mats]
    verdict = out["verdict"]
    if verdict == "failed" and out.get("error_kind") == "NotPSD":
        if all(lo >= -PSD_TOL for lo, _ in scaled):
            return "NotPSD, but eigvalsh finds every support matrix PSD"
        return None
    if verdict not in ("represented", "verification-failed"):
        return f"unexpected verdict {verdict!r}"
    if any(hi < -PSD_TOL for _, hi in scaled):
        return "a measure was returned for a sequence eigvalsh finds not PSD"
    mu = out["atomic_measure"]
    return _fit_check(inp, out["verification"], mu["atoms"], mu["weights"], verdict, "represented")


def check_verify(inp, out):
    mu = inp["atomic_measure"]
    return _fit_check(inp, out["verification"], mu["atoms"], mu["weights"], out["verdict"], "verified")


def check_extend_moments(inp, out):
    m = np.asarray(inp["moments"], dtype=float)
    d = (m.size - 1) // 2
    base = m[np.add.outer(np.arange(d + 1), np.arange(d + 1))]
    verdict = out["verdict"]
    if verdict == "no-positive-extension":
        # A positive definite Hankel matrix on the line always extends.
        if _lambda_min(base) - EIG_REL * _frob(base) > PSD_TOL * _frob(base):
            return "no extension reported for a positive definite base"
        return None
    if verdict != "extended":
        return f"unexpected verdict {verdict!r}"
    ext = out["extension"]
    full = np.concatenate([m, [ext["m_next"], ext["m_next_next"]]])
    h = full[np.add.outer(np.arange(d + 2), np.arange(d + 2))]
    lam, scale = _lambda_min(h), _frob(h)
    if abs(ext["lambda_min"] - lam) > EIG_REL * scale:
        return f"extension lambda_min {ext['lambda_min']!r}, eigvalsh {lam!r}"
    if lam < -PSD_TOL * scale:
        return f"extended Hankel matrix is not PSD: eigvalsh {lam!r}, ||H||_F {scale!r}"
    return None


# --- finite spaces -----------------------------------------------------------------

def _lp_batch(problems):
    """``(status, value)`` of independent LPs ``(c, a_ub, b_ub, a_eq, b_eq)``.

    They are solved as one block-diagonal LP, whose optimum restricts to an
    optimum of every block.  If the joint LP is not optimal, the problems
    are solved one by one to tell which of them is not.
    """
    if len(problems) > 1:
        sizes = [len(p[0]) for p in problems]
        eq = [(p[3], p[4]) if p[3] is not None else (np.zeros((0, n)), np.zeros(0))
              for p, n in zip(problems, sizes)]
        res = linprog(np.concatenate([p[0] for p in problems]),
                      A_ub=block_diag(*[p[1] for p in problems]),
                      b_ub=np.concatenate([p[2] for p in problems]),
                      A_eq=block_diag(*[a for a, _ in eq]),
                      b_eq=np.concatenate([b for _, b in eq]),
                      bounds=(None, None), method="highs")
        if res.status == 0:
            parts = np.split(res.x, np.cumsum(sizes)[:-1])
            return [("optimal", float(p[0] @ x)) for p, x in zip(problems, parts)]
    return [_lp(*p) for p in problems]


def _p_problem(W, coeffs, v):
    """LP whose value is ``p(v) = -sup { L(w) : w in span W, w <= v }``."""
    return (-coeffs, W, v, None, None)


def _positivity_problem(W, coeffs):
    """LP whose value is the minimum of L over the normalized cone slice."""
    return (coeffs, -W, np.zeros(W.shape[0]), W.sum(axis=0)[None, :], np.ones(1))


def _worst_value(result):
    status, value = result
    if status == "infeasible":  # empty slice: positive by convention
        return 0.0
    if status != "optimal":
        raise RuntimeError(f"positivity LP status {status}")
    return value


def _in_span(W, v):
    coeffs, *_ = np.linalg.lstsq(W, v, rcond=None)
    return np.abs(W @ coeffs - v).max() <= 1e-10 * max(1.0, np.abs(v).max())


def check_hb_extend(inp, out):
    names = list(inp["basis"])
    W = np.column_stack([inp["basis"][k] for k in names])
    coeffs = np.array([inp["functional"][k] for k in names], dtype=float)
    # Replay the trace with the reported values; every bound LP is then known.
    trace, steps, problems = iter(out["trace"]), [], []
    for name, values in inp["targets"].items():
        v = np.asarray(values, dtype=float)
        if _in_span(W, v):
            continue
        step = next(trace, None)
        if step is None or step["target"] != name:
            return f"trace does not extend target {name!r} next"
        if not _near(step["chosen"], 0.5 * (step["interval_lo"] + step["interval_hi"]), 1e-12):
            return f"target {name!r}: chosen value is not the interval midpoint"
        steps.append(step)
        problems += [_p_problem(W, coeffs, v), _p_problem(W, coeffs, -v)]
        W = np.column_stack([W, v])
        coeffs = np.append(coeffs, step["chosen"])
        names.append(name)
    if next(trace, None) is not None:
        return "trace holds more steps than targets outside the span"
    reported = out["functional"]
    if set(reported) != set(names):
        return "extended functional is defined on other names"
    if any(not _near(reported[k], c, 1e-12) for k, c in zip(names, coeffs)):
        return "extended functional differs from the replayed trace"

    results = _lp_batch(problems + [_positivity_problem(W, coeffs)])
    for k, step in enumerate(steps):
        (s_lo, p_v), (s_hi, p_neg) = results[2 * k], results[2 * k + 1]
        if s_lo != "optimal" or s_hi != "optimal":
            return f"target {step['target']!r}: oracle finds no finite bound"
        lo, hi = -p_v, p_neg
        if not (_near(step["interval_lo"], lo, LP_REL) and _near(step["interval_hi"], hi, LP_REL)):
            return (f"target {step['target']!r}: interval [{step['interval_lo']!r}, "
                    f"{step['interval_hi']!r}], linprog [{lo!r}, {hi!r}]")
    pos = out["positivity"]
    worst = _worst_value(results[-1])
    if not _near(pos["worst_value"], worst, LP_REL):
        return f"positivity worst value {pos['worst_value']!r}, linprog {worst!r}"
    ok = pos["worst_value"] >= -pos["tol"]
    if pos["ok"] != ok or (out["verdict"] == "extended-positive") != ok:
        return f"verdict {out['verdict']!r} does not follow from worst value {pos['worst_value']!r}"
    return None


def check_build_measure(inp, out):
    n = len(inp["points"])
    blocks = inp["sigma_algebra"]
    measure = out["measure"]
    if measure["blocks"] != blocks:
        return "measure blocks differ from the input partition"
    mass = np.asarray(measure["mass"], dtype=float)
    if mass.min(initial=0.0) < 0.0:
        return "negative block mass"
    indicators = np.zeros((n, len(blocks)))
    for b, block in enumerate(blocks):
        indicators[block, b] = 1.0

    # Residuals L(g) - integral of g, for the block-constant domain basis.
    for name, values in inp["basis"].items():
        g = np.asarray(values, dtype=float)
        lg = inp["functional"][name]
        r = lg - float(mass @ g[[block[0] for block in blocks]])
        if not _near(out["residuals"][name], r, 1e-9, lg):
            return f"residual of {name!r}: {out['residuals'][name]!r}, recomputed {r!r}"
    if not _near(out["max_residual"], max(abs(v) for v in out["residuals"].values()), 1e-15):
        return "max_residual is not the largest residual"

    # Density distances: the extended functional lives on the block-constant
    # functions, where it is integration against the measure.  Distance i is
    # min L(t) over t >= |chi_i - b|, b in span(B).
    N = np.column_stack(list(inp["b_basis"].values())) if "b_basis" in inp else indicators
    a_ub = np.block([[-indicators, -N], [-indicators, N]])
    c = np.concatenate([mass, np.zeros(N.shape[1])])
    problems = [(c, a_ub, np.concatenate([-chi, chi]), None, None) for chi in indicators.T]
    results = _lp_batch(problems + [_positivity_problem(indicators, mass)])
    density = out["density"]
    total = float(mass.sum())
    for i, ((status, value), reported) in enumerate(zip(results, density["distances"])):
        if status != "optimal":
            return f"density LP oracle status {status} for block {i}"
        if not _near(reported, max(0.0, value), LP_REL, total):
            return f"density distance of block {i}: {reported!r}, linprog {value!r}"
    dense = all(d <= density["tol"] for d in density["distances"])
    if density["dense"] != dense:
        return "density verdict does not follow from the distances"

    pos = out["positivity"]
    worst = _worst_value(results[-1])
    if not _near(pos["worst_value"], worst, LP_REL, total):
        return f"positivity worst value {pos['worst_value']!r}, linprog {worst!r}"
    certified = dense and pos["ok"] and out["max_residual"] <= RESIDUAL_TOL
    expected = "measure-certified" if certified else ("density-failed" if not dense else "not-certified")
    if out["certified"] != certified or out["verdict"] != expected:
        return f"verdict {out['verdict']!r} does not follow from its diagnostics (expected {expected!r})"
    return None


CHECKS = {
    "check": check_check,
    "represent": check_represent,
    "verify": check_verify,
    "extend-moments": check_extend_moments,
    "hb-extend": check_hb_extend,
    "build-measure": check_build_measure,
}


def check(verb: str, input_path: str, output_text: str):
    """Oracle verdict on one CLI output: None if it agrees, else a reason.

    ``numerical-failure`` outputs are not judged here; the benchmark counts
    them as failed operations on their own.
    """
    out = json.loads(output_text)
    if out["verdict"] == "numerical-failure":
        return None
    with open(input_path, encoding="utf-8") as fh:
        inp = json.load(fh)
    try:
        return CHECKS[verb](inp, out)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed payload: {type(exc).__name__}: {exc}"
