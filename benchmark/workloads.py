"""Seeded input generators for the three benchmark workloads.

Each block generator writes one block of schema-1 JSON input files and
returns their paths; one pass of the closed loop runs the workload's verbs
over one block.  The program only ever sees these files.

Discrete parameters are stratified: every block of inputs holds each
stratum (support, class, degree, space size, ...) in the stated share, and
only the continuous values inside a stratum are drawn at random.  That keeps
the mix of cheap and expensive inputs identical from seed to seed, so two
seeds differ in their draws, not in how much of each kind of work they
contain.  Nothing is filtered after drawing.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SUPPORTS = ("line", "halfline", "interval")
CLASSES = ("representable", "flat", "defective")
DEGREES = range(1, 7)
INTERVAL = (-1.0, 1.0)


def _spread_atoms(rng, count, lo, hi, min_sep):
    """Sorted uniform atoms with pairwise gaps of at least ``min_sep``."""
    while True:
        atoms = np.sort(rng.uniform(lo, hi, count))
        if count == 1 or np.diff(atoms).min() >= min_sep:
            return atoms


def atomic_moments(atoms, weights, degree):
    xs = np.asarray(atoms, dtype=float)
    ws = np.asarray(weights, dtype=float)
    return [float(ws @ xs**k) for k in range(degree + 1)]


def _support_doc(kind):
    if kind == "interval":
        return {"type": "interval", "a": INTERVAL[0], "b": INTERVAL[1]}
    return {"type": kind}


def _atoms_for(rng, kind, count):
    if kind == "line":
        return _spread_atoms(rng, count, -2.0, 2.0, 0.3)
    if kind == "halfline":
        return _spread_atoms(rng, count, 0.05, 3.0, 0.2)
    return _spread_atoms(rng, count, -0.9, 0.9, 0.15)


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# --- moment-check ---------------------------------------------------------------

def moment_sequence(rng, kind, cls, d):
    """One moment file body of the given support, class and degree."""
    if cls == "flat":
        r = int(rng.integers(1, d + 1))          # <= d atoms: singular Hankel
    else:
        r = d + 1 + int(rng.integers(0, 2))      # >= d + 1 atoms
    atoms = _atoms_for(rng, kind, r)
    weights = rng.uniform(0.2, 2.0, r)
    moments = atomic_moments(atoms, weights, 2 * d)
    if cls == "defective":
        if kind == "halfline":
            moments[1] = -abs(moments[1]) - 0.3
        else:
            moments[2] = -abs(moments[2]) - 0.3
    return {"schema": "1", "moments": moments, "support": _support_doc(kind)}


def moment_check_block(rng, out_dir: Path, prefix: str):
    """54 moment files: every (support, class, degree) once, shuffled."""
    cells = [(k, c, d) for k in SUPPORTS for c in CLASSES for d in DEGREES]
    paths = []
    for i in rng.permutation(len(cells)):
        doc = moment_sequence(rng, *cells[i])
        paths.append(_write(out_dir / f"{prefix}_{len(paths):03d}.json", doc))
    return paths


# --- moment-extend ----------------------------------------------------------------

def extend_sequence(rng, r, non_psd):
    """Criterion-8 style query: a flat truncation of an r-atom measure on
    [-1, 1], or (``non_psd``) a full sequence whose m_2 is forced negative."""
    atoms = _spread_atoms(rng, r, -1.0, 1.0, 0.25)
    weights = rng.uniform(0.1, 2.0, r)
    full = atomic_moments(atoms, weights, 2 * r)
    if non_psd:
        full[2] = -abs(full[2]) - 0.3
        moments = full
    else:
        moments = full[: 2 * r - 1]
    return {"schema": "1", "moments": moments, "support": {"type": "line"}}


def moment_extend_block(rng, out_dir: Path, prefix: str):
    """29 queries, shuffled: six flat truncations for each r in 1..4 and
    five non-PSD bases (5 in 29, about one query in six).  Six per r keeps
    the order statistics the metrics use (the 15th and the 19th of 29)
    inside a stratum rather than on the edge between two."""
    non_psd = (1, 2, 3, 4, int(rng.integers(1, 5)))
    cells = [(r, False) for r in range(1, 5) for _ in range(6)] + [(r, True) for r in non_psd]
    paths = []
    for i in rng.permutation(len(cells)):
        doc = extend_sequence(rng, *cells[i])
        paths.append(_write(out_dir / f"{prefix}_{len(paths):03d}.json", doc))
    return paths


# --- finite-space -------------------------------------------------------------------

def _stratified(rng, lo, hi, count):
    """``count`` integers in [lo, hi], one from each of ``count`` equal
    slices of the range, in random order (a Latin-hypercube column)."""
    u = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count
    values = lo + np.floor(u * (hi - lo + 1)).astype(int)
    return rng.permutation(np.minimum(values, hi))


def finite_space(rng, n, nb, dim, n_targets, constants_only):
    """Random finite space: ``n`` points in ``nb`` blocks, a block-constant
    domain of dimension ``dim`` containing the constants, a positive
    functional from a random density, and ``n_targets`` extension targets."""
    nb = min(nb, n)
    assign = np.concatenate([np.arange(nb), rng.integers(0, nb, n - nb)])
    rng.shuffle(assign)
    basis = {"one": np.ones(n)}
    while len(basis) < min(dim, nb):
        cand = rng.normal(size=nb)[assign]
        mat = np.column_stack(list(basis.values()) + [cand])
        s = np.linalg.svd(mat, compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            basis[f"g{len(basis)}"] = cand
    omega = rng.uniform(0.0, 2.0, n)
    doc = {
        "schema": "1",
        "points": [f"p{i}" for i in range(n)],
        "basis": {name: v.tolist() for name, v in basis.items()},
        "functional": {name: float(omega @ v) for name, v in basis.items()},
        "sigma_algebra": [np.nonzero(assign == b)[0].tolist() for b in range(nb)],
        "targets": {f"t{k}": rng.normal(size=n).tolist() for k in range(n_targets)},
    }
    if constants_only:
        doc["b_basis"] = {"one": [1.0] * n}
    return doc


def finite_space_block(rng, out_dir: Path, prefix: str, groups: int = 5):
    """Five groups of ten spaces.  Within a group, sizes 8..32, 2..8
    blocks, domain dimension 1..3 and 1..3 targets are each stratified, and
    exactly one space uses a constants-only ``b_basis``."""
    paths = []
    for _ in range(groups):
        ns = _stratified(rng, 8, 32, 10)
        nbs = _stratified(rng, 2, 8, 10)
        dims = _stratified(rng, 1, 3, 10)
        tcounts = _stratified(rng, 1, 3, 10)
        const_at = int(rng.integers(0, 10))
        for i in range(10):
            doc = finite_space(rng, int(ns[i]), int(nbs[i]), int(dims[i]),
                               int(tcounts[i]), i == const_at)
            paths.append(_write(out_dir / f"{prefix}_{len(paths):03d}.json", doc))
    return paths


# --- set-up inputs -------------------------------------------------------------------

def tiny_inputs(workload: str, out_dir: Path):
    """One fixed tiny input per verb of ``workload``, as ``(verb, path,
    expected verdict)``; used to time set-up and to warm the process."""
    if workload == "moment-check":
        seq = {"schema": "1", "moments": [1.0, 0.0, 0.25], "support": _support_doc("interval")}
        fit = dict(seq, atomic_measure={"atoms": [0.0], "weights": [1.0]})
        return [("check", _write(out_dir / "tiny_seq.json", seq), "representable"),
                ("represent", str(out_dir / "tiny_seq.json"), "represented"),
                ("verify", _write(out_dir / "tiny_fit.json", fit), "verified")]
    if workload == "moment-extend":
        seq = {"schema": "1", "moments": [1.0], "support": {"type": "line"}}
        return [("extend-moments", _write(out_dir / "tiny_seq.json", seq), "extended")]
    space = {
        "schema": "1",
        "points": ["p0", "p1"],
        "basis": {"one": [1.0, 1.0]},
        "functional": {"one": 2.0},
        "sigma_algebra": [[0], [1]],
        "targets": {"t0": [0.0, 2.0]},
    }
    path = _write(out_dir / "tiny_space.json", space)
    return [("hb-extend", path, "extended-positive"),
            ("build-measure", path, "measure-certified")]
