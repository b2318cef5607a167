"""Input schemas and canonical JSON output.

Two input shapes are understood: a moment-sequence file and a finite-space
file (points, named basis vectors, functional values, partition, optional
designated subspace / extension targets / domination witnesses).  Output is
serialized canonically: sorted keys, floats at 17 significant digits, so a
rerun is byte-identical and doubles survive a round trip.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import suppress
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .errors import IoError, SchemaError
from .funcspace import FunctionVec, GroundSet, Subspace
from .extend import Functional
from .measure import Measure, SigmaAlgebra
from .moments import AtomicMeasure, MomentSequence, Support
from .tolerances import MASS_DUST

SCHEMA_VERSION = "1"


# --- canonical output ---------------------------------------------------------

_INF = float("inf")


def _fmt_float(x: float) -> str:
    if not -_INF < x < _INF:  # NaN fails both comparisons
        raise ValueError("cannot serialize a non-finite float")
    return format(x + 0.0, ".17g")  # x + 0.0 is x, but 0.0 for -0.0


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, fixed 17-significant-digit floats."""
    out = []
    _emit(obj, out)
    return "".join(out)


# The formatter of each exact scalar type.  Subclasses (bool among them),
# numpy scalars and None are not in it; they take the isinstance chain.
_SCALAR = {float: _fmt_float, str: encode_basestring_ascii, int: int.__repr__}


def _emit(obj, out: list) -> None:
    fmt = _SCALAR.get(type(obj))  # the exact types first; no dict or list is a scalar
    if fmt is not None:
        out.append(fmt(obj))
    elif isinstance(obj, dict):
        # Each member is one piece; an exact scalar is written in place.
        out.append("{")
        sep = ""
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValueError("JSON object keys must be strings")
            value = obj[key]
            fmt = _SCALAR.get(type(value))
            if fmt is None:
                out.append(f"{sep}{encode_basestring_ascii(key)}:")
                _emit(value, out)
            else:
                out.append(f"{sep}{encode_basestring_ascii(key)}:{fmt(value)}")
            sep = ","
        out.append("}")
    elif isinstance(obj, (list, np.ndarray)) or type(obj) is tuple:  # no NamedTuple record
        out.append("[")
        sep = ""
        for item in obj:
            fmt = _SCALAR.get(type(item))
            if fmt is None:
                out.append(sep)
                _emit(item, out)
            else:
                out.append(sep + fmt(item))
            sep = ","
        out.append("]")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__}")


# --- parsing ------------------------------------------------------------------

def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(path, message)


def _number(value, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             path, "expected a number")
    try:
        v = float(value)
    except OverflowError:
        raise SchemaError(path, "number is too large for a float") from None
    _require(v == v and abs(v) != float("inf"), path, "number must be finite")
    return v


def _number_list(value, path: str) -> list[float]:
    _require(isinstance(value, list), path, "expected a list of numbers")
    if {int, float}.issuperset(map(type, value)):
        with suppress(OverflowError):
            out = list(map(float, value))
            if all(map(math.isfinite, out)):
                return out
    # Some element is not a plain finite number: find it and name its path.
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


class _RepeatedKey(Exception):
    """A JSON object repeats one of its keys."""


def _unique_object(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise _RepeatedKey
    return obj


# One decoder for every call: ``json.loads`` with a hook would build a new
# decoder each time, which costs more than the hook itself.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_object)


def _repeat_path(value, path: str = ""):
    """Path of the first repeated key in ``value``, a document decoded with
    ``object_pairs_hook=tuple`` (an object is a tuple of key-value pairs)."""
    if isinstance(value, tuple):
        seen, children = set(), []
        for key, child in value:
            key_path = f"{path}.{key}" if path else key
            if key in seen:
                return key_path
            seen.add(key)
            children.append((key_path, child))
    elif isinstance(value, list):
        children = [(f"{path}[{i}]", child) for i, child in enumerate(value)]
    else:
        return None
    for child_path, child in children:
        found = _repeat_path(child, child_path)
        if found is not None:
            return found
    return None


def _decode(text: str):
    """The JSON value of ``text``; a key repeated within one object is a
    :class:`SchemaError` at that key, where plain ``json`` keeps the last."""
    try:
        return _DECODER.decode(text)
    except _RepeatedKey:
        pass
    # Rare path: decode again, keeping every pair, to find the key's path.
    raise SchemaError(_repeat_path(json.loads(text, object_pairs_hook=tuple)), "repeated key")


_READ_CHUNK = 1 << 16


def load_json(path: str) -> dict:
    # One os.read a chunk and one strict UTF-8 decode: the text that text
    # mode with universal newlines reads, without its wrapper and codec.
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, _READ_CHUNK):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        # A directory opens and fails at os.read, which names no file: the
        # message is built as open's, which names it.
        raise IoError(f"cannot read {path}: {OSError(exc.errno, exc.strerror, path)}") from exc
    try:
        text = b"".join(chunks).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(path, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    if text.startswith("\ufeff"):  # the shared decoder would stop at it and name no cause
        raise SchemaError(f"{path}:1:1", "invalid JSON: Unexpected UTF-8 BOM")
    if "\r" in text:  # universal newlines: \r\n and a lone \r each end a line
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = _decode(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}:{exc.lineno}:{exc.colno}", f"invalid JSON: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise SchemaError(path, "top level must be a JSON object")
    return doc


class MomentInput(NamedTuple):
    sequence: MomentSequence
    atomic: AtomicMeasure | None


class FiniteSpaceInput(NamedTuple):
    ground: GroundSet
    domain: Subspace
    basis_names: tuple[str, ...]
    functional: Functional | None
    algebra: SigmaAlgebra | None
    designated: Subspace | None          # optional "b_basis" subspace
    targets: tuple[tuple[str, FunctionVec], ...]
    witnesses: dict[int, FunctionVec]
    subspace_variant: bool
    measure: Measure | None

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__  # by identity


def parse_support(doc: dict, path: str = "support") -> Support:
    raw = doc.get("support")
    if raw is None:
        return Support.line()
    _require(isinstance(raw, dict), path, "expected an object")
    kind = raw.get("type")
    _require(kind in ("line", "halfline", "interval"), f"{path}.type",
             "expected one of 'line', 'halfline', 'interval'")
    if kind == "interval":
        a = _number(raw.get("a"), f"{path}.a")
        b = _number(raw.get("b"), f"{path}.b")
        _require(a < b, f"{path}.a", "interval requires a < b")
        return Support.interval(a, b)
    _require("a" not in raw and "b" not in raw, path, f"{kind} support takes no endpoints")
    return Support("line") if kind == "line" else Support.halfline()


def parse_moment_input(doc: dict) -> MomentInput:
    _require("moments" in doc, "moments", "field is required")
    values = _number_list(doc["moments"], "moments")
    _require(len(values) % 2 == 1,
             "moments", f"need an odd count of entries m_0..m_2d, got {len(values)}")
    support = parse_support(doc)
    try:
        seq = MomentSequence(tuple(values), support)
    except ValueError as exc:
        raise SchemaError("moments", str(exc)) from exc

    atomic = None
    if "atomic_measure" in doc:
        raw = doc["atomic_measure"]
        _require(isinstance(raw, dict), "atomic_measure", "expected an object")
        atoms = _number_list(raw.get("atoms", []), "atomic_measure.atoms")
        weights = _number_list(raw.get("weights", []), "atomic_measure.weights")
        try:
            atomic = AtomicMeasure(tuple(atoms), tuple(weights), support)
        except ValueError as exc:
            raise SchemaError("atomic_measure", str(exc)) from exc
    return MomentInput(seq, atomic)


def _parse_named_vectors(raw, ground: GroundSet, path: str):
    _require(isinstance(raw, dict), path, "expected an object of name -> values")
    names, vecs = [], []
    for name, values in raw.items():
        vals = _number_list(values, f"{path}.{name}")
        _require(len(vals) == ground.size, f"{path}.{name}",
                 f"expected {ground.size} values, got {len(vals)}")
        names.append(str(name))
        vecs.append(FunctionVec(ground, np.asarray(vals)))
    return tuple(names), tuple(vecs)


def parse_finite_space_input(doc: dict) -> FiniteSpaceInput:
    _require("points" in doc, "points", "field is required")
    points = doc["points"]
    _require(isinstance(points, list) and points, "points", "expected a nonempty list")
    try:
        ground = GroundSet(tuple(str(p) for p in points))
    except ValueError as exc:
        raise SchemaError("points", str(exc)) from exc

    basis_names, basis_vecs = _parse_named_vectors(doc.get("basis", {}), ground, "basis")
    try:
        domain = Subspace(ground, basis_vecs)
    except ValueError as exc:
        raise SchemaError("basis", str(exc)) from exc

    functional = None
    if "functional" in doc:
        raw = doc["functional"]
        _require(isinstance(raw, dict), "functional", "expected an object of name -> value")
        _require(set(raw) == set(basis_names), "functional",
                 "keys must match the basis names exactly")
        coeffs = [_number(raw[name], f"functional.{name}") for name in basis_names]
        functional = Functional(domain, np.asarray(coeffs))

    algebra = None
    if "sigma_algebra" in doc:
        raw = doc["sigma_algebra"]
        _require(isinstance(raw, list), "sigma_algebra", "expected a list of blocks")
        blocks = []
        for i, block in enumerate(raw):
            _require(isinstance(block, list), f"sigma_algebra[{i}]", "expected a list of indices")
            if not ({int}.issuperset(map(type, block))
                    and (not block or min(block) >= 0 and max(block) < ground.size)):
                for j, idx in enumerate(block):
                    _require(isinstance(idx, int) and not isinstance(idx, bool)
                             and 0 <= idx < ground.size,
                             f"sigma_algebra[{i}][{j}]",
                             f"expected a point index in [0, {ground.size})")
            blocks.append(tuple(block))
        try:
            algebra = SigmaAlgebra(ground, tuple(blocks))
        except ValueError as exc:
            raise SchemaError("sigma_algebra", str(exc)) from exc

    designated = None
    if "b_basis" in doc:
        _, vecs = _parse_named_vectors(doc["b_basis"], ground, "b_basis")
        try:
            designated = Subspace(ground, vecs)
        except ValueError as exc:
            raise SchemaError("b_basis", str(exc)) from exc

    target_names, target_vecs = _parse_named_vectors(doc.get("targets", {}), ground, "targets")
    for name in target_names:
        _require(name not in basis_names, f"targets.{name}", "target name repeats a basis name")
    targets = tuple(zip(target_names, target_vecs))

    options = doc.get("options", {})
    _require(isinstance(options, dict), "options", "expected an object")
    subspace_variant = options.get("subspace_variant", False)
    _require(isinstance(subspace_variant, bool), "options.subspace_variant",
             "expected a JSON boolean")

    witnesses: dict[int, FunctionVec] = {}
    if "witnesses" in doc:
        raw = doc["witnesses"]
        _require(isinstance(raw, dict), "witnesses", "expected an object of g-name -> f-name")
        lookup = dict(zip(basis_names, basis_vecs)) | dict(targets)
        for gname, fname in raw.items():
            _require(gname in basis_names, f"witnesses.{gname}", "unknown basis name")
            _require(isinstance(fname, str) and fname in lookup, f"witnesses.{gname}",
                     "witness must name a basis vector or target")
            witnesses[basis_names.index(gname)] = lookup[fname]

    measure = None
    if "measure" in doc:
        raw = doc["measure"]
        _require(isinstance(raw, dict), "measure", "expected an object")
        _require(algebra is not None, "measure", "a sigma_algebra is required alongside a measure")
        mass = _number_list(raw.get("mass", []), "measure.mass")
        _require(len(mass) == algebra.n_blocks, "measure.mass",
                 f"expected {algebra.n_blocks} masses")
        _require(all(v >= -MASS_DUST for v in mass), "measure.mass", "masses must be nonnegative")
        measure = Measure(algebra, np.asarray(mass))

    return FiniteSpaceInput(
        ground=ground,
        domain=domain,
        basis_names=basis_names,
        functional=functional,
        algebra=algebra,
        designated=designated,
        targets=targets,
        witnesses=witnesses,
        subspace_variant=subspace_variant,
        measure=measure,
    )


def parse_input(path: str):
    """Load and validate an input file.

    Returns a :class:`MomentInput` or :class:`FiniteSpaceInput` depending on
    which schema the file matches ("moments" vs "points").
    """
    doc = load_json(path)
    schema = doc.get("schema", SCHEMA_VERSION)
    _require(str(schema) == SCHEMA_VERSION, "schema",
             f"unsupported schema version {schema!r} (expected '{SCHEMA_VERSION}')")
    if "moments" in doc:
        return parse_moment_input(doc)
    if "points" in doc:
        return parse_finite_space_input(doc)
    raise SchemaError("", "expected either a 'moments' or a 'points' input file")


# --- encoding helpers for results --------------------------------------------

def encode_support(s: Support) -> dict:
    out = {"type": s.kind}
    if s.kind == "interval":
        out["a"] = s.a
        out["b"] = s.b
    return out
