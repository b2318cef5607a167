import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

from json.encoder import encode_basestring_ascii

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import momentkit as mk
from momentkit import cli, counters, jsonio, measure
from momentkit.cli import main
from momentkit.jsonio import _fmt_float, dumps_canonical, parse_input

from conftest import atomic_moments


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


FS_DOC = {
    "schema": "1",
    "points": ["p0", "p1"],
    "basis": {"one": [1, 1]},
    "functional": {"one": 2.0},
    "sigma_algebra": [[0], [1]],
}


# --- canonical serialization -----------------------------------------------------

def test_canonical_json_shape():
    out = dumps_canonical({"b": 1.0, "a": [True, None, 0.1]})
    assert out == '{"a":[true,null,0.10000000000000001],"b":1}'


def test_canonical_json_rejects_nonfinite():
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("nan")})


def test_canonical_json_refuses_records():
    assert dumps_canonical({"a": (1, 2.5)}) == '{"a":[1,2.5]}'
    records = [mk.LpSolution("infeasible", None, None, 3),
               mk.Certificate("representable", (), 1e-8)]
    for record in records:  # a NamedTuple is a tuple, but no JSON array
        with pytest.raises(ValueError, match=f"^cannot serialize {type(record).__name__}$"):
            dumps_canonical({"x": [record]})


class _Label(str):
    pass


class _Count(int):
    pass


def _reference_canonical(obj) -> str:
    """The encoder as one isinstance chain (the reference)."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{encode_basestring_ascii(k)}:{_reference_canonical(obj[k])}"
                              for k in sorted(obj)) + "}"
    assert isinstance(obj, (list, np.ndarray)) or type(obj) is tuple
    return "[" + ",".join(map(_reference_canonical, obj)) + "]"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LEAVES = (st.none() | st.booleans() | st.integers() | _FINITE | st.text(max_size=4)
           | _FINITE.map(np.float64)
           | st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32)
           | st.integers(-2**63, 2**63 - 1).map(np.int64)
           | st.text(max_size=4).map(_Label) | st.integers().map(_Count))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, lambda kids: st.lists(kids, max_size=4)
                    | st.lists(kids, max_size=4).map(tuple)
                    | st.dictionaries(st.text(max_size=3), kids, max_size=4), max_leaves=20))
def test_canonical_json_matches_the_isinstance_chain(value):
    # The encoder tests the exact types first; subclasses, numpy scalars,
    # bools and None take the isinstance chain, with the same bytes.
    assert dumps_canonical(value) == _reference_canonical(value)


def test_canonical_roundtrips_doubles():
    values = [0.1, 1/3, 1e-300, 123456789.123456789, -0.0]
    text = dumps_canonical(values)
    assert json.loads(text) == pytest.approx(values, rel=0, abs=0)


# --- schema parsing -----------------------------------------------------------------

def test_parse_moment_file(tmp_path):
    path = write(tmp_path, "m.json", {"moments": [1, 0, 1], "support": {"type": "line"}})
    parsed = parse_input(path)
    assert parsed.sequence.moments == (1.0, 0.0, 1.0)


def test_parse_rejects_even_moment_count(tmp_path):
    path = write(tmp_path, "m.json", {"moments": [1, 0]})
    with pytest.raises(mk.SchemaError) as err:
        parse_input(path)
    assert "moments" in str(err.value)


def test_parse_rejects_overlapping_blocks(tmp_path):
    doc = dict(FS_DOC, sigma_algebra=[[0, 1], [1]])
    path = write(tmp_path, "fs.json", doc)
    with pytest.raises(mk.SchemaError) as err:
        parse_input(path)
    assert "sigma_algebra" in str(err.value)


def test_parse_rejects_bad_functional_keys(tmp_path):
    doc = dict(FS_DOC, functional={"two": 1.0})
    path = write(tmp_path, "fs.json", doc)
    with pytest.raises(mk.SchemaError):
        parse_input(path)


def test_parse_rejects_number_beyond_float_range(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"moments": [1, 10**400, 1]})
    with pytest.raises(mk.SchemaError) as err:
        parse_input(path)
    assert err.value.path == "moments[1]"
    assert main(["check", path]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "input-error"


@pytest.mark.parametrize("bad, message", [
    (True, "expected a number"),
    (float("nan"), "number must be finite"),
    (10**400, "number is too large for a float"),
])
def test_parse_names_the_bad_element_of_a_long_list(tmp_path, bad, message):
    moments = [1.0] + [0.5, 0.25] * 100
    moments[157] = bad
    with pytest.raises(mk.SchemaError) as err:
        parse_input(write(tmp_path, "m.json", {"moments": moments}))
    assert (err.value.path, str(err.value)) == ("moments[157]", f"moments[157]: {message}")
    points = [f"p{i}" for i in range(60)]
    doc = dict(points=points, basis={"one": [1] * 60},
               sigma_algebra=[list(range(20)), list(range(20, 60))])
    doc["basis"]["one"][41] = bad
    with pytest.raises(mk.SchemaError) as err:
        parse_input(write(tmp_path, "fs.json", doc))
    assert err.value.path == "basis.one[41]"
    doc["basis"]["one"][41] = 1
    doc["sigma_algebra"][1][33] = bad
    with pytest.raises(mk.SchemaError) as err:
        parse_input(write(tmp_path, "fs.json", doc))
    assert err.value.path == "sigma_algebra[1][33]"


def test_parse_requires_boolean_subspace_variant(tmp_path, capsys):
    path = write(tmp_path, "fs.json", dict(FS_DOC, options={"subspace_variant": "false"}))
    with pytest.raises(mk.SchemaError) as err:
        parse_input(path)
    assert err.value.path == "options.subspace_variant"
    assert main(["build-measure", path]) == 2


def test_parse_rejects_target_named_like_basis(tmp_path, capsys):
    path = write(tmp_path, "fs.json", dict(FS_DOC, targets={"one": [0, 4]}))
    with pytest.raises(mk.SchemaError) as err:
        parse_input(path)
    assert err.value.path == "targets.one"
    assert main(["hb-extend", path]) == 2


@pytest.mark.parametrize("text, key_path", [
    ('{"moments": [1, 0, 1], "moments": [1, 0, -1]}', "moments"),
    ('{"schema": "1", "points": ["p0", "p1"], "basis": {"one": [1, 1], "one": [0, 1]},'
     ' "functional": {"one": 2.0}, "sigma_algebra": [[0], [1]]}', "basis.one"),
])
def test_parse_rejects_repeated_key(tmp_path, capsys, text, key_path):
    path = tmp_path / "in.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(mk.SchemaError) as err:
        parse_input(str(path))
    assert err.value.path == key_path and "repeated key" in str(err.value)
    verb = "check" if key_path == "moments" else "hb-extend"
    assert main([verb, str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "input-error"


def test_parse_reports_syntax_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  :\n}", encoding="utf-8")
    with pytest.raises(mk.SchemaError) as err:
        parse_input(str(path))
    assert ":2:" in str(err.value)  # line number of the syntax error


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_syntax_position_counts_every_newline_kind(tmp_path, newline):
    # A file is read with universal newlines: \r\n and a lone \r each end a line.
    path = tmp_path / "broken.json"
    path.write_bytes(newline.join(['{"moments": [1, 0, 1],', '  "support":', "  :", "}"]).encode())
    with pytest.raises(mk.SchemaError) as err:
        parse_input(str(path))
    assert str(err.value) == f"{path}:3:3: invalid JSON: Expecting value"


@pytest.mark.parametrize("data", [b"", b'\xef\xbb\xbf{"moments": [1, 0, 1]}'])
def test_empty_and_bom_files_are_input_errors(tmp_path, capsys, data):
    # A byte order mark is not JSON whitespace: the decoder would stop
    # before it, so load_json names it as the cause.
    message = "Unexpected UTF-8 BOM" if data else "Expecting value"
    path = tmp_path / "in.json"
    path.write_bytes(data)
    assert main(["check", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "input-error"
    assert doc["error"] == f"{path}:1:1: invalid JSON: {message}"


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"moments": [1, 0, 1], "note": "café"}'.encode("latin-1"))
    assert main(["check", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "input-error"
    assert doc["error"] == f"{path}: not UTF-8 text: invalid continuation byte at byte 35"


def test_directory_is_input_error(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "input-error"
    assert doc["error"] == f"cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'"


def test_file_longer_than_one_read_parses(tmp_path):
    path = tmp_path / "long.json"  # 256 KiB: four reads of 64 KiB
    path.write_text('{"moments": [1, 0, 1],' + " " * (1 << 18) + '"support": {"type": "line"}}',
                    encoding="utf-8")
    assert parse_input(str(path)).sequence.moments == (1.0, 0.0, 1.0)


def _reference_load(path: str):
    """``load_json``'s outcome as a text-mode read gives it: the document,
    or the message of the :class:`SchemaError` it raises.  A leading byte
    order mark is named, as ``json.loads`` names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        return f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
    if text.startswith("\ufeff"):
        return f"{path}:1:1: invalid JSON: Unexpected UTF-8 BOM"
    try:
        doc = jsonio._decode(text)
    except json.JSONDecodeError as exc:
        return f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
    except mk.SchemaError as exc:  # a repeated key
        return str(exc)
    return doc if isinstance(doc, dict) else f"{path}: top level must be a JSON object"


_PIECES = [b"{", b"}", b"[", b"]", b",", b":", b" ", b"\n", b"\r", b"\r\n", b'"k"', b'"\xc3\xa9"',
           b"1", b"-0.5", b"null", b"\xe9", b"\xef\xbb\xbf", b"\xf0\x9f\x98", b"\xff"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=24))
def test_load_json_matches_a_text_mode_read(tmp_path_factory, pieces):
    path = tmp_path_factory.mktemp("load") / "in.json"
    path.write_bytes(b"".join(pieces))
    try:
        outcome = jsonio.load_json(str(path))
    except mk.SchemaError as exc:
        outcome = str(exc)
    assert outcome == _reference_load(str(path))


def test_parse_unknown_schema_version(tmp_path):
    path = write(tmp_path, "m.json", {"schema": "99", "moments": [1, 0, 1]})
    with pytest.raises(mk.SchemaError):
        parse_input(path)


# --- verbs and exit codes --------------------------------------------------------------

def test_check_not_representable(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"moments": [1, 0, -1]})
    assert main(["check", path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "not-representable"
    assert doc["certificate"]["matrices"][0]["witness_poly"] == [0, 0, 1]


def test_check_representable_with_grid(tmp_path, capsys):
    mom = atomic_moments((-0.6, 0.0, 0.5, 0.8), (1.0, 0.5, 0.25, 0.5), 4)
    path = write(tmp_path, "m.json",
                 {"moments": list(mom), "support": {"type": "interval", "a": -1, "b": 1}})
    assert main(["check", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["grid_check"]["ran"] and doc["grid_check"]["passed"]


def test_check_scaled_interval_sequence(tmp_path, capsys):
    # Three atoms inside [-1, 1], moments times 1e12: the grid LP is posed in
    # m / |m|_inf, so it solves at any scale and the verdict is the
    # certificate's (it used to end infeasible, exit 3).
    mom = atomic_moments((-0.5, 0.1, 0.7), (1.0, 0.5, 0.75), 4)
    path = write(tmp_path, "m.json", {"moments": [1e12 * x for x in mom],
                                      "support": {"type": "interval", "a": -1, "b": 1}})
    assert main(["check", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "representable"
    assert doc["grid_check"]["ran"]


def test_check_inconclusive_band(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"moments": [1, 1, 1]})
    assert main(["check", path]) == 3
    assert json.loads(capsys.readouterr().out)["verdict"] == "inconclusive"


def test_represent_then_verify_roundtrip(tmp_path, capsys):
    src = write(tmp_path, "m.json", {"moments": [1, 0, 1, 0, 1]})
    out = str(tmp_path / "rep.json")
    assert main(["represent", src, "--output", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["atomic_measure"]["atoms"] == pytest.approx([-1.0, 1.0], abs=1e-9)
    assert main(["verify", out]) == 0


def test_represent_rejects_defective(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"moments": [1, 0, -1]})
    assert main(["represent", path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error_kind"] == "NotPSD"


def test_failure_payloads_report_their_work(tmp_path, capsys, monkeypatch):
    # represent factors the moment matrix in its gate before it fails.
    path = write(tmp_path, "m.json", {"moments": [1, 0, -1]})
    assert main(["represent", path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["error_kind"]) == ("failed", "NotPSD")
    assert doc["diagnostics"]["chol_calls"] >= 1
    # An input error stops before any work.
    bad = write(tmp_path, "bad.json", {"moments": [1, 10**400, 1]})
    assert main(["check", bad]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "input-error"
    assert doc["diagnostics"] == {"lp_solves": 0, "lp_iterations": 0, "eig_calls": 0,
                                  "eig_sweeps": 0, "chol_calls": 0}
    # A numerical failure after the extension's LPs counts them.
    def failing(L, tol):
        raise mk.LpFailure("audit failed")

    monkeypatch.setattr(cli, "verify_positive", failing)
    fs = write(tmp_path, "fs.json", dict(FS_DOC, targets={"t0": [1, 0]}))
    assert main(["hb-extend", fs]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["error_kind"]) == ("numerical-failure", "LpFailure")
    assert doc["diagnostics"]["lp_solves"] == 1


MOMENTS_DOC = {"moments": [1, 0, 1]}
# verb: an input it succeeds on, and the library call its handler makes
DIAGNOSTICS_VERBS = {
    "check": (MOMENTS_DOC, "positivity_certificate"),
    "represent": (MOMENTS_DOC, "recover_atoms"),
    "extend-moments": (MOMENTS_DOC, "extend_search"),
    "hb-extend": (dict(FS_DOC, targets={"t0": [1, 0]}), "hb_extend"),
    "build-measure": (FS_DOC, "represent_via_adapted"),
    "verify": (dict(MOMENTS_DOC, atomic_measure={"atoms": [-1, 1], "weights": [0.5, 0.5]}),
               "verify_truncated"),
}
OUTCOME_EXIT = {"success": 0, "failed": 1, "input-error": 2, "numerical-failure": 3,
                "schema-ok": 0}


@pytest.mark.parametrize("outcome", sorted(OUTCOME_EXIT))
@pytest.mark.parametrize("verb", cli.VERBS)
def test_diagnostics_hold_the_collectors_keys(tmp_path, capsys, monkeypatch, verb, outcome):
    doc, call = DIAGNOSTICS_VERBS[verb]
    if outcome == "input-error":  # the other kind of input file
        doc = FS_DOC if "moments" in doc else MOMENTS_DOC
    forced = {"failed": mk.NotPSD, "numerical-failure": mk.EigFailure}.get(outcome)
    if forced is not None:  # the call does its work, then fails
        real = getattr(cli, call)

        def failing(*args, **kwargs):
            real(*args, **kwargs)
            raise forced("forced")

        monkeypatch.setattr(cli, call, failing)
    args = [verb, write(tmp_path, "in.json", doc)]
    assert main(args + ["--schema-check-only"] * (outcome == "schema-ok")) == OUTCOME_EXIT[outcome]
    out = json.loads(capsys.readouterr().out)
    if outcome == "schema-ok":
        assert out["verdict"] == "schema-ok" and "diagnostics" not in out
        return
    assert outcome == "success" or out["verdict"] == outcome
    assert sorted(out["diagnostics"]) == sorted(counters.KEYS)
    assert all(type(n) is int and n >= 0 for n in out["diagnostics"].values())


SUBNORMAL = [1e-320, 1e-10, 1]      # its one atom is about 1e310
LAMBDA_MIN_HUGE = [1e308, 1.7e308, -1.7e308]  # lambda_min(H) is about -2.5e308
LAMBDA_MAX_HUGE = [1.0, 1.3e308, 1.7e308]     # lambda_max(H) about 2.4e308, lambda_min not
ATOMS_1E77 = [1, 0, 1e154, 0, 1e308]       # atoms +-1e77: the extension's m_6 is about 1e462


@pytest.mark.parametrize("verb, moments, code, kind", [
    pytest.param("represent", SUBNORMAL, 3, "EigFailure", id="represent"),
    pytest.param("extend-moments", SUBNORMAL, 3, "EigFailure", id="extend-moments"),
    pytest.param("check", LAMBDA_MIN_HUGE, 3, "EigFailure", id="check-lambda-min-overflows"),
    pytest.param("represent", LAMBDA_MIN_HUGE, 1, "NotPSD", id="represent-lambda-min-overflows"),
    pytest.param("extend-moments", LAMBDA_MIN_HUGE, 1, None,
                 id="extend-moments-lambda-min-overflows"),
    pytest.param("check", LAMBDA_MAX_HUGE, 1, None, id="check-lambda-max-overflows"),
    pytest.param("represent", LAMBDA_MAX_HUGE, 1, "NotPSD", id="represent-lambda-max-overflows"),
    pytest.param("extend-moments", LAMBDA_MAX_HUGE, 1, None,
                 id="extend-moments-lambda-max-overflows"),
    pytest.param("extend-moments", ATOMS_1E77, 3, "EigFailure", id="extend-moments-moment-overflows"),
    pytest.param("extend-moments", [1, 0, 1e200], 3, "EigFailure",  # flat m_4 = 1e400
                 id="extend-moments-flat-extension-overflows"),
    pytest.param("verify", {"moments": [1, 1e200, 1e300],  # the atom's m_2 is 1e400
                            "atomic_measure": {"atoms": [1e200], "weights": [1]}},
                 3, "EigFailure", id="verify-moment-overflows"),
])
def test_subnormal_moment_fails_without_warning(tmp_path, capsys, verb, moments, code, kind):
    # Values beyond the double range end in a verdict, with no warning: an
    # eigenvalue or a moment that is reported and overflows is an EigFailure.
    doc = moments if isinstance(moments, dict) else {"moments": moments}
    path = write(tmp_path, "m.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([verb, path]) == code
    out = json.loads(capsys.readouterr().out)
    assert out["exit_code"] == code and out.get("error_kind") == kind
    if kind == "EigFailure":
        assert out["verdict"] == "numerical-failure" and "overflows" in out["error"]
    if kind == "NotPSD":  # the gate words the eigenvalue of its own rescaled copy
        assert np.isfinite(float(out["error"].rsplit(" ", 1)[1]))


@pytest.mark.parametrize("verb, code, verdict, error", [
    ("check", 3, "numerical-failure", "matrix contains non-finite entries"),
    ("represent", 1, "failed", "hankel matrix has scaled smallest eigenvalue -7.071e-01"),
    ("extend-moments", 1, "no-positive-extension", None),
])
def test_localized_matrix_overflow_is_quiet(tmp_path, capsys, verb, code, verdict, error):
    # The interval's localizing entries -ab m_0 + m_2 overflow to -inf: the
    # matrix is built in Python floats, which overflow without a warning.
    # That the three verbs give three verdicts is an open inconsistency.
    doc = {"moments": [1.7e308, 0, -1.7e308], "support": {"type": "interval", "a": -1, "b": 1}}
    path = write(tmp_path, "m.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([verb, path]) == code
    out = json.loads(capsys.readouterr().out)
    assert (out["verdict"], out.get("error")) == (verdict, error)


@pytest.mark.parametrize("size", [1e154, 1e300])
def test_represent_rejects_indefinite_at_huge_scale(tmp_path, capsys, size):
    # ||H||_F^2 overflowed past about 1.3e154, and the gate passed this
    # indefinite matrix: represent said represented (exit 0) against check.
    path = write(tmp_path, "m.json", {"moments": [size, 0, -size]})
    assert main(["represent", path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["error_kind"]) == ("failed", "NotPSD")
    assert main(["check", path]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "not-representable"


def test_extend_moments_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "good.json", {"moments": [1, 0, 1]})
    bad = write(tmp_path, "bad.json", {"moments": [1, 0, -1]})
    assert main(["extend-moments", good]) == 0
    doc = json.loads(capsys.readouterr().out)
    ext = doc["extension"]
    arr = np.array([1, 0, 1, ext["m_next"], ext["m_next_next"]])
    H = arr[np.add.outer(np.arange(3), np.arange(3))]
    assert float(np.linalg.eigvalsh(H)[0]) >= -1e-8 * max(1.0, np.abs(H).max())
    assert main(["extend-moments", bad]) == 1


def test_hb_extend_trace(tmp_path, capsys):
    doc = {
        "schema": "1",
        "points": ["p0", "p1"],
        "basis": {"one": [1, 1]},
        "functional": {"one": 1.0},
        "targets": {"t0": [0, 2]},
    }
    path = write(tmp_path, "hb.json", doc)
    assert main(["hb-extend", path]) == 0
    out = json.loads(capsys.readouterr().out)
    step = out["trace"][0]
    assert (step["interval_lo"], step["interval_hi"], step["chosen"]) == (0.0, 2.0, 1.0)
    assert out["functional"] == {"one": 1.0, "t0": 1.0}


def test_hb_extend_reports_unsandwiched_target(tmp_path, capsys):
    doc = {
        "schema": "1",
        "points": ["p0", "p1"],
        "basis": {"e0": [1, 0]},
        "functional": {"e0": 1.0},
        "targets": {"t0": [2, 0], "t1": [0, 1]},
    }
    path = write(tmp_path, "hb.json", doc)
    assert main(["hb-extend", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error_kind"] == "TargetNotInWC"
    assert out["error"] == "target 1 fails the sandwich membership test"  # index in targets


def test_hb_extend_rules(tmp_path, capsys):
    doc = {
        "schema": "1",
        "points": ["p0", "p1"],
        "basis": {"one": [1, 1]},
        "functional": {"one": 1.0},
        "targets": {"t0": [0, 2]},
    }
    path = write(tmp_path, "hb.json", doc)
    for rule, expected in (("lo", 0.0), ("hi", 2.0)):
        assert main(["hb-extend", path, "--rule", rule]) == 0
        assert json.loads(capsys.readouterr().out)["trace"][0]["chosen"] == expected


def test_build_measure_happy_and_counterexample(tmp_path, capsys):
    happy = dict(FS_DOC)  # default designated subspace includes the indicators
    h_path = write(tmp_path, "happy.json", happy)
    assert main(["build-measure", h_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["measure"]["mass"] == pytest.approx([1.0, 1.0], abs=1e-9)
    assert doc["certified"]

    counter = dict(FS_DOC, b_basis={"one": [1, 1]})  # constants only: not dense
    c_path = write(tmp_path, "counter.json", counter)
    assert main(["build-measure", c_path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "density-failed"
    assert doc["density"]["distances"] == pytest.approx([1.0, 1.0], abs=1e-9)
    assert doc["measure"]["mass"] == pytest.approx([1.0, 1.0], abs=1e-9)


def test_build_measure_nonmeasurable_witness(tmp_path, capsys):
    doc = dict(FS_DOC, points=["p0", "p1", "p2", "p3"], basis={"one": [1, 1, 1, 1]},
               sigma_algebra=[[0, 1], [2, 3]], targets={"ramp": [0, 1, 2, 3]},
               options={"subspace_variant": True}, witnesses={"one": "ramp"})
    assert main(["build-measure", write(tmp_path, "w.json", doc)]) == 0
    assert json.loads(capsys.readouterr().out)["t_decay_ok"] is False


def _pivot_count_doc(per_block=6):
    # 4 blocks of per_block points: each block-constant row repeats
    # per_block times.  The domain holds the constants, so hull and
    # domination need no LP.
    n = 4 * per_block
    rng = np.random.default_rng(24)
    assign = np.repeat(np.arange(4), per_block)
    rng.shuffle(assign)
    basis = {"one": np.ones(n), "g1": rng.normal(size=4)[assign],
             "g2": rng.normal(size=4)[assign]}
    omega = rng.uniform(0.0, 2.0, n)
    return {
        "points": [f"p{i}" for i in range(n)],
        "basis": {k: v.tolist() for k, v in basis.items()},
        "functional": {k: float(omega @ v) for k, v in basis.items()},
        "sigma_algebra": [np.nonzero(assign == b)[0].tolist() for b in range(4)],
        "targets": {"t0": rng.normal(size=n).tolist(), "t1": rng.normal(size=n).tolist()},
    }


def _lp_counts(tmp_path, capsys, doc, exit_code):
    assert main(["build-measure", write(tmp_path, "fs.json", doc)]) == exit_code
    diag = json.loads(capsys.readouterr().out)["diagnostics"]
    return diag["lp_solves"], diag["lp_iterations"]


def test_build_measure_pivot_count(tmp_path, capsys):
    # With the default designated subspace only the Hahn-Banach step makes an
    # LP, and it has no inequality rows.  The extension's domain is then the
    # block-constant functions, so the positivity audit needs no LP.
    assert _lp_counts(tmp_path, capsys, _pivot_count_doc(), 0) == (1, 4)


def test_build_measure_pivot_count_constants_only(tmp_path, capsys):
    # With the constants alone as designated subspace (not dense, exit 1),
    # the four blocks' distances are one dual LP with four objectives, which
    # joins the step's LP: 17 pivots, against 43 for one LP per block.  The
    # pin guards the single phase 1.
    doc = dict(_pivot_count_doc(), b_basis={"one": [1.0] * 24})
    assert _lp_counts(tmp_path, capsys, doc, 1) == (2, 17)


@pytest.mark.parametrize("b_basis, counts", [(None, (3, 10)), ("g1", (8, 29))])
def test_build_measure_pivot_count_without_constants(tmp_path, capsys, b_basis, counts):
    # A domain without the constants: hull membership is one LP over the 24
    # points, 4 of them distinct.  With g1 alone as designated subspace (not
    # dense, exit 1), one density LP (four objectives) and four domination
    # LPs join.  hull_contains and dominates keep one copy of each
    # block-repeated row, and lp_feasible decides each by its Farkas LP over
    # measures on those rows: the hull probe takes 4 pivots and the four
    # domination probes 10, where the free-variable phase 1 that decided
    # them before took 4 and 5 (24 pivots for g1).  The two Hahn-Banach steps
    # are one chain: the second starts from the first's tableau (12 and 26
    # pivots when each solved cold).  The pins guard the chain, the single
    # density LP and the probes' pivots.
    doc = _pivot_count_doc()
    for key in ("basis", "functional"):
        del doc[key]["one"]
    if b_basis:
        doc["b_basis"] = {b_basis: doc["basis"][b_basis]}
    assert _lp_counts(tmp_path, capsys, doc, 0 if b_basis is None else 1) == counts


def test_build_measure_density_lps_are_capped_after_the_merge(tmp_path, capsys):
    # 260 points in 4 blocks: the density LP's dual has 520 columns as
    # written, above solve_lp's cap of 500, and 8 once density_check keeps
    # one copy of each.  The cap counts the columns the solver is given, so
    # the verdict is the density's (it was numerical-failure, exit 3, while
    # the solver merged copies itself and capped before the merge).  The
    # step's LP and the one density LP are the two solves.
    doc = dict(_pivot_count_doc(per_block=65), b_basis={"one": [1.0] * 260})
    assert main(["build-measure", write(tmp_path, "fs.json", doc)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "density-failed"
    assert out["diagnostics"]["lp_solves"] == 2


def test_build_measure_audit_off_the_block_constants_is_an_lp(tmp_path, capsys, monkeypatch):
    # A designated vector that is not block-constant joins the extension's
    # domain, which is then more than the block-constant functions: the
    # positivity audit is verify_positive's LP, and lp_solves counts it.
    # Run again with that LP hidden from the counters: one solve fewer, and
    # the same output otherwise.
    doc = _pivot_count_doc()
    doc["b_basis"] = {"one": [1.0] * 24, "ramp": [float(i) for i in range(24)]}
    path = write(tmp_path, "fs.json", doc)
    real, audits = measure.verify_positive, []

    def counted(L, tol):
        audits.append(L.domain.dim)
        return real(L, tol)

    def uncounted(L, tol):
        with counters.collect():
            return real(L, tol)

    runs = []
    for audit in (counted, uncounted):
        monkeypatch.setattr(measure, "verify_positive", audit)
        code = main(["build-measure", path])
        runs.append((code, json.loads(capsys.readouterr().out)))
    assert audits == [5]  # the four indicators and the ramp
    (code, out), (code_hidden, out_hidden) = runs
    assert code == code_hidden
    diag, diag_hidden = out.pop("diagnostics"), out_hidden.pop("diagnostics")
    assert out == out_hidden
    assert diag["lp_solves"] == diag_hidden["lp_solves"] + 1


def _greedy_designated(fs):
    # Reference: the greedy independent union with every vector tested in
    # turn, the indicators included.
    current = mk.Subspace(fs.ground, ())
    for v in fs.algebra.indicators() + list(fs.domain.basis):
        if not current.contains(v):
            current = current.extended_by(v)
    return current


def _three_block_doc(basis):
    return {"points": [f"p{i}" for i in range(6)], "basis": basis,
            "functional": {name: 1.0 for name in basis},
            "sigma_algebra": [[0, 1], [2, 3], [4, 5]]}


@pytest.mark.parametrize("basis", [
    {"one": [1.0] * 6},
    {"one": [1.0] * 6, "g": [2.0, 2.0, -1.0, -1.0, 0.5, 0.5]},   # in the indicators' span
])
def test_default_designated_equals_greedy_union(tmp_path, monkeypatch, basis):
    # B=None designates the block indicators: the subspace the pipeline
    # checks for density is the greedy union, and so is everything it reports.
    fs = parse_input(write(tmp_path, "fs.json", _three_block_doc(basis)))
    want = _greedy_designated(fs)
    checked = []
    real = measure.density_check

    def spy(B, *args, **kwargs):
        checked.append(B)
        return real(B, *args, **kwargs)

    monkeypatch.setattr(measure, "density_check", spy)
    mu, report = mk.represent_via_adapted(fs.domain, None, fs.functional, fs.algebra)
    want_mu, want_report = mk.represent_via_adapted(fs.domain, want, fs.functional, fs.algebra)
    got = checked[0]
    assert got.dim == want.dim
    assert all(np.array_equal(a.values, b.values) for a, b in zip(got.basis, want.basis))
    assert np.array_equal(got.matrix, want.matrix)
    assert np.array_equal(mu.block_mass, want_mu.block_mass)
    assert report.density == want_report.density and report.residuals == want_report.residuals
    assert [(s.target, s.chosen, s.target_index) for s in report.trace.steps] == \
        [(s.target, s.chosen, s.target_index) for s in want_report.trace.steps]


@pytest.mark.parametrize("basis", [
    {"one": [1.0] * 6, "ramp": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]},
    {"ramp": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], "sq": [0.0, 1.0, 4.0, 9.0, 16.0, 25.0],
     "one": [1.0] * 6},
])
def test_build_measure_rejects_domain_off_the_blocks(tmp_path, capsys, basis):
    # Only a domain vector that is not block-constant lies outside the
    # indicators' span, and build-measure rejects such a domain.
    assert main(["build-measure", write(tmp_path, "fs.json", _three_block_doc(basis))]) == 1
    out = json.loads(capsys.readouterr().out)
    assert (out["verdict"], out["error_kind"]) == ("failed", "IntegralOfNonMeasurable")


def test_build_measure_negative_functional_names_the_block(tmp_path, capsys):
    # L(1 - g) = -1, so L is not positive.  The indicators lie in the default
    # designated subspace, so no density LP runs (one used to be unbounded and
    # end in numerical-failure, exit 3); the measure names the negative block.
    doc = {"points": ["a", "b"], "basis": {"one": [1, 1], "g": [1, 0]},
           "functional": {"one": 1.0, "g": 2.0}, "sigma_algebra": [[0], [1]]}
    assert main(["build-measure", write(tmp_path, "neg.json", doc)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert (out["verdict"], out["error_kind"]) == ("failed", "NegativeMass")
    assert "block 1" in out["error"]


@pytest.mark.parametrize("moments, counts", [
    ([1, 0, -1], (1, 0)),        # one 2x2 Hankel matrix, already diagonal
    ([1, 0.5, 1, 0.2, 3], (1, 3)),
])
def test_check_eigen_counts(tmp_path, capsys, moments, counts):
    main(["check", write(tmp_path, "m.json", {"moments": moments})])
    diag = json.loads(capsys.readouterr().out)["diagnostics"]
    assert (diag["eig_calls"], diag["eig_sweeps"]) == counts
    assert (diag["lp_solves"], diag["lp_iterations"]) == (0, 0)


HALFLINE = {"type": "halfline"}
UNIT_INTERVAL = {"type": "interval", "a": 0, "b": 1}
# verb, moments, support, (eig_calls, eig_sweeps), chol_calls.  The gate
# factors each support matrix once and passes it from that factor: Jacobi runs
# only for the recurrence matrix and the extension's lambda_min, also on the
# flat (singular) matrices from the fourth case on.
GATE_COUNT_CASES = [
    ("represent", [1, 0, 1], None, (1, 0), 1),
    ("extend-moments", [1, 0, 1], None, (1, 1), 1),
    ("extend-moments", [1, 1, 2], HALFLINE, (1, 3), 2),  # the s-matrix is the localizing one
    ("represent", [1, 0, 1, 0, 1], None, (1, 1), 1),
    ("extend-moments", [1, 0, 1, 0, 1], None, (2, 2), 1),
    ("represent", [1, 1, 1, 1, 1], HALFLINE, (1, 0), 2),
    ("extend-moments", [1, 1, 1, 1, 1], HALFLINE, (2, 1), 2),
    ("represent", [1, 0, 0, 0, 1], None, (1, 0), 1),
    ("extend-moments", [1, 0, 0, 0, 1], None, (1, 0), 1),
    ("represent", [2, 1, 1, 1, 1, 1, 1], UNIT_INTERVAL, (1, 1), 2),
    ("extend-moments", [2, 1, 1, 1, 1, 1, 1], UNIT_INTERVAL, (2, 4), 2),
]


@pytest.mark.parametrize("verb, moments, support, counts, chol_calls", GATE_COUNT_CASES,
                         ids=[f"{case[0]}-counts{i}" for i, case in enumerate(GATE_COUNT_CASES)])
def test_gate_eigen_counts(tmp_path, capsys, verb, moments, support, counts, chol_calls):
    doc = {"moments": moments} if support is None else {"moments": moments, "support": support}
    main([verb, write(tmp_path, "m.json", doc)])
    diag = json.loads(capsys.readouterr().out)["diagnostics"]
    assert (diag["eig_calls"], diag["eig_sweeps"]) == counts
    assert diag["chol_calls"] == chol_calls


def test_verify_finite_space_measure(tmp_path, capsys):
    good = dict(FS_DOC, measure={"mass": [1.0, 1.0]})
    path = write(tmp_path, "v.json", good)
    assert main(["verify", path]) == 0
    bad = dict(FS_DOC, measure={"mass": [1.0, 0.5]})
    path = write(tmp_path, "vbad.json", bad)
    assert main(["verify", path]) == 1


def test_missing_file_is_input_error(capsys):
    assert main(["check", "/nonexistent/file.json"]) == 2


def test_schema_check_only(tmp_path):
    path = write(tmp_path, "m.json", {"moments": [1, 0, 1]})
    assert main(["check", path, "--schema-check-only"]) == 0
    bad = write(tmp_path, "bad.json", {"moments": [1, 0]})
    assert main(["check", bad, "--schema-check-only"]) == 2


def test_output_determinism(tmp_path):
    path = write(tmp_path, "m.json", {"moments": [1, 0, 1, 0, 1]})
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["represent", path, "--output", out1]) == 0
    assert main(["represent", path, "--output", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_jobs_fan_out(tmp_path):
    p1 = write(tmp_path, "a.json", {"moments": [1, 0, 1]})
    p2 = write(tmp_path, "b.json", {"moments": [1, 0, -1]})
    out_dir = tmp_path / "out"
    code = main(["check", p1, p2, "--jobs", "2", "--output", str(out_dir)])
    assert code == 1  # worst exit code across inputs
    doc1 = json.loads((out_dir / "a.out.json").read_text())
    doc2 = json.loads((out_dir / "b.out.json").read_text())
    assert doc1["exit_code"] == 0 and doc2["exit_code"] == 1


def test_output_dir_rejects_shared_stems(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1 = write(tmp_path / "a", "x.json", {"moments": [1, 0, 1]})
    p2 = write(tmp_path / "b", "x.json", {"moments": [1, 0, -1]})
    out_dir = tmp_path / "out"
    assert main(["check", p1, p2, "--output", str(out_dir)]) == 2
    assert "would both write" in capsys.readouterr().err
    assert not out_dir.exists()  # checked before any job runs


def test_output_dir_rejects_existing_file(tmp_path, capsys, monkeypatch):
    p1 = write(tmp_path, "a.json", {"moments": [1, 0, 1]})
    p2 = write(tmp_path, "b.json", {"moments": [1, 0, -1]})
    target = tmp_path / "F"
    target.write_text("keep", encoding="utf-8")
    monkeypatch.setattr(cli, "_worker", lambda cmd: pytest.fail("a job ran"))
    assert main(["check", p1, p2, "--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"momentkit: cannot write {target}:")
    assert target.read_text(encoding="utf-8") == "keep"


def test_output_file_needs_existing_directory(tmp_path, capsys, monkeypatch):
    p1 = write(tmp_path, "a.json", {"moments": [1, 0, 1]})
    target = tmp_path / "nodir" / "x.json"
    monkeypatch.setattr(cli, "_worker", lambda cmd: pytest.fail("a job ran"))
    assert main(["check", p1, "--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"momentkit: cannot write {target}:")
    assert not target.parent.exists()


def test_output_write_error_exits_2(tmp_path, capsys):
    p1 = write(tmp_path, "a.json", {"moments": [1, 0, 1]})
    assert main(["check", p1, "--output", str(tmp_path)]) == 2  # a directory, not a file
    assert capsys.readouterr().err.startswith(f"momentkit: cannot write {tmp_path}:")


@pytest.mark.parametrize("moments, support", [
    ([1, 0, 0, 0, 1], {"type": "line"}),
    ([1, 0, 1, 0, 1], {"type": "halfline"}),
    ([1, 0, 1], {"type": "halfline"}),
])
def test_extend_moments_refuses_unrepresentable(tmp_path, capsys, moments, support):
    path = write(tmp_path, "m.json", {"moments": moments, "support": support})
    assert main(["extend-moments", path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "no-positive-extension" and doc["extension"] is None


def test_extend_moments_halfline_flat_extension(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"moments": [1, 1, 2], "support": {"type": "halfline"}})
    assert main(["extend-moments", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "extended"
    ext = doc["extension"]
    assert (ext["m_next"], ext["m_next_next"]) == pytest.approx((4.0, 8.0), abs=1e-12)


def test_start_up_imports_no_pool_and_no_dataclasses(tmp_path):
    path = write(tmp_path, "m.json", {"moments": [1, 0, 1]})
    code = (
        "import sys\n"
        "import momentkit.cli\n"
        "assert 'dataclasses' not in sys.modules and 'concurrent.futures' not in sys.modules\n"
        "assert momentkit.cli.main(['check', sys.argv[1]]) == 0\n"
        "assert 'concurrent.futures' not in sys.modules  # one input, default --jobs\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mk.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, path], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "representable"


def test_jobs_capped_by_inputs_and_cores(tmp_path, monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    paths = [write(tmp_path, f"{i}.json", {"moments": [1, 0, 1]}) for i in range(4)]
    out_dir = str(tmp_path / "out")
    assert main(["check", *paths[:2], "--jobs", "5000", "--output", out_dir]) == 0
    assert main(["check", *paths, "--jobs", "5000", "--output", out_dir]) == 0
    assert sizes == [2, 3]


FS_NOT_POSITIVE = {"points": ["a", "b"], "basis": {"one": [1, 1], "g": [1, 0]},
                   "functional": {"one": 1.0, "g": -5e-9}, "sigma_algebra": [[0], [1]]}
# verdict -> (verb, input, extra arguments) that reach it
VERDICT_CASES = {
    "schema-ok": ("check", MOMENTS_DOC, ["--schema-check-only"]),
    "representable": ("check", MOMENTS_DOC, []),
    "not-representable": ("check", {"moments": [1, 0, -1]}, []),
    "inconclusive": ("check", {"moments": [1, 0, 1, 0, 1]}, []),
    "represented": ("represent", MOMENTS_DOC, []),
    "failed": ("represent", {"moments": [1, 0, -1]}, []),
    "extended": ("extend-moments", MOMENTS_DOC, []),
    "no-positive-extension": ("extend-moments", {"moments": [1, 0, -1]}, []),
    "extended-positive": ("hb-extend", dict(FS_DOC, targets={"t0": [1, 0]}), []),
    "positivity-failed": ("hb-extend", FS_NOT_POSITIVE, ["--tol", "1e-9"]),
    "measure-certified": ("build-measure", FS_DOC, []),
    "density-failed": ("build-measure", dict(FS_DOC, b_basis={"one": [1, 1]}), []),
    "not-certified": ("build-measure", FS_NOT_POSITIVE, ["--tol", "1e-9"]),
    "verified": ("verify", DIAGNOSTICS_VERBS["verify"][0], []),
    "verification-failed": ("verify", dict(MOMENTS_DOC, atomic_measure={"atoms": [1],
                                                                        "weights": [1]}), []),
    "input-error": ("check", FS_DOC, []),
    "numerical-failure": ("represent", {"moments": SUBNORMAL}, []),
}


def test_verdict_cases_cover_the_exit_code_table():
    assert set(VERDICT_CASES) == set(cli.EXIT_CODES)


def test_readme_exit_code_table_is_the_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z-]+)` \|.*\| (\d) \|$", readme, re.M)
    assert len(rows) == len(cli.EXIT_CODES)
    assert {verdict: int(code) for verdict, code in rows} == cli.EXIT_CODES


@pytest.mark.parametrize("verdict", sorted(VERDICT_CASES))
def test_each_verdict_exits_with_its_table_code(tmp_path, capsys, verdict):
    verb, doc, extra = VERDICT_CASES[verdict]
    assert main([verb, write(tmp_path, "in.json", doc), *extra]) == cli.EXIT_CODES[verdict]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert (out["verdict"], out["exit_code"], out["verb"]) == (verdict, cli.EXIT_CODES[verdict],
                                                                verb)


def test_wrong_input_kind_names_the_kind(tmp_path, capsys):
    for verb, doc, kind in [("check", FS_DOC, "moment-sequence"),
                            ("build-measure", MOMENTS_DOC, "finite-space")]:
        assert main([verb, write(tmp_path, "in.json", doc)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == f": verb {verb!r} expects a {kind} input file"


def test_hb_extend_mixed_scale_target_is_a_named_numerical_failure(tmp_path, capsys, caplog):
    # t is outside span{big} by its residual (1e-9 against 1e-10 max(1, |t|)),
    # yet [big, t] fails the rank check (s_min / s_max about 1e-15).
    doc = {"points": ["a", "b"], "basis": {"big": [1e6, 1e6]}, "functional": {"big": 2e6},
           "sigma_algebra": [[0], [1]], "targets": {"t": [1.0, 1.000000002]}}
    assert main(["hb-extend", write(tmp_path, "hb.json", doc)]) == 3
    out = json.loads(capsys.readouterr().out)
    assert (out["verdict"], out["error_kind"]) == ("numerical-failure", "RankDetectionAmbiguous")
    assert not any("unexpected" in r.getMessage() for r in caplog.records)


def test_exit_code_totality(tmp_path):
    # a grab bag of odd-but-parsable inputs must stay in {0,1,2,3}
    docs = [
        {"moments": [0, 0, 0]},
        {"moments": [1e8, 0, 1e8]},
        {"moments": [1, 1, 1, 1, 1]},
        {"points": ["a"], "basis": {}, "sigma_algebra": [[0]]},
    ]
    for verb in ("check", "represent", "extend-moments", "build-measure", "verify"):
        for i, doc in enumerate(docs):
            path = write(tmp_path, f"{verb}{i}.json", doc)
            assert main([verb, path]) in (0, 1, 2, 3)


_EXTREME = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 5e-324, -5e-324, 1e-320, 1e-300, -1e-300,
                            1e-200, 1e-10, 1e100, 1e200, 1e300, -1e300, 1.7e308, -1.7e308])
_SUPPORTS = st.sampled_from([{"type": "line"}, {"type": "halfline"},
                             {"type": "interval", "a": -1, "b": 1},
                             {"type": "interval", "a": 0, "b": 1e-9}])


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 4).flatmap(lambda d: st.lists(_EXTREME, min_size=2 * d + 1,
                                                    max_size=2 * d + 1)), _SUPPORTS)
def test_moment_verbs_never_fail_untyped(tmp_path_factory, moments, support):
    # Python floats raise OverflowError on ** and ZeroDivisionError on / 0,
    # where numpy returns inf or nan: no moment verb may end in the CLI's
    # catch-all, and every numerical failure names its kind.
    path = write(tmp_path_factory.mktemp("extreme"), "m.json",
                 {"moments": moments, "support": support})
    for verb in ("check", "represent", "extend-moments"):
        result = cli.run(cli.Command(verb, path))
        assert not result.payload.get("error", "").startswith("unexpected"), (verb, result)
        if result.verdict == "numerical-failure":
            assert "error_kind" in result.payload, (verb, result)


@pytest.mark.parametrize("moments, support, verbs", [
    ([1e200, -5e-324, 1e-200, 1e-10, 1e-300], {"type": "interval", "a": 0, "b": 1e-9},
     ("represent", "extend-moments")),
    ([1e300, 5e-324, 0.5, 2, 1e100], {"type": "interval", "a": -1, "b": 1}, ("represent",)),
])
def test_atom_weight_underflow_names_its_kind(tmp_path, capsys, moments, support, verbs):
    # m_0 v^2 underflows to 0; AtomicMeasure used to refuse it untyped.
    path = write(tmp_path, "m.json", {"moments": moments, "support": support})
    for verb in verbs:
        assert main([verb, path]) == 3
        out = json.loads(capsys.readouterr().out)
        assert (out["verdict"], out["error_kind"]) == ("numerical-failure", "EigFailure")
        assert out["error"] == "an atom's weight underflows the double range"


def test_tol_must_be_positive(tmp_path):
    path = write(tmp_path, "m.json", {"moments": [1, 0, 1]})
    assert main(["check", path, "--tol", "-1"]) == 2


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_tol_must_be_finite(tmp_path, capsys, tol):
    # A non-finite --tol is an input error, refused before any verb runs;
    # it used to reach the payload and crash its encoder.
    path = write(tmp_path, "m.json", {"moments": [1, 0, 1]})
    assert main(["check", path, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--tol must be positive and finite" in captured.err


@pytest.mark.parametrize("grid", ["1", "0", "-3"])
def test_grid_must_be_at_least_two(tmp_path, capsys, grid):
    support = {"type": "interval", "a": -1, "b": 1}
    path = write(tmp_path, "m.json", {"moments": [1, 0, 0.5], "support": support})
    assert main(["check", path, "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--grid must be at least 2" in captured.err


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_bins_must_be_at_least_one(tmp_path, capsys, bins):
    path = write(tmp_path, "fs.json", FS_DOC)
    assert main(["build-measure", path, "--bins", bins]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--bins must be at least 1" in captured.err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_must_be_at_least_one(tmp_path, capsys, jobs):
    # These used to run as --jobs 1, with no word about the value.
    path = write(tmp_path, "m.json", {"moments": [1, 0, 1]})
    assert main(["check", path, "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "momentkit: --jobs must be at least 1" in captured.err


def test_extend_moments_loose_tol(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"moments": [1, 0, -1e-6]})
    assert main(["extend-moments", path, "--tol", "1e-5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "extended"
    assert (doc["extension"]["m_next"], doc["extension"]["m_next_next"]) == (0, 0)


def test_represent_loose_tol(tmp_path, capsys):
    # represent's support gate reads --tol, as extend-moments' does: both
    # accept (1, 0, -1e-6) at 1e-5, and both refuse it at the default.
    path = write(tmp_path, "m.json", {"moments": [1, 0, -1e-6]})
    assert main(["represent", path, "--tol", "1e-5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "represented"
    assert doc["atomic_measure"] == {"atoms": [0.0], "weights": [1.0]}
    assert main(["represent", path]) == 1
    assert json.loads(capsys.readouterr().out)["error_kind"] == "NotPSD"
