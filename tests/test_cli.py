import json

import numpy as np
import pytest

import momentkit as mk
from momentkit import cli
from momentkit.cli import main
from momentkit.jsonio import dumps_canonical, parse_input

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


def _pivot_count_doc():
    # 24 points in 4 blocks: each block-constant row repeats 6 times.  The
    # domain holds the constants, so hull and domination need no LP.
    rng = np.random.default_rng(24)
    assign = np.repeat(np.arange(4), 6)
    rng.shuffle(assign)
    basis = {"one": np.ones(24), "g1": rng.normal(size=4)[assign],
             "g2": rng.normal(size=4)[assign]}
    omega = rng.uniform(0.0, 2.0, 24)
    return {
        "points": [f"p{i}" for i in range(24)],
        "basis": {k: v.tolist() for k, v in basis.items()},
        "functional": {k: float(omega @ v) for k, v in basis.items()},
        "sigma_algebra": [np.nonzero(assign == b)[0].tolist() for b in range(4)],
        "targets": {"t0": rng.normal(size=24).tolist(), "t1": rng.normal(size=24).tolist()},
    }


def _lp_counts(tmp_path, capsys, doc, exit_code):
    assert main(["build-measure", write(tmp_path, "fs.json", doc)]) == exit_code
    diag = json.loads(capsys.readouterr().out)["diagnostics"]
    return diag["lp_solves"], diag["lp_iterations"]


def test_build_measure_pivot_count(tmp_path, capsys):
    # With the default designated subspace only the Hahn-Banach step and the
    # positivity audit make LPs; the step's LP has no inequality rows.
    assert _lp_counts(tmp_path, capsys, _pivot_count_doc(), 0) == (2, 11)


def test_build_measure_pivot_count_constants_only(tmp_path, capsys):
    # With the constants alone as designated subspace (not dense, exit 1),
    # four density LPs join those two.  With copied LP rows merged the six
    # LPs take 50 pivots, without the merge 65; pin it so the merge cannot be
    # dropped silently.
    doc = dict(_pivot_count_doc(), b_basis={"one": [1.0] * 24})
    assert _lp_counts(tmp_path, capsys, doc, 1) == (6, 50)


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


def test_tol_must_be_positive(tmp_path):
    path = write(tmp_path, "m.json", {"moments": [1, 0, 1]})
    assert main(["check", path, "--tol", "-1"]) == 2


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


def test_extend_moments_loose_tol(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"moments": [1, 0, -1e-6]})
    assert main(["extend-moments", path, "--tol", "1e-5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "extended"
    assert (doc["extension"]["m_next"], doc["extension"]["m_next_next"]) == (0, 0)
