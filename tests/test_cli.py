import json
import os
import subprocess
import sys

import pytest

from conftest import fixture_path, get_nr, get_pair
from oracles import from_triplet_text
from prestacks.basecat import Simplex
from prestacks.cli import main
from prestacks.compare import Comparison
from prestacks.complexbase import SparseCochain
from prestacks.graded import GradedComplex
from prestacks.gscomplex import GSComplex
from prestacks.io import cochain_to_text
from prestacks.linalg import QQ, SparseMatrix, accumulate


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", fixture_path("triv-A2"))
    assert code == 0 and out.strip() == "OK"


def test_validate_names_violation(tmp_path, capsys):
    doc = json.loads(open(fixture_path("scalar-twist-3chain")).read())
    for tw in doc["twists"]:
        if tw["first"] == "u01" and tw["then"] == "u12":
            tw["components"]["X"] = {"e": "999"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(bad))
    assert code == 1
    assert "coherence" in out and "u01" in out


def test_export_matrix_names_violation(tmp_path, capsys):
    doc = json.loads(open(fixture_path("scalar-twist-3chain")).read())
    for tw in doc["twists"]:
        if tw["first"] == "u01" and tw["then"] == "u12":
            tw["components"]["X"] = {"e": "999"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out_file = tmp_path / "m.txt"
    code, out = run(capsys, "export-matrix", str(bad), "--degree", "2",
                    "--out", str(out_file))
    assert code == 1
    assert out.startswith("violation:") and "u01" in out
    assert not out_file.exists()


def test_malformed_file_exits_2(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(f)])
    assert exc.value.code == 2


def test_missing_section_exits_2(tmp_path, capsys):
    f = tmp_path / "empty.json"
    f.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(f)])
    assert exc.value.code == 2


def test_cohomology_tsv_shape(capsys):
    code, out = run(capsys, "cohomology", fixture_path("triv-A2"),
                    "--max-degree", "2", "--complex", "gs")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree\tdim H^n"
    assert lines[1:] == ["0\t1", "1\t0", "2\t0"]


def test_cohomology_complexes_agree(capsys):
    cols = []
    for c in ("gs", "nr", "graded"):
        code, out = run(capsys, "cohomology", fixture_path("scalar-twist-2chain"),
                        "--max-degree", "2", "--complex", c)
        assert code == 0
        cols.append(out)
    assert cols[0] == cols[1] == cols[2]


def test_cohomology_fp_agrees_with_q(capsys):
    code, out_q = run(capsys, "cohomology", fixture_path("dual-pair"),
                      "--max-degree", "2", "--complex", "gs")
    code2, out_p = run(capsys, "cohomology", fixture_path("dual-pair"),
                       "--max-degree", "2", "--complex", "gs", "--fp", "1000003")
    assert code == code2 == 0 and out_q == out_p


def test_cohomology_degree_cap(capsys, monkeypatch):
    monkeypatch.setenv("PRESTACKS_DEGREE_CAP", "2")
    code, out = run(capsys, "cohomology", fixture_path("triv-A2"), "--max-degree", "3")
    assert code == 1


def test_export_matrix_degree_cap_allows_the_last_differential(capsys, monkeypatch, tmp_path):
    # cohomology --max-degree 2 builds d(3), so export-matrix may too
    monkeypatch.setenv("PRESTACKS_DEGREE_CAP", "2")
    code, out = run(capsys, "export-matrix", fixture_path("triv-A2"), "--degree", "3",
                    "--out", str(tmp_path / "d3.txt"))
    assert code == 0 and (tmp_path / "d3.txt").exists()


def test_verify_shuffles_and_paths(capsys):
    code, out = run(capsys, "verify", fixture_path("scalar-twist-2chain"),
                    "--law", "shuffles")
    assert code == 0 and "PASS" in out
    code, out = run(capsys, "verify", fixture_path("scalar-twist-2chain"),
                    "--law", "paths", "--degree", "4")
    assert code == 0 and "PASS" in out


def test_verify_d2_deterministic(capsys):
    args = ("verify", fixture_path("triv-A2"), "--law", "d2",
            "--degree", "2", "--trials", "3", "--seed", "9")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2


def test_verify_gf_names_failing_nr_key(capsys, monkeypatch):
    monkeypatch.setattr(Comparison, "matrix_F", lambda self, n: SparseMatrix(
        self.CU.dim(n), self.CG.dim(n), self.field))
    code, out = run(capsys, "verify", fixture_path("triv-A2"), "--law", "gf",
                    "--degree", "1")
    assert code == 1 and out.startswith("law gf\tFAIL")
    key = get_nr("triv-A2").cells(0)[0]
    assert "GF != 1 on nr basis vector %r at degree 0" % (key,) in out


def _cell_text(key):
    simplex, objects, btuple = key
    return "(%s; %s; %s)" % (" ".join(simplex.arrows) or simplex.source,
                             " ".join(objects), " ".join(map(str, btuple)))


def _check_witness(capsys, monkeypatch, law, owner, attr, degree, factor, what, out, inp):
    """Add one at (last row, c) to the degree-``degree`` matrix ``owner.attr``,
    where c is the first nonzero row of ``factor``, the matrix it multiplies on
    the right.  The two sides of the law then differ by the last row times row
    c of ``factor``: ``verify --degree 1`` must fail with one line naming the
    cell of the last row of ``out`` and the cell of that row's least column of
    ``inp``, each a (complex, degree) pair of scalar-twist-2chain."""
    original = getattr(owner, attr)

    def bumped(self, n, *rest):
        mat = original(self, n, *rest)
        if n != degree or rest:
            return mat
        F = mat.field
        rows = list(mat.row_data)
        rows[-1] = dict(rows[-1])
        accumulate(F, rows[-1], c, F.one)
        return SparseMatrix(mat.rows, mat.cols, F, rows)

    c = next(i for i, row in enumerate(factor.row_data) if row)
    for C, n in (out, inp):  # one coordinate per cell, so a cell is cells(n)[i]
        assert C.dim(n) == len(C.cells(n))
    out_cell = out[0].cells(out[1])[out[0].dim(out[1]) - 1]
    in_cell = inp[0].cells(inp[1])[min(factor.row_data[c])]
    monkeypatch.setattr(owner, attr, bumped)
    code, text = run(capsys, "verify", fixture_path("scalar-twist-2chain"),
                     "--law", law, "--degree", "1")
    assert code == 1
    assert text == "law %s\tFAIL\n  %s at degree 1: output cell %s, input cell %s\n" % (
        law, what, _cell_text(out_cell), _cell_text(in_cell))


def test_verify_d2_names_failing_cells(capsys, monkeypatch):
    CG, _ = get_pair("scalar-twist-2chain")
    _check_witness(capsys, monkeypatch, "d2", GSComplex, "matrix", 2, CG.matrix(1),
                   "d.d != 0", (CG, 2), (CG, 0))


def test_verify_delta2_names_failing_cells(capsys, monkeypatch):
    _, CU = get_pair("scalar-twist-2chain")
    _check_witness(capsys, monkeypatch, "delta2", GradedComplex, "matrix", 2, CU.matrix(1),
                   "delta.delta != 0", (CU, 2), (CU, 0))


def test_verify_fd_names_failing_cells(capsys, monkeypatch):
    CG, CU = get_pair("scalar-twist-2chain")
    _check_witness(capsys, monkeypatch, "fd", Comparison, "matrix_F", 1, CG.matrix(1),
                   "F.d != delta.F", (CU, 1), (CG, 0))


def test_verify_gd_names_failing_cells(capsys, monkeypatch):
    CG, CU = get_pair("scalar-twist-2chain")
    _check_witness(capsys, monkeypatch, "gd", Comparison, "matrix_G", 1, CU.matrix(1),
                   "G.delta != d.G", (CG, 1), (CU, 0))


def test_verify_homotopy_names_failing_cells(capsys, monkeypatch):
    CG, CU = get_pair("scalar-twist-2chain")
    _check_witness(capsys, monkeypatch, "homotopy", Comparison, "matrix_F", 1,
                   Comparison(CG, CU).matrix_G(1), "FG - 1 != delta T + T delta",
                   (CU, 1), (CU, 1))


def test_deform_writes_validating_representatives(tmp_path, capsys):
    code, out = run(capsys, "deform", fixture_path("dual-pair"),
                    "--out-dir", str(tmp_path))
    assert code == 0
    assert "dim H^2 (normalized reduced)\t2" in out
    written = sorted(p for p in os.listdir(tmp_path) if p.endswith(".json"))
    assert len(written) == 2
    for p in written:
        code, out = run(capsys, "validate", str(tmp_path / p))
        assert code == 0


def test_deform_from_cocycle_roundtrip(tmp_path, capsys):
    code, out = run(capsys, "deform", fixture_path("dual-pair"),
                    "--out-dir", str(tmp_path))
    cochain_file = sorted(p for p in os.listdir(tmp_path) if p.endswith(".cochain"))[0]
    code, out = run(capsys, "deform", fixture_path("dual-pair"),
                    "--from-cocycle", str(tmp_path / cochain_file),
                    "--out", str(tmp_path / "again.json"))
    assert code == 0
    code, out = run(capsys, "validate", str(tmp_path / "again.json"))
    assert code == 0


def test_deform_rejects_corrupted_cocycle(tmp_path, capsys):
    code, out = run(capsys, "deform", fixture_path("rank2-fiber"),
                    "--out-dir", str(tmp_path))
    assert code == 0
    # fabricate a non-cocycle cochain file
    bad = tmp_path / "bad.cochain"
    bad.write_text("0 | * | X X X | 0 1 | 1 0\n")
    code, out = run(capsys, "deform", fixture_path("rank2-fiber"),
                    "--from-cocycle", str(bad))
    assert code == 1 and "nonzero" in out


# cochain text, the fixture it is read on, and the one line deform prints
NOT_DATUMS = [
    # d of the 1-cochain with value 1 at (i; X; ): a normalized cocycle, not reduced
    pytest.param("dual-pair", "2 | i i | X |  | 1 0\n",
                 "not reduced: nonzero over a degenerate simplex at (i i; X; )",
                 id="not-reduced"),
    pytest.param("rank2-fiber", "0 | * | X X X | 1 1 | 1 0\n",
                 "not a cocycle: d is nonzero at (*; X X X Y; 0 1 1)", id="not-a-cocycle"),
    pytest.param("rank2-fiber", "0 | * | X X X | 0 1 | 1 0\n",
                 "not normalized: nonzero with an identity argument at (*; X X X; 0 1)",
                 id="not-normalized"),
]


@pytest.mark.parametrize("name,text,line", NOT_DATUMS)
def test_deform_names_the_condition_a_cochain_fails(tmp_path, capsys, name, text, line):
    if name == "dual-pair":
        C, _ = get_pair(name)
        psi = SparseCochain(C, 1, {(Simplex("*", ("i",)), ("X",), ()): [QQ.one, QQ.zero]})
        assert cochain_to_text(C, C.apply_diff(psi)) == "# degree 2\n" + text
    path = tmp_path / "phi.cochain"
    path.write_text(text)
    code, out = run(capsys, "deform", fixture_path(name), "--from-cocycle", str(path),
                    "--out", str(tmp_path / "out.json"))
    assert (code, out) == (1, line + "\n")
    assert not (tmp_path / "out.json").exists()


def test_export_matrix_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "m.txt"
    code, out = run(capsys, "export-matrix", fixture_path("triv-A3"),
                    "--degree", "2", "--complex", "gs", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    mat = from_triplet_text(text, QQ)
    header = text.splitlines()[0].split()
    assert (mat.rows, mat.cols, mat.nnz) == tuple(int(t) for t in header)
    # rank preserved under the round trip
    mat2 = from_triplet_text(mat.to_triplet_text(), QQ)
    assert mat.rank() == mat2.rank()


def test_export_zero_matrix_header(tmp_path, capsys):
    # degree 1 nr differential of dual-pair is the zero map
    out_file = tmp_path / "z.txt"
    code, out = run(capsys, "export-matrix", fixture_path("dual-pair"),
                    "--degree", "2", "--complex", "nr", "--out", str(out_file))
    assert code == 0
    header = out_file.read_text().splitlines()[0].split()
    assert int(header[2]) == from_triplet_text(out_file.read_text(), QQ).nnz


@pytest.mark.parametrize("which", ["gs", "nr", "graded"])
def test_export_matrix_degree_zero(tmp_path, capsys, which):
    # d0 maps the empty degree -1 into C^0: a dim C^0 x 0 matrix
    out_file = tmp_path / "m.txt"
    code, out = run(capsys, "export-matrix", fixture_path("triv-A2"), "--degree", "0",
                    "--complex", which, "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().split() == ["2", "0", "0"]


SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _fp_doc(tmp_path):
    doc = json.loads(open(fixture_path("dual-pair")).read())
    doc["ring"] = {"Fp": 4}
    return _write(tmp_path, "fp4.json", json.dumps(doc))


def _split_unit_doc(tmp_path):
    """A valid prestack whose fiber identity a + b is not a basis vector:
    End(X) has basis a, b with a^2 = a, b^2 = b and ab = ba = 0."""
    doc = json.loads(open(fixture_path("dual-pair")).read())
    doc["fibers"]["*"] = {
        "objects": ["X"], "homs": {"X|X": ["a", "b"]},
        "compose": [{"f": f, "g": f, "pair": ["X", "X", "X"], "result": {f: "1"}}
                    for f in ("a", "b")],
        "identities": {"X": {"a": "1", "b": "1"}}}
    return _write(tmp_path, "split-unit.json", json.dumps(doc))


def _edited(name, fname, edit):
    """A callable of tmp_path that writes fixture ``name`` after ``edit(doc)``."""
    def write(tmp_path):
        doc = json.loads(open(fixture_path(name)).read())
        edit(doc)
        return _write(tmp_path, fname, json.dumps(doc))
    return write


_no_matrix_doc = _edited("triv-A2", "no-matrix.json",
                         lambda doc: doc["restrictions"]["u01"].update(matrices={}))
_no_component_doc = _edited("scalar-twist-2chain", "no-component.json",
                            lambda doc: doc["twists"][0].update(components={}))
_dual_doc = _edited("dual-pair", "dual.json", lambda doc: doc.update(ring="Q[e]"))
_f7_doc = _edited("dual-pair", "f7.json", lambda doc: doc.update(ring={"Fp": 7}))
_zero_den_doc = _edited("dual-pair", "zero-den.json", lambda doc: doc["fibers"]["*"][
    "compose"][1].update(result={"x": "1/0"}))


def test_dual_number_ring_validates_verifies_and_refuses_export(tmp_path, capsys):
    # only elimination and the triplet text need a field: validate and
    # verify still read k[e]
    doc = _dual_doc(tmp_path)
    assert run(capsys, "validate", doc) == (0, "OK\n")
    code, out = run(capsys, "verify", doc, "--law", "d2", "--degree", "2")
    assert code == 0 and out.endswith("PASS\n")
    out_file = tmp_path / "m.txt"
    assert run(capsys, "export-matrix", doc, "--degree", "1", "--out", str(out_file)) == (1, "")
    assert not out_file.exists()


# one bad input per row: argv (a callable of tmp_path gives a path), extra
# environment, expected exit code, expected start of the one stderr line (of
# the one stdout line for a prestack violation, which validate prints there)
BAD_INPUTS = [
    pytest.param(["cohomology", "dual-pair", "--fp", "4"], {}, 2,
                 "parse error: --fp 4: modulus 4 is not a prime", id="fp-4"),
    pytest.param(["cohomology", "dual-pair", "--fp", "9"], {}, 2,
                 "parse error: --fp 9: modulus 9 is not a prime", id="fp-9"),
    pytest.param(["cohomology", _fp_doc], {}, 2, "parse error:", id="fp-4-in-file"),
    pytest.param(["cohomology", "nofile.json", "--fp", "7"], {}, 2, "parse error:",
                 id="fp-missing-file"),
    pytest.param(["cohomology", "scalar-twist-3chain", "--fp", "7"], {}, 2,
                 "parse error:", id="fp-denominator-divisible-by-p"),
    pytest.param(["deform", _f7_doc, "--from-cocycle",
                  lambda t: _write(t, "sevenths.cochain", "0 | * | X X X | 1 1 | 1/7 0\n")],
                 {}, 2, "parse error:", id="cocycle-denominator-divisible-by-p"),
    pytest.param(["validate", _zero_den_doc], {}, 2,
                 "parse error: malformed prestack document: 1/0 has a zero denominator",
                 id="zero-denominator-in-document"),
    pytest.param(["deform", "dual-pair", "--from-cocycle",
                  lambda t: _write(t, "zero.cochain", "0 | * | X X X | 1 1 | 1/0\n")],
                 {}, 2, "parse error: bad cochain line", id="cocycle-zero-denominator"),
    pytest.param(["deform", "dual-pair", "--from-cocycle",
                  lambda t: _write(t, "p.cochain", "5 | i | X X | 0 | 1 0\n")],
                 {}, 2, "parse error: bad cochain line", id="cocycle-p-not-arrow-count"),
    pytest.param(["deform", "dual-pair", "--from-cocycle",
                  lambda t: _write(t, "bad.cochain", "x | * | X X X | 1 1 | 1 0\n")],
                 {}, 2, "parse error:", id="cocycle-malformed-line"),
    pytest.param(["deform", "dual-pair", "--from-cocycle",
                  lambda t: _write(t, "arrow.cochain", "1 | nosuch | X X | 0 | 1\n")],
                 {}, 2, "parse error:", id="cocycle-unknown-arrow"),
    pytest.param(["deform", "dual-pair", "--from-cocycle",
                  lambda t: _write(t, "star.cochain", "2 | * | X X X | 0 -1 | 1\n")],
                 {}, 2, "parse error: bad cochain line '2 | * | X X X | 0 -1 | 1': "
                 "unknown arrow '*'", id="cocycle-unknown-arrow-named"),
    pytest.param(["deform", "dual-pair", "--from-cocycle",
                  lambda t: _write(t, "base.cochain", "0 | Z | X | | 1\n")],
                 {}, 2, "parse error: bad cochain line '0 | Z | X | | 1': unknown object 'Z'",
                 id="cocycle-unknown-base-object"),
    pytest.param(["deform", "dual-pair", "--from-cocycle",
                  lambda t: _write(t, "fiber.cochain", "0 | * | Q | | 1\n")],
                 {}, 2, "parse error: bad cochain line '0 | * | Q | | 1': "
                 "unknown object 'Q' over *", id="cocycle-unknown-fiber-object"),
    pytest.param(["deform", "dual-pair", "--from-cocycle", "nofile.cochain"], {}, 2,
                 "parse error:", id="cocycle-missing-file"),
    pytest.param(["deform", "dual-pair", "--from-cocycle",
                  lambda t: _write(t, "index.cochain", "0 | * | X X X | 1 7 | 1 0\n")],
                 {}, 2, "parse error:", id="cocycle-basis-index-out-of-range"),
    pytest.param(["deform", "dual-pair", "--from-cocycle",
                  lambda t: _write(t, "negative.cochain", "0 | * | X X X | 1 -1 | 1 0\n")],
                 {}, 2, "parse error:", id="cocycle-negative-basis-index"),
    pytest.param(["deform", "dual-pair", "--from-cocycle",
                  lambda t: _write(t, "degree.cochain", "0 | * | X X X X | 0 0 0 | 1 0\n")],
                 {}, 2, "parse error:", id="cocycle-wrong-degree"),
    pytest.param(["cohomology", "triv-A2"], {"PRESTACKS_ENUM_CAP": "x"}, 2,
                 "parse error:", id="enum-cap-not-int"),
    pytest.param(["cohomology", "triv-A2"], {"PRESTACKS_DEGREE_CAP": "x"}, 2,
                 "parse error:", id="degree-cap-not-int"),
    pytest.param(["cohomology", "scalar-twist-3chain", "--max-degree", "4"],
                 {"PRESTACKS_ENUM_CAP": "2"}, 1, "enumeration size", id="enum-cap-exceeded"),
    pytest.param(["verify", "scalar-twist-3chain", "--law", "fd", "--degree", "4"],
                 {"PRESTACKS_ENUM_CAP": "2"}, 1, "enumeration size",
                 id="enum-cap-exceeded-comparison"),
    pytest.param(["verify", "triv-A2", "--law", "d2", "--degree", "7"], {}, 1,
                 "degree 7 exceeds cap 5", id="verify-degree-over-cap"),
    pytest.param(["verify", "missing.json", "--law", "d2", "--degree", "3"],
                 {"PRESTACKS_DEGREE_CAP": "2"}, 1, "degree 3 exceeds cap 2",
                 id="verify-degree-cap-before-load"),
    pytest.param(["export-matrix", "triv-A2", "--degree", "7", "--out", "m.txt"], {}, 1,
                 "degree 7 exceeds cap 5", id="export-degree-over-cap"),
    pytest.param(["export-matrix", "missing.json", "--degree", "4", "--out", "m.txt"],
                 {"PRESTACKS_DEGREE_CAP": "2"}, 1, "degree 4 exceeds cap 2",
                 id="export-degree-cap-before-load"),
    pytest.param(["cohomology", "triv-A2", "--max-degree", "-1"], {}, 2, "parse error:",
                 id="negative-max-degree"),
    pytest.param(["verify", "triv-A2", "--law", "fd", "--degree", "-1"], {}, 2,
                 "parse error:", id="negative-verify-degree"),
    pytest.param(["verify", "triv-A2", "--law", "d2", "--trials", "-3"], {}, 2,
                 "parse error:", id="negative-trials"),
    pytest.param(["export-matrix", "triv-A2", "--degree", "-2", "--out", "m.txt"], {}, 2,
                 "parse error:", id="negative-export-degree"),
    pytest.param(["deform", "dual-pair", "--out-dir",
                  lambda t: os.path.join(_write(t, "afile", ""), "sub")],
                 {}, 2, "parse error:", id="deform-out-dir-under-file"),
    pytest.param(["cohomology", _split_unit_doc, "--complex", "nr"], {}, 1,
                 "fiber *: identity of X is not a basis vector", id="nr-identity-not-basis"),
    pytest.param(["deform", _split_unit_doc], {}, 1,
                 "fiber *: identity of X is not a basis vector", id="deform-identity-not-basis"),
    pytest.param(["verify", _split_unit_doc, "--law", "gf"], {}, 1,
                 "fiber *: identity of X is not a basis vector", id="gf-identity-not-basis"),
    pytest.param(["validate", _no_matrix_doc], {}, 1,
                 "violation: restriction u01: functor has no matrix on hom(X, X)",
                 id="restriction-without-matrix"),
    pytest.param(["cohomology", _no_component_doc], {}, 1,
                 "violation: twist (u01,u12): no component at X", id="twist-without-component"),
    pytest.param(["cohomology", _dual_doc], {}, 1, "ring Q[e] is not a field",
                 id="cohomology-over-dual-numbers"),
    pytest.param(["deform", _dual_doc], {}, 1, "ring Q[e] is not a field",
                 id="deform-over-dual-numbers"),
    pytest.param(["export-matrix", _dual_doc, "--degree", "1", "--out", "m.txt"], {}, 1,
                 "ring Q[e] is not a field", id="export-over-dual-numbers"),
    pytest.param(["cohomology", _dual_doc, "--fp", "7"], {}, 2,
                 "parse error: document over Q[e], not Q", id="fp-over-dual-numbers"),
]


@pytest.mark.parametrize("argv,env,code,prefix", BAD_INPUTS)
def test_bad_input_exits_with_one_line(tmp_path, argv, env, code, prefix):
    args = []
    for a in argv:
        if callable(a):
            a = a(tmp_path)
        elif a in ("dual-pair", "triv-A2", "scalar-twist-3chain"):
            a = fixture_path(a)
        args.append(a)
    full_env = dict(os.environ, **env)
    full_env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "prestacks.cli"] + args,
                          cwd=str(tmp_path), env=full_env, capture_output=True,
                          text=True, timeout=60)
    assert "Traceback" not in proc.stdout and "Traceback" not in proc.stderr
    assert proc.returncode == code
    violation = prefix.startswith("violation:")
    lines = (proc.stdout if violation else proc.stderr).splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    if violation:
        assert not proc.stderr


def test_cohomology_ranks_each_differential_once(monkeypatch):
    from prestacks.cli import cohomology_table
    from prestacks.io import load_prestack
    ranked = []
    original = SparseMatrix.rank

    def counting_rank(self, *args, **kwargs):
        ranked.append(id(self))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SparseMatrix, "rank", counting_rank)
    P = load_prestack(fixture_path("scalar-twist-2chain"))
    assert cohomology_table(P, "gs", 3) == [1, 0, 0, 0]
    assert len(ranked) == len(set(ranked)) == 5
