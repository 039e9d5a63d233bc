"""Command-line surface: exit codes, report shape, determinism."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tubealg
from tubealg.annular_bh import AnnularAlgebra
from tubealg import annular_bh, phase, rep, splitting, staralg, tube_diag
from tubealg.cli import main
from tubealg.coho import BHSetup, BHSetupError, bh_setup_from_json
from tubealg.grp import cyclic_group, direct_product, group_to_json
from tubealg.phase import (Cocycle3, coboundary2, cocycle_to_json,
                           standard_cyclic_cocycle, trivial_cocycle,
                           two_factor_cocycle)
from tubealg.tube_diag import TubeAlgebra, TubeShapedAlgebra

from cocycle2_oracle import cocycle2_check
from conftest import (bh_coboundary_shift, bh_setup_s3, bh_setup_v4,
                      bh_setup_z2z4, corrupt_last_twist, dihedral8_sign,
                      dihedral_sign, symmetric_group)


@pytest.fixture
def files(tmp_path):
    out = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        out[name] = str(p)

    z2 = standard_cyclic_cocycle(2, 1)
    write("z2.json", group_to_json(z2.group))
    write("semion.json", cocycle_to_json(z2))
    s3, _ = symmetric_group(3)
    write("s3.json", {"type": "perm", "degree": 3,
                      "generators": [[1, 0, 2], [1, 2, 0]]})
    write("s3_trivial.json", cocycle_to_json(trivial_cocycle(s3)))
    write("bad_group.json", {"type": "table", "order": 2,
                             "mult": [[0, 1], [1, 1]]})
    write("nonassoc.json", {"type": "table", "order": 3,
                            "mult": [[0, 1, 2], [1, 0, 0], [2, 0, 0]]})
    write("not_json.json", None)
    (tmp_path / "not_json.json").write_text("{broken")
    write("bh_s3.json", {
        "group": {"type": "perm", "degree": 3,
                  "generators": [[1, 0, 2], [1, 2, 0]]},
        "H": [0, 1], "K": [0, 2, 5],
        "cocycle": cocycle_to_json(trivial_cocycle(s3))})
    write("bh_s3_all.json", {
        "group": {"type": "perm", "degree": 3,
                  "generators": [[1, 0, 2], [1, 2, 0]]},
        "H": list(range(6)), "K": list(range(6)),
        "cocycle": cocycle_to_json(trivial_cocycle(s3))})
    write("bh_s3_h_out_of_range.json", {
        "group": {"type": "perm", "degree": 3,
                  "generators": [[1, 0, 2], [1, 2, 0]]},
        "H": [0, 6], "K": [0, 2, 5],
        "cocycle": cocycle_to_json(trivial_cocycle(s3))})
    write("bh_s3_h_not_subgroup.json", {
        "group": {"type": "perm", "degree": 3,
                  "generators": [[1, 0, 2], [1, 2, 0]]},
        "H": [0, 2], "K": [0, 1],
        "cocycle": cocycle_to_json(trivial_cocycle(s3))})
    for name, value in (("half", 0.5), ("fraction", "1/2")):
        payload = cocycle_to_json(z2)
        payload["values"][-1] = value
        write(f"semion_{name}.json", payload)
    # the semion times d2(f) with f = 1/4 at (e, e): a cocycle, not normalized
    f = [1, 0, 0, 0]
    d2f = coboundary2(z2.group, f, 4)
    write("semion_unnormalized.json", cocycle_to_json(Cocycle3(
        z2.group, [2 * w + d for w, d in zip(z2.values, d2f)], 4)))
    d8, d8_sign = dihedral8_sign()
    write("d8.json", group_to_json(d8))
    write("d8_sign.json", cocycle_to_json(d8_sign))
    z3z3, pairing = two_factor_cocycle(3, 3, 1)
    write("z3z3.json", group_to_json(z3z3))
    write("z3z3_pairing.json", cocycle_to_json(pairing))
    # JSON booleans where the loader wants integers; each would pass as
    # an int (true == 1), so each is a group of order 1 or 2
    write("bool_entry.json", {"type": "table", "order": 2,
                              "mult": [[0, True], [True, 0]]})
    write("bool_order.json", {"type": "table", "order": True, "mult": [[0]]})
    write("bool_degree.json", {"type": "perm", "degree": True,
                               "generators": [[0]]})
    write("bool_generator.json", {"type": "perm", "degree": 2,
                                  "generators": [[True, False]]})
    write("z1_trivial.json", {"modulus": 1, "values": [0]})
    one = [[[1.0, 0.0]]]
    for name, matrices in (("missing", {"0": one}),
                           ("shape", {"0": one, "1": [[[1.0, 0.0], [0.0, 0.0]]]}),
                           ("entry", {"0": one, "1": [[["x", 0.0]]]})):
        write(f"rep_{name}.json", {"dimension": 1, "matrices": matrices})
    # the semion's class-1 twisted algebra has [1]^2 = i [0], so [1] -> i
    # is a representation and [1] -> 1 is not
    for name, image in (("semion", [[[0.0, 1.0]]]), ("not_a_rep", one),
                        ("nan", [[[float("nan"), 0.0]]])):
        write(f"rep_{name}.json", {"dimension": 1,
                                   "matrices": {"0": one, "1": image}})
    # the semion representation with a dimension that int() would coerce
    for name, dim in (("float", 1.7), ("string", "1"), ("bool", True)):
        write(f"rep_dimension_{name}.json", {
            "dimension": dim, "matrices": {"0": one, "1": [[[0.0, 1.0]]]}})
    # the same with JSON booleans for the entries' parts, which complex()
    # would take as 1 and 0
    write("rep_matrix_bool.json", {"dimension": 1, "matrices": {
        "0": [[[True, False]]], "1": [[[False, True]]]}})
    # an int part beyond float range, which complex() cannot take
    write("rep_matrix_huge_int.json", {"dimension": 1, "matrices": {
        "0": one, "1": [[[0, 10 ** 400]]]}})
    write("rep_regular.json", rep.rep_to_json(rep.regular_representation(
        TubeAlgebra(z2.group, z2).block_algebra().algebras[1])))
    return out


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_cocycle_pass(files, capsys):
    code, report = run(capsys, ["verify-cocycle", "--group", files["z2.json"],
                                "--cocycle", files["semion.json"]])
    assert code == 0
    assert report["status"] == "ok"
    assert any(c["name"] == "cocycle3" and c["status"] == "pass"
               for c in report["checks"])


def test_tube_simples_total(files, capsys):
    code, report = run(capsys, ["tube", "simples", "--group", files["s3.json"],
                                "--cocycle", files["s3_trivial.json"]])
    assert code == 0
    assert report["data"]["total"] == 8


def test_verify_group_failure_has_witness(files, capsys):
    code, report = run(capsys, ["verify-group", "--group",
                                files["nonassoc.json"]])
    assert code == 1
    check = report["checks"][0]
    assert check["status"] == "fail"
    assert len(check["witness"]) == 3


def test_missing_file_is_input_error(files, capsys):
    code, report = run(capsys, ["verify-group", "--group", "/no/such.json"])
    assert code == 2
    assert report["status"] == "error"


def test_malformed_json_is_input_error(files, capsys):
    code, report = run(capsys, ["verify-group", "--group",
                                files["not_json.json"]])
    assert code == 2


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200000],
                         ids=["not-utf8", "too-deep"])
@pytest.mark.parametrize("flag", ["--group", "--cocycle", "--bh", "--rep"])
def test_unreadable_json_is_input_error(files, capsys, tmp_path, flag, content):
    bad = tmp_path / "unreadable.json"
    bad.write_bytes(content)
    tube = ["--group", files["z2.json"], "--cocycle", files["semion.json"]]
    argv = {"--group": ["verify-group", "--group", str(bad)],
            "--cocycle": ["verify-cocycle", *tube[:2], "--cocycle", str(bad)],
            "--bh": ["bh", "check", "--bh", str(bad)],
            "--rep": ["rep", "induce", *tube, "--rep", str(bad)]}[flag]
    code, report = run(capsys, argv)
    assert code == 2
    assert report["status"] == "error" and "not valid JSON" in report["error"]


@pytest.mark.parametrize("missing", [False, True], ids=["directory", "missing"])
@pytest.mark.parametrize("flag", ["--group", "--cocycle", "--bh", "--rep"])
def test_directory_input_is_input_error(files, capsys, tmp_path, flag,
                                        missing):
    # every input is hashed before any handler runs
    path = str(tmp_path / "no_such.json" if missing else tmp_path)
    tube = ["--group", files["z2.json"], "--cocycle", files["semion.json"]]
    argv = {"--group": ["verify-group", "--group", path],
            "--cocycle": ["verify-cocycle", *tube[:2], "--cocycle", path],
            "--bh": ["bh", "check", "--bh", path],
            "--rep": ["rep", "induce", *tube, "--rep", path]}[flag]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    report = json.loads(out)
    assert report["status"] == "error"
    assert report["error"].startswith(f"cannot read {path}: ")


def test_bad_group_in_pipeline_is_input_error(files, capsys):
    code, report = run(capsys, ["tube", "simples", "--group",
                                files["bad_group.json"],
                                "--cocycle", files["semion.json"]])
    assert code == 2


def test_tube_check_runs_all(files, capsys):
    code, report = run(capsys, ["tube", "check", "--group", files["z2.json"],
                                "--cocycle", files["semion.json"]])
    assert code == 0
    names = {c["name"] for c in report["checks"]}
    assert {"cocycle3", "associativity", "star-laws", "trace-symmetry",
            "gram", "unit", "star-isomorphism"} <= names


def test_tube_build_dump(files, capsys):
    code, report = run(capsys, ["tube", "build", "--group", files["z2.json"],
                                "--cocycle", files["semion.json"]])
    assert code == 0
    dump = report["data"]["structure_constants"]
    assert len(dump) == 8
    entry = next(d for d in dump
                 if d["left"] == [1, 1, 1] and d["right"] == [1, 1, 1])
    assert entry["scalar"] == "1/2" and entry["result"] == [1, 0, 1]


def test_bh_check_and_simples(files, capsys):
    code, report = run(capsys, ["bh", "check", "--bh", files["bh_s3.json"]])
    assert code == 0
    assert "op-inverse" in report["data"]["passing_conventions"]
    code, report = run(capsys, ["bh", "simples", "--bh", files["bh_s3.json"]])
    assert code == 0
    assert report["data"]["total"] == 8
    assert report["data"]["cutdown_total"] == 8
    assert report["data"]["simple_objects"] == 3


def test_bh_build_five_tuple_labels(files, capsys):
    code, report = run(capsys, ["bh", "check", "--bh", files["bh_s3.json"]])
    assert code == 0
    code, report = run(capsys, ["bh", "build", "--bh", files["bh_s3.json"]])
    assert code == 0
    entry = report["data"]["structure_constants"][0]
    assert len(entry["left"]) == 5 and len(entry["right"]) == 5


def test_gauge_fix(files, capsys):
    code, report = run(capsys, ["gauge-fix", "--bh", files["bh_s3.json"]])
    assert code == 0
    assert "cocycle" in report["data"] and "cochain" in report["data"]


def test_gauge_fix_order_three_coboundary(tmp_path, capsys):
    """The Klein four-group with w = d2(f) mod 3, f 1 at (1, 2) and 0
    elsewhere: a relation's value and its inverse differ mod 3."""
    G = direct_product(cyclic_group(2), cyclic_group(2))
    f = [int((a, b) == (1, 2)) for a in range(4) for b in range(4)]
    omega = Cocycle3(G, coboundary2(G, f, 3), 3)
    path = tmp_path / "setup.json"
    path.write_text(json.dumps({"group": group_to_json(G), "H": [0, 1],
                                "K": [0, 2], "cocycle": cocycle_to_json(omega)}))
    code, report = run(capsys, ["gauge-fix", "--bh", str(path)])
    assert code == 0
    assert all(c["status"] == "pass" for c in report["checks"])


@pytest.mark.parametrize("scale", [3, 6])
@pytest.mark.parametrize("make", [bh_setup_s3, bh_setup_v4, bh_setup_z2z4],
                         ids=["s3", "v4", "z2z4"])
def test_bh_check_needs_no_gauge_fix(tmp_path, capsys, make, scale):
    """A setup shifted by a coboundary at a modulus above 2 is valid but
    not gauge-fixed; the box star, derived from the box product, passes
    the box checks all the same."""
    setup = bh_coboundary_shift(make(), scale, 0)
    path = tmp_path / "setup.json"
    path.write_text(json.dumps({
        "group": group_to_json(setup.group), "H": list(setup.H),
        "K": list(setup.K), "cocycle": cocycle_to_json(setup.omega)}))
    code, report = run(capsys, ["bh", "check", "--bh", str(path)])
    assert code == 0 and report["status"] == "ok"
    box = {c["name"]: c["status"] for c in report["checks"]
           if c["name"].startswith("box-")}
    assert box == dict.fromkeys(
        ["box-star-involution", "box-unitarity", "box-associativity"], "pass")


def test_normalize_roundtrip(files, capsys):
    code, report = run(capsys, ["normalize", "--group", files["z2.json"],
                                "--cocycle", files["semion.json"]])
    assert code == 0
    assert report["data"]["cocycle"] == json.loads(
        open(files["semion.json"]).read())


def test_rep_induce_and_decompose(files, capsys):
    code, report = run(capsys, ["rep", "induce", "--group", files["z2.json"],
                                "--cocycle", files["semion.json"],
                                "--class-index", "1"])
    assert code == 0
    assert report["data"]["representation"]["dimension"] == 2
    code, report = run(capsys, ["rep", "decompose", "--group",
                                files["s3.json"],
                                "--cocycle", files["s3_trivial.json"]])
    assert code == 0
    assert report["data"]["distinct"] == 8


def test_rep_induce_reads_a_representation_file(files, capsys):
    tube = ["--group", files["z2.json"], "--cocycle", files["semion.json"],
            "--class-index", "1"]
    code, report = run(capsys, ["rep", "induce", "--rep",
                                files["rep_semion.json"]] + tube)
    assert code == 0
    assert report["data"]["representation"]["dimension"] == 1
    pi_check, block_map = report["checks"][1:]
    assert pi_check["name"] == "representation"
    coverage, residual = pi_check["detail"].split(", max residual ")
    assert coverage == "tol 1e-09, 4 products + 2 stars"
    assert float(residual) < 1e-15  # root(1, 4) is i to within 6.2e-17
    assert (block_map["name"], block_map["detail"]) == (
        "star-isomorphism", "exhaustive 8")
    # the regular representation, read from a file, induces what the
    # default run induces
    code, report = run(capsys, ["rep", "induce", "--rep",
                                files["rep_regular.json"]] + tube)
    _, default = run(capsys, ["rep", "induce"] + tube)
    assert code == 0
    assert report["data"]["representation"]["dimension"] == 2
    assert report["data"] == default["data"]


@pytest.mark.parametrize("rep_file, witness", [
    ("rep_not_a_rep.json", [1, 1]), ("rep_nan.json", [0, 1])])
def test_rep_induce_non_representation_fails_with_witness(files, capsys,
                                                          rep_file, witness):
    code, report = run(capsys, ["rep", "induce", "--group", files["z2.json"],
                                "--cocycle", files["semion.json"],
                                "--class-index", "1", "--rep", files[rep_file]])
    assert code == 1 and report["status"] == "fail"
    assert "representation" not in report["data"]
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert [(c["name"], c["witness"]) for c in failed] == [("rep-mult", witness)]
    assert failed[0]["detail"].startswith("tol 1e-09, residual ")


def test_rep_induce_default_checks_are_exact(files, capsys):
    code, report = run(capsys, ["rep", "induce", "--group", files["d8.json"],
                                "--cocycle", files["d8_sign.json"],
                                "--class-index", "1"])
    assert code == 0
    assert [(c["name"], c["detail"]) for c in report["checks"]] == [
        ("cocycle3", "certified 4096 by last argument over 2 generators, "
                     "exhaustive 1024"),
        ("representation", "exact: associativity exhaustive 64, star-laws "
         "certified 16 by associativity, unit, inverses exhaustive 4, "
         "trace-symmetry certified 16 by associativity, unit, inverses "
         "exhaustive 4, gram certified 16 by associativity, unit, inverses "
         "exhaustive 4, unit exhaustive 4"),
        ("star-isomorphism", "exhaustive 512")]


@pytest.mark.parametrize("argv, unread", [
    (["rep", "induce", "--group", "z2.json", "--cocycle", "semion.json",
      "--bh", "not_json.json"], "--bh"),
    (["rep", "decompose", "--group", "z2.json", "--cocycle", "semion.json",
      "--rep", "not_json.json"], "--rep"),
    (["rep", "decompose", "--bh", "bh_s3.json", "--group", "z2.json"],
     "--group"),
    (["rep", "decompose", "--group", "z2.json", "--cocycle", "semion.json",
      "--class-index", "99"], "--class-index")],
    ids=["induce-bh", "decompose-rep", "decompose-bh-group",
         "decompose-class-index"])
def test_rep_rejects_an_input_it_does_not_read(files, capsys, argv, unread):
    code, report = run(capsys, [files.get(a, a) for a in argv])
    assert code == 2 and report["status"] == "error"
    assert report["error"] == f"rep {argv[1]} does not read {unread}"


def test_reports_are_deterministic(files, capsys):
    argv = ["tube", "simples", "--group", files["s3.json"],
            "--cocycle", files["s3_trivial.json"], "--seed", "3"]
    _, r1 = run(capsys, argv)
    _, r2 = run(capsys, argv)
    r1.pop("timing")
    r2.pop("timing")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_seed_and_max_exhaustive_echoed(files, capsys):
    code, report = run(capsys, ["verify-cocycle", "--group", files["z2.json"],
                                "--cocycle", files["semion.json"],
                                "--seed", "9", "--max-exhaustive", "12"])
    assert report["seed"] == 9 and report["max_exhaustive"] == 12


def test_env_default_max_exhaustive(files, capsys, monkeypatch):
    monkeypatch.setenv("TUBEALG_MAX_EXHAUSTIVE", "10")
    code, report = run(capsys, ["verify-cocycle", "--group", files["z2.json"],
                                "--cocycle", files["semion.json"]])
    assert report["max_exhaustive"] == 24
    # the flag is the one way to set the bound
    code, report = run(capsys, ["verify-cocycle", "--group", files["z2.json"],
                                "--cocycle", files["semion.json"],
                                "--max-exhaustive", "5"])
    assert report["max_exhaustive"] == 5


# -- malformed input: exit 2 with exactly one JSON report ----------------------


@pytest.mark.parametrize("extra, message", [
    ([], "required: --cocycle"),
    (["--cocycle", "c.json", "--seed", "x"], "invalid int value: 'x'"),
    (["--cocycle", "c.json", "--samples", "3"], "unrecognized arguments"),
], ids=["missing-flag", "bad-integer", "unknown-flag"])
def test_argument_error_is_input_error(files, capsys, extra, message):
    code = main(["tube", "check", "--group", files["z2.json"]] + extra)
    out, err = capsys.readouterr()
    [line] = out.splitlines()            # exactly one report
    report = json.loads(line)
    assert code == 2 and report["status"] == "error"
    assert message in report["error"] and "usage:" in err
    assert report["seed"] is None and report["max_exhaustive"] is None
    assert report["checks"] == [] and report["inputs"] == {}


def test_unknown_subcommand_is_input_error(capsys):
    for argv in (["frobnicate"], []):
        code = main(argv)
        [line] = capsys.readouterr().out.splitlines()
        report = json.loads(line)
        assert code == 2 and report["status"] == "error"
        assert report["command"] == ["tubealg"] + argv
        assert "invalid choice" in report["error"] if argv else \
            "required: command" in report["error"]


def test_help_keeps_argparse_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tube", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tubealg tube")


@pytest.mark.parametrize("cocycle", ["semion_half.json", "semion_fraction.json"])
def test_non_integer_cocycle_value_is_input_error(files, capsys, cocycle):
    code, report = run(capsys, ["verify-cocycle", "--group", files["z2.json"],
                                "--cocycle", files[cocycle]])
    assert code == 2
    assert report["status"] == "error" and "integer" in report["error"]


@pytest.mark.parametrize("argv", [["bh", "check"], ["gauge-fix"],
                                  ["rep", "decompose"]])
def test_subgroup_element_out_of_range_is_input_error(files, capsys, argv):
    code, report = run(capsys, argv + ["--bh",
                                       files["bh_s3_h_out_of_range.json"]])
    assert code == 2
    assert report["status"] == "error" and "H lists" in report["error"]
    assert report["witness"] == [6]


@pytest.mark.parametrize("argv", [["bh", "check"], ["bh", "simples"],
                                  ["bh", "build"], ["gauge-fix"],
                                  ["rep", "decompose"]])
@pytest.mark.parametrize("field, entries, repeated", [
    ("H", [0, 1, 0], (0,)), ("K", [0, 2, 5, 2], (2,))], ids=["H", "K"])
def test_repeated_subgroup_element_is_input_error(tmp_path, capsys, argv,
                                                  field, entries, repeated):
    s3, _ = symmetric_group(3)
    obj = {"group": group_to_json(s3), "H": [0, 1], "K": [0, 2, 5],
           "cocycle": cocycle_to_json(trivial_cocycle(s3))}
    obj[field] = entries
    with pytest.raises(BHSetupError) as exc:
        bh_setup_from_json(obj)
    assert exc.value.witness == repeated
    setup = tmp_path / "setup.json"
    setup.write_text(json.dumps(obj))
    code, report = run(capsys, argv + ["--bh", str(setup)])
    assert code == 2
    assert report["status"] == "error"
    assert f"{field} lists distinct elements" in report["error"]
    assert report["witness"] == list(repeated)


@pytest.mark.parametrize("payload", [5, [1, 2]], ids=["int", "list"])
@pytest.mark.parametrize("argv", [["bh", "check"], ["gauge-fix"],
                                  ["rep", "decompose"]])
def test_non_object_group_in_setup_is_input_error(tmp_path, capsys, argv,
                                                  payload):
    setup = tmp_path / "setup.json"
    setup.write_text(json.dumps({"group": payload, "H": [0], "K": [0],
                                 "cocycle": {"modulus": 1, "values": [0]}}))
    code, report = run(capsys, argv + ["--bh", str(setup)])
    assert code == 2
    assert report["status"] == "error" and "group payload" in report["error"]


def test_rep_decompose_without_input_is_input_error(files, capsys):
    code, report = run(capsys, ["rep", "decompose"])
    assert code == 2
    assert report["status"] == "error" and "--bh" in report["error"]


def test_rep_decompose_invalid_setup_fails_with_witness(files, capsys):
    code, report = run(capsys, ["rep", "decompose", "--bh",
                                files["bh_s3_h_not_subgroup.json"]])
    assert code == 1
    check = report["checks"][0]
    assert check["name"] == "setup:H is a subgroup"
    assert check["status"] == "fail" and check["witness"] == [0, 2]


@pytest.mark.parametrize("command", [["rep", "decompose"], ["bh", "simples"]])
def test_large_modulus_splits_at_the_twists_conductor(tmp_path, capsys,
                                                       command):
    # the twists are reduced to |S|-th roots of unity before the splitting
    # prime is chosen, so the file's modulus, which trial division cannot
    # reach, does not enter it
    s3, _ = symmetric_group(3)
    order = 2 if command[0] == "rep" else 6

    def write(name, obj):
        (tmp_path / name).write_text(json.dumps(obj))
        return str(tmp_path / name)

    z2 = write("z2.json", group_to_json(cyclic_group(2)))
    reports = []
    for modulus in (2, 10 ** 20):
        zero = {"modulus": modulus, "values": [0] * order ** 3}
        inputs = (["--group", z2, "--cocycle", write("zero.json", zero)]
                  if command[0] == "rep" else
                  ["--bh", write("bh.json", {"group": group_to_json(s3),
                                             "H": [0, 1], "K": [0, 2, 5],
                                             "cocycle": zero})])
        start = time.perf_counter()
        code, report = run(capsys, command + inputs)
        assert code == 0 and time.perf_counter() - start < 1.0
        reports.append(report)
    small, large = reports
    assert large["data"] == small["data"]
    assert [c["detail"] for c in large["checks"][1:]] == \
        [c["detail"] for c in small["checks"][1:]]


@pytest.mark.parametrize("argv", [["tube", "check"], ["tube", "build"],
                                  ["tube", "simples"], ["rep", "induce"],
                                  ["rep", "decompose"]])
def test_non_normalized_cocycle_is_input_error(files, capsys, argv):
    code, report = run(capsys, argv + ["--group", files["z2.json"], "--cocycle",
                                       files["semion_unnormalized.json"]])
    assert code == 2
    assert report["status"] == "error"
    assert "tubealg normalize" in report["error"]


@pytest.mark.parametrize("rep_file", [
    "rep_missing.json", "rep_shape.json", "rep_entry.json",
    "rep_dimension_float.json", "rep_dimension_string.json",
    "rep_dimension_bool.json", "rep_matrix_bool.json",
    "rep_matrix_huge_int.json"])
def test_malformed_representation_is_input_error(files, capsys, rep_file):
    code, report = run(capsys, ["rep", "induce", "--group", files["z2.json"],
                                "--cocycle", files["semion.json"],
                                "--class-index", "1",
                                "--rep", files[rep_file]])
    assert code == 2
    assert report["status"] == "error"
    assert "malformed representation" in report["error"]


# -- a broken 3-cocycle law: one failed check with its quadruple, exit 1 ----------


def _tube_inputs(tmp_path, group, omega) -> list:
    """``--group`` and ``--cocycle`` naming files that hold ``group`` and
    ``omega``."""
    (tmp_path / "group.json").write_text(json.dumps(group_to_json(group)))
    (tmp_path / "cocycle.json").write_text(json.dumps(cocycle_to_json(omega)))
    return ["--group", str(tmp_path / "group.json"),
            "--cocycle", str(tmp_path / "cocycle.json")]


def _bh_inputs(tmp_path, setup: BHSetup) -> list:
    """``--bh`` naming a file that holds ``setup``."""
    (tmp_path / "setup.json").write_text(json.dumps({
        "group": group_to_json(setup.group), "H": list(setup.H),
        "K": list(setup.K), "cocycle": cocycle_to_json(setup.omega)}))
    return ["--bh", str(tmp_path / "setup.json")]


def _broken_law(omega: Cocycle3) -> Cocycle3:
    """``omega`` with its last value moved, so the 3-cocycle law fails."""
    values = list(omega.values)
    values[-1] += 1
    return Cocycle3(omega.group, values, omega.modulus)


@pytest.mark.parametrize("argv, source", [
    *((argv, "group") for argv in (
        ["verify-cocycle"], ["normalize"], ["tube", "build"], ["tube", "check"],
        ["tube", "simples"], ["rep", "decompose"], ["rep", "induce"])),
    *((argv, "bh") for argv in (
        ["gauge-fix"], ["bh", "build"], ["bh", "check"], ["bh", "simples"],
        ["rep", "decompose"]))],
    ids=lambda x: "-".join(x) if isinstance(x, list) else x)
def test_broken_cocycle_law_is_one_failed_check(tmp_path, capsys, argv, source):
    if source == "group":  # D8 with the sign cocycle
        group, omega = dihedral8_sign()
        omega = _broken_law(omega)
        inputs, name = _tube_inputs(tmp_path, group, omega), "cocycle3"
    else:  # the Z2xZ2 setup
        setup = bh_setup_v4()
        omega = _broken_law(setup.omega)
        inputs = _bh_inputs(tmp_path, setup._replace(omega=omega))
        name = "setup:cocycle is a 3-cocycle"
    witness = phase.cocycle3_check(omega).witness
    assert witness is not None and len(witness) == 4
    code, report = run(capsys, argv + inputs)  # one JSON object on stdout
    assert code == 1 and report["status"] == "fail"
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert [(c["name"], c["witness"]) for c in failed] == [(name, list(witness))]


# -- JSON booleans are not integers ---------------------------------------------


@pytest.mark.parametrize("group, witness", [("bool_entry.json", [0, 1]),
                                            ("bool_order.json", None),
                                            ("bool_degree.json", None),
                                            ("bool_generator.json", [0])])
def test_boolean_group_data_fails_verify_group(files, capsys, group, witness):
    code, report = run(capsys, ["verify-group", "--group", files[group]])
    assert code == 1
    check = report["checks"][0]
    assert check["name"] == "group-table" and check["status"] == "fail"
    assert check["witness"] == witness


@pytest.mark.parametrize("group, cocycle", [
    ("bool_entry.json", "semion.json"), ("bool_order.json", "z1_trivial.json"),
    ("bool_degree.json", "z1_trivial.json"),
    ("bool_generator.json", "semion.json")])
def test_boolean_group_data_is_input_error(files, capsys, group, cocycle):
    code, report = run(capsys, ["tube", "check", "--group", files[group],
                                "--cocycle", files[cocycle]])
    assert code == 2
    assert report["status"] == "error"


# -- one product table per run ---------------------------------------------------


@pytest.mark.parametrize("argv, calls", [
    (["tube", "check", "--group", "d8.json", "--cocycle", "d8_sign.json"], 576),
    (["bh", "check", "--bh", "bh_s3.json"], 1872)])
def test_check_builds_the_product_table_once(files, capsys, monkeypatch,
                                             argv, calls):
    # D8: 8^3 composable pairs; the S3 annular algebra: 144 labels times
    # the 12 labels into each source object; and one product m^-1 m per
    # label for its star, 64 and 144
    counted = []
    original = TubeShapedAlgebra.mult_basis

    def counting(self, left, right):
        counted.append(1)
        return original(self, left, right)

    monkeypatch.setattr(TubeShapedAlgebra, "mult_basis", counting)
    code, report = run(capsys, [files.get(a, a) for a in argv])
    assert code == 0
    assert len(counted) == calls


@pytest.mark.parametrize("argv, details", [
    (["normalize", "--group", "z2.json", "--cocycle", "semion.json"],
     ["certified 16 by last argument over 1 generator, exhaustive 8"] * 2),
    (["gauge-fix", "--bh", "bh_s3.json"],
     ["certified 1296 by last argument over 2 generators, exhaustive 432"])])
def test_cocycle_law_runs_once_per_table(files, capsys, monkeypatch, argv,
                                         details):
    # the input table and the output table, each checked once; the output's
    # check is the one reported
    checked = []
    original = phase.cocycle3_check

    def counting(omega):
        checked.append(omega)
        return original(omega)

    monkeypatch.setattr(phase, "cocycle3_check", counting)
    code, report = run(capsys, [files.get(a, a) for a in argv])
    assert code == 0
    assert len(checked) == 2 == len({id(omega) for omega in checked})
    assert [c["detail"] for c in report["checks"]
            if c["name"] == "cocycle3"] == details


def test_bh_simples_checks_each_twist_once(files, capsys, monkeypatch):
    # S3 with H a transposition: 3 class twists and the endomorphism
    # twists of the 2 double-coset weights, each law walked once, as the
    # associativity of its twisted group algebra
    checked = []
    original = rep.TwistedGroupAlgebra.check_associativity

    def counting(self, *args, **kwargs):
        checked.append(self.twist)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(rep.TwistedGroupAlgebra, "check_associativity",
                        counting)
    code, report = run(capsys, ["bh", "simples", "--bh", files["bh_s3.json"]])
    assert code == 0
    assert len(checked) == 5
    assert len({id(tw) for tw in checked}) == len(checked)


def _count_walks(monkeypatch) -> tuple[list, list]:
    """Record each associativity walk's algebra and each triple it visits."""
    walks, triples = [], []
    walk, items = staralg.MonomialStarAlgebra._associativity_walk, \
        staralg.MonomialStarAlgebra._triples

    def counted_walk(self):
        walks.append(self)
        return walk(self)

    def counted_items(self, comp):
        for item in items(self, comp):
            triples.append(item)
            yield item

    monkeypatch.setattr(staralg.MonomialStarAlgebra, "_associativity_walk",
                        counted_walk)
    monkeypatch.setattr(staralg.MonomialStarAlgebra, "_triples", counted_items)
    return walks, triples


def test_rep_induce_walks_each_class_twist_once(files, capsys, monkeypatch):
    # the block map reads every class's twisted algebra, so the block sum
    # walks the 5 class twists' laws, 8^3 + 8^3 + 3 * 4^3 = 1216 triples,
    # once each; the exact representation check of class 1 reuses its
    # algebra's result
    walks, triples = _count_walks(monkeypatch)
    code, report = run(capsys, ["rep", "induce", "--group", files["d8.json"],
                                "--cocycle", files["d8_sign.json"],
                                "--class-index", "1"])
    assert code == 0
    assert {type(alg) for alg in walks} == {rep.TwistedGroupAlgebra}
    assert len(walks) == 5 and len(triples) == 1216
    assert len({id(alg.twist) for alg in walks}) == 5


def test_tube_check_walks_only_the_class_twists(files, capsys, monkeypatch):
    # D8 sign: the 5 class twists' laws, 8^3 + 8^3 + 3 * 4^3 = 1216
    # triples, certify the tube algebra's 4096 composable triples
    walks, triples = _count_walks(monkeypatch)
    code, report = run(capsys, ["tube", "check", "--group", files["d8.json"],
                                "--cocycle", files["d8_sign.json"]])
    assert code == 0
    assert {type(alg) for alg in walks} == {rep.TwistedGroupAlgebra}
    assert len(walks) == 5 and len(triples) == 1216
    check = next(c for c in report["checks"] if c["name"] == "associativity")
    assert check["detail"] == ("certified 4096 by block map exhaustive 512, "
                               "class twists exhaustive 1216")


@pytest.mark.parametrize("kind, argv, stars", [
    ("tube", ["--group", "d8.json", "--cocycle", "d8_sign.json"], 64),
    ("bh", ["--bh", "bh_s3.json"], 2 * 144)])
def test_check_walks_the_block_map_once_per_convention(files, capsys,
                                                       monkeypatch, kind,
                                                       argv, stars):
    # the certificate and the star-isomorphism entries share one pass per
    # convention: op-inverse (tube), op-inverse and plain-conjugate (bh),
    # each starring every basis image once
    calls = []
    star = tube_diag.BlockAlgebra.star

    def counted(self, x):
        calls.append(x)
        return star(self, x)

    monkeypatch.setattr(tube_diag.BlockAlgebra, "star", counted)
    code, report = run(capsys, [kind, "check", *(files.get(a, a) for a in argv)])
    assert code == 0
    assert len(calls) == stars


# -- labels on the wire -------------------------------------------------------------


def test_failing_witness_holds_dump_labels(files, capsys, monkeypatch):
    tube = ["--group", files["d8.json"], "--cocycle", files["d8_sign.json"]]
    code, built = run(capsys, ["tube", "build"] + tube)
    assert code == 0
    labels = {tuple(entry[side])
              for entry in built["data"]["structure_constants"]
              for side in ("left", "right", "result")}
    corrupt_last_twist(monkeypatch)
    code, report = run(capsys, ["tube", "check"] + tube)
    assert code == 1
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["phi-mult"]
    witness = failed[0]["witness"]
    assert len(witness) == 2
    for label in witness:
        assert isinstance(label, list) and len(label) == 3
        assert all(type(x) is int for x in label)
        assert tuple(label) in labels


# -- a cocycle's modulus is data, not meaning ------------------------------------


def _scaled(payload: dict, k: int) -> dict:
    return {"modulus": k * payload["modulus"],
            "values": [k * v for v in payload["values"]]}


def _report_without_timing_and_inputs(capsys, argv) -> str:
    code, report = run(capsys, argv)
    report.pop("timing")
    report.pop("inputs")  # the file hashes differ by construction
    return f"{code} " + json.dumps(report, sort_keys=True, indent=2)


@pytest.mark.parametrize("argv", [["tube", "check"], ["tube", "build"],
                                  ["tube", "simples"], ["rep", "decompose"],
                                  ["rep", "induce", "--class-index", "1"],
                                  ["normalize"]])
def test_scaled_cocycle_modulus_gives_the_same_tube_report(tmp_path, capsys,
                                                           monkeypatch, argv):
    group, omega = dihedral8_sign()
    payload = cocycle_to_json(omega)
    reports = []
    for name, cocycle in (("plain", payload), ("scaled", _scaled(payload, 3))):
        (tmp_path / name).mkdir()
        (tmp_path / name / "group.json").write_text(
            json.dumps(group_to_json(group)))
        (tmp_path / name / "cocycle.json").write_text(json.dumps(cocycle))
        monkeypatch.chdir(tmp_path / name)
        reports.append(_report_without_timing_and_inputs(
            capsys, argv + ["--group", "group.json", "--cocycle", "cocycle.json"]))
    assert reports[0].startswith("0 ")
    assert reports[0] == reports[1]


def test_scaled_cocycle_modulus_gives_the_same_gauge_fix_report(tmp_path, capsys,
                                                                monkeypatch):
    setup = bh_setup_v4()
    payload = cocycle_to_json(setup.omega)
    reports = []
    for name, cocycle in (("plain", payload), ("scaled", _scaled(payload, 3))):
        (tmp_path / name).mkdir()
        (tmp_path / name / "setup.json").write_text(json.dumps({
            "group": group_to_json(setup.group), "H": list(setup.H),
            "K": list(setup.K), "cocycle": cocycle}))
        monkeypatch.chdir(tmp_path / name)
        reports.append(_report_without_timing_and_inputs(
            capsys, ["gauge-fix", "--bh", "setup.json"]))
    assert reports[0].startswith("0 ")
    assert reports[0] == reports[1]


# -- one algebra per simple count --------------------------------------------------


@pytest.mark.parametrize("argv, methods", [
    (["tube", "simples", "--group", "z3z3.json", "--cocycle",
      "z3z3_pairing.json"], [(TubeAlgebra, "__init__")]),
    (["bh", "simples", "--bh", "bh_s3.json"],
     [(AnnularAlgebra, "__init__"), (BHSetup, "validate")])],
    ids=["tube", "bh"])
def test_simples_build_the_algebra_once(files, capsys, monkeypatch, argv,
                                        methods):
    counted = {}
    for owner, attr in methods:
        def counting(self, *args, _key=(owner, attr),
                     _original=getattr(owner, attr), **kwargs):
            counted[_key] = counted.get(_key, 0) + 1
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(owner, attr, counting)
    code, report = run(capsys, [files.get(a, a) for a in argv])
    assert code == 0
    assert counted == {m: 1 for m in methods}


def test_corrupted_endomorphism_phase_fails_bh_check(tmp_path, capsys,
                                                     monkeypatch):
    # shift the phase of End(0)'s identity box after its other box
    setup = bh_setup_v4()
    ident, other = annular_bh.BoxAlgebra(setup).box_basis(0, 0)
    original = annular_bh.BoxAlgebra.box_compose

    def shifted(self, outer, inner):
        ph, out = original(self, outer, inner)
        return (ph + ((outer, inner) == (ident, other))) % self.modulus, out
    monkeypatch.setattr(annular_bh.BoxAlgebra, "box_compose", shifted)
    code, report = run(capsys, ["bh", "check", *_bh_inputs(tmp_path, setup)])
    assert code == 1
    assert "box-associativity" in {c["name"] for c in report["checks"]
                                   if c["status"] == "fail"}
    # the same phase is End(0)'s twist, whose 2-cocycle law now fails
    assert not cocycle2_check(annular_bh.end_xg_algebra(setup, 0)).ok


# -- coverage of the CLI's own checks ----------------------------------------------


@pytest.mark.parametrize("argv, name, status, detail", [
    # S3 (order 6) with H of order 2 and K of order 3
    (["gauge-fix", "--bh", "bh_s3.json"], "normalized", "pass",
     "exhaustive 91"),  # 6^3 - 5^3 entries with an identity argument
    (["gauge-fix", "--bh", "bh_s3.json"], "restriction-H", "pass",
     "exhaustive 8"),
    (["gauge-fix", "--bh", "bh_s3.json"], "restriction-K", "pass",
     "exhaustive 27"),
    (["gauge-fix", "--bh", "bh_s3.json"], "coboundary-relation", "pass",
     "exhaustive 216"),
    # every composable box triple, the weight endomorphisms' included
    (["bh", "check", "--bh", "bh_s3.json"], "box-associativity", "pass",
     "exhaustive 384"),
    (["bh", "simples", "--bh", "bh_s3.json"], "cutdown-count-agreement",
     "pass", "full 8, cut-down 8"),
    (["verify-cocycle", "--group", "z2.json", "--cocycle", "semion.json"],
     "normalized", "pass", "exhaustive 7"),
    (["normalize", "--group", "z2.json", "--cocycle", "semion.json"],
     "normalized", "pass", "exhaustive 7"),
    # a failing check stops at its first bad entry, so claims no coverage
    (["verify-cocycle", "--group", "z2.json", "--cocycle",
      "semion_unnormalized.json"], "normalized", "fail", ""),
    *((["bh", action, "--bh", "bh_s3.json"], "setup", "pass",
       "order 6, |H| 2, |K| 3, restrictions exhaustive 8 + 27")
      for action in ("check", "simples", "build")),
    (["rep", "decompose", "--group", "z2.json", "--cocycle", "semion.json"],
     "decompose", "pass", "4 distinct blocks = center dimension 4, sum D^2 = 4 "
     'labels, block map exhaustive 8, attempt 1 of 5, seeds ["0:0"]'),
    # the star-isomorphism check runs at every order: 8^3 products
    (["tube", "check", "--group", "d8.json", "--cocycle", "d8_sign.json",
      "--max-exhaustive", "0"], "star-isomorphism", "pass", "exhaustive 512")])
def test_cli_checks_report_their_coverage(files, capsys, argv, name, status,
                                          detail):
    code, report = run(capsys, [files.get(a, a) for a in argv])
    check = next(c for c in report["checks"] if c["name"] == name)
    assert (check["status"], check["detail"]) == (status, detail)


@pytest.mark.parametrize("kind, detail", [
    ("tube", "certified 104976 by block map exhaustive 5832, "
             "class twists exhaustive 8756"),
    ("bh", "certified 104976 by block map exhaustive 5832, "
           "class twists exhaustive 251")])
def test_max_exhaustive_changes_no_check(tmp_path, capsys, kind, detail):
    # 18^4 = 104976 composable triples either way: the tube algebra of the
    # order-18 dihedral group, and the annular algebra of S3 with H = A3
    # (|H| |G| = 18); below, at and above 18 every triple is certified
    if kind == "tube":
        inputs = _tube_inputs(tmp_path, *dihedral_sign(9))
    else:
        s3 = bh_setup_s3()  # H a transposition, K = A3: swap them
        inputs = _bh_inputs(tmp_path, s3._replace(H=s3.K, K=s3.H))
    checks = []
    for bound in ("0", "17", "18"):
        code, report = run(capsys, [kind, "check", *inputs,
                                    "--max-exhaustive", bound])
        assert code == 0 and report["max_exhaustive"] == int(bound)
        checks.append(report["checks"])
    assert checks[0] == checks[1] == checks[2]
    check = next(c for c in checks[0] if c["name"] == "associativity")
    assert check["detail"] == detail


def _force_central_elements(monkeypatch, element, times=None) -> None:
    """Make the first ``times`` (default: every) attempts of
    ``projective_dimensions`` use ``element(n)`` in place of a random
    central element of an n-dimensional twisted algebra."""
    calls = []
    real = splitting._central_element

    def forced(mult, *args):
        calls.append(1)
        if times is None or len(calls) <= times:
            return element(len(mult))
        return real(mult, *args)

    monkeypatch.setattr(splitting, "_central_element", forced)


def _unit(n: int) -> list:
    return [1] + [0] * (n - 1)


def _last_basis_element(n: int) -> list:
    # in C[S3] the last element, like every nonidentity one, is not central
    return [0] * (n - 1) + [1]


def test_decompose_reports_its_retries(files, capsys, monkeypatch):
    # the unit of the first class's 2-dimensional algebra reads as one
    # block, fewer than its 2; the second seed separates them
    _force_central_elements(monkeypatch, _unit, times=1)
    code, report = run(capsys, ["rep", "decompose", "--group", files["z2.json"],
                                "--cocycle", files["semion.json"],
                                "--seed", "7"])
    assert code == 0 and report["data"]["distinct"] == 4
    check = next(c for c in report["checks"] if c["name"] == "decompose")
    assert check["detail"] == \
        "4 distinct blocks = center dimension 4, sum D^2 = 4 labels, " \
        'block map exhaustive 8, attempt 2 of 5, seeds ["7:0", "7:1"]'


@pytest.mark.parametrize("argv", [
    ["rep", "decompose", "--group", "s3.json", "--cocycle", "s3_trivial.json"],
    ["bh", "simples", "--bh", "bh_s3_all.json"]], ids=["rep", "bh"])
def test_failed_splitting_is_one_failed_check(files, capsys, monkeypatch,
                                              argv):
    # every attempt on C[S3] (the identity class; every weight of H = S3)
    # gets a non-central element, so no seed splits it
    _force_central_elements(monkeypatch, _last_basis_element)
    code, report = run(capsys, [files.get(a, a) for a in argv] + ["--seed", "3"])
    assert code == 1 and report["status"] == "fail" and report["data"] == {}
    seeds = [f"3:{i}" for i in range(5)]
    [check] = report["checks"]
    assert (check["name"], check["status"], check["witness"]) == \
        ("projective-dimensions", "fail", seeds)
    assert f"seeds tried {seeds}" in check["detail"]


def test_decompose_stops_at_a_corrupt_block_map(files, capsys, monkeypatch):
    corrupt_last_twist(monkeypatch)
    code, report = run(capsys, ["rep", "decompose", "--group", files["d8.json"],
                                "--cocycle", files["d8_sign.json"]])
    assert code == 1 and report["status"] == "fail"
    assert "blocks" not in report["data"]
    [check] = report["checks"]
    assert (check["name"], check["status"]) == ("phi-mult", "fail")
    assert len(check["witness"]) == 2
    assert all(len(label) == 3 for label in check["witness"])


# -- numpy only where a subcommand splits numerically ------------------------------


_CHILD = """
import json, sys
watch = json.loads(sys.argv[2])


def loaded():
    return sorted(m for m in watch if m in sys.modules)


runs = [["start", loaded()]]
import tubealg
runs.append(["import tubealg", loaded()])
import tubealg.cli
runs.append(["import tubealg.cli", loaded()])
for step in json.loads(sys.argv[1]):
    if isinstance(step, str):
        exec(step)
        runs.append([step, loaded()])
    else:
        runs.append([step, tubealg.cli.main(step), loaded()])
print(json.dumps(runs), file=sys.stderr)
"""


def _child_runs(argvs: list, watch: list) -> list:
    """In a fresh interpreter: which of ``watch`` are loaded after start,
    ``import tubealg``, ``import tubealg.cli`` and each step: a CLI run
    for an argv, an ``exec`` for a string."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs), json.dumps(watch)],
        env=env, cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


def _exact_argvs(files) -> list:
    group = ["--group", files["z2.json"], "--cocycle", files["semion.json"]]
    bh = ["--bh", files["bh_s3.json"]]
    return [["verify-group", "--group", files["z2.json"]],
            ["verify-cocycle"] + group, ["normalize"] + group,
            ["tube", "check"] + group, ["tube", "build"] + group,
            ["tube", "simples"] + group, ["gauge-fix"] + bh,
            ["bh", "check"] + bh, ["bh", "build"] + bh,
            ["bh", "simples"] + bh]


_PREAMBLE = ["start", "import tubealg", "import tubealg.cli"]


def test_exact_subcommands_never_import_numpy(files):
    exact = _exact_argvs(files) + [
        ["rep", "decompose", "--group", files["z2.json"],
         "--cocycle", files["semion.json"]],
        ["rep", "decompose", "--bh", files["bh_s3.json"]],
        ["rep", "induce", "--group", files["z2.json"],
         "--cocycle", files["semion.json"]]]
    # user-supplied float matrices are checked with numpy
    numerical = ["rep", "induce", "--group", files["z2.json"],
                 "--cocycle", files["semion.json"], "--class-index", "1",
                 "--rep", files["rep_semion.json"]]
    runs = _child_runs(exact + [numerical], ["numpy"])
    assert runs == ([[step, []] for step in _PREAMBLE]
                    + [[a, 0, []] for a in exact]
                    + [[numerical, 0, ["numpy"]]])


# The watched modules each step loads: set-up and the verifiers load
# neither ``rep`` nor ``splitting``, and only the code that splits loads
# ``splitting``.
_TUBE = ["staralg", "tube_diag"]
_BH = ["annular_bh"] + _TUBE
_SPLIT = ["cyclotomic", "splitting"]
_CLOSURES = {
    "set-up": _BH, "verify-group": [], "verify-cocycle": [], "normalize": [],
    "tube check": _TUBE, "tube build": _TUBE,
    "tube simples": ["cyclotomic"] + _TUBE, "gauge-fix": [],
    "bh check": _BH, "bh build": _BH, "bh simples": _BH + _SPLIT,
    "rep induce": ["rep"] + _TUBE, "rep decompose": ["rep"] + _SPLIT + _TUBE,
    "rep decompose --bh": ["rep"] + _SPLIT + _BH}


@pytest.mark.parametrize("step", _CLOSURES)
def test_subcommands_load_only_the_modules_they_read(files, step):
    group = ["--group", files["z2.json"], "--cocycle", files["semion.json"]]
    argvs = {" ".join(a for a in argv[:2] if not a.startswith("-")): argv
             for argv in _exact_argvs(files)}
    argvs.update({"rep induce": ["rep", "induce"] + group,
                  "rep decompose": ["rep", "decompose"] + group,
                  "rep decompose --bh": ["rep", "decompose", "--bh",
                                         files["bh_s3.json"]]})
    watch = [f"tubealg.{m}" for m in ("annular_bh", "cyclotomic", "rep",
                                      "splitting", "staralg", "tube_diag")]
    loaded = sorted(f"tubealg.{m}" for m in _CLOSURES[step])
    todo = ("from tubealg import AnnularAlgebra, TubeAlgebra"
            if step == "set-up" else argvs[step])
    last = [todo, loaded] if step == "set-up" else [todo, 0, loaded]
    assert _child_runs([todo], watch) == [[s, []] for s in _PREAMBLE] + [last]


def test_package_and_exact_subcommands_never_import_dataclasses(files):
    # dataclasses pulls in inspect, ast, dis and tokenize at start-up
    exact = _exact_argvs(files)
    runs = _child_runs(exact, ["dataclasses", "inspect"])
    assert runs == ([[step, []] for step in _PREAMBLE]
                    + [[a, 0, []] for a in exact])


def test_every_public_name_resolves():
    # a stale export entry fails here rather than on a user's first use
    for name in tubealg.__all__:
        assert getattr(tubealg, name) is not None, name


# -- the contract under arbitrary JSON ------------------------------------------


def _fuzz_payloads() -> dict:
    z2 = standard_cyclic_cocycle(2, 1)
    talg = TubeAlgebra(z2.group, z2).block_algebra().algebras[1]
    return {"group": group_to_json(z2.group),
            "cocycle": cocycle_to_json(z2),
            "bh": {"group": {"type": "perm", "degree": 2, "generators": [[1, 0]]},
                   "H": [0, 1], "K": [0],
                   "cocycle": cocycle_to_json(trivial_cocycle(z2.group))},
            "rep": rep.rep_to_json(rep.regular_representation(talg))}


_FUZZ_PAYLOADS = _fuzz_payloads()
_TUBE = ("group", "cocycle")
# every subcommand, with the inputs it reads
_FUZZ_RUNS = [(["verify-group"], ("group",)), (["verify-cocycle"], _TUBE),
              (["normalize"], _TUBE), (["gauge-fix"], ("bh",)),
              *((["tube", a], _TUBE) for a in ("build", "check", "simples")),
              *((["bh", a], ("bh",)) for a in ("build", "check", "simples")),
              (["rep", "induce", "--class-index", "1"], _TUBE + ("rep",)),
              (["rep", "decompose"], _TUBE), (["rep", "decompose"], ("bh",))]
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([2 ** 64, -2 ** 63, 10 ** 40, 10 ** 400, -10 ** 400]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


def _fields(obj, at=()):
    """The path of ``obj`` itself and of every field inside it."""
    yield at
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _fields(value, at + (key,))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for kind, payload in _FUZZ_PAYLOADS.items():
        (d / f"{kind}.json").write_text(json.dumps(payload))
    return d


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_FUZZ_PAYLOADS)), data=st.data())
@example(kind="group", data=None)  # the valid payloads
def test_every_subcommand_keeps_the_contract_on_arbitrary_json(fuzz_dir, kind,
                                                               data):
    """One field of a valid payload (or the whole of it) replaced by any
    JSON: every subcommand exits 0, 1 or 2 with one JSON object on stdout."""
    payload = copy.deepcopy(_FUZZ_PAYLOADS[kind])
    if data is not None:
        at = data.draw(st.sampled_from(list(_fields(payload))), label="field")
        value = data.draw(_ANY_JSON, label="value")
        if not at:
            payload = value
        else:
            parent = payload
            for key in at[:-1]:
                parent = parent[key]
            parent[at[-1]] = value
    path = fuzz_dir / f"{kind}.json"
    path.write_text(json.dumps(payload))
    try:
        for argv, reads in _FUZZ_RUNS:
            if kind not in reads:
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + [a for k in reads for a in
                                    (f"--{k}", str(fuzz_dir / f"{k}.json"))])
            assert code in (0, 1, 2), argv
            assert out.getvalue().count("\n") == 1, argv
            assert isinstance(json.loads(out.getvalue()), dict), argv
    finally:
        path.write_text(json.dumps(_FUZZ_PAYLOADS[kind]))
