"""Command-line surface: exit codes, report shape, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tubealg.annular_bh import AnnularAlgebra
from tubealg import phase
from tubealg.cli import main
from tubealg.coho import BHSetup
from tubealg.grp import group_to_json
from tubealg.phase import (Cocycle3, coboundary2, cocycle_to_json,
                           standard_cyclic_cocycle, trivial_cocycle,
                           two_factor_cocycle)
from tubealg.tube_diag import TubeAlgebra, TubeShapedAlgebra

from conftest import (bh_setup_v4, corrupt_last_twist, dihedral8_sign,
                      symmetric_group)


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
    assert report["max_exhaustive"] == 10
    # the flag wins over the environment
    code, report = run(capsys, ["verify-cocycle", "--group", files["z2.json"],
                                "--cocycle", files["semion.json"],
                                "--max-exhaustive", "5"])
    assert report["max_exhaustive"] == 5


# -- malformed input: exit 2 with exactly one JSON report ----------------------


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


@pytest.mark.parametrize("argv", [["tube", "check"], ["tube", "build"],
                                  ["tube", "simples"], ["rep", "induce"],
                                  ["rep", "decompose"]])
def test_non_normalized_cocycle_is_input_error(files, capsys, argv):
    code, report = run(capsys, argv + ["--group", files["z2.json"], "--cocycle",
                                       files["semion_unnormalized.json"]])
    assert code == 2
    assert report["status"] == "error"
    assert "tubealg normalize" in report["error"]


@pytest.mark.parametrize("rep_file", ["rep_missing.json", "rep_shape.json",
                                      "rep_entry.json"])
def test_malformed_representation_is_input_error(files, capsys, rep_file):
    code, report = run(capsys, ["rep", "induce", "--group", files["z2.json"],
                                "--cocycle", files["semion.json"],
                                "--rep", files[rep_file]])
    assert code == 2
    assert report["status"] == "error"
    assert "malformed representation" in report["error"]


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
    (["tube", "check", "--group", "d8.json", "--cocycle", "d8_sign.json"], 512),
    (["bh", "check", "--bh", "bh_s3.json"], 1728)])
def test_check_builds_the_product_table_once(files, capsys, monkeypatch,
                                             argv, calls):
    # D8: 8^3 composable pairs; the S3 annular algebra: 144 labels times
    # the 12 labels into each source object
    counted = []
    original = TubeShapedAlgebra.mult_basis

    def counting(self, left, right):
        counted.append(1)
        return original(self, left, right)

    monkeypatch.setattr(TubeShapedAlgebra, "mult_basis", counting)
    code, report = run(capsys, [files.get(a, a) for a in argv])
    assert code == 0
    assert len(counted) == calls


def test_bh_simples_checks_each_twist_once(files, capsys, monkeypatch):
    # S3 with H a transposition: 3 class twists and the endomorphism
    # twists of the 2 double-coset weights, each checked once
    checked = []
    original = phase.cocycle2_check

    def counting(tw):
        checked.append(tw)
        return original(tw)

    for name, module in list(sys.modules.items()):
        if name.startswith("tubealg") and hasattr(module, "cocycle2_check"):
            monkeypatch.setattr(module, "cocycle2_check", counting)
    code, report = run(capsys, ["bh", "simples", "--bh", files["bh_s3.json"]])
    assert code == 0
    assert len(checked) == 5
    assert len({id(tw) for tw in checked}) == len(checked)


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
    (["bh", "check", "--bh", "bh_s3.json"], "weight-endomorphism-twists",
     "pass", "exhaustive 6 weights, 20 triples"),  # 2 x 2^3 + 4 x 1^3
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
      for action in ("check", "simples", "build"))])
def test_cli_checks_report_their_coverage(files, capsys, argv, name, status,
                                          detail):
    code, report = run(capsys, [files.get(a, a) for a in argv])
    check = next(c for c in report["checks"] if c["name"] == name)
    assert (check["status"], check["detail"]) == (status, detail)


# -- numpy only where a subcommand splits numerically ------------------------------


_CHILD = """
import json, sys
import tubealg, tubealg.cli
runs = [[None, None, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    runs.append([argv, tubealg.cli.main(argv), "numpy" in sys.modules])
print(json.dumps(runs), file=sys.stderr)
"""


def test_exact_subcommands_never_import_numpy(files):
    group = ["--group", files["z2.json"], "--cocycle", files["semion.json"]]
    exact = [["tube", "check"] + group, ["tube", "build"] + group,
             ["tube", "simples"] + group,
             ["gauge-fix", "--bh", files["bh_s3.json"]],
             ["bh", "check", "--bh", files["bh_s3.json"]],
             ["bh", "build", "--bh", files["bh_s3.json"]]]
    numerical = ["rep", "decompose"] + group
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(exact + [numerical])],
        env=env, cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stderr.splitlines()[-1])
    assert runs == ([[None, None, False]] + [[a, 0, False] for a in exact]
                    + [[numerical, 0, True]])
