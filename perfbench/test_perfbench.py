"""Self-test of the benchmark: its gate must catch wrong answers.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.dirname(os.path.abspath(__file__))]

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import tubealg.cli as cli_module  # noqa: E402


@pytest.fixture
def paths(tmp_path):
    return inputs.write_inputs(str(tmp_path), seed=3)


def _perturbed(paths, tmp_path) -> dict:
    """The tube inputs with one cocycle entry moved off the 3-cocycle law."""
    with open(paths["d8_sign.cocycle"]) as fh:
        cocycle = json.load(fh)
    cocycle["values"][(1 * 8 + 1) * 8 + 1] += 1
    bad = dict(paths)
    bad["d8_sign.cocycle"] = str(tmp_path / "perturbed.json")
    with open(bad["d8_sign.cocycle"], "w") as fh:
        json.dump(cocycle, fh)
    return bad


def test_perturbed_cocycle_fails_tube_check(paths, tmp_path):
    job = inputs.workload_jobs("tube-verify", _perturbed(paths, tmp_path), 3)[0]
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("TUBEALG_MAX_EXHAUSTIVE", None)
    metrics, results, _, _ = run.untraced([job], [], env, str(tmp_path), 0,
                                          perf_counter() + 60)
    assert results[0].failure == "exit code 1"
    assert metrics["wall_s"] > 0


def test_wrong_expected_answer_is_a_failure(paths):
    job = inputs.probe_jobs(paths, 3)[1]          # tube build, 4 labels
    assert run._run_inprocess(job, cli_module).failure is None
    wrong = inputs.Job(job.name, job.argv, {"basis_count": 5})
    assert "basis_count" in run._run_inprocess(wrong, cli_module).failure


def test_info_only_allowed_for_block_map_conventions():
    report = {"checks": [{"name": "star-isomorphism[plain-conjugate]",
                          "status": "info"},
                         {"name": "unit", "status": "info"}], "data": {}}
    assert "unit" in gate.judge(0, json.dumps(report), {})
    assert gate.judge(0, json.dumps(report) * 2, {}) is not None


def _answers(seed, tmp_path):
    """Check statuses and relabelling-invariant data of every small job."""
    paths = inputs.write_inputs(str(tmp_path), seed)
    jobs = (inputs.workload_jobs("bh-annular", paths, seed)
            + inputs.workload_jobs("rep-count", paths, seed)[:1]
            + inputs.probe_jobs(paths, seed))
    out = {}
    for job in jobs:
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            code = cli_module.main(list(job.argv))
        assert gate.judge(code, buf.getvalue(), job.expect) is None, job.name
        report = gate.parse_report(buf.getvalue())
        out[job.name] = ([c["status"] for c in report["checks"]],
                         gate.observe(report))
    return out


def test_small_inputs_give_the_same_answers_for_two_seeds(tmp_path):
    answers = []
    for seed in (1, 7):
        os.makedirs(tmp_path / str(seed))
        answers.append(_answers(seed, tmp_path / str(seed)))
    assert answers[0] == answers[1]


def test_relabelling_fixes_identity_and_permutes():
    import random
    perm = inputs.draw_relabelling(14, random.Random(5))
    assert perm[0] == 0 and sorted(perm) == list(range(14))


def test_probe_reaches_every_layer(paths):
    jobs = inputs.probe_jobs(paths, 3)
    tracer, metrics, results = run._traced_pass(jobs, cli_module)
    assert all(r.failure is None for r in results)
    assert not tracer.missing
    zero = [k for k, v in metrics.items() if v == 0 and k != "trace_overhead_s"]
    assert zero == []


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == spans.metric_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
