"""Report corpus: the CLI's reports on a fixed set of jobs keep their bytes.

Each job runs in process through ``tubealg.cli.main``.  Its report, with
``timing`` dropped and every input path reduced to its basename, is
hashed with SHA-256 and compared with the digest pinned in
``report_corpus.json``.  The jobs are:

- the benchmark's workload and probe jobs (``perfbench/inputs.py``,
  loaded by path) at seeds 1 and 7;
- ``tube check``, ``tube simples`` and ``rep decompose`` on the
  symmetric group S4 with the inflated sign cocycle;
- ``gauge-fix``, ``bh check`` and ``bh simples`` on the Z2xZ2 setup
  shifted by a coboundary at modulus 6, where a gauge-fix relation's
  value and its inverse can differ.

A refactor that changes no result leaves every digest as it is.  To
re-pin after a deliberate change of a report, run this file as a script
from the root of the repository:

    PYTHONPATH=src:tests python tests/test_report_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

from tubealg.cli import main
from tubealg.grp import group_to_json
from tubealg.phase import cocycle_to_json

from conftest import bh_coboundary_shift, bh_setup_v4, s4_sign

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("report_corpus.json")
SEEDS = (1, 7)
SHIFT_SEED = 5


def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _write(directory: Path, name: str, obj: dict) -> str:
    path = directory / name
    path.write_text(json.dumps(obj))
    return str(path)


def corpus_jobs(directory: Path) -> dict[str, list[str]]:
    """Job key -> CLI argv, every input written under ``directory``."""
    inputs = _perfbench_inputs()
    jobs = {}
    for seed in SEEDS:
        seed_dir = directory / f"seed{seed}"
        seed_dir.mkdir()
        paths = inputs.write_inputs(str(seed_dir), seed)
        for job in [j for w in ("tube-verify", "bh-annular", "rep-count")
                    for j in inputs.workload_jobs(w, paths, seed)] \
                + inputs.probe_jobs(paths, seed):
            jobs[f"seed {seed}: {job.name}"] = list(job.argv)
    s4, omega = s4_sign()
    tube = ["--group", _write(directory, "s4.json", group_to_json(s4)),
            "--cocycle", _write(directory, "s4_sign.json",
                                cocycle_to_json(omega))]
    for argv in (["tube", "check"], ["tube", "simples"], ["rep", "decompose"]):
        jobs[" ".join(argv) + " s4_sign"] = argv + tube
    setup = bh_coboundary_shift(bh_setup_v4(), 3, SHIFT_SEED)
    bh = ["--bh", _write(directory, "v4_shift.json", {
        "group": group_to_json(setup.group), "H": list(setup.H),
        "K": list(setup.K), "cocycle": cocycle_to_json(setup.omega)})]
    for argv in (["gauge-fix"], ["bh", "check"], ["bh", "simples"]):
        jobs[" ".join(argv) + " v4_shift"] = argv + bh
    return jobs


def _basenames(obj, prefix: str):
    if isinstance(obj, dict):
        return {_basenames(k, prefix): _basenames(v, prefix)
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_basenames(v, prefix) for v in obj]
    if isinstance(obj, str) and obj.startswith(prefix):
        return os.path.basename(obj)
    return obj


def report_digest(argv: list[str], directory: Path) -> str:
    """SHA-256 of the job's report, without ``timing`` and with the input
    paths under ``directory`` reduced to their basenames."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    report = json.loads(out.getvalue())
    del report["timing"]
    report = _basenames(report, str(directory) + os.sep)
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


def corpus_digests(directory: Path) -> dict[str, str]:
    return {key: report_digest(argv, directory)
            for key, argv in corpus_jobs(directory).items()}


def test_reports_keep_their_digests(tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    jobs = corpus_jobs(tmp_path)
    assert sorted(jobs) == sorted(pinned)
    changed = []
    for key, argv in jobs.items():
        digest = report_digest(argv, tmp_path)
        if digest != pinned[key]:
            shown = _basenames(argv, str(tmp_path) + os.sep)
            changed.append(f"tubealg {' '.join(shown)}: report digest now {digest}")
    assert not changed, "\n".join(changed)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(corpus_digests(Path(tmp)), indent=1,
                                      sort_keys=True) + "\n")
