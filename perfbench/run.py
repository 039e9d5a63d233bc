"""Benchmark of the tubealg CLI: one closed-loop client, one job at a time.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload tube-verify --seed 1 --seconds 10 --trace 0

Inputs are generated from ``--seed`` (see ``inputs.py``) and every job's
answer goes through the correctness gate (``gate.py``).  With
``--trace 0`` each job is a ``python -m tubealg.cli`` subprocess, and the
run reports the end-to-end metrics: set-up time, then passes over the
workload's job list until ``--seconds`` have elapsed.  With ``--trace 1``
the same jobs (plus a tiny probe of every subcommand) run in-process
through ``tubealg.cli.main``, once plain and once under the span recorder
(``spans.py``), and the run reports the per-layer metrics.

The last stdout line is the result object; the line before it holds the
provenance record and the per-job times.  Exits 2 without a result when
the working directory has no ``src/tubealg``.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from time import perf_counter

import gate
import spans

WORKLOADS = ("tube-verify", "bh-annular", "rep-count")
SETUP_REPEATS = 5
# Every run must print its result within 180 s; jobs not started by
# this point are counted as failed.
DEADLINE_S = 165.0
OUT_DIR = ".perfbench_out"
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class JobResult:
    name: str
    subcommand: str
    seconds: float
    rss_mb: float
    stdout_bytes: int
    failure: str | None


def _cap_blas_threads(nproc: int) -> int:
    """Pin the BLAS thread setting for this process and its children."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    asked = [os.environ.get(n, "") for n in names]
    asked = [int(a) for a in asked if a.isdigit() and int(a) > 0]
    threads = min(asked[0] if asked else nproc, nproc)
    for n in names:
        os.environ[n] = str(threads)
    return threads


def _calibrate() -> float:
    """Time of a fixed pure-Python loop: recorded, never used to rescale."""
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str | None:
    """HEAD of a git checkout read from its files, or None outside one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# -- untraced: subprocess jobs ------------------------------------------------


def _run_child(job, env: dict, workdir: str, deadline: float) -> JobResult:
    out_path = os.path.join(workdir, "job.out")
    err_path = os.path.join(workdir, "job.err")
    with open(out_path, "w+") as out, open(err_path, "w+") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "tubealg.cli", *job.argv],
                                stdout=out, stderr=err, env=env, cwd=workdir)
        timer = threading.Timer(max(deadline - start, 0.1), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
        failure = _judge(job, proc.returncode, stdout)
        if failure:
            err.seek(0)
            sys.stderr.write(err.read()[-2000:])
    return JobResult(job.name, job.subcommand, seconds, usage.ru_maxrss / 1024,
                     len(stdout.encode()), failure)


def _judge(job, code, stdout: str) -> str | None:
    failure = gate.judge(code, stdout, job.expect)
    if failure:
        print(f"FAILED {job.name}: {failure}", file=sys.stderr)
    return failure


def _skipped(job) -> JobResult:
    print(f"FAILED {job.name}: not started before the run deadline", file=sys.stderr)
    return JobResult(job.name, job.subcommand, 0.0, 0.0, 0, "deadline")


def _measure_setup(specs, env, deadline) -> float | None:
    """One fresh set-up process; its time, or ``None`` if it failed."""
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_child.py"), json.dumps(specs)],
            env=env, capture_output=True, text=True,
            timeout=max(deadline - perf_counter(), 0.1))
        return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
    except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError,
            KeyError) as exc:
        print(f"FAILED set-up: {exc!r}", file=sys.stderr)
        return None


def untraced(jobs, specs, env, workdir, seconds, deadline):
    """The job list round-robin for ``seconds``, set-up repeats spread over it.

    After one full pass, a job starts only if its previous time still
    fits in ``seconds``.  ``wall_s`` sums each job's median time over the
    job list.  Set-up is measured ``SETUP_REPEATS`` times, one at the
    start of a pass every ``seconds / SETUP_REPEATS``, and reported as
    the median.
    """
    setups: list[float | None] = []
    runs: list[list[JobResult]] = [[] for _ in jobs]

    def set_up():
        setups.append(_measure_setup(specs, env, deadline))

    start = perf_counter()
    for i in itertools.cycle(range(len(jobs))):
        now = perf_counter()
        if runs[i] and (now - start + runs[i][-1].seconds > seconds or now >= deadline):
            break
        if (i == 0 and specs and len(setups) < SETUP_REPEATS
                and now - start >= len(setups) * seconds / SETUP_REPEATS):
            set_up()
        runs[i].append(_run_child(jobs[i], env, workdir, deadline)
                       if now < deadline else _skipped(jobs[i]))
    while specs and len(setups) < SETUP_REPEATS:
        set_up()
    done = [[r for r in rs if r.failure != "deadline"] for rs in runs]
    measured = [t for t in setups if t is not None]
    metrics = {
        "wall_s": sum(statistics.median(r.seconds for r in rs)
                      for rs in done if rs),
        "setup_s": statistics.median(measured) if measured else 0.0,
        "peak_rss_mb": max((r.rss_mb for rs in done for r in rs), default=0.0),
    }
    return metrics, [r for rs in runs for r in rs], len(setups), setups.count(None)


# -- traced: in-process jobs --------------------------------------------------


def _run_inprocess(job, cli_module) -> JobResult:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_module.main(list(job.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed job; keep running the rest
        code = None
        traceback.print_exc()
    seconds = perf_counter() - start
    stdout = out.getvalue()
    return JobResult(job.name, job.subcommand, seconds, 0.0, len(stdout.encode()),
                     _judge(job, code, stdout))


def _traced_pass(jobs, cli_module):
    """Run each job plain and under a fresh tracer, back to back.

    Pairing per job keeps host-speed drift out of the overhead; the
    order within a pair alternates so neither side always runs cold.
    """
    tracer = spans.Tracer()
    results, overhead = [], 0.0
    for index, job in enumerate(jobs):
        pair = {}
        for side in (("plain", "traced") if index % 2 == 0 else ("traced", "plain")):
            if side == "traced":
                tracer.job = index
                tracer.install()
            try:
                pair[side] = _run_inprocess(job, cli_module)
            finally:
                tracer.uninstall()
        overhead += pair["traced"].seconds - pair["plain"].seconds
        results += [pair["plain"], pair["traced"]]
    for label in sorted(set(tracer.missing)):
        print(f"trace: no target for {label}", file=sys.stderr)
    metrics = tracer.layer_metrics(dict(enumerate(job.subcommand for job in jobs)))
    metrics["cli.report_mb"] = sum(r.stdout_bytes for r in results[1::2]) / 1e6
    metrics["trace_overhead_s"] = overhead
    return tracer, metrics, results


def traced(jobs, seconds, trace_path, deadline):
    import tubealg.cli as cli_module
    samples, results = [], []
    start = perf_counter()
    last = 0.0
    while not samples or (perf_counter() - start + last <= seconds
                          and perf_counter() + last < deadline):
        began = perf_counter()
        tracer, metrics, done = _traced_pass(jobs, cli_module)
        last = perf_counter() - began
        samples.append(metrics)
        results += done
    tracer.dump(trace_path)
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    return metrics, results


# -- entry point --------------------------------------------------------------


def _units() -> dict[str, str]:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tubealg", "cli.py")):
        print(f"no tubealg source under {src}: run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    threads = _cap_blas_threads(nproc)
    os.environ.pop("TUBEALG_MAX_EXHAUSTIVE", None)
    env = dict(os.environ, PYTHONPATH=src)
    sys.path[:0] = [src, HERE]

    import numpy
    import tubealg
    if not os.path.abspath(tubealg.__file__).startswith(src + os.sep):
        print(f"imported tubealg from {tubealg.__file__}, not {src}", file=sys.stderr)
        return 2
    import inputs

    calibration = [_calibrate()]
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(root, OUT_DIR))
    try:
        paths = inputs.write_inputs(workdir, args.seed)
        jobs = inputs.workload_jobs(args.workload, paths, args.seed)
        extra_attempts = extra_failed = 0
        if args.trace:
            trace_path = os.path.join(root, OUT_DIR,
                                      f"trace-{args.workload}-{args.seed}.json")
            metrics, results = traced(jobs + inputs.probe_jobs(paths, args.seed),
                                      args.seconds, trace_path, deadline)
        else:
            metrics, results, extra_attempts, extra_failed = untraced(
                jobs, inputs.setup_specs(jobs), env, workdir, args.seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calibration.append(_calibrate())

    units = _units()
    subcommand_s: dict[str, float] = {}
    for r in results:
        subcommand_s[r.subcommand] = subcommand_s.get(r.subcommand, 0.0) + r.seconds
    failed = sum(r.failure is not None for r in results) + extra_failed
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": nproc, "cpu": _cpu_model(), "blas_threads": threads,
        "commit": _git_commit(root), "calibration_s": calibration,
    }
    print(json.dumps({"provenance": provenance, "subcommand_s": subcommand_s,
                      "jobs": [asdict(r) for r in results]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results) + extra_attempts,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
