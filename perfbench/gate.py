"""Correctness gate: decide whether one CLI job gave a right answer."""

from __future__ import annotations

import json


def parse_report(stdout: str):
    """The single JSON object on stdout, or ``None`` if there is not exactly one."""
    decoder = json.JSONDecoder()
    text = stdout.strip()
    try:
        obj, end = decoder.raw_decode(text)
    except json.JSONDecodeError:
        return None
    if text[end:].strip() or not isinstance(obj, dict):
        return None
    return obj


def observe(report: dict) -> dict:
    """The relabelling-invariant answers a report carries."""
    data = report.get("data") or {}
    seen = {}
    for key in ("basis_count", "total", "cutdown_total", "distinct"):
        if key in data:
            seen[key] = data[key]
    if "structure_constants" in data:
        seen["structure_constants"] = len(data["structure_constants"])
    if "passing_conventions" in data:
        seen["passing_conventions"] = sorted(data["passing_conventions"])
    if "blocks" in data:
        seen["blocks"] = sorted([b["dimension"], b["multiplicity"]]
                                for b in data["blocks"])
    if "representation" in data:
        seen["representation.dimension"] = data["representation"]["dimension"]
    return seen


def _check_ok(check: dict) -> bool:
    if check.get("status") == "pass":
        return True
    # bh check reports the convention that does not give a *-isomorphism
    # as "info"; the summary "star-isomorphism" check must still pass.
    return (check.get("status") == "info"
            and str(check.get("name", "")).startswith("star-isomorphism["))


def judge(exit_code, stdout: str, expect: dict) -> str | None:
    """``None`` when the job passed, else the reason it failed."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    report = parse_report(stdout)
    if report is None:
        return "stdout is not exactly one JSON object"
    checks = report.get("checks")
    if not checks:
        return "report has no checks"
    bad = [c.get("name") for c in checks if not _check_ok(c)]
    if bad:
        return f"checks not passing: {bad}"
    seen = observe(report)
    for key, want in expect.items():
        if seen.get(key) != want:
            return f"{key} is {seen.get(key)!r}, expected {want!r}"
    return None
