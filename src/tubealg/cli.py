"""Command-line surface: verification, construction and decomposition runs.

Every subcommand prints a single JSON report on stdout (sorted keys, so
identical inputs and seed give identical bytes apart from the timing
block) and logs human-readable progress to stderr.  Exit codes: 0 for
success, 1 when a verification fails (the report carries a witness),
2 for malformed input files or arguments (``--help`` prints its text).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

# tube_diag, annular_bh, staralg, rep and splitting are imported where they
# are read, so a process loads only what its subcommand needs
from . import coho, grp, phase

INPUTS = ("group", "cocycle", "bh", "rep")  # hashed into the report in this order


class InputError(ValueError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _sha256(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:  # missing or a directory, say: as _load reports it
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load(path: str, what: str, parse, errors: dict | None = None):
    """``parse`` of the JSON object in ``path``, every fault an InputError.

    A KeyError or TypeError from ``parse`` is a malformed ``what``; an
    exception of a type in ``errors`` is reported after that type's
    prefix, with its witness.  Any other exception passes through.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, or too deep
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{path} must hold a JSON object")
    errors = dict.fromkeys((KeyError, TypeError), f"malformed {what}: ") \
        | (errors or {})
    try:
        return parse(obj)
    except tuple(errors) as exc:
        prefix = next(p for t, p in errors.items() if isinstance(exc, t))
        raise InputError(f"{path}: {prefix}{exc}",
                         getattr(exc, "witness", None)) from exc


def _cocycle(args) -> phase.Cocycle3:
    group = _load(args.group, "group payload", grp.group_from_json)
    return _load(args.cocycle, "cocycle payload",
                 lambda obj: phase.cocycle_from_json(group, obj))


def _setup(args) -> coho.BHSetup:
    return _load(args.bh, "setup payload", coho.bh_setup_from_json,
                 {grp.GroupError: "invalid group in setup: ",
                  coho.BHSetupError: ""})


def _check_dict(res: phase.CheckResult, not_ok: str = "fail") -> dict:
    """A report entry: ``pass``, else ``not_ok`` (``fail`` or ``info``)."""
    return {"name": res.name, "status": "pass" if res.ok else not_ok,
            "witness": res.witness, "detail": res.detail}


def _exhaustive(name: str, ok: bool, count: int, witness=None) -> dict:
    """A check that visits all ``count`` cases unless it stops at a witness."""
    return _check_dict(phase.CheckResult(ok, name, witness,
                                         f"exhaustive {count}" if ok else ""))


def _normalized(omega: phase.Cocycle3) -> dict:
    n = omega.group.order  # n^3 - (n - 1)^3 entries have an identity argument
    return _exhaustive("normalized", phase.is_normalized(omega),
                       n ** 3 - (n - 1) ** 3)


def _setup_failure(exc: coho.BHSetupError) -> phase.CheckResult:
    return phase.CheckResult(False, f"setup:{exc.invariant}", exc.witness,
                             str(exc))


def _build(args, annular: bool) -> tuple[phase.CheckResult, object]:
    """The input's check and its algebra, or the failed check and None:
    the tube algebra after the ``cocycle3`` check, or the annular algebra
    after the ``setup`` check, whose failure names the broken invariant."""
    if not annular:
        from . import tube_diag
        omega = _cocycle(args)
        res = phase.cocycle3_check(omega)
        return res, tube_diag.TubeAlgebra(omega.group, omega) if res.ok else None
    from . import annular_bh
    setup = _setup(args)
    try:
        alg = annular_bh.AnnularAlgebra(setup)
    except coho.BHSetupError as exc:
        return _setup_failure(exc), None
    h, k = len(setup.H), len(setup.K)
    return phase.CheckResult(
        True, "setup", detail=f"order {setup.group.order}, |H| {h}, |K| {k}, "
                              f"restrictions exhaustive {h ** 3} + {k ** 3}"), alg


# -- subcommand handlers -------------------------------------------------------


def _cmd_verify_group(args) -> tuple[list, dict]:
    try:
        group = _load(args.group, "group payload", grp.group_from_json)
    except grp.GroupError as exc:
        return [_check_dict(phase.CheckResult(False, "group-table",
                                              exc.witness, str(exc)))], {}
    return ([_check_dict(phase.CheckResult(True, "group-table",
                                           detail=f"order {group.order}"))],
            {"order": group.order})


def _cmd_verify_cocycle(args) -> tuple[list, dict]:
    omega = _cocycle(args)
    res = phase.cocycle3_check(omega)
    checks = [_check_dict(res)]
    if res.ok:
        checks.append(_normalized(omega))
    return checks, {}


def _cmd_normalize(args) -> tuple[list, dict]:
    omega = _cocycle(args)
    res = phase.cocycle3_check(omega)
    if not res.ok:
        return [_check_dict(res)], {}
    out = phase.normalize3(omega)
    checks = [_check_dict(res), _check_dict(out.ensure_valid()),
              _normalized(out)]
    return checks, {"cocycle": phase.cocycle_to_json(out)}


def _cmd_gauge_fix(args) -> tuple[list, dict]:
    setup = _setup(args)
    try:
        omega_prime, f = coho.gauge_fix_bh(setup)
    except coho.BHSetupError as exc:
        return [_check_dict(_setup_failure(exc))], {}
    G = setup.group
    checks = [_check_dict(omega_prime.ensure_valid()),
              _normalized(omega_prime)]
    for name, sub in (("restriction-H", setup.H), ("restriction-K", setup.K)):
        w = phase.restrict_trivial_on(omega_prime, sub)
        checks.append(_exhaustive(name, w is None, len(sub) ** 3, w))
    checks.append(_check_dict(
        coho.gl_relations_check(G, setup.H, setup.K, omega_prime)))
    N = setup.omega.modulus
    d2f = phase.coboundary2(G, f, N)
    coherent = not any((d + w - w2) % N for d, w, w2 in zip(
        d2f, setup.omega.values, omega_prime.values))
    checks.append(_exhaustive("coboundary-relation", coherent, len(d2f)))
    data = {"cocycle": phase.cocycle_to_json(omega_prime),
            "cochain": phase.table_to_json(f, N)}
    return checks, data


def _algebra(args, annular: bool) -> tuple[object, list, dict]:
    """The algebra of ``tube`` or ``bh`` and the report entries they share:
    the input check, the basis count, the ``build`` dump and the ``check``
    basis laws, exhaustive or certified at every order."""
    res, alg = _build(args, annular)
    checks, data = [_check_dict(res)], {}
    if alg is not None:
        data["basis_count"] = len(alg.labels())
        if args.action == "build":
            from . import tube_diag
            data["structure_constants"] = tube_diag.structure_constants_json(alg)
        elif args.action == "check":
            checks += [_check_dict(r) for r in alg.check_all()]
    return alg, checks, data


def _cmd_tube(args) -> tuple[list, dict]:
    from . import tube_diag
    alg, checks, data = _algebra(args, annular=False)
    if alg is not None and args.action == "check":
        checks.append(_check_dict(tube_diag.verify_star_iso(alg)))
    elif alg is not None and args.action == "simples":
        counts = tube_diag.simple_count(alg)
        data["per_class"] = {str(k): v for k, v in counts.per_class.items()}
        data["total"] = counts.total
    return checks, data


def _cmd_bh(args) -> tuple[list, dict]:
    from . import annular_bh, staralg
    alg, checks, data = _algebra(args, annular=True)
    if alg is not None and args.action == "check":
        checks += [_check_dict(r) for r in annular_bh.box_checks(alg)]
        report = annular_bh.bh_verify_star_iso(alg)
        for conv, r in report.results.items():
            checks.append(_check_dict(phase.CheckResult(
                r.ok, f"star-isomorphism[{conv}]", r.witness, r.detail), "info"))
        checks.append(_check_dict(phase.CheckResult(
            report.ok, "star-isomorphism",
            detail=f"passing conventions: {report.passing}")))
        data["passing_conventions"] = report.passing
    elif alg is not None and args.action == "simples":
        report = annular_bh.tube_cutdown(alg, seed=args.seed)
        full = report.simple_count_full
        data["per_class"] = {str(k): v for k, v in full.per_class.items()}
        data["total"] = full.total
        data["cutdown_total"] = report.simple_count_cutdown
        data["cutdown_weights"] = list(report.weights)
        data["corner_dims"] = {staralg.label_key(k): v
                               for k, v in report.corner_dims.items()}
        data["simple_objects"] = report.simple_objects
        checks.append(_check_dict(phase.CheckResult(
            report.counts_agree, "cutdown-count-agreement",
            detail=f"full {full.total}, cut-down "
                   f"{report.simple_count_cutdown}")))
    return checks, data


def _cmd_rep(args) -> tuple[list, dict]:
    from . import rep, tube_diag
    annular = args.action == "decompose" and bool(args.bh)
    if not annular and not (args.group and args.cocycle):
        raise InputError(f"rep {args.action} needs --group and --cocycle"
                         + (" or --bh" if args.action == "decompose" else ""))
    reads = {"bh"} if annular else {"group", "cocycle"} | (
        {"rep"} if args.action == "induce" else set())
    unread = [f"--{k}" for k in INPUTS if getattr(args, k) and k not in reads]
    if args.action == "decompose" and args.class_index is not None:
        unread.append("--class-index")
    if unread:
        raise InputError(f"rep {args.action} does not read {', '.join(unread)}")
    res, alg = _build(args, annular)
    checks = [_check_dict(res)]
    if alg is None:
        return checks, {}
    if args.action == "induce":
        blocks, index = alg.block_algebra(), args.class_index or 0
        if not 0 <= index < len(blocks.index_sets):
            raise InputError(f"class index {index} out of range")
        talg = blocks.algebras[index]
        if args.rep:
            pi = _load(args.rep, "representation",
                       lambda obj: rep.rep_from_json(obj, list(talg.labels())),
                       {ValueError: "malformed representation: "})
        else:
            pi = rep.regular_representation(talg)
        # the induced Pi = (E tensor pi) o phi: the checks of pi and phi certify it
        checks += [_check_dict(pi.check(talg)),
                   _check_dict(tube_diag.verify_star_iso(alg))]
        if any(c["status"] == "fail" for c in checks):
            return checks, {}
        induced = rep.induce(alg, index, pi)
        return checks, {"representation": rep.rep_to_json(induced)}
    blocks = rep.decompose(alg, seed=args.seed)
    from .splitting import MAX_ATTEMPTS
    data = {"blocks": [{"dimension": b.dimension,
                        "multiplicity": b.multiplicity} for b in blocks],
            "distinct": len(blocks)}
    detail = (f"{blocks.detail}, attempt {len(blocks.seeds)} of "
              f"{MAX_ATTEMPTS}, seeds {json.dumps(blocks.seeds)}")
    checks.append(_check_dict(phase.CheckResult(True, "decompose",
                                                detail=detail)))
    return checks, data


# -- driver -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line gets a report too
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="tubealg",
        description="exact annular-algebra toolbox for finite groups "
                    "with 3-cocycle data")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--max-exhaustive", type=int, default=24,
                        help="echoed in the report; no check reads it")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, help, inputs, actions=None, required=True):
        sp = sub.add_parser(name, parents=[common], help=help)
        if actions:
            sp.add_argument("action", choices=actions)
        for flag in inputs:
            sp.add_argument(flag, required=required)
        sp.set_defaults(handler=handler)
        return sp

    tube_inputs = ["--group", "--cocycle"]
    add("verify-group", _cmd_verify_group, "validate a group table file",
        ["--group"])
    add("verify-cocycle", _cmd_verify_cocycle, "check the 3-cocycle law",
        tube_inputs)
    add("normalize", _cmd_normalize, "kill identity arguments by a coboundary",
        tube_inputs)
    add("gauge-fix", _cmd_gauge_fix,
        "trivialize (g, l, l^-1) values for l in H or K", ["--bh"])
    actions = ["build", "check", "simples"]
    add("tube", _cmd_tube, "tube algebra operations", tube_inputs, actions)
    add("bh", _cmd_bh, "bh algebra operations", ["--bh"], actions)
    sp = add("rep", _cmd_rep, "representation operations",
             tube_inputs + ["--bh", "--rep"], ["induce", "decompose"],
             required=False)
    sp.add_argument("--class-index", type=int, help="rep induce (default 0)")
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    t0 = time.monotonic()
    report = {"command": ["tubealg"] + argv, "seed": None,
              "max_exhaustive": None, "inputs": {},
              "checks": [], "data": {}, "status": "ok"}
    code = 0
    try:
        args = build_parser().parse_args(argv)
        report.update(seed=args.seed, max_exhaustive=args.max_exhaustive)
        for f in filter(None, (getattr(args, k, None) for k in INPUTS)):
            report["inputs"][f] = _sha256(f)
        report["checks"], report["data"] = args.handler(args)
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        if failed:
            report["status"] = "fail"
            code = 1
            for c in failed:
                _log(f"FAIL {c['name']}: witness={c['witness']}")
        else:
            for c in report["checks"]:
                _log(f"{c['status']} {c['name']}")
    except phase.DecompositionError as exc:
        report["checks"] = [_check_dict(phase.CheckResult(
            False, exc.check, exc.witness, str(exc)))]
        report["status"] = "fail"
        code = 1
        _log(f"FAIL {exc.check}: witness={exc.witness}")
    except (InputError, grp.GroupError, phase.CocycleError) as exc:
        report["status"] = "error"
        report["error"] = str(exc)
        report["witness"] = exc.witness
        code = 2
        _log(f"input error: {exc}")
    report["timing"] = {"seconds": round(time.monotonic() - t0, 6)}
    print(json.dumps(report, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
