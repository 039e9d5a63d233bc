"""Command-line surface: verification, construction and decomposition runs.

Every subcommand prints a single JSON report on stdout (sorted keys, so
identical inputs and seed give identical bytes apart from the timing
block) and logs human-readable progress to stderr.  Exit codes: 0 for
success, 1 when a verification fails (the report carries a witness),
2 for malformed input files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import annular_bh, coho, grp, phase, rep, tube_diag

DEFAULT_MAX_EXHAUSTIVE = 24


class InputError(ValueError):
    pass


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{path} must hold a JSON object")
    return obj


def _check_dict(res: phase.CheckResult, not_ok: str = "fail") -> dict:
    """A report entry: ``pass``, else ``not_ok`` (``fail``, ``info``, ``skip``)."""
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


def _skip(name: str, why: str) -> dict:
    return _check_dict(phase.CheckResult(False, name, detail=why), "skip")


def _load_group(path: str) -> grp.GroupTable:
    obj = _load_json(path)
    try:
        return grp.group_from_json(obj)
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: malformed group payload: {exc}") from exc


def _load_cocycle(path: str, group: grp.GroupTable) -> phase.Cocycle3:
    obj = _load_json(path)
    try:
        return phase.cocycle_from_json(group, obj)
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: malformed cocycle payload: {exc}") from exc


def _load_setup(path: str) -> coho.BHSetup:
    obj = _load_json(path)
    try:
        return coho.bh_setup_from_json(obj)
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: malformed setup payload: {exc}") from exc
    except grp.GroupError as exc:
        raise InputError(f"{path}: invalid group in setup: {exc}") from exc
    except coho.BHSetupError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _setup_failure(exc: coho.BHSetupError) -> tuple[list, dict]:
    return [_check_dict(phase.CheckResult(False, f"setup:{exc.invariant}",
                                          exc.witness, str(exc)))], {}


# -- subcommand handlers -------------------------------------------------------


def _cmd_verify_group(args) -> tuple[list, dict]:
    obj = _load_json(args.group)
    try:
        group = grp.group_from_json(obj)
    except grp.GroupError as exc:
        return [_check_dict(phase.CheckResult(False, "group-table",
                                              exc.witness, str(exc)))], {}
    except (KeyError, TypeError) as exc:
        raise InputError(f"{args.group}: malformed group payload: {exc}") from exc
    return ([_check_dict(phase.CheckResult(True, "group-table",
                                           detail=f"order {group.order}"))],
            {"order": group.order})


def _cmd_verify_cocycle(args) -> tuple[list, dict]:
    group = _load_group(args.group)
    omega = _load_cocycle(args.cocycle, group)
    res = phase.cocycle3_check(omega)
    checks = [_check_dict(res)]
    if res.ok:
        checks.append(_normalized(omega))
    return checks, {}


def _cmd_normalize(args) -> tuple[list, dict]:
    group = _load_group(args.group)
    omega = _load_cocycle(args.cocycle, group)
    res = phase.cocycle3_check(omega)
    if not res.ok:
        return [_check_dict(res)], {}
    out = phase.normalize3(omega)
    checks = [_check_dict(res),
              _check_dict(phase.cocycle3_check(out)), _normalized(out)]
    return checks, {"cocycle": phase.cocycle_to_json(out)}


def _cmd_gauge_fix(args) -> tuple[list, dict]:
    setup = _load_setup(args.bh)
    try:
        omega_prime, f = coho.gauge_fix_bh(setup)
    except coho.BHSetupError as exc:
        return _setup_failure(exc)
    G = setup.group
    checks = [_check_dict(phase.cocycle3_check(omega_prime)),
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


def _cmd_tube(args) -> tuple[list, dict]:
    group = _load_group(args.group)
    omega = _load_cocycle(args.cocycle, group)
    res = phase.cocycle3_check(omega)
    if not res.ok:
        return [_check_dict(res)], {}
    alg = tube_diag.TubeAlgebra(group, omega)
    checks = [_check_dict(res)]
    data: dict = {"basis_count": len(alg.labels())}
    if args.action == "build":
        data["structure_constants"] = tube_diag.structure_constants_json(alg)
    elif args.action == "check":
        exhaustive = 0 if group.order <= args.max_exhaustive \
            else args.max_exhaustive ** 4
        for r in alg.check_all(exhaustive, seed=args.seed):
            checks.append(_check_dict(r))
        if group.order <= args.max_exhaustive:
            checks.append(_check_dict(tube_diag.verify_star_iso(alg)))
        else:
            checks.append(_skip("star-isomorphism",
                                f"group order {group.order} above bound"))
    elif args.action == "simples":
        counts = tube_diag.simple_count(alg)
        data["per_class"] = {str(k): v for k, v in counts.per_class.items()}
        data["total"] = counts.total
    return checks, data


def _cmd_bh(args) -> tuple[list, dict]:
    setup = _load_setup(args.bh)
    try:
        alg = annular_bh.AnnularAlgebra(setup)
    except coho.BHSetupError as exc:
        return _setup_failure(exc)
    h, k = len(setup.H), len(setup.K)
    checks = [_check_dict(phase.CheckResult(
        True, "setup", detail=f"order {setup.group.order}, |H| {h}, |K| {k}, "
                              f"restrictions exhaustive {h ** 3} + {k ** 3}"))]
    data: dict = {"basis_count": len(alg.labels())}
    if args.action == "build":
        data["structure_constants"] = tube_diag.structure_constants_json(alg)
    elif args.action == "check":
        size = len(alg.labels())
        exhaustive = 0 if size <= args.max_exhaustive ** 2 \
            else args.max_exhaustive ** 2
        for r in alg.check_all(exhaustive, seed=args.seed):
            checks.append(_check_dict(r))
        for r in annular_bh.box_checks(alg):
            checks.append(_check_dict(r))
        report = annular_bh.bh_verify_star_iso(alg)
        for conv, r in report.results.items():
            checks.append(_check_dict(phase.CheckResult(
                r.ok, f"star-isomorphism[{conv}]", r.witness, r.detail), "info"))
        checks.append(_check_dict(phase.CheckResult(
            report.ok, "star-isomorphism",
            detail=f"passing conventions: {report.passing}")))
        data["passing_conventions"] = report.passing
        bad, triples = [], 0
        weights = setup.group.elements()
        for g in weights:
            tw = annular_bh.end_xg_algebra(setup, g)
            triples += len(tw.elements) ** 3
            if not phase.cocycle2_check(tw).ok:
                bad.append(g)
        checks.append(_check_dict(phase.CheckResult(
            not bad, "weight-endomorphism-twists", tuple(bad) or None,
            f"exhaustive {len(weights)} weights, {triples} triples")))
    elif args.action == "simples":
        report = annular_bh.tube_cutdown(alg, seed=args.seed)
        full = report.simple_count_full
        data["per_class"] = {str(k): v for k, v in full.per_class.items()}
        data["total"] = full.total
        data["cutdown_total"] = report.simple_count_cutdown
        data["cutdown_weights"] = list(report.weights)
        data["corner_dims"] = {rep.label_key(k): v
                               for k, v in report.corner_dims.items()}
        data["simple_objects"] = report.simple_objects
        checks.append(_check_dict(phase.CheckResult(
            report.counts_agree, "cutdown-count-agreement",
            detail=f"full {full.total}, cut-down "
                   f"{report.simple_count_cutdown}")))
    return checks, data


def _cmd_rep(args) -> tuple[list, dict]:
    use_bh = args.action == "decompose" and args.bh
    if not use_bh and not (args.group and args.cocycle):
        raise InputError(f"rep {args.action} needs --group and --cocycle"
                         + (" or --bh" if args.action == "decompose" else ""))
    if args.action == "induce":
        group = _load_group(args.group)
        omega = _load_cocycle(args.cocycle, group)
        alg = tube_diag.TubeAlgebra(group, omega)
        blocks = alg.block_algebra()
        if not 0 <= args.class_index < len(blocks.index_sets):
            raise InputError(f"class index {args.class_index} out of range")
        tw = blocks.twists[args.class_index]
        talg = rep.TwistedGroupAlgebra(group, tw.elements, tw)
        if args.rep:
            obj = _load_json(args.rep)
            try:
                pi = rep.rep_from_json(obj, list(tw.elements))
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"{args.rep}: malformed representation: "
                                 f"{exc}") from exc
        else:
            pi = rep.regular_representation(talg)
        res = pi.check(talg)
        if not res.ok:
            return [_check_dict(res)], {}
        induced = rep.induce(alg, args.class_index, pi)
        checks = [_check_dict(res), _check_dict(induced.check(alg))]
        return checks, {"representation": rep.rep_to_json(induced)}
    if args.action == "decompose":
        if use_bh:
            try:
                alg = annular_bh.AnnularAlgebra(_load_setup(args.bh))
            except coho.BHSetupError as exc:
                return _setup_failure(exc)
        else:
            group = _load_group(args.group)
            omega = _load_cocycle(args.cocycle, group)
            alg = tube_diag.TubeAlgebra(group, omega)
        blocks = rep.decompose(alg, seed=args.seed)
        data = {"blocks": [{"dimension": b.dimension,
                            "multiplicity": b.multiplicity} for b in blocks],
                "distinct": len(blocks)}
        return ([_check_dict(phase.CheckResult(
            True, "decompose", detail=f"{len(blocks)} distinct blocks"))], data)
    raise InputError(f"unknown rep action {args.action}")


# -- driver -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tubealg",
        description="exact annular-algebra toolbox for finite groups "
                    "with 3-cocycle data")
    env_max = int(os.environ.get("TUBEALG_MAX_EXHAUSTIVE",
                                 DEFAULT_MAX_EXHAUSTIVE))

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--max-exhaustive", type=int, default=env_max)

    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify-group", help="validate a group table file")
    sp.add_argument("--group", required=True)
    common(sp)
    sp.set_defaults(handler=_cmd_verify_group, files=lambda a: [a.group])

    sp = sub.add_parser("verify-cocycle", help="check the 3-cocycle law")
    sp.add_argument("--group", required=True)
    sp.add_argument("--cocycle", required=True)
    common(sp)
    sp.set_defaults(handler=_cmd_verify_cocycle,
                    files=lambda a: [a.group, a.cocycle])

    sp = sub.add_parser("normalize", help="kill identity arguments by a coboundary")
    sp.add_argument("--group", required=True)
    sp.add_argument("--cocycle", required=True)
    common(sp)
    sp.set_defaults(handler=_cmd_normalize, files=lambda a: [a.group, a.cocycle])

    sp = sub.add_parser("gauge-fix",
                        help="trivialize (g, l, l^-1) values for l in H or K")
    sp.add_argument("--bh", required=True)
    common(sp)
    sp.set_defaults(handler=_cmd_gauge_fix, files=lambda a: [a.bh])

    for name in ("tube", "bh"):
        sp = sub.add_parser(name, help=f"{name} algebra operations")
        sp.add_argument("action", choices=["build", "check", "simples"])
        if name == "tube":
            sp.add_argument("--group", required=True)
            sp.add_argument("--cocycle", required=True)
            sp.set_defaults(handler=_cmd_tube,
                            files=lambda a: [a.group, a.cocycle])
        else:
            sp.add_argument("--bh", required=True)
            sp.set_defaults(handler=_cmd_bh, files=lambda a: [a.bh])
        common(sp)

    sp = sub.add_parser("rep", help="representation operations")
    sp.add_argument("action", choices=["induce", "decompose"])
    sp.add_argument("--group")
    sp.add_argument("--cocycle")
    sp.add_argument("--bh")
    sp.add_argument("--rep")
    sp.add_argument("--class-index", type=int, default=0)
    common(sp)
    sp.set_defaults(handler=_cmd_rep,
                    files=lambda a: [f for f in (a.group, a.cocycle, a.bh, a.rep)
                                     if f])
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    report = {
        "command": ["tubealg"] + argv,
        "seed": args.seed,
        "max_exhaustive": args.max_exhaustive,
        "inputs": {},
        "checks": [],
        "data": {},
        "status": "ok",
    }
    code = 0
    try:
        for f in args.files(args):
            report["inputs"][f] = _sha256(f) if os.path.exists(f) else None
            if report["inputs"][f] is None:
                raise InputError(f"input file not found: {f}")
        checks, data = args.handler(args)
        report["checks"] = checks
        report["data"] = data
        failed = [c for c in checks if c["status"] == "fail"]
        if failed:
            report["status"] = "fail"
            code = 1
            for c in failed:
                _log(f"FAIL {c['name']}: witness={c['witness']}")
        else:
            for c in checks:
                _log(f"{c['status']} {c['name']}")
    except InputError as exc:
        report["status"] = "error"
        report["error"] = str(exc)
        code = 2
        _log(f"input error: {exc}")
    except (grp.GroupError, phase.CocycleError) as exc:
        report["status"] = "error"
        report["error"] = str(exc)
        report["witness"] = getattr(exc, "witness", None)
        code = 2
        _log(f"input error: {exc}")
    report["timing"] = {"seconds": round(time.monotonic() - t0, 6)}
    print(json.dumps(report, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
