"""Seeded inputs and job lists for the benchmark workloads.

Every input is built from public ``tubealg`` constructors and then
relabelled by a permutation of the group elements that fixes the
identity and is drawn from the run's seed.  The relabelling is applied
consistently to the multiplication table, the cocycle table and the
subgroups H and K, so every answer the correctness gate checks (counts,
dimensions, passing conventions) is the same for every seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from tubealg import (group_from_permutations, inflate_cocycle,
                     standard_cyclic_cocycle, subgroup_closure,
                     trivial_cocycle, two_factor_cocycle)
from tubealg.grp import group_to_json
from tubealg.phase import cocycle_to_json

# Pinned so that `tube check` and `bh check` always take the exhaustive
# path on every input below (orders <= 24, annular bases <= 24**2).
MAX_EXHAUSTIVE = 24


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the relabelling-invariant answers it must give."""

    name: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)

    @property
    def subcommand(self) -> str:
        """``tube_check``, ``gauge_fix``, ...: the metric key of this job."""
        words = self.argv[:1] if self.argv[0] == "gauge-fix" else self.argv[:2]
        return "_".join(words).replace("-", "_")


# -- canonical (unrelabelled) inputs -------------------------------------------


def _dihedral_sign(n: int):
    """Dihedral group of order 2n with the sign cocycle inflated from Z/2.

    ``group_from_permutations`` numbers elements breadth-first with the
    first generator (the rotation) at index 1, so the rotation subgroup
    is the closure of element 1 and the sign map is membership in its
    complement.
    """
    rotation = [(i + 1) % n for i in range(n)]
    reflection = [(-i) % n for i in range(n)]
    group = group_from_permutations(n, [rotation, reflection])
    rotations = set(subgroup_closure(group, [1]))
    signs = [0 if g in rotations else 1 for g in group.elements()]
    return group, inflate_cocycle(standard_cyclic_cocycle(2, 1), group, signs)


def _symmetric3_setup():
    """S3 with H a transposition, K a 3-cycle and the trivial cocycle."""
    group = group_from_permutations(3, [[1, 0, 2], [1, 2, 0]])
    return (group, subgroup_closure(group, [1]), subgroup_closure(group, [2]),
            trivial_cocycle(group))


def _two_factor_setup(m: int, n: int, H: tuple, K: tuple):
    group, omega = two_factor_cocycle(m, n, 1)
    return group, H, K, omega


def _cyclic2_setup():
    group = group_from_permutations(2, [[1, 0]])
    return group, (0, 1), (0, 1), trivial_cocycle(group)


def _semion():
    omega = standard_cyclic_cocycle(2, 1)
    return omega.group, omega


TUBE_INPUTS = {
    "d8_sign": lambda: _dihedral_sign(4),
    "z3z3": lambda: two_factor_cocycle(3, 3, 1),
    "z2_semion": _semion,
}

SETUP_INPUTS = {
    "s3_setup": _symmetric3_setup,
    "v4_setup": lambda: _two_factor_setup(2, 2, (0, 2), (0, 1)),
    "z2_setup": _cyclic2_setup,
}


# -- relabelling ---------------------------------------------------------------


def draw_relabelling(order: int, rng: random.Random) -> list[int]:
    """A permutation of ``range(order)`` fixing 0 (the identity)."""
    rest = list(range(1, order))
    rng.shuffle(rest)
    return [0] + rest


def relabel_group(group_json: dict, perm: list[int]) -> dict:
    n = group_json["order"]
    mult = [[0] * n for _ in range(n)]
    for a, row in enumerate(group_json["mult"]):
        for b, ab in enumerate(row):
            mult[perm[a]][perm[b]] = perm[ab]
    out = {"type": "table", "order": n, "mult": mult}
    if "names" in group_json:
        names = [""] * n
        for g, name in enumerate(group_json["names"]):
            names[perm[g]] = name
        out["names"] = names
    return out


def relabel_cocycle(cocycle_json: dict, perm: list[int]) -> dict:
    n = len(perm)
    old = cocycle_json["values"]
    values = [0] * len(old)
    for a in range(n):
        for b in range(n):
            base = (a * n + b) * n
            new_base = (perm[a] * n + perm[b]) * n
            for c in range(n):
                values[new_base + perm[c]] = old[base + c]
    return {"modulus": cocycle_json["modulus"], "values": values}


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def write_inputs(directory: str, seed: int) -> dict[str, str]:
    """Write every input under ``directory``; return name -> file path.

    Tube inputs give ``<name>.group`` and ``<name>.cocycle``; setups
    give ``<name>.setup``.
    """
    paths = {}

    def dump(key: str, obj: dict) -> None:
        path = os.path.join(directory, key.replace(".", "-") + ".json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        paths[key] = path

    for name, build in TUBE_INPUTS.items():
        group, omega = build()
        perm = draw_relabelling(group.order, _rng(name, seed))
        dump(f"{name}.group", relabel_group(group_to_json(group), perm))
        dump(f"{name}.cocycle", relabel_cocycle(cocycle_to_json(omega), perm))
    for name, build in SETUP_INPUTS.items():
        group, H, K, omega = build()
        perm = draw_relabelling(group.order, _rng(name, seed))
        dump(f"{name}.setup", {
            "group": relabel_group(group_to_json(group), perm),
            "H": sorted(perm[h] for h in H),
            "K": sorted(perm[k] for k in K),
            "cocycle": relabel_cocycle(cocycle_to_json(omega), perm)})
    return paths


# -- workloads -----------------------------------------------------------------


def _tube(paths, name):
    return ("--group", paths[f"{name}.group"], "--cocycle", paths[f"{name}.cocycle"])


def _bh(paths, name):
    return ("--bh", paths[f"{name}.setup"])


def _job(label: str, argv: tuple, seed: int, expect: dict | None = None) -> Job:
    common = ("--seed", str(seed), "--max-exhaustive", str(MAX_EXHAUSTIVE))
    return Job(label, tuple(argv) + common, expect or {})


def _bh_jobs(paths, seed, name, labels, simples, products, conventions=None):
    """gauge-fix, bh simples and bh build on one setup, plus bh check
    when ``conventions`` (the passing block-map conventions) is given."""
    setup = _bh(paths, name)
    jobs = [
        _job(f"gauge-fix {name}", ("gauge-fix",) + setup, seed),
        _job(f"bh simples {name}", ("bh", "simples") + setup, seed,
             {"basis_count": labels, "total": simples, "cutdown_total": simples}),
        _job(f"bh build {name}", ("bh", "build") + setup, seed,
             {"basis_count": labels, "structure_constants": products}),
    ]
    if conventions is not None:
        jobs.insert(1, _job(f"bh check {name}", ("bh", "check") + setup, seed,
                            {"basis_count": labels,
                             "passing_conventions": conventions}))
    return jobs


def workload_jobs(workload: str, paths: dict, seed: int) -> list[Job]:
    """The job list of one workload, run in this order by every pass."""
    if workload == "tube-verify":
        d8 = _tube(paths, "d8_sign")
        return [
            _job("tube check d8_sign", ("tube", "check") + d8, seed,
                 {"basis_count": 64}),
            _job("tube build d8_sign", ("tube", "build") + d8, seed,
                 {"basis_count": 64, "structure_constants": 8 ** 3}),
        ]
    if workload == "bh-annular":
        # bh check on S3 (144 labels) takes several seconds; it is checked
        # on the Z2xZ2 setup (64 labels), where both conventions pass.
        return (_bh_jobs(paths, seed, "v4_setup", 64, 16, 512,
                         ["op-inverse", "plain-conjugate"])
                + _bh_jobs(paths, seed, "s3_setup", 144, 8, 1728))
    if workload == "rep-count":
        return [
            _job("rep decompose v4_setup",
                 ("rep", "decompose") + _bh(paths, "v4_setup"), seed,
                 {"distinct": 16, "blocks": [[2, 2]] * 16}),
            _job("tube simples z3z3", ("tube", "simples") + _tube(paths, "z3z3"),
                 seed, {"basis_count": 81, "total": 81}),
            _job("rep induce d8_sign",
                 ("rep", "induce", "--class-index", "1")
                 + _tube(paths, "d8_sign"), seed,
                 {"representation.dimension": 8}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def probe_jobs(paths: dict, seed: int) -> list[Job]:
    """One job of every subcommand on inputs of order 2.

    Traced passes append these, so every layer reports a measured time
    on every workload; together they take about 0.1 s in-process.
    """
    z2 = _tube(paths, "z2_semion")
    z2_setup = _bh(paths, "z2_setup")
    return [
        _job("probe tube check", ("tube", "check") + z2, seed),
        _job("probe tube build", ("tube", "build") + z2, seed),
        _job("probe tube simples", ("tube", "simples") + z2, seed),
        _job("probe gauge-fix", ("gauge-fix",) + z2_setup, seed),
        _job("probe bh check", ("bh", "check") + z2_setup, seed),
        _job("probe bh simples", ("bh", "simples") + z2_setup, seed),
        _job("probe bh build", ("bh", "build") + z2_setup, seed),
        _job("probe rep decompose", ("rep", "decompose") + z2, seed),
        _job("probe rep induce", ("rep", "induce", "--class-index", "1") + z2, seed),
    ]


def setup_specs(jobs: list[Job]) -> list[list[str]]:
    """Distinct inputs of a job list, as ``["tube", group, cocycle]`` or
    ``["bh", setup]`` in first-use order."""
    specs = []
    for job in jobs:
        argv = list(job.argv)
        if "--bh" in argv:
            spec = ["bh", argv[argv.index("--bh") + 1]]
        else:
            spec = ["tube", argv[argv.index("--group") + 1],
                    argv[argv.index("--cocycle") + 1]]
        if spec not in specs:
            specs.append(spec)
    return specs
