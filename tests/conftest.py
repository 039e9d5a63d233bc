"""Shared fixture registry: groups, cocycles, and two-subgroup setups."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

import pytest

from tubealg.coho import BHSetup
from tubealg.grp import (GroupTable, cyclic_group, group_from_permutations,
                         subgroup_closure)
from tubealg.phase import (Cocycle3, coboundary2, inflate_cocycle,
                           product_type_cocycle, standard_cyclic_cocycle,
                           trivial_cocycle, two_factor_cocycle)


def _sign(name: str) -> int:
    """Parity of a permutation from its cycle name, e.g. ``(0 1)(2 3 4)``."""
    if name == "e":
        return 0
    return sum(len(c.split()) - 1 for c in name[1:-1].split(")(")) % 2


def symmetric_group(degree: int) -> tuple[GroupTable, list[int]]:
    """The symmetric group on ``degree`` points, plus the sign map."""
    gens = [tuple([1, 0] + list(range(2, degree))),
            tuple(list(range(1, degree)) + [0])]
    group = group_from_permutations(degree, gens)
    return group, [_sign(group.name(g)) for g in group.elements()]


def dihedral_sign(points: int) -> tuple[GroupTable, Cocycle3]:
    """Dihedral group of order 2 * points with the sign cocycle inflated
    from Z/2; element 1 is the rotation."""
    g = group_from_permutations(points, [
        [(i + 1) % points for i in range(points)],
        [-i % points for i in range(points)]])
    rotations = set(subgroup_closure(g, [1]))
    signs = [0 if x in rotations else 1 for x in g.elements()]
    return g, inflate_cocycle(standard_cyclic_cocycle(2, 1), g, signs)


def dihedral8_sign() -> tuple[GroupTable, Cocycle3]:
    """Order-8 dihedral group with the sign cocycle inflated from Z/2."""
    return dihedral_sign(4)


@dataclass
class Fixture:
    name: str
    group: GroupTable
    omega: Cocycle3


def _build_fixtures() -> dict[str, Fixture]:
    out = {}
    z1 = cyclic_group(1)
    out["z1_trivial"] = Fixture("z1_trivial", z1, trivial_cocycle(z1))
    sem = standard_cyclic_cocycle(2, 1)
    out["z2_semion"] = Fixture("z2_semion", sem.group, sem)
    z3 = cyclic_group(3)
    out["z3_trivial"] = Fixture("z3_trivial", z3, trivial_cocycle(z3))
    z4 = standard_cyclic_cocycle(4, 1)
    out["z4_std"] = Fixture("z4_std", z4.group, z4)
    v4, prod = product_type_cocycle()
    out["v4_product"] = Fixture("v4_product", v4, prod)
    s3, s3_sign = symmetric_group(3)
    out["s3_trivial"] = Fixture("s3_trivial", s3, trivial_cocycle(s3))
    out["s3_sign"] = Fixture(
        "s3_sign", s3, inflate_cocycle(standard_cyclic_cocycle(2, 1), s3, s3_sign))
    return out


_FIXTURES = _build_fixtures()
SMALL_NAMES = ["z1_trivial", "z2_semion", "z3_trivial", "z4_std",
               "v4_product", "s3_trivial", "s3_sign"]


@pytest.fixture(params=SMALL_NAMES)
def small_fixture(request) -> Fixture:
    """All registered fixtures of order at most 8."""
    return _FIXTURES[request.param]


@pytest.fixture
def fixtures() -> dict[str, Fixture]:
    return _FIXTURES


def s4_sign() -> tuple[GroupTable, Cocycle3]:
    """The symmetric group on four points with the sign cocycle inflated
    from Z/2."""
    s4, signs = symmetric_group(4)
    return s4, inflate_cocycle(standard_cyclic_cocycle(2, 1), s4, signs)


@pytest.fixture(scope="session")
def s4_sign_fixture() -> Fixture:
    return Fixture("s4_sign", *s4_sign())


@pytest.fixture
def s3_and_sign():
    return symmetric_group(3)


def bh_setup_s3() -> BHSetup:
    s3, _ = symmetric_group(3)
    H = subgroup_closure(s3, [1])     # a transposition
    K = subgroup_closure(s3, [2])     # a 3-cycle
    return BHSetup(s3, H, K, trivial_cocycle(s3))


def bh_setup_v4() -> BHSetup:
    v4, prod = product_type_cocycle()
    return BHSetup(v4, (0, 2), (0, 1), prod)


def bh_setup_z1() -> BHSetup:
    z1 = cyclic_group(1)
    return BHSetup(z1, (0,), (0,), trivial_cocycle(z1))


def bh_setup_z2z4() -> BHSetup:
    """Order-8 abelian setup whose block twists separate the conventions."""
    G, omega = two_factor_cocycle(2, 4, 1)
    return BHSetup(G, (0, 4), (0, 1, 2, 3), omega)


def coboundary_shift(omega: Cocycle3, scale: int, seed: int,
                     subgroups: tuple = ()) -> Cocycle3:
    """``omega`` times d2(f), at ``scale`` times its modulus, for a 2-cochain
    f drawn from ``seed``.  Given subgroups, f is 0 on each S x S and on
    the identity's row and column, so a setup on them stays valid."""
    G = omega.group
    n, N = G.order, omega.modulus * scale
    rng = random.Random(seed)
    f = [0 if subgroups and (0 in (a, b) or any(a in S and b in S
                                                 for S in subgroups))
         else rng.randrange(N) for a in range(n) for b in range(n)]
    return Cocycle3(G, [d + scale * v for d, v in
                        zip(coboundary2(G, f, N), omega.values)], N)


def bh_coboundary_shift(setup: BHSetup, scale: int, seed: int) -> BHSetup:
    """``setup`` with its cocycle shifted by a coboundary that keeps it valid."""
    return setup._replace(omega=coboundary_shift(
        setup.omega, scale, seed, (setup.H, setup.K)))


@pytest.fixture
def bh_s3() -> BHSetup:
    return bh_setup_s3()


@pytest.fixture
def bh_v4() -> BHSetup:
    return bh_setup_v4()


@pytest.fixture
def bh_z1() -> BHSetup:
    return bh_setup_z1()


def corrupt_last_twist(monkeypatch) -> None:
    """Multiply the last class's block twist by the coboundary d1(c) of
    the 1-cochain c that is 1 on the last element of its subgroup.

    The product still passes the 2-cocycle law, so it reaches the block
    map, whose images it no longer multiplies.  Every block algebra is
    built through ``tube_diag.phi_class``, so this reaches the tube and
    the annular block maps alike.  d1(c) must be nonzero mod the twist's
    modulus.
    """
    from tubealg import tube_diag
    from tubealg.phase import Cocycle2

    original = tube_diag.phi_class

    def corrupted(group, omega, class_data, c):
        tw = original(group, omega, class_data, c)
        if c != class_data.num_classes() - 1:
            return tw
        last = tw.elements[-1]
        c1 = {g: int(g == last) for g in tw.elements}
        d1 = [c1[g] + c1[h] - c1[group.mul(g, h)]
              for g, h in product(tw.elements, repeat=2)]
        assert any(v % tw.modulus for v in d1)
        return Cocycle2(group, tw.elements,
                        [v + d for v, d in zip(tw.values, d1)], tw.modulus)

    monkeypatch.setattr(tube_diag, "phi_class", corrupted)


def force_ambiguous_eigh(monkeypatch, times: int) -> None:
    """Make the first ``times`` eigendecompositions show a gap inside
    ``regular_split_oracle.regular_split``'s ambiguity band (between tol and 1000 tol, scaled),
    so that it retries with its next seed."""
    import numpy as np

    real = np.linalg.eigh
    calls = []

    def eigh(W):
        vals, vecs = real(W)
        calls.append(W)
        if len(calls) <= times:
            vals = vals.copy()
            vals[0] = vals[1] - 1e-7 * max(1.0, float(vals[-1] - vals[0]))
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", eigh)
