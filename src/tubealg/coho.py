"""Derived 2-cocycles, the conjugation-transport cochain, and gauge fixing.

From a 3-cocycle ``w`` on G, each element ``a`` receives a 2-cocycle on
its centralizer::

    phi_a(g, h) = w(a, g, h)^-1 * w(g, a, h) * w(g, h, a)^-1

and each triple ``(a, x, y)`` receives a transport cochain
``gamma[a, x, y]: G_a -> S^1`` (an explicit eight-factor product of
``w``-values) satisfying, for all ``g, h`` in the centralizer of ``a``::

    w(xax^-1, xgy^-1, yhz^-1)^-1 * w(xgy^-1, yay^-1, yhz^-1)
                                 * w(xgy^-1, yhz^-1, zaz^-1)^-1
      = gamma[a,x,y](g) * gamma[a,y,z](h) * gamma[a,x,z](gh)^-1 * phi_a(g, h)

These scalars are exactly what the block isomorphisms of the tube and
annular algebras are built from, so this module also ships exhaustive /
sampled checkers for the identity.

The second half implements a gauge fix for a group generated by two
subgroups H and K: given a normalized cocycle that is trivial on H^3 and
on K^3, a coboundary is constructed (by choosing representatives of
explicit orbits in G x G) so that the corrected cocycle additionally
kills every triple of the shapes (g, l, l^-1) and (l^-1, l, g) for
l in H or K.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .grp import GroupTable, centralizer, is_subgroup, subgroup_closure, group_from_json
from .phase import (CheckResult, Cocycle2, Cocycle3, cocycle_from_json,
                    coboundary2, is_normalized, restrict_trivial_on)


class BHSetupError(ValueError):
    """A two-subgroup setup violating one of its invariants."""

    def __init__(self, invariant: str, witness=None):
        super().__init__(f"setup invariant violated: {invariant}")
        self.invariant = invariant
        self.witness = witness


def phi_a(group: GroupTable, omega: Cocycle3, a: int) -> Cocycle2:
    """The centralizer 2-cocycle of ``a`` derived from ``omega``."""
    omega.ensure_valid()
    els = centralizer(group, a)
    values = [omega(g, a, h) - omega(a, g, h) - omega(g, h, a)
              for g in els for h in els]
    return Cocycle2(group, els, values, omega.modulus)


def phi_class(group: GroupTable, omega: Cocycle3, class_data, c: int) -> Cocycle2:
    """The block twist on the centralizer of the class representative.

    phi_C(s, t) = conj(phi_{g_C}(t^-1, s^-1)); this opposite-inverse
    twist is the one under which the tube-algebra block map is
    multiplicative.
    """
    gc = class_data.reps[c]
    base = phi_a(group, omega, gc)
    els = base.elements
    values = [-base(group.inverse(t), group.inverse(s))
              for s in els for t in els]
    return Cocycle2(group, els, values, base.modulus)


def phi_class_plain_conjugate(group: GroupTable, omega: Cocycle3,
                              class_data, c: int) -> Cocycle2:
    """Alternative twist convention: pointwise conjugate of phi_{g_C}."""
    gc = class_data.reps[c]
    base = phi_a(group, omega, gc)
    els = base.elements
    values = [-base(s, t) for s in els for t in els]
    return Cocycle2(group, els, values, base.modulus)


def gamma(group: GroupTable, omega: Cocycle3, a: int, x: int, y: int,
          g: int) -> int:
    """The transport cochain gamma[a, x, y] evaluated at ``g`` in G_a."""
    G = group
    if G.mul(g, a) != G.mul(a, g):
        raise ValueError(f"element {g} is not in the centralizer of {a}")
    xi, yi = G.inverse(x), G.inverse(y)
    ax_i = G.mul(a, xi)          # a x^-1
    xax_i = G.mul(x, ax_i)       # x a x^-1
    gy_i = G.mul(g, yi)          # g y^-1
    xgy_i = G.mul(x, gy_i)       # x g y^-1
    ay_i = G.mul(a, yi)          # a y^-1
    yay_i = G.mul(y, ay_i)       # y a y^-1
    return (-omega(x, ax_i, xgy_i) - omega(a, xi, xgy_i) + omega(a, g, yi)
            - omega(g, a, yi) - omega(gy_i, y, ay_i) + omega(g, yi, y)
            + omega(x, gy_i, yay_i) + omega(xi, x, gy_i)) % omega.modulus


def _gamma_identity_holds(G: GroupTable, omega: Cocycle3, phis: dict,
                          a: int, x: int, y: int, z: int, g: int, h: int) -> bool:
    xi, yi, zi = G.inverse(x), G.inverse(y), G.inverse(z)
    xax = G.mul(G.mul(x, a), xi)
    yay = G.mul(G.mul(y, a), yi)
    zaz = G.mul(G.mul(z, a), zi)
    xgy = G.mul(G.mul(x, g), yi)
    yhz = G.mul(G.mul(y, h), zi)
    lhs = omega(xgy, yay, yhz) - omega(xax, xgy, yhz) - omega(xgy, yhz, zaz)
    rhs = (gamma(G, omega, a, x, y, g) + gamma(G, omega, a, y, z, h)
           - gamma(G, omega, a, x, z, G.mul(g, h)) + phis[a](g, h))
    return (lhs - rhs) % omega.modulus == 0


def gamma_identity_check(group: GroupTable, omega: Cocycle3,
                         max_exhaustive: int = 8, samples: int = 10000,
                         seed: int = 0) -> CheckResult:
    """Verify the six-variable transport identity.

    Exhaustive over all admissible (a, x, y, z, g, h) when the group
    order is at most ``max_exhaustive``; otherwise checks ``samples``
    uniformly random admissible tuples drawn from the given seed.
    """
    omega.ensure_valid()
    G = group
    n = G.order
    phis = {a: phi_a(G, omega, a) for a in range(n)}
    cents = {a: centralizer(G, a) for a in range(n)}
    if n <= max_exhaustive:
        for a in range(n):
            ca = cents[a]
            for g in ca:
                for h in ca:
                    for x in range(n):
                        for y in range(n):
                            for z in range(n):
                                if not _gamma_identity_holds(G, omega, phis,
                                                             a, x, y, z, g, h):
                                    return CheckResult(False, "gamma-identity",
                                                       (a, x, y, z, g, h))
        return CheckResult(True, "gamma-identity", detail="exhaustive")
    rng = random.Random(seed)
    for _ in range(samples):
        a = rng.randrange(n)
        ca = cents[a]
        g = rng.choice(ca)
        h = rng.choice(ca)
        x, y, z = (rng.randrange(n) for _ in range(3))
        if not _gamma_identity_holds(G, omega, phis, a, x, y, z, g, h):
            return CheckResult(False, "gamma-identity", (a, x, y, z, g, h))
    return CheckResult(True, "gamma-identity", detail=f"sampled {samples}")


def gamma_transport_check(group: GroupTable, omega: Cocycle3) -> CheckResult:
    """Check that gamma[a, x, x] trivializes phi along conjugation.

    For all a, x and g, h in G_a:
    phi_{xax^-1}(xgx^-1, xhx^-1) = gamma(g) gamma(h) gamma(gh)^-1 phi_a(g, h)
    with gamma = gamma[a, x, x].
    """
    omega.ensure_valid()
    G = group
    n = G.order
    phis = {a: phi_a(G, omega, a) for a in range(n)}
    for a in range(n):
        ca = centralizer(G, a)
        for x in range(n):
            xax = G.conjugate(x, a)
            for g in ca:
                xgx = G.conjugate(x, g)
                cg = gamma(G, omega, a, x, x, g)
                for h in ca:
                    lhs = phis[xax](xgx, G.conjugate(x, h))
                    rhs = (cg + gamma(G, omega, a, x, x, h)
                           - gamma(G, omega, a, x, x, G.mul(g, h)) + phis[a](g, h))
                    if (lhs - rhs) % omega.modulus:
                        return CheckResult(False, "gamma-transport", (a, x, g, h))
    return CheckResult(True, "gamma-transport")


@dataclass
class BHSetup:
    """A group generated by two subgroups, with a compatible cocycle.

    Invariants (see :meth:`validate`): H and K are subgroups whose union
    generates the whole group, the cocycle is normalized, and its
    restrictions to H^3 and K^3 are identically 1.
    """

    group: GroupTable
    H: tuple[int, ...]
    K: tuple[int, ...]
    omega: Cocycle3

    def validate(self) -> None:
        G = self.group
        if not is_subgroup(G, self.H):
            raise BHSetupError("H is a subgroup", witness=tuple(self.H))
        if not is_subgroup(G, self.K):
            raise BHSetupError("K is a subgroup", witness=tuple(self.K))
        gen = subgroup_closure(G, tuple(self.H) + tuple(self.K))
        if len(gen) != G.order:
            raise BHSetupError("H and K generate the group", witness=gen)
        self.omega.ensure_valid()
        if not is_normalized(self.omega):
            raise BHSetupError("cocycle is normalized")
        w = restrict_trivial_on(self.omega, self.H)
        if w is not None:
            raise BHSetupError("cocycle restricts trivially to H", witness=w)
        w = restrict_trivial_on(self.omega, self.K)
        if w is not None:
            raise BHSetupError("cocycle restricts trivially to K", witness=w)


def bh_setup_from_json(obj: dict) -> BHSetup:
    group = group_from_json(obj["group"])
    omega = cocycle_from_json(group, obj["cocycle"])
    H, K = tuple(obj["H"]), tuple(obj["K"])
    for name, sub in (("H", H), ("K", K)):
        bad = tuple(x for x in sub if type(x) is not int
                    or not 0 <= x < group.order)
        if bad:
            raise BHSetupError(f"{name} lists group elements", witness=bad)
    return BHSetup(group=group, H=H, K=K, omega=omega)


def _hat(G: GroupTable, p: tuple[int, int]) -> tuple[int, int]:
    return (G.mul(p[0], p[1]), G.inverse(p[1]))


def _check(G: GroupTable, p: tuple[int, int]) -> tuple[int, int]:
    return (G.inverse(p[0]), G.mul(p[0], p[1]))


def gauge_fix_bh(setup: BHSetup) -> tuple[Cocycle3, tuple[int, ...]]:
    """Correct the cocycle by a coboundary so the (g, l, l^-1) values die.

    Returns ``(w', f)`` with ``w' = d2(f) * w``; ``f`` is a table of
    phases mod the modulus of ``w``.  The 2-cochain ``f`` is
    1 off two explicit representative sets A and V: A picks one point
    from each orbit of (g1, g2) -> (g1 g2, g2^-1) inside the region
    where g2 lies in H (or K) minus the identity and g1 outside H (or
    K); V does the same for (g1, g2) -> (g1^-1, g1 g2) in the mirrored
    region.  Orbits meeting both regions get the representative pushed
    off the overlap; free orbits use the lexicographically smaller pair.
    """
    setup.validate()
    G = setup.group
    n = G.order
    Hs, Ks = set(setup.H), set(setup.K)

    def in_AH(p):
        return p[0] not in Hs and p[1] in Hs and p[1] != 0

    def in_AK(p):
        return p[0] not in Ks and p[1] in Ks and p[1] != 0

    def in_VH(p):
        return p[0] in Hs and p[0] != 0 and p[1] not in Hs

    def in_VK(p):
        return p[0] in Ks and p[0] != 0 and p[1] not in Ks

    def in_overlap(p):
        # (K\H) x (H\K) together with (H\K) x (K\H)
        return (in_AH(p) and in_VK(p)) or (in_AK(p) and in_VH(p))

    def representatives(in_region, move) -> set[tuple[int, int]]:
        """One pair from each orbit of the involution ``move`` meeting
        the region, pushed off the overlap when the orbit touches it."""
        reps: set[tuple[int, int]] = set()
        seen: set[tuple[int, int]] = set()
        for g1 in range(n):
            for g2 in range(n):
                p = (g1, g2)
                if p in seen or not in_region(p):
                    continue
                q = move(G, p)
                seen.add(p)
                seen.add(q)
                if in_overlap(p):
                    reps.add(q)
                elif in_overlap(q):
                    reps.add(p)
                else:
                    reps.add(min(p, q))
        return reps

    A = representatives(lambda p: in_AH(p) or in_AK(p), _hat)
    V = representatives(lambda p: in_VH(p) or in_VK(p), _check)
    assert not (A & V), "orbit representative sets must not meet"

    w, N = setup.omega, setup.omega.modulus
    f = [0] * (n * n)
    for (g, l) in A:
        li = G.inverse(l)
        val = w(g, l, li)
        assert val == w(G.mul(g, l), li, l)
        f[g * n + l] = val
    for (l, g) in V:
        li = G.inverse(l)
        val = w(li, l, g)
        assert val == w(l, li, G.mul(l, g))
        f[l * n + g] = val

    d2f = coboundary2(G, f, N)
    omega_prime = Cocycle3(G, [d + v for d, v in zip(d2f, w.values)], N)
    omega_prime.ensure_valid()
    return omega_prime, tuple(f)


def gl_relations_check(group: GroupTable, H: Sequence[int], K: Sequence[int],
                       omega: Cocycle3) -> CheckResult:
    """Exhaustively check the four gauge relations for l in H or K.

    (i)   w(g1, l, l^-1) = 1 = w(l^-1, l, g1)
    (ii)  w(g1, g2, l)   = w(g1, g2 l, l^-1)^-1
    (iii) w(g1, l, g2)   = w(g1 l, l^-1, l g2)^-1
    (iv)  w(l, g1, g2)   = w(l^-1, l g1, g2)^-1
    """
    G, N = group, omega.modulus
    n = G.order
    ls = sorted(set(H) | set(K))
    for l in ls:
        li = G.inverse(l)
        for g1 in range(n):
            if omega(g1, l, li):
                return CheckResult(False, "gl-i", (g1, l))
            if omega(li, l, g1):
                return CheckResult(False, "gl-i", (l, g1))
            for g2 in range(n):
                if (omega(g1, g2, l) + omega(g1, G.mul(g2, l), li)) % N:
                    return CheckResult(False, "gl-ii", (g1, g2, l))
                if (omega(g1, l, g2) + omega(G.mul(g1, l), li, G.mul(l, g2))) % N:
                    return CheckResult(False, "gl-iii", (g1, l, g2))
                if (omega(l, g1, g2) + omega(li, G.mul(l, g1), g2)) % N:
                    return CheckResult(False, "gl-iv", (l, g1, g2))
    return CheckResult(True, "gl-relations",
                       detail=f"exhaustive {len(ls) * n * n}")
