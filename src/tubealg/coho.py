"""Derived 2-cocycles, the conjugation-transport cochain, and gauge fixing.

From a 3-cocycle ``w`` on G, each element ``a`` receives a 2-cocycle on its
centralizer, minus the tube phase tau = ``Cocycle3.tube_phase`` on a's endomorphisms::

    phi_a(g, h) = tau(a, g, a, h, a)^-1

and each triple ``(a, x, y)`` receives a transport cochain
``gamma[a, x, y]: G_a -> S^1`` (an explicit eight-factor product of
``w``-values) satisfying, for all ``g, h`` in the centralizer of ``a``::

    tau(xax^-1, xgy^-1, yay^-1, yhz^-1, zaz^-1)^-1
      = gamma[a,x,y](g) * gamma[a,y,z](h) * gamma[a,x,z](gh)^-1 * phi_a(g, h)

These scalars are exactly what the block isomorphisms of the tube and
annular algebras are built from, so this module also ships a checker
that certifies the identity on every tuple, at every order, by walking
it over a generating set of a groupoid (:func:`gamma_identity_check`).

The second half implements a gauge fix for a group generated by two
subgroups H and K: given a normalized cocycle that is trivial on H^3 and
on K^3, one walk over the l in H or K and the g outside l's subgroup
puts each relation's value on one point of its orbit pair in G x G, so
that the coboundary of the resulting 2-cochain corrects the cocycle to
kill every triple of the shapes (g, l, l^-1) and (l^-1, l, g).
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Sequence

from .grp import GroupTable, centralizer, is_subgroup, subgroup_closure, group_from_json
from .phase import (CheckResult, Cocycle2, Cocycle3, CocycleError,
                    cocycle_from_json, coboundary2, is_normalized,
                    restrict_trivial_on)


class BHSetupError(ValueError):
    """A two-subgroup setup violating one of its invariants."""

    def __init__(self, invariant: str, witness=None):
        super().__init__(f"setup invariant violated: {invariant}")
        self.invariant = invariant
        self.witness = witness


def phi_a(group: GroupTable, omega: Cocycle3, a: int) -> Cocycle2:
    """The centralizer 2-cocycle of ``a``: -tau(a, g, a, h, a), the
    negated phase of (a -h-> a) . (a -g-> a)."""
    omega.ensure_valid()
    els = centralizer(group, a)
    values = [-omega.tube_phase(a, g, a, h, a) for g in els for h in els]
    return Cocycle2(group, els, values, omega.modulus)


def phi_class(group: GroupTable, omega: Cocycle3, class_data, c: int) -> Cocycle2:
    """The block twist on the centralizer of the class representative g.

    phi_C(s, t) = conj(phi_g(t^-1, s^-1)) = tau(g, t^-1, g, s^-1, g), the
    phase of (g -s^-1-> g) . (g -t^-1-> g); this opposite-inverse twist is
    the one under which the tube-algebra block map is multiplicative.
    """
    omega.ensure_valid()
    g, els, inv = class_data.reps[c], class_data.centralizers[c], group.inverse
    values = [omega.tube_phase(g, inv(t), g, inv(s), g) for s in els for t in els]
    return Cocycle2(group, els, values, omega.modulus)


def phi_class_plain_conjugate(group: GroupTable, omega: Cocycle3,
                              class_data, c: int) -> Cocycle2:
    """Alternative twist convention: pointwise conjugate of phi_{g_C}."""
    base = phi_a(group, omega, class_data.reps[c])
    return Cocycle2(group, base.elements, [-v for v in base.values],
                    base.modulus)


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
    xgy, yhz = G.mul3(x, g, G.inverse(y)), G.mul3(y, h, G.inverse(z))
    lhs = -omega.tube_phase(G.conjugate(x, a), xgy, G.conjugate(y, a), yhz,
                            G.conjugate(z, a))
    rhs = (gamma(G, omega, a, x, y, g) + gamma(G, omega, a, y, z, h)
           - gamma(G, omega, a, x, z, G.mul(g, h)) + phis[a](g, h))
    return (lhs - rhs) % omega.modulus == 0


def gamma_identity_check(group: GroupTable, omega: Cocycle3) -> CheckResult:
    """Certify the transport identity on every (a, x, y, z, g, h).

    Fix a.  The (x, y, g), g in G_a, are the morphisms y -> x of a
    groupoid on G, with (x, y, g)(y, z, h) = (x, z, gh).  The identity's
    left side is the tube twist pulled back along (x, y, g) -> xgy^-1 and
    its gamma terms are a coboundary, so the difference e(m1, m2) of its
    sides is a groupoid 2-cocycle once omega and phi_a pass their laws.
    Then e(., s) = 0 gives e(m, ws) = e(m, w), so walking every m against
    the generators s, the cycle (x + 1 mod n, x, e) and the loops
    (0, 0, h), h != e, covers every pair.  Each phi_a's law is walked by
    its twisted group algebra.  A failure is the (a, x, y, z, g, h) it
    hit, or (a, triple) for a phi_a that fails its law.
    """
    from .staralg import TwistedGroupAlgebra
    omega.ensure_valid()
    n = group.order
    phis = {a: phi_a(group, omega, a) for a in range(n)}
    tuples = visited = triples = 0
    for a, phi in phis.items():
        ca = phi.elements
        try:
            TwistedGroupAlgebra(phi)
        except CocycleError as exc:
            return CheckResult(False, "gamma-identity", (a, exc.witness),
                               f"phi_a of {a} fails its 2-cocycle law")
        gens = [((x + 1) % n, x, 0) for x in range(n)] + \
            [(0, 0, h) for h in ca if h]
        for (y, z, h), x, g in product(gens, range(n), ca):
            if not _gamma_identity_holds(group, omega, phis, a, x, y, z, g, h):
                return CheckResult(False, "gamma-identity", (a, x, y, z, g, h))
        tuples += n ** 3 * len(ca) ** 2
        visited += len(gens) * n * len(ca)
        triples += len(ca) ** 3
    return CheckResult(True, "gamma-identity", detail=(
        f"certified {tuples} by last morphism over generators, exhaustive "
        f"{visited}, centralizer twists exhaustive {triples}"))


class BHSetup(NamedTuple):
    """A group generated by two subgroups, with a compatible cocycle.

    Invariants (see :meth:`validate`): H and K are subgroups whose union
    generates the whole group, the cocycle satisfies the 3-cocycle law
    and is normalized, and its restrictions to H^3 and K^3 are
    identically 1.
    """

    group: GroupTable
    H: tuple[int, ...]
    K: tuple[int, ...]
    omega: Cocycle3

    def validate(self) -> None:
        G, subgroups = self.group, (("H", self.H), ("K", self.K))
        for name, sub in subgroups:
            if not is_subgroup(G, sub):
                raise BHSetupError(f"{name} is a subgroup", witness=tuple(sub))
        gen = subgroup_closure(G, tuple(self.H) + tuple(self.K))
        if len(gen) != G.order:
            raise BHSetupError("H and K generate the group", witness=gen)
        try:
            self.omega.ensure_valid()
        except CocycleError as exc:
            raise BHSetupError("cocycle is a 3-cocycle", exc.witness) from exc
        if not is_normalized(self.omega):
            raise BHSetupError("cocycle is normalized")
        for name, sub in subgroups:
            w = restrict_trivial_on(self.omega, sub)
            if w is not None:
                raise BHSetupError(f"cocycle restricts trivially to {name}", w)


def bh_setup_from_json(obj: dict) -> BHSetup:
    group = group_from_json(obj["group"])
    omega = cocycle_from_json(group, obj["cocycle"])
    H, K = tuple(obj["H"]), tuple(obj["K"])
    for name, sub in (("H", H), ("K", K)):
        bad = tuple(x for x in sub if type(x) is not int
                    or not 0 <= x < group.order)
        if bad:
            raise BHSetupError(f"{name} lists group elements", witness=bad)
        repeated = tuple(sorted({x for x in sub if sub.count(x) > 1}))
        if repeated:
            raise BHSetupError(f"{name} lists distinct elements", repeated)
    return BHSetup(group=group, H=H, K=K, omega=omega)


def gauge_fix_bh(setup: BHSetup) -> tuple[Cocycle3, tuple[int, ...]]:
    """Correct the cocycle by a coboundary so the (g, l, l^-1) values die.

    Returns ``(w', f)`` with ``w' = d2(f) * w``; ``f`` is a table of
    phases mod the modulus of ``w``.  One walk over L in (H, K), l in L
    minus the identity and g outside L meets each relation as an orbit
    pair of points of G x G, with the value the pair must carry::

        (g, l) <-> (g l, l^-1)     w(g, l, l^-1)
        (l, g) <-> (l^-1, l g)     w(l^-1, l, g)^-1

    because d2(f) multiplies the first triple by f(g, l)^-1 f(gl, l^-1)^-1
    and the second by f(l, g) f(l^-1, lg).  The value goes on the smaller
    point of its pair, or on the other one when the smaller point is
    shared: it lies in (K-H) x (H-K) or (H-K) x (K-H), where the two
    families meet, and the other point of its pair never does.  So no
    point gets two values, and ``f`` is 1 off the chosen points.
    """
    setup.validate()
    G, w = setup.group, setup.omega
    n, N = G.order, w.modulus
    Hs, Ks = set(setup.H), set(setup.K)
    HmK, KmH = Hs - Ks, Ks - Hs

    def shared(p):
        return (p[0] in KmH and p[1] in HmK) or (p[0] in HmK and p[1] in KmH)

    f: dict[tuple[int, int], int] = {}
    for L in (Hs, Ks):
        for l, g in product(L - {0}, range(n)):
            if g in L:
                continue
            li, gl, lg = G.inverse(l), G.mul(g, l), G.mul(l, g)
            right, left = w(g, l, li), w(li, l, g)
            assert right == w(gl, li, l)
            assert left == w(l, li, lg)
            for p, q, val in (((g, l), (gl, li), right),
                              ((l, g), (li, lg), -left % N)):
                at = max(p, q) if shared(min(p, q)) else min(p, q)
                assert f.get(at, val) == val, "a point is given two values"
                f[at] = val

    table = tuple(f.get((a, b), 0) for a in range(n) for b in range(n))
    d2f = coboundary2(G, table, N)
    omega_prime = Cocycle3(G, [d + v for d, v in zip(d2f, w.values)], N)
    omega_prime.ensure_valid()
    return omega_prime, table


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
