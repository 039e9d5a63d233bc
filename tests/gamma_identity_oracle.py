"""Test oracle: the transport identity, walked over every admissible tuple.

The library certifies the identity by walking its last morphism over a
generating set of a groupoid (:func:`tubealg.coho.gamma_identity_check`);
this full walk over all (a, x, y, z, g, h) is kept here to cross-check
its verdicts.  It writes the identity out on its own and reads
``coho.gamma`` and ``coho.phi_a`` when it runs, so a test may patch
either.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from tubealg import coho
from tubealg.grp import GroupTable, centralizer
from tubealg.phase import CheckResult, Cocycle3


def identity_holds(G: GroupTable, omega: Cocycle3, phis: dict,
                   a: int, x: int, y: int, z: int, g: int, h: int,
                   gamma=None) -> bool:
    """The six-variable identity at one tuple, with ``phis[a]`` as phi_a
    and ``gamma`` (by default ``coho.gamma``) as the transport cochain."""
    gamma = gamma or coho.gamma
    xi, yi, zi = G.inverse(x), G.inverse(y), G.inverse(z)
    xgy = G.mul(G.mul(x, g), yi)
    yhz = G.mul(G.mul(y, h), zi)
    lhs = (omega(xgy, G.mul(G.mul(y, a), yi), yhz)
           - omega(G.mul(G.mul(x, a), xi), xgy, yhz)
           - omega(xgy, yhz, G.mul(G.mul(z, a), zi)))
    rhs = (gamma(G, omega, a, x, y, g) + gamma(G, omega, a, y, z, h)
           - gamma(G, omega, a, x, z, G.mul(g, h)) + phis[a](g, h))
    return (lhs - rhs) % omega.modulus == 0


def gamma_identity_check(group: GroupTable, omega: Cocycle3) -> CheckResult:
    """Every (a, g, h, x, y, z) in that order; the first failing tuple,
    as (a, x, y, z, g, h), is the witness."""
    omega.ensure_valid()
    n = group.order
    phis = {a: coho.phi_a(group, omega, a) for a in range(n)}
    gamma = cache(coho.gamma)
    visited = 0
    for a in range(n):
        ca = centralizer(group, a)
        for g, h, x, y, z in product(ca, ca, *[range(n)] * 3):
            if not identity_holds(group, omega, phis, a, x, y, z, g, h,
                                  gamma):
                return CheckResult(False, "gamma-identity", (a, x, y, z, g, h))
        visited += n ** 3 * len(ca) ** 2
    return CheckResult(True, "gamma-identity", detail=f"exhaustive {visited}")
