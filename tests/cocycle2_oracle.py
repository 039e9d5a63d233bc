"""Test oracle: the 2-cocycle law of a table, walked term by term.

The library checks this law only as the associativity of the twisted
group algebra (:class:`tubealg.staralg.TwistedGroupAlgebra`); this direct
loop over the stored elements is kept here to cross-check it.
"""

from __future__ import annotations

from tubealg.phase import CheckResult, Cocycle2


def cocycle2_check(phi: Cocycle2) -> CheckResult:
    """Exhaustive test of the 2-cocycle identity on the stored elements."""
    G = phi.group
    els = phi.elements
    for a in els:
        for b in els:
            ab = G.mul(a, b)
            for c in els:
                if (phi(b, c) - phi(ab, c) + phi(a, G.mul(b, c))
                        - phi(a, b)) % phi.modulus:
                    return CheckResult(False, "cocycle2", (a, b, c))
    return CheckResult(True, "cocycle2")
