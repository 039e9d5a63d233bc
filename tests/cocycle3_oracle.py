"""Test oracle: the 3-cocycle law of a table, walked over all n^4 quadruples.

The library checks the law with its last argument over a generating set
(:func:`tubealg.phase.cocycle3_check`); this full walk in index order is
kept here to cross-check its verdicts and its witnesses.
"""

from __future__ import annotations

from tubealg.phase import CheckResult, Cocycle3


def cocycle3_check(omega: Cocycle3) -> CheckResult:
    """Exhaustive test of the 3-cocycle law; returns the first bad quadruple."""
    G, N = omega.group, omega.modulus
    n = G.order
    for a in range(n):
        for b in range(n):
            ab = G.mul(a, b)
            for c in range(n):
                bc = G.mul(b, c)
                for d in range(n):
                    if (omega(a, b, c) + omega(a, bc, d) + omega(b, c, d)
                            - omega(ab, c, d) - omega(a, b, G.mul(c, d))) % N:
                        return CheckResult(False, "cocycle3", (a, b, c, d))
    return CheckResult(True, "cocycle3", detail=f"exhaustive {n ** 4}")
