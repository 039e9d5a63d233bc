"""Test oracle: group-table associativity over all n^3 triples, and a
two-sided subgroup closure.

The library checks associativity by Light's test over the table's greedy
generators and closes subgroups by right multiplication alone
(:mod:`tubealg.grp`); these full searches are kept here to cross-check
their verdicts and results.
"""

from __future__ import annotations

from typing import Optional, Sequence

from tubealg.grp import GroupTable


def first_non_associative(mult: Sequence[Sequence[int]]) -> Optional[tuple]:
    """The first (a, b, c) in index order with (ab)c != a(bc), or None."""
    n = len(mult)
    for a in range(n):
        ta = mult[a]
        for b in range(n):
            tab = mult[ta[b]]
            tb = mult[b]
            for c in range(n):
                if tab[c] != ta[tb[c]]:
                    return a, b, c
    return None


def subgroup_closure(group: GroupTable, elements: Sequence[int]) -> tuple[int, ...]:
    """Close under products on both sides with every member found so far."""
    seen = {0}
    queue = [0]
    for g in elements:
        if g not in seen:
            seen.add(g)
            queue.append(g)
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for g in list(seen):
            for y in (group.mul(x, g), group.mul(g, x)):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    return tuple(sorted(seen))
