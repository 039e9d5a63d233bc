"""Test oracle: group-table associativity over all n^3 triples, a
two-sided subgroup closure, subgroup membership by pairwise products, and
conjugacy data by three separate walks.

The library checks associativity by Light's test over the table's greedy
generators, closes subgroups by right multiplication alone, tests a
subset for a subgroup by comparing it with its closure and reads a
class, its transports and its representative's centralizer off one
conjugation walk (:mod:`tubealg.grp`); these full searches are kept here
to cross-check their verdicts and results.
"""

from __future__ import annotations

from typing import Optional, Sequence

from tubealg.grp import ClassData, GroupTable


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


def is_subgroup(group: GroupTable, elements: Sequence[int]) -> bool:
    """Holds the identity and the product of every pair of its members."""
    elems = set(elements)
    if 0 not in elems:
        return False
    return all(group.mul(a, b) in elems for a in elems for b in elems)


def conjugacy_data(group: GroupTable) -> ClassData:
    """Each class as a sorted orbit, then for every element the first x
    in index order carrying its representative to it, then each
    representative's commuting elements."""
    n = group.order
    class_of = [-1] * n
    classes = []
    reps = []
    for g in range(n):
        if class_of[g] >= 0:
            continue
        c = len(classes)
        orbit = sorted({group.conjugate(x, g) for x in range(n)})
        for h in orbit:
            class_of[h] = c
        classes.append(tuple(orbit))
        reps.append(g)
    transport = [0] * n
    for g in range(n):
        gc = reps[class_of[g]]
        for x in range(n):
            if group.conjugate(x, gc) == g:
                transport[g] = x
                break
    centralizers = tuple(
        tuple(s for s in range(n) if group.mul(s, gc) == group.mul(gc, s))
        for gc in reps)
    return ClassData(classes=tuple(classes), reps=tuple(reps),
                     class_of=tuple(class_of), transport=tuple(transport),
                     centralizers=centralizers)
