"""Exact kernels of systems whose rows have at most two root-of-unity entries.

The center equations of a twisted groupoid algebra have this shape: each
row says ``zeta^a z_c = zeta^b z_d`` or ``zeta^a z_c = 0`` for a primitive
N-th root of unity zeta.  The two-term rows tie unknowns together with
phases mod N, so every connected component of the relation graph has its
unknowns fixed by one free value up to known phases.  The component keeps
that value unless a one-term row forces one of its unknowns to zero, or
a cycle's phases do not sum to 0 mod N, which forces
``(1 - zeta^w) z = 0`` with ``zeta^w != 1``.  The kernel dimension is the
number of surviving components, computed with ints mod N only.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Term = tuple[int, int]  # (column c, phase a): the entry zeta^a on column c


def nullspace_dimension(rows: Iterable[Sequence[Term]], ncols: int,
                        modulus: int) -> int:
    """Kernel dimension of rows ``((c, a),)`` and ``((c, a), (d, b))``.

    The first reads ``zeta^a z_c = 0``, the second
    ``zeta^a z_c - zeta^b z_d = 0``, with zeta = exp(2 pi i / modulus).
    """
    parent = list(range(ncols))
    shift = [0] * ncols    # z_c = zeta^shift[c] z_parent[c]
    killed = [False] * ncols

    def find(c: int) -> tuple[int, int]:
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        acc = 0
        for x in reversed(path):
            acc = (acc + shift[x]) % modulus
            parent[x], shift[x] = c, acc
        return c, shift[path[0]] if path else 0

    for row in rows:
        (c, a), *rest = row
        rc, pc = find(c)
        if not rest:
            killed[rc] = True
            continue
        (d, b), = rest
        rd, pd = find(d)
        # zeta^(a + pc) z_rc = zeta^(b + pd) z_rd
        w = (b + pd - a - pc) % modulus
        if rc == rd:
            killed[rc] = killed[rc] or w != 0
        else:
            parent[rc], shift[rc] = rd, w
            killed[rd] = killed[rd] or killed[rc]
    return sum(1 for c in range(ncols) if parent[c] == c and not killed[c])
