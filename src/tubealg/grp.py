"""Finite groups as index-based multiplication tables.

Group elements are the integers ``0 .. order-1`` with ``0`` the identity.
Every higher layer (cocycle tables, structure constants, block
decompositions) addresses elements through these indices, so the
constructors here validate a table once and everything downstream can
trust it.  All outputs are deterministic: conjugacy-class
representatives are the minimal element index of each class, and the
transporting conjugator chosen for each element is the first one in
index order.

One closure walk, right multiplication from the identity (in a finite
group the monoid a set generates is its subgroup), serves subgroup
closure, the greedy generating set and permutation-group enumeration;
over the greedy generators, Light's test checks a table's associativity.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

MAX_GROUP_ORDER = 10000


class GroupError(ValueError):
    """Data that fails to define a group; ``witness`` pins one offender."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class GroupTable:
    """A finite group: multiplication table, inverses, optional names.

    A plain class, not a named tuple: ``len`` is the group order.
    """

    __slots__ = ("order", "mult", "inv", "names")

    def __init__(self, order: int, mult: tuple[tuple[int, ...], ...],
                 inv: tuple[int, ...], names: Optional[tuple[str, ...]] = None):
        self.order = order
        self.mult = mult
        self.inv = inv
        self.names = names

    def _fields(self) -> tuple:
        return self.order, self.mult, self.inv, self.names

    def __eq__(self, other) -> bool:
        return type(other) is GroupTable and self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "GroupTable(order={!r}, mult={!r}, inv={!r}, names={!r})".format(
            *self._fields())

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def mul3(self, a: int, b: int, c: int) -> int:
        return self.mult[self.mult[a][b]][c]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def conjugate(self, x: int, a: int) -> int:
        """x a x^-1."""
        return self.mult[self.mult[x][a]][self.inv[x]]

    def elements(self) -> range:
        return range(self.order)

    def __len__(self) -> int:
        return self.order

    def name(self, g: int) -> str:
        return self.names[g] if self.names is not None else str(g)


class ClassData(NamedTuple):
    """Conjugacy structure with fixed representatives and transports.

    ``reps[c]`` is the minimal element of class ``c``; ``transport[g]``
    is the first ``x`` in index order with ``x reps[c] x^-1 == g``,
    which forces ``transport[reps[c]] == 0``.
    """

    classes: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    class_of: tuple[int, ...]
    transport: tuple[int, ...]
    centralizers: tuple[tuple[int, ...], ...]

    def num_classes(self) -> int:
        return len(self.classes)


def group_from_table(order: int, mult: Sequence[Sequence[int]],
                     names: Optional[Sequence[str]] = None) -> GroupTable:
    """Validate a multiplication table and compute inverses.

    Raises :class:`GroupError` with a witness tuple if the table has the
    wrong shape, index 0 is not a two-sided identity, some triple is not
    associative, or some element has no inverse.

    Associativity is Light's test, (ab)s == a(bs) for s in the greedy
    generators only: the c with (ab)c == a(bc) for all a, b include the
    identity and are closed under right multiplication by one another,
    and the greedy walk reaches every element as a left-normed product
    of generators.
    """
    if type(order) is not int or not 1 <= order <= MAX_GROUP_ORDER:
        raise GroupError(f"group order {order!r} is not an integer "
                         f"in 1..{MAX_GROUP_ORDER}")
    if len(mult) != order:
        raise GroupError(f"table has {len(mult)} rows, expected {order}")
    rows = []
    for i, row in enumerate(mult):
        if len(row) != order:
            raise GroupError(f"row {i} has length {len(row)}, expected {order}",
                             witness=(i,))
        for j, v in enumerate(row):
            if type(v) is not int or not 0 <= v < order:
                raise GroupError(f"entry mult[{i}][{j}] = {v!r} out of range",
                                 witness=(i, j))
        rows.append(tuple(row))
    table = tuple(rows)

    for g in range(order):
        if table[0][g] != g or table[g][0] != g:
            raise GroupError(f"index 0 is not an identity at element {g}",
                             witness=(g,))
    gens = _greedy_generators(table)
    for a in range(order):
        ta = table[a]
        for b in range(order):
            tab = table[ta[b]]
            tb = table[b]
            for s in gens:
                if tab[s] != ta[tb[s]]:
                    raise GroupError(
                        f"associativity fails at ({a}, {b}, {s})",
                        witness=(a, b, s))
    inv = []
    for a in range(order):
        for b in range(order):
            if table[a][b] == 0 and table[b][a] == 0:
                inv.append(b)
                break
        else:
            raise GroupError(f"no inverse for element {a}", witness=(a,))

    if names is not None:
        if len(names) != order:
            raise GroupError("names list has wrong length")
        names = tuple(str(s) for s in names)
    return GroupTable(order=order, mult=table, inv=tuple(inv), names=names)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p * q)(i) = p(q(i)): apply q first.
    return tuple(p[q[i]] for i in range(len(p)))


def group_from_permutations(degree: int, generators: Sequence[Sequence[int]],
                            max_order: int = MAX_GROUP_ORDER) -> GroupTable:
    """Enumerate the permutation group generated by ``generators``.

    Elements are ordered breadth-first from the identity, multiplying by
    the generators in input order on the right; the identity gets
    index 0.  Raises :class:`GroupError` if the degree is not a
    non-negative integer, a generator is not a permutation of
    ``0..degree-1`` or the closure exceeds ``max_order``.  Nothing of
    size ``degree`` is allocated unless a generator has that size.
    """
    if type(degree) is not int:
        raise GroupError(f"degree {degree!r} is not an integer")
    if degree < 0:
        raise GroupError(f"degree {degree} is negative")
    gens = []
    for k, g in enumerate(generators):
        g = tuple(g)
        if len(g) != degree or any(type(x) is not int for x in g) \
                or sorted(g) != list(range(degree)):
            raise GroupError(f"generator {k} is not a permutation of 0..{degree - 1}",
                             witness=(k,))
        gens.append(g)
    if not gens:
        return group_from_table(1, [[0]], names=["e"])
    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    _close(elements, index, gens, _compose, max_order)
    n = len(elements)
    mult = [[index[_compose(elements[a], elements[b])] for b in range(n)]
            for a in range(n)]
    names = [_perm_name(p) for p in elements]
    return group_from_table(n, mult, names=names)


def _perm_name(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    cycles = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) if cycles else "e"


def conjugacy_data(group: GroupTable) -> ClassData:
    """Conjugacy classes with canonical representatives and transports.

    One conjugation walk per class: conjugating its representative g by
    every x in index order meets each member first at its transport, and
    the x with x g x^-1 == g are the representative's centralizer.
    """
    n, mult, inv = group.order, group.mult, group.inv
    class_of = [-1] * n
    transport = [0] * n
    classes, reps, centralizers = [], [], []
    for g in range(n):
        if class_of[g] >= 0:
            continue
        c, members, cent = len(classes), [], []
        for x in range(n):
            h = mult[mult[x][g]][inv[x]]  # x g x^-1
            if class_of[h] < 0:
                class_of[h] = c
                transport[h] = x
                members.append(h)
            if h == g:
                cent.append(x)
        classes.append(tuple(sorted(members)))
        reps.append(g)  # g is minimal in its class: smaller ones were visited
        centralizers.append(tuple(cent))
    return ClassData(classes=tuple(classes), reps=tuple(reps),
                     class_of=tuple(class_of), transport=tuple(transport),
                     centralizers=tuple(centralizers))


def centralizer(group: GroupTable, a: int) -> tuple[int, ...]:
    """Sorted list of elements commuting with ``a``."""
    return tuple(s for s in range(group.order)
                 if group.mul(s, a) == group.mul(a, s))


def _close(members: list, index: dict, gens: Sequence, mul,
           limit: int) -> None:
    """Close ``members`` (positions in ``index``) under right
    multiplication by ``gens``, breadth-first, visiting new members too;
    raises :class:`GroupError` past ``limit`` members."""
    for x in members:
        for s in gens:
            y = mul(x, s)
            if y not in index:
                if len(members) >= limit:
                    raise GroupError(f"closure exceeds {limit} elements")
                index[y] = len(members)
                members.append(y)


def _greedy_generators(mult: Sequence[Sequence[int]]) -> list[int]:
    """Each generator is the first index outside the closure of the ones
    before it; the closures end with every index as a member."""
    members, index, gens = [0], {0: 0}, []
    for g in range(1, len(mult)):
        if g not in index:
            gens.append(g)
            _close(members, index, gens, lambda x, s: mult[x][s], len(mult))
    return gens


def subgroup_closure(group: GroupTable, elements: Sequence[int]) -> tuple[int, ...]:
    """Smallest subgroup containing ``elements``, as a sorted tuple."""
    members, mult = [0], group.mult
    _close(members, {0: 0}, tuple(elements), lambda x, s: mult[x][s],
           group.order)
    return tuple(sorted(members))


def generating_set(group: GroupTable) -> tuple[int, ...]:
    """Greedy generators: each is the first element, in index order, outside
    the subgroup generated by the ones before it.  Never empty: ``(0,)``
    for the trivial group."""
    return tuple(_greedy_generators(group.mult)) or (0,)


def is_subgroup(group: GroupTable, elements: Sequence[int]) -> bool:
    """Whether ``elements`` is its own subgroup closure."""
    return subgroup_closure(group, elements) == tuple(sorted(set(elements)))


def direct_product(g1: GroupTable, g2: GroupTable) -> GroupTable:
    """Componentwise product; index of (a, b) is ``a * |G2| + b``."""
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    mult = [[0] * n for _ in range(n)]
    for a1 in range(n1):
        for a2 in range(n2):
            i = a1 * n2 + a2
            for b1 in range(n1):
                for b2 in range(n2):
                    j = b1 * n2 + b2
                    mult[i][j] = g1.mul(a1, b1) * n2 + g2.mul(a2, b2)
    names = None
    if g1.names is not None or g2.names is not None:
        names = [f"({g1.name(a1)},{g2.name(a2)})"
                 for a1 in range(n1) for a2 in range(n2)]
    return group_from_table(n, mult, names=names)


def cyclic_group(n: int) -> GroupTable:
    mult = [[(a + b) % n for b in range(n)] for a in range(n)]
    return group_from_table(n, mult, names=[str(i) for i in range(n)])


def group_to_json(group: GroupTable) -> dict:
    obj = {"type": "table", "order": group.order,
           "mult": [list(row) for row in group.mult]}
    if group.names is not None:
        obj["names"] = list(group.names)
    return obj


def group_from_json(obj: dict) -> GroupTable:
    """Build a group from its wire format.

    Accepts ``{"type": "table", "order": n, "mult": [[...]], "names": [...]}``
    or ``{"type": "perm", "degree": d, "generators": [[...]]}``.
    """
    if not isinstance(obj, dict):
        raise TypeError(f"group payload must be an object, not "
                        f"{type(obj).__name__}")
    kind = obj.get("type", "table")
    if kind == "table":
        return group_from_table(obj["order"], obj["mult"], names=obj.get("names"))
    if kind == "perm":
        return group_from_permutations(obj["degree"], obj["generators"])
    raise KeyError(f"unknown group type {kind!r}")
