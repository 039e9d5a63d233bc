"""The exact core: twisted groupoid algebras with monomial structure constants.

The tube algebra, the two-subgroup annular algebra, its double-coset
cut-down, the box calculus and twisted group algebras share one shape:
the basis is the morphisms of a finite groupoid, the product of two
composable morphisms is a phase times their composite (other products
are zero), and the involution sends a morphism to a phase times its
inverse.  :class:`MonomialStarAlgebra` captures that shape once: from the
groupoid and the product it derives the composable pairs, the trace, the
unit and the star.  It walks associativity and the unit over the basis,
and from them and one walk over the inverses certifies the star laws,
trace symmetry and the orthonormality of the basis; each verdict is kept
with the tables it read.  Structure constants are exact phases, ints mod
the algebra's ``modulus`` (see :mod:`tubealg.phase`), read only from the
``products`` and ``stars`` tables that ``mult_basis`` and ``star_basis`` fill.
:class:`TwistedGroupAlgebra` is that shape on one object, checking its
twist's 2-cocycle law as its associativity; :func:`center_dimension`
counts the center of any of them.  :mod:`tubealg.rep` (representations)
and :mod:`tubealg.splitting` (prime-field splitting) build on this.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Hashable, Optional, Sequence

from .phase import CheckResult, Cocycle2, CocycleError


class MonomialStarAlgebra:
    """Base for twisted groupoid *-algebras: the basis is morphisms.

    Subclasses provide:
      - ``modulus``: N; every phase below is an int k in range(N)
        standing for exp(2 pi i k / N),
      - ``objects``: the groupoid's objects,
      - ``labels()``: the ordered basis, its morphisms,
      - ``ends(label)``: ``(source, target)`` of a morphism,
      - ``identity(obj)``: the label of ``obj``'s identity morphism,
      - ``inverse(label)``: the label of a morphism's inverse,
      - ``mult_basis(left, right)``: ``None`` or ``(phase, label)`` for
        the product in which ``right`` acts first; it is asked only when
        ``right`` ends where ``left`` starts.

    The base derives the right factors of ``left`` (the labels into its
    source), the trace (1 on the identities, else 0), the unit (their
    sum) and the star (:meth:`star_basis`).  Every reader takes structure
    constants from the tables ``mult_basis`` and ``star_basis`` fill on
    first use: ``products``, ``(left, right) -> (phase, label)`` for the
    nonzero basis products, left-major in label order, and ``stars``.
    A check runs once per table: its result is kept with the tables it read.
    """

    modulus: int
    objects: Sequence[Hashable]
    labels: Callable[[], Sequence[Hashable]]
    ends: Callable[[Hashable], tuple[Hashable, Hashable]]
    identity: Callable[[Hashable], Hashable]
    inverse: Callable[[Hashable], Hashable]
    mult_basis: Callable[[Hashable, Hashable], Optional[tuple[int, Hashable]]]

    # -- the groupoid -------------------------------------------------------

    @cached_property
    def _into(self) -> dict:
        """Object -> the labels ending there, in label order."""
        into: dict = {x: [] for x in self.objects}
        for a in self.labels():
            into[self.ends(a)[1]].append(a)
        return into

    def _right_factors(self, left) -> Sequence[Hashable]:
        return self._into[self.ends(left)[0]]

    @cached_property
    def _identities(self) -> frozenset:
        return frozenset(self.identity(x) for x in self.objects)

    def trace_basis(self, label) -> bool:
        return label in self._identities

    def star_basis(self, label) -> tuple[int, Hashable]:
        """m* = -tau(m^-1, m) m^-1, tau the product phase: trace(m* m) = 1."""
        inv = self.inverse(label)
        return -self.mult_basis(inv, label)[0] % self.modulus, inv

    # -- structure tables ---------------------------------------------------

    @cached_property
    def products(self) -> dict:
        table = {}
        for left in self.labels():
            for right in self._right_factors(left):
                hit = self.mult_basis(left, right)
                if hit is not None:
                    table[(left, right)] = hit
        return table

    @cached_property
    def stars(self) -> dict:
        return {a: self.star_basis(a) for a in self.labels()}

    # -- exact checks over the basis ---------------------------------------

    def _kept(self, key, check: Callable[[], object], *tables):
        """``check()``, kept under ``key`` with the tables it read, by identity;
        copies share the kept verdicts but are never served each other's."""
        kept = vars(self).setdefault("_verdicts", {}).get(key)
        if kept is None or any(a is not b for a, b in zip(kept[0], tables)):
            kept = self._verdicts[key] = (tables, check())
        return kept[1]

    def _composable(self) -> dict:
        """Per label a, the labels b with b . a nonzero, in label order."""
        comp: dict = {a: [] for a in self.labels()}
        for b, a in self.products:
            comp[a].append(b)
        return comp

    def _triples(self, comp: dict):
        """Every composable triple (c, b, a), in label order."""
        for a, bs in comp.items():
            for b in bs:
                for c in comp[b]:
                    yield c, b, a

    def check_associativity(self) -> CheckResult:
        """(c b) a == c (b a) over every composable basis triple, exactly;
        ``detail`` is ``exhaustive <triples>``."""
        return self._kept("associativity", self._associativity_walk,
                          self.products)

    def _associativity_walk(self) -> CheckResult:
        comp = self._composable()
        products, N = self.products, self.modulus
        detail = f"exhaustive {sum(len(comp[b]) for b, _ in products)}"
        for c, b, a in self._triples(comp):
            ph_ba, ba = products[(b, a)]
            ph_cb, cb = products[(c, b)]
            left, right = products.get((cb, a)), products.get((c, ba))
            if (left is None) != (right is None) or left is not None and (
                    left[1] != right[1] or (ph_cb + left[0] - ph_ba - right[0]) % N):
                return CheckResult(False, "associativity", (c, b, a), detail)
        return CheckResult(True, "associativity", detail=detail)

    def check_star_laws(self) -> CheckResult:
        """star is involutive and anti-multiplicative on the basis."""
        return self._certify("star-laws")

    def check_trace(self) -> CheckResult:
        """trace(b a) == trace(a b) for all basis pairs."""
        return self._certify("trace-symmetry")

    def check_gram_identity(self) -> CheckResult:
        """<a, b> = trace(b* a) = delta_{a,b}: an orthonormal basis."""
        return self._certify("gram")

    def _certify(self, name: str) -> CheckResult:
        """Law ``name``, certified: it holds when associativity, the unit
        and :meth:`_inverse_walk` pass.  These make ``products`` a twisted
        groupoid algebra, tau normalized, with a* = s(a) a^-1 for
        s(a) = -tau(a^-1, a).  Each step uses the unit: a left inverse n
        of a is a^-1, by associativity at (n, a, a^-1); involution, at
        (m, m^-1, m); anti-multiplicativity, at (a^-1, b^-1, b) and
        (a^-1 b^-1, b, a); trace symmetry, at (a, a^-1, a); Gram, off the
        diagonal, groupoid cancellation, and on it the inverse walk's star
        equation.  The premises are one verdict, kept with the tables they
        read; a failure names the first failing premise and its witness."""
        failed = self._kept("premises", lambda: next((res for res in (
            check() for check in (self.check_associativity, self.check_unit,
                                  self._inverse_walk)) if not res.ok), None),
            self.products, self.stars)
        if failed is not None:
            return CheckResult(False, name, failed.witness,
                               f"premise {failed.name} fails")
        return CheckResult(True, name, detail=(
            f"certified {len(self.products)} by associativity, unit, inverses "
            f"exhaustive {len(self.labels())}"))

    def _inverse_walk(self) -> CheckResult:
        """a^-1 a on 1_x, a a^-1 on 1_y, a* = -tau(a^-1, a) a^-1: a : x -> y."""
        products, stars, N = self.products, self.stars, self.modulus
        for a in self.labels():
            x, y = self.ends(a)
            inv = self.inverse(a)
            ph, left = products.get((inv, a), (0, None))
            right = products.get((a, inv), (0, None))[1]
            if (left, right) != (self.identity(x), self.identity(y)) \
                    or stars.get(a) != (-ph % N, inv):
                return CheckResult(False, "inverses", (a,))
        return CheckResult(True, "inverses")

    def check_unit(self) -> CheckResult:
        """The sum of the identities is a two-sided unit: 1_y a = a = a 1_x
        for each a : x -> y, whose only composable identities these are."""
        products = self.products
        for a in self.labels():
            x, y = self.ends(a)
            for side, pair in (("unit-left", (self.identity(y), a)),
                               ("unit-right", (a, self.identity(x)))):
                hit = products.get(pair)
                if hit is None or hit[1] != a or hit[0]:
                    return CheckResult(False, side, (a,))
        return CheckResult(True, "unit", detail=f"exhaustive {len(self.labels())}")

    def check_all(self) -> list[CheckResult]:
        return [check() for check in (
            self.check_associativity, self.check_star_laws, self.check_trace,
            self.check_gram_identity, self.check_unit)]


class TwistedGroupAlgebra(MonomialStarAlgebra):
    """The group algebra of a twist's subgroup S, [g][h] = phi(g,h)[gh].

    Associativity of this algebra is, term by term, the 2-cocycle law
    phi(a,b) phi(ab,c) = phi(b,c) phi(a,bc) of its twist, so the
    constructor walks :meth:`check_associativity` over all |S|^3
    triples and raises CocycleError, the triple as witness, if it fails.
    The groupoid has one object, ``"*"``, and its identity is the
    group's, ``0``: a twist that is not normalized fails the unit check.
    """

    objects = ("*",)

    def __init__(self, twist: Cocycle2):
        self.group = twist.group
        self.els = twist.elements
        self.twist = twist
        self.modulus = twist.modulus
        res = self.check_associativity()
        if not res.ok:
            raise CocycleError(f"twist fails associativity at triple "
                               f"{res.witness}", res.witness)

    @property
    def dimension(self) -> int:
        return len(self.els)

    def labels(self) -> Sequence[int]:
        return self.els

    def ends(self, g: int) -> tuple[str, str]:
        return "*", "*"

    def identity(self, obj: str) -> int:
        return 0

    def inverse(self, g: int) -> int:
        return self.group.inverse(g)

    def mult_basis(self, left: int, right: int):
        return self.twist(left, right), self.group.mul(left, right)


def center_dimension(alg: MonomialStarAlgebra) -> int:
    """Exact dimension of {z : az = za}: the phase-consistent orbits.

    Row (g, r) of the equations is the coefficient on r of g z - z g,
    for z = sum_t z_t t.  In a twisted groupoid algebra each side of a
    row has at most one term, so the kernel is an orbit count with
    phases mod N (:func:`tubealg.cyclotomic.nullspace_dimension`).  For
    a semisimple algebra this equals the number of irreducible
    representations.
    """
    from .cyclotomic import nullspace_dimension
    labels = list(alg.labels())
    idx = {a: i for i, a in enumerate(labels)}
    m = len(labels)
    rows: dict = {}   # g * m + r -> [term of g z, term of z g]
    for (left, right), (ph, r) in alg.products.items():
        i, j, k = idx[left], idx[right], idx[r]
        for g, side, t in ((i, 0, j), (j, 1, i)):
            row = rows.setdefault(g * m + k, [None, None])
            if row[side] is not None:
                raise ValueError(f"center row {(labels[g], r)} has two terms "
                                 "on one side: not a twisted groupoid algebra")
            row[side] = (t, ph)
    return nullspace_dimension(
        [[term for term in row if term is not None] for row in rows.values()],
        m, alg.modulus)


def label_key(label) -> str:
    """The wire key of a label: ``"g1,s,g2"`` for a tuple, else ``str``."""
    if isinstance(label, tuple):
        return ",".join(str(x) for x in label)
    return str(label)
