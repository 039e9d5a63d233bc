"""The exact core: twisted groupoid algebras with monomial structure constants.

The tube algebra, the two-subgroup annular algebra, its double-coset
cut-down, the box calculus and twisted group algebras share one shape:
the basis is the morphisms of a finite groupoid, the product of two
composable morphisms is a phase times their composite (other products
are zero), and the involution sends a morphism to a phase times its
inverse.  :class:`MonomialStarAlgebra` captures that shape once: from the
groupoid and the product it derives the composable pairs, the trace, the
unit and the star, and its generic verifiers (associativity,
anti-automorphism laws, trace symmetry, orthonormality of the basis, the
unit) are exhaustive over the basis.
Structure constants are exact phases, ints mod the algebra's
``modulus`` (see :mod:`tubealg.phase`), read only from the ``products``
and ``stars`` tables that ``mult_basis`` and ``star_basis`` fill.
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
    sum) and the star (:meth:`star_basis`).

    ``mult_basis`` and ``star_basis`` only fill two tables, built on
    first use and read by every verifier, builder and consumer:
    ``products``, ``(left, right) -> (phase, label)`` for the nonzero
    basis products, left-major in label order, and ``stars``.  The
    verifiers cover the zero products by counting.
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
        comp = self._composable()
        products, N = self.products, self.modulus
        detail = f"exhaustive {sum(len(comp[b]) for b, _ in products)}"
        for c, b, a in self._triples(comp):
            ph_ba, ba = products[(b, a)]
            ph_cb, cb = products[(c, b)]
            left = products.get((cb, a))
            right = products.get((c, ba))
            if left is None or right is None:
                if left is not right:
                    return CheckResult(False, "associativity", (c, b, a), detail)
                continue
            if left[1] != right[1] or (ph_cb + left[0] - ph_ba - right[0]) % N:
                return CheckResult(False, "associativity", (c, b, a), detail)
        return CheckResult(True, "associativity", detail=detail)

    def check_star_laws(self) -> CheckResult:
        """star is involutive and anti-multiplicative on the basis.

        (b, a) -> (a*, b*) then permutes the label pairs, so sending the
        nonzero products to nonzero ones also sends zero ones to zero.
        """
        stars, products, N = self.stars, self.products, self.modulus
        for a, (ph1, a1) in stars.items():
            ph2, a2 = stars[a1]
            if a2 != a or ph1 != ph2:
                # star is conjugate-linear: (ph1 * a1)* = conj(ph1) * a1*
                return CheckResult(False, "star-involution", (a,))
        for (b, a), (ph_ba, lab_ba) in products.items():
            phb, bs = stars[b]
            pha, as_ = stars[a]
            ab = products.get((as_, bs))
            if ab is None:
                return CheckResult(False, "star-antihom", (b, a))
            ph_star, lab_star = stars[lab_ba]
            if lab_star != ab[1] or (ph_star - ph_ba - pha - phb - ab[0]) % N:
                return CheckResult(False, "star-antihom", (b, a))
        return CheckResult(True, "star-laws", detail=f"exhaustive {len(products)}")

    def check_trace(self) -> CheckResult:
        """trace(b a) == trace(a b) for all basis pairs, exactly.

        The swap permutes the pairs, so checking the pairs of nonzero
        trace covers the others.
        """
        products = self.products
        for (b, a), (ph, lab) in products.items():
            if not self.trace_basis(lab):
                continue
            ab = products.get((a, b))
            if ab is None or not self.trace_basis(ab[1]) or ab[0] != ph:
                return CheckResult(False, "trace-symmetry", (b, a))
        return CheckResult(True, "trace-symmetry",
                           detail=f"exhaustive {len(products)}")

    def check_gram_identity(self) -> CheckResult:
        """<a, b> = trace(b* a) = delta_{a,b}: an orthonormal basis.

        Each trace-supported product (b*, a) must have a = b, and each
        <a, a> must be 1.
        """
        stars, products = self.stars, self.products
        starred: dict = {}
        for b, (_, bs) in stars.items():
            starred.setdefault(bs, []).append(b)
        for (bs, a), (_, lab) in products.items():
            others = [b for b in starred.get(bs, ()) if b != a]
            if others and self.trace_basis(lab):
                return CheckResult(False, "gram", (a, others[0]))
        for a, (pha, as_) in stars.items():
            prod = products.get((as_, a))
            if prod is None or not self.trace_basis(prod[1]) or \
                    (pha + prod[0]) % self.modulus:
                return CheckResult(False, "gram", (a, a))
        return CheckResult(True, "gram", detail=f"exhaustive {len(products)}")

    def check_unit(self) -> CheckResult:
        """The sum of the identities is a two-sided unit: each a : x -> y
        has 1_y a = a and a 1_x = a.  ``products`` holds no other product
        of a with an identity: its pairs are composable by construction."""
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
        return [
            self.check_associativity(),
            self.check_star_laws(),
            self.check_trace(),
            self.check_gram_identity(),
            self.check_unit(),
        ]


class TwistedGroupAlgebra(MonomialStarAlgebra):
    """The group algebra of a twist's subgroup S, [g][h] = phi(g,h)[gh].

    Associativity of this algebra is, term by term, the 2-cocycle law
    phi(a,b) phi(ab,c) = phi(b,c) phi(a,bc) of its twist, so the
    constructor walks :meth:`check_associativity` over all |S|^3
    triples and raises CocycleError, the triple as witness, if it fails;
    the result is kept, so :meth:`check_all` does not walk them again.
    The groupoid has one object, ``"*"``, and its identity is the
    group's, ``0``: a twist that is not normalized fails the unit check.
    """

    _associativity: Optional[CheckResult] = None
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

    def check_associativity(self) -> CheckResult:
        if self._associativity is None:
            self._associativity = super().check_associativity()
        return self._associativity

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
