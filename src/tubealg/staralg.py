"""Shared machinery for algebras with monomial structure constants.

The tube algebra, the two-subgroup annular algebra, its double-coset
cut-down, and twisted group algebras all share one shape: products of
basis elements are a single phase times a basis element (or zero), the
involution sends a basis element to a phase times a basis element, and
the canonical trace is 0/1 on the basis.  :class:`MonomialStarAlgebra`
captures that shape once; generic verifiers (associativity,
anti-automorphism laws, trace symmetry, orthonormality of the basis)
and the linear-element layer live here.

Coefficients of linear elements are ordinary complex numbers unless the
caller supplies exact field elements; structure constants themselves
are always exact phases: ints mod the algebra's ``modulus`` (see
:mod:`tubealg.phase`).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate
from typing import Hashable, Optional, Sequence

from .phase import CheckResult, root


class Element:
    """Finitely supported linear combination of basis labels."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: "MonomialStarAlgebra", coeffs: dict):
        self.algebra = algebra
        self.coeffs = {k: v for k, v in coeffs.items() if v != 0}

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return Element(self.algebra, out)

    def __sub__(self, other: "Element") -> "Element":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return Element(self.algebra, out)

    def scale(self, c) -> "Element":
        return Element(self.algebra, {k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other: "Element") -> "Element":
        return self.algebra.mult_elements(self, other)

    def star(self) -> "Element":
        return self.algebra.star_element(self)

    def trace(self):
        return sum(c for k, c in self.coeffs.items()
                   if self.algebra.trace_basis(k))

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.coeffs == other.coeffs


def _conj(c):
    return c.conjugate() if hasattr(c, "conjugate") else c


class MonomialStarAlgebra:
    """Base for *-algebras whose basis multiplies monomially.

    Subclasses provide:
      - ``modulus``: N; every phase below is an int k in range(N)
        standing for exp(2 pi i k / N),
      - ``labels()``: the ordered basis,
      - ``mult_basis(left, right)``: ``None`` or ``(phase, label)`` for
        the product in which ``right`` acts first,
      - ``star_basis(label)``: ``(phase, label)``,
      - ``trace_basis(label)``: truthy exactly on trace-supporting labels,
      - ``unit_labels()``: labels whose sum is the unit,
    and may narrow ``_right_factors(left)``, the labels ``right`` for
    which ``left . right`` can be nonzero (by default every label).

    Every verifier and builder reads two tables built on first use:
    ``products``, ``(left, right) -> (phase, label)`` for the nonzero
    basis products, left-major in label order, and ``stars``.  The
    verifiers walk these and cover the zero products by counting.
    """

    modulus: int

    def labels(self) -> Sequence[Hashable]:
        raise NotImplementedError

    def mult_basis(self, left, right) -> Optional[tuple[int, Hashable]]:
        raise NotImplementedError

    def star_basis(self, label) -> tuple[int, Hashable]:
        raise NotImplementedError

    def trace_basis(self, label) -> bool:
        raise NotImplementedError

    def unit_labels(self) -> Sequence[Hashable]:
        raise NotImplementedError

    def validate_label(self, label) -> None:
        pass

    def _right_factors(self, left) -> Sequence[Hashable]:
        return self.labels()

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

    # -- linear layer -----------------------------------------------------

    def element(self, coeffs: dict) -> Element:
        for k in coeffs:
            self.validate_label(k)
        return Element(self, coeffs)

    def basis_element(self, label) -> Element:
        return Element(self, {label: 1.0 + 0.0j})

    def unit(self) -> Element:
        return Element(self, {k: 1.0 + 0.0j for k in self.unit_labels()})

    def mult_elements(self, left: Element, right: Element) -> Element:
        out: dict = {}
        for kl, cl in left.coeffs.items():
            for kr, cr in right.coeffs.items():
                hit = self.mult_basis(kl, kr)
                if hit is None:
                    continue
                ph, k = hit
                out[k] = out.get(k, 0) + cl * cr * root(ph, self.modulus)
        return Element(self, out)

    def star_element(self, x: Element) -> Element:
        out: dict = {}
        for k, c in x.coeffs.items():
            ph, ks = self.star_basis(k)
            out[ks] = out.get(ks, 0) + _conj(c) * root(ph, self.modulus)
        return Element(self, out)

    def trace_element(self, x: Element):
        return x.trace()

    def inner(self, x: Element, y: Element):
        """<x, y> = trace(y* x); linear in x, conjugate-linear in y."""
        return self.trace_element(self.mult_elements(self.star_element(y), x))

    def random_element(self, rng: random.Random) -> Element:
        coeffs = {k: complex(rng.gauss(0, 1), rng.gauss(0, 1))
                  for k in self.labels()}
        return Element(self, coeffs)

    # -- exact checks over the basis ---------------------------------------

    def _composable(self) -> dict:
        """Per label a, the labels b with b . a nonzero, in label order."""
        comp: dict = {a: [] for a in self.labels()}
        for b, a in self.products:
            comp[a].append(b)
        return comp

    def _triples(self, comp: dict, samples: Optional[int], seed: int):
        """Composable triples (c, b, a): every one in label order when
        ``samples`` is None, else ``samples`` uniform draws from them all."""
        if samples is None:
            for a, bs in comp.items():
                for b in bs:
                    for c in comp[b]:
                        yield c, b, a
            return
        # draw a by its number of triples, then b by its number of c's
        heads = list(comp)
        tails = [list(accumulate(len(comp[b]) for b in comp[a])) for a in heads]
        cum = list(accumulate(t[-1] if t else 0 for t in tails))
        rng = random.Random(seed)
        for _ in range(samples):
            r = rng.randrange(cum[-1])
            i = bisect_right(cum, r)
            r -= cum[i - 1] if i else 0
            j = bisect_right(tails[i], r)
            r -= tails[i][j - 1] if j else 0
            b = comp[heads[i]][j]
            yield comp[b][r], b, heads[i]

    def check_associativity(self, exhaustive_limit: int = 0,
                            samples: int = 100000, seed: int = 0) -> CheckResult:
        """(c b) a == c (b a) over composable basis triples, exactly.

        ``exhaustive_limit`` of 0 means fully exhaustive; otherwise, when
        there are more triples than the limit, ``samples`` of them are
        drawn uniformly.  ``detail`` says which was done.
        """
        comp = self._composable()
        total = sum(len(comp[b]) for bs in comp.values() for b in bs)
        if exhaustive_limit and total > exhaustive_limit:
            detail = f"sampled {samples} of {total}, seed {seed}"
        else:
            samples, detail = None, f"exhaustive {total}"
        products, N = self.products, self.modulus
        for c, b, a in self._triples(comp, samples, seed):
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
        """The sum of unit labels multiplies as a two-sided identity."""
        units, products = list(self.unit_labels()), self.products
        for a in self.labels():
            for side, pairs in (("unit-left", [(u, a) for u in units]),
                                ("unit-right", [(a, u) for u in units])):
                hits = [products[p] for p in pairs if p in products]
                if len(hits) != 1 or hits[0][1] != a or hits[0][0]:
                    return CheckResult(False, side, (a,))
        return CheckResult(True, "unit", detail=f"exhaustive {len(self.labels())}")

    def check_all(self, exhaustive_limit: int = 0, samples: int = 100000,
                  seed: int = 0) -> list[CheckResult]:
        return [
            self.check_associativity(exhaustive_limit, samples, seed),
            self.check_star_laws(),
            self.check_trace(),
            self.check_gram_identity(),
            self.check_unit(),
        ]
