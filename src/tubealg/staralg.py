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
are always exact phases.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Hashable, Optional, Sequence

from .phase import CheckResult, Phase


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
      - ``labels()``: the ordered basis,
      - ``mult_basis(left, right)``: ``None`` or ``(phase, label)`` for
        the product in which ``right`` acts first,
      - ``star_basis(label)``: ``(phase, label)``,
      - ``trace_basis(label)``: truthy exactly on trace-supporting labels,
      - ``unit_labels()``: labels whose sum is the unit.
    """

    def labels(self) -> Sequence[Hashable]:
        raise NotImplementedError

    def mult_basis(self, left, right) -> Optional[tuple[Phase, Hashable]]:
        raise NotImplementedError

    def star_basis(self, label) -> tuple[Phase, Hashable]:
        raise NotImplementedError

    def trace_basis(self, label) -> bool:
        raise NotImplementedError

    def unit_labels(self) -> Sequence[Hashable]:
        raise NotImplementedError

    def validate_label(self, label) -> None:
        pass

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
                out[k] = out.get(k, 0) + cl * cr * ph.as_complex()
        return Element(self, out)

    def star_element(self, x: Element) -> Element:
        out: dict = {}
        for k, c in x.coeffs.items():
            ph, ks = self.star_basis(k)
            out[ks] = out.get(ks, 0) + _conj(c) * ph.as_complex()
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
        labels = list(self.labels())
        return {a: [b for b in labels if self.mult_basis(b, a) is not None]
                for a in labels}

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
        for c, b, a in self._triples(comp, samples, seed):
            ph_ba, ba = self.mult_basis(b, a)
            ph_cb, cb = self.mult_basis(c, b)
            left = self.mult_basis(cb, a)
            right = self.mult_basis(c, ba)
            if left is None or right is None:
                if left is not right:
                    return CheckResult(False, "associativity", (c, b, a), detail)
                continue
            if left[1] != right[1] or \
                    (ph_cb.q + left[0].q) % 1 != (ph_ba.q + right[0].q) % 1:
                return CheckResult(False, "associativity", (c, b, a), detail)
        return CheckResult(True, "associativity", detail=detail)

    def check_star_laws(self) -> CheckResult:
        """star is involutive and anti-multiplicative on the basis."""
        labels = list(self.labels())
        for a in labels:
            ph1, a1 = self.star_basis(a)
            ph2, a2 = self.star_basis(a1)
            if a2 != a or (ph1.inv().q + ph2.q) % 1 != 0:
                # star is conjugate-linear: (ph1 * a1)* = conj(ph1) * a1*
                return CheckResult(False, "star-involution", (a,))
        for b in labels:
            phb, bs = self.star_basis(b)
            for a in labels:
                pha, as_ = self.star_basis(a)
                ba = self.mult_basis(b, a)
                ab = self.mult_basis(as_, bs)
                if ba is None or ab is None:
                    if ba is not ab:
                        return CheckResult(False, "star-antihom", (b, a))
                    continue
                ph_ba, lab_ba = ba
                ph_star, lab_star = self.star_basis(lab_ba)
                lhs = (ph_ba.inv().q + ph_star.q) % 1
                rhs = (pha.q + phb.q + ab[0].q) % 1
                if lab_star != ab[1] or lhs != rhs:
                    return CheckResult(False, "star-antihom", (b, a))
        return CheckResult(True, "star-laws")

    def check_trace(self) -> CheckResult:
        """trace(b a) == trace(a b) for all basis pairs, exactly."""
        labels = list(self.labels())
        for b in labels:
            for a in labels:
                ba = self.mult_basis(b, a)
                ab = self.mult_basis(a, b)
                tba = ba is not None and self.trace_basis(ba[1])
                tab = ab is not None and self.trace_basis(ab[1])
                if tba != tab:
                    return CheckResult(False, "trace-symmetry", (b, a))
                if tba and ba[0].q != ab[0].q:
                    return CheckResult(False, "trace-symmetry", (b, a))
        return CheckResult(True, "trace-symmetry")

    def check_gram_identity(self) -> CheckResult:
        """<a, b> = delta_{a,b} over the basis: an orthonormal basis."""
        labels = list(self.labels())
        for a in labels:
            for b in labels:
                phb, bs = self.star_basis(b)
                prod = self.mult_basis(bs, a)
                val = None
                if prod is not None and self.trace_basis(prod[1]):
                    val = (phb.q + prod[0].q) % 1
                if a == b:
                    if val != 0:
                        return CheckResult(False, "gram", (a, b))
                elif val is not None:
                    return CheckResult(False, "gram", (a, b))
        return CheckResult(True, "gram")

    def check_unit(self) -> CheckResult:
        """The sum of unit labels multiplies as a two-sided identity."""
        units = list(self.unit_labels())
        for a in self.labels():
            hits = [self.mult_basis(u, a) for u in units]
            hits = [h for h in hits if h is not None]
            if len(hits) != 1 or hits[0][1] != a or not hits[0][0].is_one():
                return CheckResult(False, "unit-left", (a,))
            hits = [self.mult_basis(a, u) for u in units]
            hits = [h for h in hits if h is not None]
            if len(hits) != 1 or hits[0][1] != a or not hits[0][0].is_one():
                return CheckResult(False, "unit-right", (a,))
        return CheckResult(True, "unit")

    def check_all(self, exhaustive_limit: int = 0, samples: int = 100000,
                  seed: int = 0) -> list[CheckResult]:
        return [
            self.check_associativity(exhaustive_limit, samples, seed),
            self.check_star_laws(),
            self.check_trace(),
            self.check_gram_identity(),
            self.check_unit(),
        ]
