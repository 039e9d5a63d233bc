"""Annular algebra over a weight set indexed by G, for G = <H, K>.

Morphisms between weight objects are spanned by boxes
``(h1, g1, g2, h2)`` with ``h1 g1 = g2 h2`` (nonzero only inside one
H-H double coset); they form :class:`BoxAlgebra`, one more monomial
*-algebra checked by the shared verifiers of :mod:`tubealg.staralg`.
The annular algebra is the tube-shaped algebra of
:mod:`tubealg.tube_diag` on the objects ``(h, g)`` in H x G, each of
weight ``h g``: its basis ``A(h1, g1, s, h2, g2)`` is the morphism
``(h1, g1) -s-> (h2, g2)``, with ``h1 g1 s = s h2 g2``.  Products, the
involution, the trace, the block map and its verifier are the tube
ones in these weights; ``bh_verify_star_iso`` checks the block map
under both candidate twist conventions and reports which ones work.

The final corner construction cuts the weight set down to H-H
double-coset representatives.  The identity endomorphism of each weight
pushes to the unit of its corner, so the cut-down is the same algebra
on the objects ``(h, d)`` with ``d`` a representative weight;
endomorphism algebras of single weights are the twisted algebras
produced by :func:`end_xg_algebra`, whose twist is read off the box
composition of the weight's endomorphisms, and their minimal idempotent
splittings index the simple weight objects.  Those splittings are
exact: :func:`tubealg.splitting.projective_dimensions` reads the block
dimensions of each twisted algebra over a prime field, so nothing here
loads numpy.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import NamedTuple, Optional, Sequence

from .coho import BHSetup
from .grp import GroupTable
from .phase import CheckResult, Cocycle2
from .staralg import MonomialStarAlgebra, TwistedGroupAlgebra, center_dimension
from .tube_diag import SimpleCount, TubeAlgebra, TubeBasisElement, \
    TubeShapedAlgebra, simple_count


class ABasisElement(NamedTuple):
    """Label A(h1, g1, s, h2, g2); constraint h1 g1 s = s h2 g2."""

    h1: int
    g1: int
    s: int
    h2: int
    g2: int


class BoxMorphism(NamedTuple):
    """A basis morphism between weights g1 and g2; constraint h1 g1 = g2 h2."""

    h1: int
    g1: int
    g2: int
    h2: int


class AnnularAlgebra(TubeShapedAlgebra):
    """The tube construction on the objects (h, g) in H x G, of weight h g.

    Objects run H-major, so labels come in the order (h1, g1, s, h2).
    """

    def __init__(self, setup: BHSetup):
        setup.validate()
        self._build(setup, setup.group.elements())

    def _build(self, setup: BHSetup, weights: Sequence[int]) -> None:
        """Build on the objects (h, g) for h in H and g in ``weights``."""
        G = setup.group
        self.setup = setup
        self.H = tuple(setup.H)
        TubeShapedAlgebra.__init__(self, G, setup.omega,
                                   [(h, g) for h in self.H for g in weights],
                                   lambda x: G.mul(*x))

    @staticmethod
    def _pack(x: tuple[int, int], s: int, y: tuple[int, int]) -> ABasisElement:
        return ABasisElement(*x, s, *y)

    def basis_label(self, h1: int, g1: int, s: int, h2: int) -> ABasisElement:
        G = self.group
        # g2 is forced: h1 g1 s = s h2 g2
        g2 = G.mul(G.inverse(h2), G.mul(G.inverse(s), G.mul(G.mul(h1, g1), s)))
        return ABasisElement(h1, g1, s, h2, g2)

    @cached_property
    def boxes(self) -> BoxAlgebra:
        """The box calculus between the weights of ``setup``."""
        return BoxAlgebra(self.setup)


class BoxAlgebra(MonomialStarAlgebra):
    """The box calculus: the groupoid whose objects are the weights g in
    G and whose morphisms g1 -> g2 are the boxes ``(h1, g1, g2, h2)``; a
    box out of g composes after the boxes into g.  Labels, enumerated on
    first use, run g1-major, then g2, then in :meth:`box_basis` order.
    The identity of g is the box ``(e, g, g, e)``."""

    def __init__(self, setup: BHSetup):
        self.group = setup.group
        self.omega = setup.omega
        self.modulus = setup.omega.modulus
        self.objects = tuple(setup.group.elements())
        self.H = tuple(setup.H)
        self._in_H = frozenset(self.H)

    @cached_property
    def _labels(self) -> list[BoxMorphism]:
        return [b for g1 in self.objects for g2 in self.objects
                for b in self.box_basis(g1, g2)]

    def labels(self) -> list[BoxMorphism]:
        return self._labels

    def ends(self, b: BoxMorphism) -> tuple[int, int]:
        return b.g1, b.g2

    @staticmethod
    def identity(g: int) -> BoxMorphism:
        return BoxMorphism(0, g, g, 0)

    def mult_basis(self, outer, inner) -> Optional[tuple[int, BoxMorphism]]:
        return self.box_compose(outer, inner) if inner.g2 == outer.g1 else None

    def star_basis(self, b: BoxMorphism) -> tuple[int, BoxMorphism]:
        return self.box_star(b)

    def box_compose(self, outer: BoxMorphism,
                    inner: BoxMorphism) -> tuple[int, BoxMorphism]:
        """outer . inner, defined when inner's target weight is outer's source."""
        if inner.g2 != outer.g1:
            raise ValueError("box gradings do not match")
        G, w = self.group, self.omega
        h3, g2, g3, h4 = outer.h1, outer.g1, outer.g2, outer.h2
        h1, g1, _, h2 = inner.h1, inner.g1, inner.g2, inner.h2
        scalar = (w(h3, g2, h2) - w(h3, h1, g1) - w(g3, h4, h2)) % self.modulus
        out = BoxMorphism(G.mul(h3, h1), g1, g3, G.mul(h4, h2))
        self.validate_box(out)
        return scalar, out

    def box_star(self, b: BoxMorphism) -> tuple[int, BoxMorphism]:
        G, w = self.group, self.omega
        scalar = -w(b.h1, b.g1, G.inverse(b.h2)) % self.modulus
        out = BoxMorphism(G.inverse(b.h1), b.g2, b.g1, G.inverse(b.h2))
        self.validate_box(out)
        return scalar, out

    def box_basis(self, g1: int, g2: int) -> list[BoxMorphism]:
        """The boxes from weight g1 to g2, by h1 (which forces h2)."""
        G, g2i = self.group, self.group.inverse(g2)
        return [BoxMorphism(h1, g1, g2, h2) for h1 in self.H
                if (h2 := G.mul(g2i, G.mul(h1, g1))) in self._in_H]

    def validate_box(self, b: BoxMorphism) -> None:
        if b.h1 not in self._in_H or b.h2 not in self._in_H or \
                self.group.mul(b.h1, b.g1) != self.group.mul(b.g2, b.h2):
            raise ValueError(f"malformed box {b}")


def box_checks(alg: AnnularAlgebra) -> list[CheckResult]:
    """The shared verifiers on ``alg.boxes``, exhaustive, under box names.

    ``box-star-involution`` is the star laws (involutive and
    anti-multiplicative); ``box-unitarity`` is the Gram identity, whose
    diagonal is b* b = 1 and, at b*, b b* = 1.  Both state the box count.
    """
    boxes = alg.boxes
    count = f"exhaustive {len(boxes.labels())}"
    out = [res._replace(name=name, detail=count if res.ok else "")
           for name, res in (("box-star-involution", boxes.check_star_laws()),
                             ("box-unitarity", boxes.check_gram_identity()))]
    return out + [boxes.check_associativity()._replace(name="box-associativity")]


class BHIsoReport(NamedTuple):
    results: dict
    passing: list[str]

    @property
    def ok(self) -> bool:
        return bool(self.passing)


def bh_verify_star_iso(alg: AnnularAlgebra) -> BHIsoReport:
    """Exhaustive block-map check under both twist conventions.

    Each convention is tested for multiplicativity on every basis pair
    and *-preservation on every basis element; the report names the
    conventions that pass rather than silently preferring one.
    """
    results = {convention: alg.check_block_map(convention)
               for convention in ("op-inverse", "plain-conjugate")}
    return BHIsoReport(results=results,
                       passing=[c for c, r in results.items() if r.ok])


def end_xg_algebra(setup: BHSetup, g: int) -> Cocycle2:
    """The endomorphism twist of the weight g, on H^g = H meet g^-1 H g.

    h in H^g labels the box (g h g^-1, g, g, h), and mu(h1, h2) is the
    phase of box h1 after box h2, read off :meth:`BoxAlgebra.box_compose`
    on the endomorphism boxes of g alone.  Its 2-cocycle law is their
    associativity, which ``box_checks`` walks."""
    boxes = BoxAlgebra(setup)
    ends = sorted(boxes.box_basis(g, g), key=lambda b: b.h2)
    return Cocycle2(setup.group, [b.h2 for b in ends],
                    [boxes.box_compose(b1, b2)[0] for b1 in ends for b2 in ends],
                    boxes.modulus)


def double_cosets(group: GroupTable, H: Sequence[int]) -> list[tuple[int, ...]]:
    """H-H double cosets, each sorted, listed by minimal representative."""
    seen = set()
    out = []
    for g in group.elements():
        if g in seen:
            continue
        coset = sorted({group.mul(group.mul(h1, g), h2)
                        for h1 in H for h2 in H})
        seen.update(coset)
        out.append(tuple(coset))
    return out


class CutdownAlgebra(AnnularAlgebra):
    """The annular algebra on the objects (h, d), d a representative weight.

    Built on ``setup`` as given: unlike :class:`AnnularAlgebra` it does
    not run :meth:`BHSetup.validate`.
    """

    def __init__(self, setup: BHSetup):
        self.weights = tuple(
            sorted(c[0] for c in double_cosets(setup.group, setup.H)))
        self._build(setup, self.weights)


class EndSplitting(NamedTuple):
    """A weight's endomorphism algebra: (dimension, multiplicity) blocks."""

    weight: int
    subgroup: tuple[int, ...]
    blocks: list
    minimal_projections: int


class CutdownReport(NamedTuple):
    weights: tuple[int, ...]
    corner_dims: dict
    end_data: list[EndSplitting]
    simple_objects: int
    simple_count_full: SimpleCount
    simple_count_cutdown: int
    counts_agree: bool


def tube_cutdown(alg: AnnularAlgebra, seed: int = 0) -> CutdownReport:
    """Corner description of the annular algebra on double-coset weights.

    The unit of each weight corner is the image of the identity
    endomorphism of that weight.  Reports corner dimensions, the minimal
    idempotent splitting of each cut weight's :func:`end_xg_algebra`
    (these index the simple weight objects; the exact projective
    dimensions d give blocks (d, d) and sum d projections), and the
    corner's exact simple count against the full algebra's.  ``seed``
    only picks the central elements tried, not the result.
    """
    from .splitting import projective_dimensions
    setup = alg.setup
    cut = CutdownAlgebra(setup)
    corner_dims = dict.fromkeys(product(cut.weights, repeat=2), 0)
    for x in cut.labels():
        corner_dims[(x.g1, x.g2)] += 1
    end_data = []
    for g in cut.weights:
        tw = end_xg_algebra(setup, g)
        dims = projective_dimensions(TwistedGroupAlgebra(tw), seed=seed)
        end_data.append(EndSplitting(
            weight=g, subgroup=tw.elements, blocks=[(d, d) for d in dims],
            minimal_projections=sum(dims)))
    full = simple_count(alg)
    cut_count = center_dimension(cut)
    return CutdownReport(
        weights=cut.weights,
        corner_dims=corner_dims,
        end_data=end_data,
        simple_objects=sum(e.minimal_projections for e in end_data),
        simple_count_full=full,
        simple_count_cutdown=cut_count,
        counts_agree=(cut_count == full.total),
    )


def compare_cutdown_diagonal(setup: BHSetup) -> CheckResult:
    """With trivial H the cut-down must be the tube algebra on the nose.

    Matches every structure constant, involution scalar and trace value
    under A(e, g1, s, e, g2) <-> a(g1, s, g2), reading both algebras'
    ``products`` and ``stars`` tables.
    """
    if tuple(setup.H) != (0,):
        raise ValueError("exact comparison requires trivial H")
    setup.omega.ensure_valid()
    cut = CutdownAlgebra(setup)
    tube = TubeAlgebra(setup.group, setup.omega)
    if len(cut.labels()) != len(tube.labels()):
        return CheckResult(False, "cutdown-diagonal-size",
                           (len(cut.labels()), len(tube.labels())))

    def to_tube(x: ABasisElement):
        return TubeBasisElement(x.g1, x.s, x.g2)

    cut_products, tube_products = cut.products, tube.products
    for left in cut.labels():
        ph, lab = cut.stars[left]
        if tube.stars[to_tube(left)] != (ph, to_tube(lab)):
            return CheckResult(False, "cutdown-diagonal-star", (left,))
        if cut.trace_basis(left) != tube.trace_basis(to_tube(left)):
            return CheckResult(False, "cutdown-diagonal-trace", (left,))
        for right in cut.labels():
            pc = cut_products.get((left, right))
            mapped = None if pc is None else (pc[0], to_tube(pc[1]))
            if tube_products.get((to_tube(left), to_tube(right))) != mapped:
                return CheckResult(False, "cutdown-diagonal-mult", (left, right))
    return CheckResult(True, "cutdown-diagonal")
