"""Annular algebra over a weight set indexed by G, for G = <H, K>.

Morphisms between weight objects are spanned by boxes
``(h1, g1, g2, h2)`` with ``h1 g1 = g2 h2`` (nonzero only inside one
H-H double coset).  The annular algebra is the tube-shaped algebra of
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
produced by :func:`end_xg_algebra`, and their minimal idempotent
splittings index the simple weight objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .coho import BHSetup
from .grp import GroupTable
from .phase import CheckResult, Cocycle2
from .rep import center_dimension, decompose, TwistedGroupAlgebra
from .tube_diag import SimpleCount, TubeAlgebra, TubeBasisElement, \
    TubeShapedAlgebra, block_simple_count


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

    def __init__(self, setup: BHSetup, validate: bool = True):
        # validate=False only makes sense for formula-level comparisons
        # where the caller vouches for the setup (e.g. trivial H)
        if validate:
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

    # -- box calculus ----------------------------------------------------------

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
        """All boxes from weight g1 to weight g2; empty across double cosets."""
        G = self.group
        out = []
        for h1 in self.H:
            for h2 in self.H:
                if G.mul(h1, g1) == G.mul(g2, h2):
                    out.append(BoxMorphism(h1, g1, g2, h2))
        return out

    def validate_box(self, b: BoxMorphism) -> None:
        G = self.group
        if b.h1 not in self.H or b.h2 not in self.H or \
                G.mul(b.h1, b.g1) != G.mul(b.g2, b.h2):
            raise ValueError(f"malformed box {b}")

    def identity_box(self, g: int) -> BoxMorphism:
        return BoxMorphism(0, g, g, 0)


def box_checks(alg: AnnularAlgebra) -> list[CheckResult]:
    """Exhaustive unitarity, involution and associativity of the box calculus."""
    G, N = alg.group, alg.modulus
    boxes = [b for g1 in G.elements() for g2 in G.elements()
             for b in alg.box_basis(g1, g2)]
    for b in boxes:
        ph1, bs = alg.box_star(b)
        ph2, bss = alg.box_star(bs)
        if bss != b or ph1 != ph2:
            return [CheckResult(False, "box-star-involution", (b,))]
        # b* . b must be the identity box of the source weight, scalar 1
        ph_c, prod = alg.box_compose(bs, b)
        if prod != alg.identity_box(b.g1) or (ph1 + ph_c) % N:
            return [CheckResult(False, "box-unitarity", (b,))]
        ph_c, prod = alg.box_compose(b, bs)
        if prod != alg.identity_box(b.g2) or (ph1 + ph_c) % N:
            return [CheckResult(False, "box-unitarity", (b,))]
    detail = f"exhaustive {len(boxes)}"
    out = [CheckResult(True, "box-star-involution", detail=detail),
           CheckResult(True, "box-unitarity", detail=detail)]
    by_source: dict[int, list[BoxMorphism]] = {}
    for b in boxes:
        by_source.setdefault(b.g1, []).append(b)
    triples = 0
    for a in boxes:
        for b in by_source.get(a.g2, ()):
            ph_ba, ba = alg.box_compose(b, a)
            for c in by_source.get(b.g2, ()):
                triples += 1
                ph_cb, cb = alg.box_compose(c, b)
                ph_l, left = alg.box_compose(cb, a)
                ph_r, right = alg.box_compose(c, ba)
                if left != right or (ph_cb + ph_l - ph_ba - ph_r) % N:
                    out.append(CheckResult(False, "box-associativity", (c, b, a)))
                    return out
    out.append(CheckResult(True, "box-associativity",
                           detail=f"exhaustive {triples}"))
    return out


@dataclass
class BHIsoReport:
    results: dict
    passing: list[str]
    basis_count: int
    block_count: int

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
                       passing=[c for c, r in results.items() if r.ok],
                       basis_count=len(alg.labels()),
                       block_count=alg.block_algebra().total_dimension())


def end_xg_algebra(setup: BHSetup, g: int) -> Cocycle2:
    """The endomorphism twist of the weight g, on H^g = H meet g^-1 H g.

    mu(h1, h2) = w(g h1 g^-1, g h2 g^-1, g)^-1 * w(g h1 g^-1, g, h2)
                 * w(g, h1, h2)^-1

    Only the table is built: ``TwistedGroupAlgebra`` checks the
    2-cocycle law of the twists it is given, and ``bh check`` checks it
    for every weight.
    """
    G, w = setup.group, setup.omega
    Hs = set(setup.H)
    gi = G.inverse(g)
    hg = tuple(sorted(h for h in setup.H
                      if G.mul(G.mul(g, h), gi) in Hs))
    values = []
    for h1 in hg:
        c1 = G.mul(G.mul(g, h1), gi)
        for h2 in hg:
            c2 = G.mul(G.mul(g, h2), gi)
            values.append(w(c1, g, h2) - w(c1, c2, g) - w(g, h1, h2))
    return Cocycle2(G, hg, values, w.modulus)


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
    """The annular algebra on the objects (h, d), d a representative weight."""

    def __init__(self, annular: AnnularAlgebra):
        self.annular = annular
        self.weights = tuple(
            sorted(c[0] for c in double_cosets(annular.group, annular.H)))
        self._build(annular.setup, self.weights)


@dataclass
class EndSplitting:
    weight: int
    subgroup: tuple[int, ...]
    blocks: list
    minimal_projections: int


@dataclass
class CutdownReport:
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
    endomorphism of that weight, so cutting by the identity splittings
    of :func:`end_xg_algebra` leaves the subalgebra on representative
    weights.  Reports corner dimensions, the minimal idempotent
    splitting of each weight endomorphism algebra (these index the
    simple weight objects), and the simple count of the corner algebra,
    computed exactly and compared against the full algebra's count.
    """
    setup, G = alg.setup, alg.group
    cut = CutdownAlgebra(alg)
    corner_dims = {}
    for d1 in cut.weights:
        for d2 in cut.weights:
            corner_dims[(d1, d2)] = sum(
                1 for x in cut.labels() if x.g1 == d1 and x.g2 == d2)
    end_data = []
    total_simple_objects = 0
    for g in cut.weights:
        tw = end_xg_algebra(setup, g)
        talg = TwistedGroupAlgebra(G, tw.elements, tw)
        blocks = decompose(talg, seed=seed)
        # the identity of a sum of matrix blocks splits into dim-many
        # minimal projections per block
        nmin = sum(b.dimension for b in blocks)
        end_data.append(EndSplitting(
            weight=g, subgroup=tw.elements,
            blocks=[(b.dimension, b.multiplicity) for b in blocks],
            minimal_projections=nmin))
        total_simple_objects += nmin
    full = block_simple_count(alg.block_algebra("op-inverse"))
    cut_count = center_dimension(cut)
    return CutdownReport(
        weights=cut.weights,
        corner_dims=corner_dims,
        end_data=end_data,
        simple_objects=total_simple_objects,
        simple_count_full=full,
        simple_count_cutdown=cut_count,
        counts_agree=(cut_count == full.total),
    )


def compare_cutdown_diagonal(setup: BHSetup) -> CheckResult:
    """With trivial H the cut-down must be the tube algebra on the nose.

    Matches every structure constant, involution scalar and trace value
    under A(e, g1, s, e, g2) <-> a(g1, s, g2).
    """
    if tuple(setup.H) != (0,):
        raise ValueError("exact comparison requires trivial H")
    setup.omega.ensure_valid()
    annular = AnnularAlgebra(setup, validate=False)
    cut = CutdownAlgebra(annular)
    tube = TubeAlgebra(setup.group, setup.omega)
    if len(cut.labels()) != len(tube.labels()):
        return CheckResult(False, "cutdown-diagonal-size",
                           (len(cut.labels()), len(tube.labels())))

    def to_tube(x: ABasisElement):
        return TubeBasisElement(x.g1, x.s, x.g2)

    for left in cut.labels():
        phs, labs = cut.star_basis(left)
        pht, labt = tube.star_basis(to_tube(left))
        if phs != pht or to_tube(labs) != labt:
            return CheckResult(False, "cutdown-diagonal-star", (left,))
        if cut.trace_basis(left) != tube.trace_basis(to_tube(left)):
            return CheckResult(False, "cutdown-diagonal-trace", (left,))
        for right in cut.labels():
            pc = cut.mult_basis(left, right)
            pt = tube.mult_basis(to_tube(left), to_tube(right))
            if (pc is None) != (pt is None):
                return CheckResult(False, "cutdown-diagonal-mult", (left, right))
            if pc is not None and (pc[0] != pt[0] or to_tube(pc[1]) != pt[1]):
                return CheckResult(False, "cutdown-diagonal-mult", (left, right))
    return CheckResult(True, "cutdown-diagonal")
