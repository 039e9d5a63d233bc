"""Tube-shaped algebras: twisted groupoid algebras over weighted objects.

A tube-shaped algebra over a finite group G with a normalized 3-cocycle
``w`` is fixed by an ordered list of objects, each carrying a weight in
G.  Its basis is the morphisms ``x -s-> y`` between objects with
``wt(x) s = s wt(y)``.  With ``a, b, c`` the weights of ``x, y, z``,
products, the involution ``#`` and the canonical trace are explicit
``w``-phases::

    (y -t-> z) . (x -s-> y) = w(a,s,t) w(s,b,t)^-1 w(s,t,c) (x -st-> z)
    (x -s-> y)^#            = w(a,s,s^-1)^-1 w(s,b,s^-1) w(s,s^-1,a)^-1
                              (y -s^-1-> x)
    trace (x -s-> y)        = [x == y][s == e]

The tube algebra has the objects g in G with weight g, and writes
``x -s-> y`` as ``a(g1, s, g2)``.  The annular algebra of
:mod:`tubealg.annular_bh` is the same construction on the objects
``(h, g)`` in H x G with weight ``h g``.

Each such algebra is isomorphic, as a *-algebra, to a direct sum over
conjugacy classes C of (matrices indexed by the objects of weight in C)
tensor (the group algebra of the centralizer of the class
representative, twisted by the derived 2-cocycle).  ``phi_iso`` realizes
the isomorphism on basis elements, with the transport cochain supplying
the scalar; ``check_block_map`` checks multiplicativity and
*-preservation exhaustively and exactly, and ``verify_star_iso`` runs it
on the tube algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .coho import gamma, phi_class, phi_class_plain_conjugate
from .grp import ClassData, GroupTable, conjugacy_data
from .phase import (CheckResult, Cocycle2, Cocycle3, CocycleError,
                    is_normalized, phase_str)
from .rep import TwistedGroupAlgebra, center_dimension
from .staralg import MonomialStarAlgebra


class TubeBasisElement(NamedTuple):
    """Label a(g1, s, g2); the constraint g1 s = s g2 is kept redundant."""

    g1: int
    s: int
    g2: int


@dataclass(frozen=True)
class BlockImage:
    """scalar * E[row, col] tensor [element], inside one class block; the
    scalar is a phase mod the cocycle's modulus."""

    class_index: int
    scalar: int
    row: object
    col: object
    element: int


class TubeShapedAlgebra(MonomialStarAlgebra):
    """The algebra of the module docstring on the given weighted objects.

    Subclasses set ``_pack(x, s, y)``, which builds the label of the
    morphism ``x -s-> y``.  Basis labels come in object order, then in
    group order of ``s``, then in object order of the target.
    """

    _pack: Callable

    def __init__(self, group: GroupTable, omega: Cocycle3,
                 objects: Sequence, weight: Callable):
        self.group = group
        self.omega = omega
        self.modulus = omega.modulus
        self.objects = tuple(objects)
        self._weight = {x: weight(x) for x in self.objects}
        self._by_weight: dict = {}
        for x in self.objects:
            self._by_weight.setdefault(self._weight[x], []).append(x)
        # (x, s, y) -> label, label -> (x, s, y, wt(x), wt(y)), and
        # y -> the labels into y: the right factors of a label out of y
        self._label_of: dict = {}
        self._parts: dict = {}
        self._into: dict = {y: [] for y in self.objects}
        for x in self.objects:
            a = self._weight[x]
            for s in group.elements():
                b = group.conjugate(group.inverse(s), a)
                for y in self._by_weight.get(b, ()):
                    label = self._pack(x, s, y)
                    self._label_of[(x, s, y)] = label
                    self._parts[label] = (x, s, y, a, b)
                    self._into[y].append(label)
        self._labels = list(self._label_of.values())
        self._class_data: Optional[ClassData] = None
        self._blocks: dict[str, BlockAlgebra] = {}
        self._images: Optional[dict] = None

    def _split(self, label) -> tuple:
        try:
            return self._parts[label]
        except KeyError:
            raise ValueError(f"malformed label {label}") from None

    def validate_label(self, label) -> None:
        self._split(label)

    def labels(self) -> list:
        return self._labels

    def _right_factors(self, left) -> list:
        return self._into[self._split(left)[0]]

    def mult_basis(self, left, right) -> Optional[tuple[int, object]]:
        x, s, y, a, b = self._split(right)
        y2, t, z, _, c = self._split(left)
        if y != y2:
            return None
        w = self.omega
        scalar = (w(a, s, t) - w(s, b, t) + w(s, t, c)) % self.modulus
        return scalar, self._label_of[(x, self.group.mul(s, t), z)]

    def star_basis(self, label) -> tuple[int, object]:
        x, s, y, a, b = self._split(label)
        w, si = self.omega, self.group.inverse(s)
        scalar = (w(s, b, si) - w(a, s, si) - w(s, si, a)) % self.modulus
        return scalar, self._label_of[(y, si, x)]

    def trace_basis(self, label) -> bool:
        x, s, y, _, _ = self._split(label)
        return s == 0 and x == y

    def unit_labels(self) -> list:
        return [self._label_of[(x, 0, x)] for x in self.objects]

    # -- block decomposition ------------------------------------------------

    @property
    def class_data(self) -> ClassData:
        if self._class_data is None:
            self._class_data = conjugacy_data(self.group)
        return self._class_data

    def sc_index(self) -> list[list]:
        """Per class, the objects whose weight lies in it, in object order."""
        cd = self.class_data
        sets: list[list] = [[] for _ in cd.classes]
        for x in self.objects:
            sets[cd.class_of[self._weight[x]]].append(x)
        return sets

    def block_algebra(self, convention: str = "op-inverse") -> "BlockAlgebra":
        """Block sum with the chosen twist convention.

        ``op-inverse`` uses phi_C(s, t) = conj(phi_{g_C}(t^-1, s^-1)), the
        twist under which the block map is multiplicative;
        ``plain-conjugate`` uses the pointwise conjugate of phi_{g_C}.
        """
        if convention not in self._blocks:
            cd = self.class_data
            builder = {"op-inverse": phi_class,
                       "plain-conjugate": phi_class_plain_conjugate}[convention]
            twists = [builder(self.group, self.omega, cd, c)
                      for c in range(cd.num_classes())]
            self._blocks[convention] = BlockAlgebra(
                self.group, cd, self.sc_index(), twists)
        return self._blocks[convention]

    def phi_iso(self, label) -> BlockImage:
        """Image of a basis element in the block-sum algebra."""
        x, s, y, a, b = self._split(label)
        G, cd = self.group, self.class_data
        c = cd.class_of[a]
        assert cd.class_of[b] == c
        wa, wb = cd.transport[a], cd.transport[b]
        u = G.mul(G.inverse(wa), G.mul(s, wb))
        gc = cd.reps[c]
        assert G.mul(u, gc) == G.mul(gc, u), "transported middle must centralize"
        scalar = -gamma(G, self.omega, gc, wa, wb, u) % self.modulus
        return BlockImage(c, scalar, row=y, col=x, element=G.inverse(u))

    def phi_iso_inverse(self, c: int, row, col, element: int) -> tuple[int, object]:
        """Preimage of E[row, col] tensor [element] as scalar * basis label."""
        G, cd = self.group, self.class_data
        wa = cd.transport[self._weight[col]]
        wb = cd.transport[self._weight[row]]
        u = G.inverse(element)
        s = G.mul(wa, G.mul(u, G.inverse(wb)))
        label = self._label_of.get((col, s, row))
        if label is None:
            raise ValueError(f"no basis label {col} -{s}-> {row}")
        return gamma(G, self.omega, cd.reps[c], wa, wb, u), label

    def support_block_index(self, c: int):
        """The least object whose weight is the representative of class c."""
        return min(self._by_weight[self.class_data.reps[c]])

    def support_projector_label(self, c: int):
        x = self.support_block_index(c)
        return self._label_of[(x, 0, x)]

    def check_block_map(self, convention: str = "op-inverse") -> CheckResult:
        """Exhaustively check the block map: bijective, multiplicative, *-preserving."""
        blocks = self.block_algebra(convention)
        labels = self.labels()
        if self._images is None:
            self._images = {a: self.phi_iso(a) for a in labels}
        images = self._images
        if blocks.total_dimension() != len(labels):
            return CheckResult(False, "block-dimension-audit",
                               (blocks.total_dimension(), len(labels)))
        if len({_position(im) for im in images.values()}) != len(labels):
            return CheckResult(False, "phi-bijection", ())
        products, N = self.products, self.modulus
        for (b, a), prod in products.items():
            if not _is_image(blocks.mult(images[b], images[a]), prod, images, N):
                return CheckResult(False, "phi-mult", (b, a))
        # phi is a bijection of bases, so the nonzero products map onto
        # the nonzero block products (units chain) when there are as many
        if len(products) != sum(len(idx) ** 3 * len(tw.elements) ** 2 for
                                idx, tw in zip(blocks.index_sets, blocks.twists)):
            b, a = next((b, a) for b in labels for a in labels
                        if (b, a) not in products
                        and blocks.mult(images[b], images[a]) is not None)
            return CheckResult(False, "phi-mult-zero", (b, a))
        for a, star in self.stars.items():
            if not _is_image(blocks.star(images[a]), star, images, N):
                return CheckResult(False, "phi-star", (a,))
        return CheckResult(True, "star-isomorphism",
                           detail=f"exhaustive {len(products)}")


def _position(im: BlockImage) -> tuple:
    return (im.class_index, im.row, im.col, im.element)


def _is_image(got: Optional[BlockImage], hit: tuple[int, object],
              images: dict, modulus: int) -> bool:
    """Whether ``got`` is the image of ``phase * label`` for ``hit``."""
    ph, label = hit
    want = images[label]
    return got is not None and _position(got) == _position(want) \
        and got.scalar == (ph + want.scalar) % modulus


class TubeAlgebra(TubeShapedAlgebra):
    """The tube algebra of one (G, omega): objects G, each its own weight."""

    _pack = TubeBasisElement

    def __init__(self, group: GroupTable, omega: Cocycle3):
        omega.ensure_valid()
        if not is_normalized(omega):
            raise CocycleError("tube algebra needs a normalized cocycle; "
                               "run `tubealg normalize` first")
        super().__init__(group, omega, group.elements(), lambda g: g)

    def basis_label(self, g1: int, s: int) -> TubeBasisElement:
        G = self.group
        g2 = G.mul(G.inverse(s), G.mul(g1, s))
        return TubeBasisElement(g1, s, g2)


class BlockAlgebra:
    """Direct sum over classes of matrix units tensor a twisted group algebra."""

    def __init__(self, group: GroupTable, class_data: ClassData,
                 index_sets: list[list], twists: list[Cocycle2]):
        self.group = group
        self.class_data = class_data
        self.index_sets = index_sets
        self.twists = twists

    def mult(self, x: BlockImage, y: BlockImage) -> Optional[BlockImage]:
        """x . y, with y acting first; zero unless the matrix units chain."""
        if x.class_index != y.class_index or x.col != y.row:
            return None
        tw = self.twists[x.class_index]
        scalar = (x.scalar + y.scalar + tw(x.element, y.element)) % tw.modulus
        return BlockImage(x.class_index, scalar, x.row, y.col,
                          self.group.mul(x.element, y.element))

    def star(self, x: BlockImage) -> BlockImage:
        tw = self.twists[x.class_index]
        vi = self.group.inverse(x.element)
        scalar = -(x.scalar + tw(vi, x.element)) % tw.modulus
        return BlockImage(x.class_index, scalar, x.col, x.row, vi)

    def basis_labels(self) -> Iterator[tuple[int, object, object, int]]:
        for c, idx in enumerate(self.index_sets):
            for row in idx:
                for col in idx:
                    for v in self.twists[c].elements:
                        yield (c, row, col, v)

    def total_dimension(self) -> int:
        return sum(len(idx) ** 2 * len(tw.elements)
                   for idx, tw in zip(self.index_sets, self.twists))


def verify_star_iso(alg: TubeAlgebra) -> CheckResult:
    """Exhaustively check the block map of a tube algebra."""
    return alg.check_block_map()


@dataclass
class SimpleCount:
    per_class: dict
    total: int


def simple_count(alg: TubeAlgebra) -> SimpleCount:
    """Number of irreducible representations, summed over class blocks.

    Counts the exact center dimension of each twisted centralizer
    algebra; for the regular-representation cross-check see
    :func:`tubealg.rep.decompose`.
    """
    return block_simple_count(alg.block_algebra())


def block_simple_count(blocks: BlockAlgebra) -> SimpleCount:
    per = {}
    total = 0
    for c, tw in enumerate(blocks.twists):
        talg = TwistedGroupAlgebra(blocks.group, tw.elements, tw)
        d = center_dimension(talg)
        per[blocks.class_data.reps[c]] = d
        total += d
    return SimpleCount(per_class=per, total=total)


def structure_constants_json(alg: TubeShapedAlgebra) -> list[dict]:
    """Wire dump of all nonzero products of basis elements.

    A label is written as the list of its fields: ``[g1, s, g2]`` for
    the tube algebra, ``[h1, g1, s, h2, g2]`` for the annular one.
    """
    return [{"left": list(left), "right": list(right),
             "scalar": phase_str(ph, alg.modulus), "result": list(lab)}
            for (left, right), (ph, lab) in alg.products.items()]
