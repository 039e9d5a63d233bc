"""Tube-shaped algebras: twisted groupoid algebras over weighted objects.

A tube-shaped algebra over a finite group G with a normalized 3-cocycle
``w`` is fixed by an ordered list of objects, each carrying a weight in
G.  Its basis is the morphisms ``x -s-> y`` between objects with
``wt(x) s = s wt(y)``.  With ``a, b, c`` the weights of ``x, y, z``,
products, the involution ``#`` and the canonical trace are ``w``-phases,
ints mod N, with tau(a, s, b, t, c) = ``Cocycle3.tube_phase`` (on a's
endomorphisms, -tau is ``coho.phi_a``) and tau(n, m) the phase of n . m::

    (y -t-> z) . (x -s-> y) = tau(a, s, b, t, c) (x -st-> z)
    m^#                     = -tau(m^-1, m) . m^-1, derived
    trace (x -s-> y)        = [x == y][s == e]

The tube algebra has the objects g in G with weight g, and writes
``x -s-> y`` as ``a(g1, s, g2)``.  The annular algebra of
:mod:`tubealg.annular_bh` is the same construction on the objects
``(h, g)`` in H x G with weight ``h g``.

Each such algebra is isomorphic, as a *-algebra, to a direct sum over
conjugacy classes C of (matrices indexed by the objects of weight in C)
tensor (the group algebra of the centralizer of the class
representative, twisted by the derived 2-cocycle).  ``block_algebra``
holds that sum with each class twist's :class:`TwistedGroupAlgebra`,
built, and its 2-cocycle law walked, once.  ``phi_iso`` realizes
the isomorphism on basis elements, with the transport cochain supplying
the scalar, and ``block_images`` holds its image of every basis
element; ``check_block_map`` checks multiplicativity and
*-preservation exhaustively and exactly, once per convention and table, and
``verify_star_iso`` runs it on the tube algebra.  Induction and
restriction in :mod:`tubealg.rep` read that certified table.  With the
class twists' 2-cocycle laws it certifies associativity; triples are
walked when it fails.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

from .coho import gamma, phi_class, phi_class_plain_conjugate
from .grp import ClassData, GroupTable, conjugacy_data
from .phase import (CheckResult, Cocycle3, CocycleError, is_normalized,
                    phase_str)
from .staralg import MonomialStarAlgebra, TwistedGroupAlgebra, center_dimension


class TubeBasisElement(NamedTuple):
    """Label a(g1, s, g2); the constraint g1 s = s g2 is kept redundant."""

    g1: int
    s: int
    g2: int


class BlockImage(NamedTuple):
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
    group order of ``s``, then in object order of the target.  The ends
    of ``x -s-> y`` are ``(x, y)``, its inverse is ``y -s^-1-> x`` and the
    identity of ``x`` is ``x -e-> x``, so the derived trace is the one above.
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
        # (x, s, y) -> label and label -> (x, s, y, wt(x), wt(y))
        self._label_of: dict = {}
        self._parts: dict = {}
        for x in self.objects:
            a = self._weight[x]
            for s in group.elements():
                b = group.conjugate(group.inverse(s), a)
                for y in self._by_weight.get(b, ()):
                    label = self._pack(x, s, y)
                    self._label_of[(x, s, y)] = label
                    self._parts[label] = (x, s, y, a, b)
        self._labels = list(self._label_of.values())
        self._blocks: dict[str, BlockAlgebra] = {}

    def _split(self, label) -> tuple:
        try:
            return self._parts[label]
        except KeyError:
            raise ValueError(f"malformed label {label}") from None

    def labels(self) -> list:
        return self._labels

    def ends(self, label) -> tuple:
        x, _, y, _, _ = self._split(label)
        return x, y

    def identity(self, x):
        return self._label_of[(x, 0, x)]

    def inverse(self, label):
        x, s, y, _, _ = self._split(label)
        return self._label_of[(y, self.group.inverse(s), x)]

    def mult_basis(self, left, right) -> Optional[tuple[int, object]]:
        x, s, y, a, b = self._split(right)
        y2, t, z, _, c = self._split(left)
        if y != y2:
            return None
        return (self.omega.tube_phase(a, s, b, t, c),
                self._label_of[(x, self.group.mul(s, t), z)])

    # -- block decomposition ------------------------------------------------

    @cached_property
    def class_data(self) -> ClassData:
        return conjugacy_data(self.group)

    def block_algebra(self, convention: str = "op-inverse") -> "BlockAlgebra":
        """Block sum with the chosen twist convention.

        ``op-inverse`` uses phi_C(s, t) = conj(phi_{g_C}(t^-1, s^-1)), the
        twist under which the block map is multiplicative;
        ``plain-conjugate`` uses the pointwise conjugate of phi_{g_C}.
        The index set of class C is the objects whose weight lies in C,
        in object order.  Each class twist's algebra walks its 2-cocycle
        law here, once; a failing twist raises CocycleError, its triple as
        witness.
        """
        if convention not in self._blocks:
            cd, G, w = self.class_data, self.group, self.omega
            builder = {"op-inverse": phi_class,
                       "plain-conjugate": phi_class_plain_conjugate}[convention]
            algebras = [TwistedGroupAlgebra(builder(G, w, cd, c))
                        for c in range(cd.num_classes())]
            index_sets: list[list] = [[] for _ in cd.classes]
            for x in self.objects:
                index_sets[cd.class_of[self._weight[x]]].append(x)
            self._blocks[convention] = BlockAlgebra(cd, index_sets, algebras)
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

    @cached_property
    def block_images(self) -> dict:
        """label -> :meth:`phi_iso` of it, for every basis label: the one
        table the block-map check certifies and induction and restriction
        read."""
        return {a: self.phi_iso(a) for a in self.labels()}

    def check_block_map(self, convention: str = "op-inverse") -> CheckResult:
        """Exhaustively check the block map: bijective, multiplicative,
        *-preserving; walked once per convention and table."""
        return self._kept(("block-map", convention),
                          lambda: self._walk_block_map(convention),
                          self.products, self.stars)

    def check_associativity(self) -> CheckResult:
        """Associativity: a passing block map is an injective homomorphism
        into the block sum, whose class twists' twisted group algebras
        passed their 2-cocycle laws when :meth:`block_algebra` built them,
        so (c b) a and c (b a) have one image; the composable triples then
        number the block sum's, sum over C of |I_C|^4 |C_G(g_C)|^3.  Else
        every composable triple is walked."""
        iso = self.check_block_map()
        if not iso.ok:
            return super().check_associativity()
        blocks = self.block_algebra()
        laws = sum(alg.dimension ** 3 for alg in blocks.algebras)
        triples = sum(len(idx) ** 4 * alg.dimension ** 3 for idx, alg
                      in zip(blocks.index_sets, blocks.algebras))
        return CheckResult(True, "associativity", detail=(
            f"certified {triples} by block map {iso.detail}, "
            f"class twists exhaustive {laws}"))

    def support_block_index(self, c: int):
        """The least object whose weight is class c's representative, else
        (a cut-down algebra may have none) the first of its index set."""
        at_rep = self._by_weight.get(self.class_data.reps[c])
        return min(at_rep) if at_rep else self.block_algebra().index_sets[c][0]

    def _walk_block_map(self, convention: str) -> CheckResult:
        blocks = self.block_algebra(convention)
        labels, images = self.labels(), self.block_images
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
        if len(products) != sum(len(idx) ** 3 * alg.dimension ** 2 for idx, alg
                                in zip(blocks.index_sets, blocks.algebras)):
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


class BlockAlgebra(NamedTuple):
    """Direct sum over classes C of matrix units on ``index_sets[C]``
    tensor ``algebras[C]``, the twisted group algebra of class C's twist;
    products and stars read that algebra's tables."""

    class_data: ClassData
    index_sets: list[list]
    algebras: list[TwistedGroupAlgebra]

    def mult(self, x: BlockImage, y: BlockImage) -> Optional[BlockImage]:
        """x . y, with y acting first; zero unless the matrix units chain."""
        if x.class_index != y.class_index or x.col != y.row:
            return None
        alg = self.algebras[x.class_index]
        ph, v = alg.products[(x.element, y.element)]
        return BlockImage(x.class_index, (x.scalar + y.scalar + ph) % alg.modulus,
                          x.row, y.col, v)

    def star(self, x: BlockImage) -> BlockImage:
        alg = self.algebras[x.class_index]
        ph, v = alg.stars[x.element]
        return BlockImage(x.class_index, (ph - x.scalar) % alg.modulus,
                          x.col, x.row, v)

    def total_dimension(self) -> int:
        return sum(len(idx) ** 2 * alg.dimension
                   for idx, alg in zip(self.index_sets, self.algebras))


def verify_star_iso(alg: TubeAlgebra) -> CheckResult:
    """Exhaustively check the block map of a tube algebra."""
    return alg.check_block_map()


class SimpleCount(NamedTuple):
    per_class: dict
    total: int


def simple_count(alg: TubeShapedAlgebra) -> SimpleCount:
    """Number of irreducible representations, summed over class blocks.

    Counts the exact center dimension of each class twist's algebra in
    the ``op-inverse`` block sum.  :func:`tubealg.rep.decompose`
    counts the same simples from the projective irreducible dimensions
    of those algebras and checks its count against the center of the
    whole algebra.
    """
    blocks = alg.block_algebra()
    per = {blocks.class_data.reps[c]: center_dimension(talg)
           for c, talg in enumerate(blocks.algebras)}
    return SimpleCount(per_class=per, total=sum(per.values()))


def structure_constants_json(alg: TubeShapedAlgebra) -> list[dict]:
    """Wire dump of all nonzero products of basis elements.

    A label is written as the list of its fields: ``[g1, s, g2]`` for
    the tube algebra, ``[h1, g1, s, h2, g2]`` for the annular one.
    """
    return [{"left": list(left), "right": list(right),
             "scalar": phase_str(ph, alg.modulus), "result": list(lab)}
            for (left, right), (ph, lab) in alg.products.items()]
