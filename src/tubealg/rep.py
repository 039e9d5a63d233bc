"""Representations of the monomial *-algebras of :mod:`tubealg.staralg`.

:func:`decompose` reads the blocks of a tube-shaped algebra's regular
representation off its block isomorphism, exactly: it loads
:mod:`tubealg.splitting` when it runs, to split each class twist's
twisted group algebra, held by the block sum, over a prime field.  The
regular representation and induction are nested lists of ``complex``.
Induction and restriction read the block images the block-map check
certifies (``block_images``).  numpy is loaded only to check float
matrices (`rep induce --rep`) and by `restrict` and
`support_decompose`, which splits a representation into the ranges of
its class units; their tolerance is the module constant :data:`TOL`.
Twisted group algebras, center dimensions and the wire key of a label
live in :mod:`tubealg.staralg`, with the algebras they read; the first
two are also importable from here.
"""

from __future__ import annotations

import sys
from itertools import chain, combinations
from typing import NamedTuple

from .phase import CheckResult, DecompositionError, root
from .staralg import (MonomialStarAlgebra, TwistedGroupAlgebra,
                      center_dimension, label_key)

TOL = 1e-9  # residuals of Representation.check, 0/1 entries of projections


class Representation(NamedTuple):
    """Matrices, nested lists of ``complex``, for each basis label of some
    monomial star algebra; ``regular_of`` is the algebra whose left
    multiplication they are, set by :func:`regular_representation`."""

    labels: list
    dim: int
    matrices: dict
    regular_of: object = None

    def check(self, alg: MonomialStarAlgebra) -> CheckResult:
        """Multiplicativity and *-compatibility: exact for the regular
        representation of ``alg``, whose verifiers certify it (L_b L_a =
        zeta^phi L_{ba} on each basis vector is associativity; with the star
        laws, trace, gram and unit, L_a^dagger = zeta^sigma L_{a*}); else to
        :data:`TOL` with numpy, stating coverage and worst residual."""
        if self.regular_of is alg:
            results = alg.check_all()
            bad = [r.witness for r in results if not r.ok]
            detail = ", ".join(f"{r.name} {r.detail if r.ok else 'fails'}"
                               for r in results)
            return CheckResult(not bad, "representation",
                               bad[0] if bad else None, f"exact: {detail}")
        import numpy as np
        mats = {a: np.asarray(self.matrices[a], dtype=complex)
                for a in self.labels}
        products, N, worst = alg.products, alg.modulus, 0.0
        for name, witness, got, hit in chain(
                (("rep-mult", (b, a), mats[b] @ mats[a], products.get((b, a)))
                 for b in self.labels for a in self.labels),
                (("rep-star", (a,), mats[a].conj().T, alg.stars[a])
                 for a in self.labels)):
            target = 0 if hit is None else root(hit[0], N) * mats[hit[1]]
            residual = float(np.max(np.abs(got - target), initial=0))
            if not residual <= TOL:  # a NaN residual fails too
                return CheckResult(False, name, witness,
                                   f"tol {TOL:g}, residual {residual:.3g}")
            worst = max(worst, residual)
        m = len(self.labels)
        return CheckResult(True, "representation", detail=f"tol {TOL:g}, "
                           f"{m * m} products + {m} stars, max residual {worst:.3g}")


def regular_representation(alg: MonomialStarAlgebra) -> Representation:
    """Left multiplication on the algebra in its orthonormal basis."""
    labels = list(alg.labels())
    idx = {a: i for i, a in enumerate(labels)}
    n = len(labels)
    mats = {b: [[0j] * n for _ in range(n)] for b in labels}
    for (b, a), (ph, lab) in alg.products.items():
        mats[b][idx[lab]][idx[a]] = root(ph, alg.modulus)
    return Representation(labels, n, mats, alg)


class IrreducibleBlock(NamedTuple):
    """The isotypic block of one irreducible in the regular representation:
    its ``dimension`` D, equal to its ``multiplicity``, and the class of
    the block isomorphism it comes from."""

    dimension: int
    multiplicity: int
    class_index: int


def decompose(alg, seed: int = 0) -> list:
    """Split the regular representation of a tube-shaped algebra, exactly.

    The block map is checked exhaustively first; it makes the algebra
    the sum over classes C of M_|I_C| tensor C^phi_C[C_G(g_C)], with
    I_C the objects whose weight lies in C and C^phi_C[C_G(g_C)] the
    block sum's twisted group algebra of class C.  So each projective
    irreducible of dimension d of that algebra
    (:func:`tubealg.splitting.projective_dimensions`) gives a block of
    dimension and multiplicity D = |I_C| d.  Two exact cross-checks
    follow: the blocks number :func:`center_dimension` of ``alg``, and
    the D^2 sum to its dimension.  The result's ``seeds`` are those of
    the class that took the most attempts, and its ``detail`` states
    the checks: it is a :class:`tubealg.splitting.Seeded`.  A failed
    check raises :class:`DecompositionError` with the check's name and
    witness.
    """
    from .splitting import Seeded, projective_dimensions
    res = alg.check_block_map()
    if not res.ok:
        raise DecompositionError(f"block map fails {res.name} at {res.witness}",
                                 check=res.name, witness=res.witness)
    blocks_alg = alg.block_algebra()
    blocks, seeds = [], []
    for c, (index_set, talg) in enumerate(zip(blocks_alg.index_sets,
                                              blocks_alg.algebras)):
        dims = projective_dimensions(talg, seed)
        seeds = max(seeds, dims.seeds, key=len)
        blocks += [IrreducibleBlock(len(index_set) * d, len(index_set) * d, c)
                   for d in dims]
    n, count = len(alg.labels()), center_dimension(alg)
    squares = sum(b.dimension * b.multiplicity for b in blocks)
    if len(blocks) != count:
        raise DecompositionError(f"{len(blocks)} blocks, center dimension "
                                 f"{count}", seeds, "block-count",
                                 (len(blocks), count))
    if squares != n:
        raise DecompositionError(f"sum D^2 = {squares} for {n} labels", seeds,
                                 "dimension-sum", (squares, n))
    return Seeded(sorted(blocks), seeds,
                  f"{count} distinct blocks = center dimension {count}, "
                  f"sum D^2 = {n} labels, block map {res.detail}")


# -- induction / restriction / support ---------------------------------------


def induce(context, class_index: int, pi: Representation) -> Representation:
    """Extend a twisted-centralizer representation to the whole algebra.

    ``context`` is a tube or annular algebra; the induced space is
    (block index set of the class) tensor (the space of ``pi``).  Pi is
    read off ``context.block_images``, the images its block-map check
    certifies.  Basis labels of other classes act as zero.
    """
    blocks = context.block_algebra()
    index_set = blocks.index_sets[class_index]
    pos = {x: i for i, x in enumerate(index_set)}
    d = pi.dim
    n = len(index_set) * d
    mats = {}
    for label, im in context.block_images.items():
        M = [[0j] * n for _ in range(n)]
        if im.class_index == class_index:
            r, c = pos[im.row] * d, pos[im.col] * d
            z, block = root(im.scalar, context.modulus), pi.matrices[im.element]
            for i in range(d):
                M[r + i][c:c + d] = [z * x for x in block[i]]
        mats[label] = M
    return Representation(labels=list(context.labels()), dim=n, matrices=mats)


def _range_basis(P):
    """Orthonormal columns spanning the range of the projection ``P``: unit
    vectors if ``P`` is 0/1-diagonal to :data:`TOL`, else by ``eigh``."""
    import numpy as np
    P = np.asarray(P, dtype=complex)
    if P.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    diag = np.diag(P)
    if np.max(np.abs(P - np.diag(diag))) < TOL and \
            np.all((np.abs(diag) < TOL) | (np.abs(diag - 1) < TOL)):
        cols = [i for i, v in enumerate(diag) if abs(v - 1) < TOL]
        Q = np.zeros((P.shape[0], len(cols)), dtype=complex)
        for j, i in enumerate(cols):
            Q[i, j] = 1.0
        return Q
    vals, vecs = np.linalg.eigh((P + P.conj().T) / 2)
    keep = [i for i, v in enumerate(vals) if v > 0.5]
    return vecs[:, keep]


def restrict(context, class_index: int, Pi: Representation) -> Representation:
    """Compress a class-supported representation to the centralizer algebra.

    The space is the range of the pivot's identity, with pivot
    :meth:`support_block_index`.  The preimage of E[pivot, pivot] tensor
    [v] is read off ``context.block_images``: the label whose image sits
    there, times the conjugate image scalar.
    """
    import numpy as np
    els = context.block_algebra().algebras[class_index].labels()
    pivot = context.support_block_index(class_index)
    Q = _range_basis(Pi.matrices[context.identity(pivot)])
    preimage = {im.element: (-im.scalar, label)
                for label, im in context.block_images.items()
                if (im.class_index, im.row, im.col) == (class_index, pivot, pivot)}
    mats = {}
    for v in els:
        scalar, label = preimage[v]
        M = Q.conj().T @ np.asarray(Pi.matrices[label], dtype=complex) @ Q
        mats[v] = (root(scalar, context.modulus) * M).tolist()
    return Representation(labels=list(els), dim=Q.shape[1], matrices=mats)


class SupportDecomposition(NamedTuple):
    subspaces: dict
    dims: dict
    total: int


def support_decompose(context, Pi: Representation) -> SupportDecomposition:
    """Orthogonal decomposition by the class units.

    Class C's piece is the range of Pi(1_C), with 1_C the sum of the
    identities of the objects in ``block_algebra().index_sets[C]``: the
    unit of C's block.  1_C is central, so its range is a
    subrepresentation, the one that the identity of any object of C
    generates.  The pieces are verified to be mutually orthogonal and
    to fill the space.  Whether Pi is a *-representation is not checked
    here: :meth:`Representation.check` does that.
    """
    import numpy as np
    subspaces = {}
    for c, index_set in enumerate(context.block_algebra().index_sets):
        unit = np.zeros((Pi.dim, Pi.dim), dtype=complex)
        for x in index_set:
            unit += np.asarray(Pi.matrices[context.identity(x)], dtype=complex)
        subspaces[c] = _range_basis(unit)
    dims = {c: Q.shape[1] for c, Q in subspaces.items()}
    total = sum(dims.values())
    if total != Pi.dim:
        raise DecompositionError(
            f"support pieces fill {total} of {Pi.dim} dimensions")
    for i, j in combinations(subspaces, 2):
        overlap = subspaces[i].conj().T @ subspaces[j]
        if np.max(np.abs(overlap), initial=0) > TOL:
            raise DecompositionError(
                f"support pieces of classes {i} and {j} overlap")
    return SupportDecomposition(subspaces=subspaces, dims=dims, total=total)


# -- wire format --------------------------------------------------------------


def rep_to_json(rep: Representation) -> dict:
    mats = {}
    for label in rep.labels:
        M = rep.matrices[label]
        mats[label_key(label)] = [[[float(z.real), float(z.imag)] for z in row]
                                  for row in M]
    return {"dimension": rep.dim, "matrices": mats}


def rep_from_json(obj: dict, labels: list) -> Representation:
    d = obj["dimension"]
    if type(d) is not int:
        raise TypeError(f"dimension {d!r} is not an integer")
    raw = obj["matrices"]
    mats = {}
    for label in labels:
        key = label_key(label)
        if key not in raw:
            raise KeyError(f"missing matrix for label {key}")
        parts = [p for z in chain(*raw[key]) for p in z]
        if any(type(p) not in (int, float) for p in parts):
            raise TypeError(f"matrix for {key} has a part that is not a number")
        if any(type(p) is int and abs(p) > sys.float_info.max for p in parts):
            raise ValueError(f"matrix for {key} has a part beyond float range")
        M = [[complex(re, im) for re, im in row] for row in raw[key]]
        if len(M) != d or any(len(row) != d for row in M):
            raise ValueError(f"matrix for {key} is not {d} x {d}")
        mats[label] = M
    return Representation(labels=list(labels), dim=d, matrices=mats)
