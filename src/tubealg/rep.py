"""Twisted group algebras, exact centers, and representation machinery.

Two kinds of computation live here.  Exact: the center dimension of any
algebra with monomial structure constants, solved over the cyclotomic
field generated by its phases — this is how irreducible representations
are counted.  Numerical: splitting a representation into irreducible
blocks by diagonalizing a random self-adjoint element of the commutant
(for the left regular representation the commutant is spanned by the
right multiplications, so no solver is needed), plus the induction /
restriction / support machinery that moves representations between a
block algebra and the full tube or annular algebra.

The exact half (:class:`TwistedGroupAlgebra`, :func:`center_dimension`)
is numpy-free; numpy is imported only inside the numerical functions, so
exact work (building, checking, counting simples) never loads it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .cyclotomic import CyclotomicField, nullspace_dimension
from .grp import GroupTable
from .phase import CheckResult, Cocycle2, cocycle2_check, root
from .staralg import MonomialStarAlgebra

if TYPE_CHECKING:
    import numpy as np


class DecompositionError(RuntimeError):
    pass


class TwistedGroupAlgebra(MonomialStarAlgebra):
    """Group algebra of a subgroup with multiplication [g][h] = phi(g,h)[gh]."""

    def __init__(self, group: GroupTable, elements: Sequence[int],
                 twist: Cocycle2):
        res = cocycle2_check(twist)
        if not res.ok:
            raise ValueError(
                f"twist fails associativity at triple {res.witness}")
        self.group = group
        self.els = tuple(elements)
        self.twist = twist
        self.modulus = twist.modulus
        if set(self.els) != set(twist.elements):
            raise ValueError("twist table does not match the element list")
        self.normalized = not any(twist(0, g) or twist(g, 0) for g in self.els)

    @property
    def dimension(self) -> int:
        return len(self.els)

    def labels(self) -> Sequence[int]:
        return self.els

    def mult_basis(self, left: int, right: int):
        return self.twist(left, right), self.group.mul(left, right)

    def star_basis(self, g: int):
        gi = self.group.inverse(g)
        return -self.twist(gi, g) % self.modulus, gi

    def trace_basis(self, g: int) -> bool:
        return g == 0

    def unit_labels(self):
        if not self.normalized:
            raise ValueError("unit label needs a normalized twist")
        return [0]

    def validate_label(self, g) -> None:
        if g not in self.twist.pos:
            raise ValueError(f"element {g} is not in the algebra")


def center_dimension(alg: MonomialStarAlgebra) -> int:
    """Exact dimension of {z : az = za}, over the cyclotomic field.

    For a semisimple algebra this equals the number of irreducible
    representations.
    """
    labels = list(alg.labels())
    idx = {a: i for i, a in enumerate(labels)}
    m = len(labels)
    products = alg.products
    # the phases k / N live in Q(zeta_(N / d)) for d = gcd(N, every k)
    d = math.gcd(alg.modulus, *(ph for ph, _ in products.values()))
    field_ = CyclotomicField(alg.modulus // d)
    zero = field_.zero()
    # row (g, r): the coefficient on r of g z - z g, for z = sum_t z_t t
    rows = {}
    for (left, right), (ph, r) in products.items():
        val = field_.zeta_power(ph // d)
        for g, t, v in ((left, right, val), (right, left, field_.neg(val))):
            row = rows.setdefault((idx[g], idx[r]), [zero] * m)
            row[idx[t]] = field_.add(row[idx[t]], v)
    unique = {tuple(r) for r in rows.values()}
    unique.discard(tuple([zero] * m))
    return nullspace_dimension(field_, [list(r) for r in unique], m)


@dataclass
class Representation:
    """Matrices for each basis label of some monomial star algebra."""

    labels: list
    dim: int
    matrices: dict

    def check(self, alg: MonomialStarAlgebra, tol: float = 1e-9) -> CheckResult:
        """Multiplicativity and *-compatibility to the given tolerance."""
        import numpy as np
        products, N = alg.products, alg.modulus
        for b in self.labels:
            for a in self.labels:
                hit = products.get((b, a))
                prod = self.matrices[b] @ self.matrices[a]
                target = 0 if hit is None else \
                    root(hit[0], N) * self.matrices[hit[1]]
                if np.max(np.abs(prod - target)) > tol:
                    return CheckResult(False, "rep-mult", (b, a))
        for a in self.labels:
            ph, lab = alg.stars[a]
            target = root(ph, N) * self.matrices[lab]
            if np.max(np.abs(self.matrices[a].conj().T - target)) > tol:
                return CheckResult(False, "rep-star", (a,))
        return CheckResult(True, "representation")


def regular_representation(alg: MonomialStarAlgebra) -> Representation:
    """Left multiplication on the algebra in its orthonormal basis."""
    import numpy as np
    labels = list(alg.labels())
    idx = {a: i for i, a in enumerate(labels)}
    n = len(labels)
    mats = {b: np.zeros((n, n), dtype=complex) for b in labels}
    for (b, a), (ph, lab) in alg.products.items():
        mats[b][idx[lab], idx[a]] = root(ph, alg.modulus)
    return Representation(labels=labels, dim=n, matrices=mats)


def _characters(alg: MonomialStarAlgebra, subspaces: list,
                idx: dict) -> list[np.ndarray]:
    """Per subspace range(Q), the character b -> trace(L_b Q Q^H): the
    sum of ph (Q Q^H)[a, r] over the products (b, a) -> (ph, r)."""
    import numpy as np
    products = alg.products
    left, right, result = np.array(
        [(idx[b], idx[a], idx[r]) for (b, a), (_, r) in products.items()],
        dtype=np.intp).reshape(-1, 3).T
    phase = np.array([root(ph, alg.modulus) for ph, _ in products.values()])
    chars = [np.zeros(len(idx), dtype=complex) for _ in subspaces]
    for ch, Q in zip(chars, subspaces):
        np.add.at(ch, left, phase * np.sum(Q[right] * Q[result].conj(), axis=1))
    return chars


@dataclass
class IrreducibleBlock:
    dimension: int
    multiplicity: int
    character: tuple


def decompose(alg: MonomialStarAlgebra, seed: int = 0, tol: float = 1e-9,
              max_retries: int = 5) -> list[IrreducibleBlock]:
    """Split the regular representation into irreducible blocks.

    A random self-adjoint element of the commutant (a right
    multiplication) is diagonalized; eigenvalue clusters cut the space
    into invariant subspaces, which are then grouped into equivalence
    classes by their characters.  Ambiguous eigenvalue gaps trigger a
    retry with a fresh seeded element.
    """
    import numpy as np
    labels = list(alg.labels())
    idx = {a: i for i, a in enumerate(labels)}
    n = len(labels)
    last_error = None
    for attempt in range(max_retries):
        rng = random.Random(f"{seed}:{attempt}")
        z = {a: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for a in labels}
        w: dict = {}
        for a, c in z.items():
            w[a] = w.get(a, 0) + c
            ph, as_ = alg.stars[a]
            w[as_] = w.get(as_, 0) + c.conjugate() * root(ph, alg.modulus)
        # right multiplication by w
        W = np.zeros((n, n), dtype=complex)
        for (a, b), (ph, lab) in alg.products.items():
            W[idx[lab], idx[a]] += w.get(b, 0) * root(ph, alg.modulus)
        if np.max(np.abs(W - W.conj().T)) > 1e-8:
            raise DecompositionError("right action of w is not self-adjoint")
        vals, vecs = np.linalg.eigh(W)
        scale = max(1.0, float(vals[-1] - vals[0]))
        gaps = np.diff(vals)
        cut = tol * scale * 100.0
        ambiguous = np.any((gaps > tol * scale) & (gaps < cut * 10))
        if ambiguous:
            last_error = f"ambiguous eigenvalue gap at attempt {attempt}"
            continue
        clusters = []
        start = 0
        for i, g in enumerate(gaps):
            if g > cut:
                clusters.append((start, i + 1))
                start = i + 1
        clusters.append((start, n))
        subspaces = [vecs[:, a:b] for a, b in clusters]
        chars = _characters(alg, subspaces, idx)
        groups: list[list[int]] = []
        for i in range(len(subspaces)):
            for grp in groups:
                if np.max(np.abs(chars[grp[0]] - chars[i])) < 1e-6:
                    grp.append(i)
                    break
            else:
                groups.append([i])
        blocks = []
        ok = True
        for grp in groups:
            dims = {subspaces[i].shape[1] for i in grp}
            if len(dims) != 1:
                ok = False
                break
            blocks.append(IrreducibleBlock(
                dimension=dims.pop(), multiplicity=len(grp),
                character=tuple(np.round(chars[grp[0]], 9))))
        if not ok:
            last_error = f"inconsistent block dims at attempt {attempt}"
            continue
        if sum(b.dimension * b.multiplicity for b in blocks) != n:
            last_error = f"block dimensions do not add up at attempt {attempt}"
            continue
        return sorted(blocks, key=lambda b: (b.dimension, b.multiplicity))
    raise DecompositionError(last_error or "decomposition failed")


# -- induction / restriction / support ---------------------------------------


def induce(context, class_index: int, pi: Representation) -> Representation:
    """Extend a twisted-centralizer representation to the whole algebra.

    ``context`` is a tube or annular algebra; the induced space is
    (block index set of the class) tensor (the space of ``pi``).
    Basis labels of other classes act as zero.
    """
    import numpy as np
    blocks = context.block_algebra()
    index_set = blocks.index_sets[class_index]
    pos = {x: i for i, x in enumerate(index_set)}
    d = pi.dim
    n = len(index_set) * d
    mats = {}
    for label in context.labels():
        im = context.phi_iso(label)
        M = np.zeros((n, n), dtype=complex)
        if im.class_index == class_index:
            r, c = pos[im.row], pos[im.col]
            M[r * d:(r + 1) * d, c * d:(c + 1) * d] = \
                root(im.scalar, context.modulus) * pi.matrices[im.element]
        mats[label] = M
    return Representation(labels=list(context.labels()), dim=n, matrices=mats)


def _range_basis(P: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    import numpy as np
    if P.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    diag = np.diag(P)
    if np.max(np.abs(P - np.diag(diag))) < tol and \
            np.all((np.abs(diag) < tol) | (np.abs(diag - 1) < tol)):
        cols = [i for i, v in enumerate(diag) if abs(v - 1) < tol]
        Q = np.zeros((P.shape[0], len(cols)), dtype=complex)
        for j, i in enumerate(cols):
            Q[i, j] = 1.0
        return Q
    vals, vecs = np.linalg.eigh((P + P.conj().T) / 2)
    keep = [i for i, v in enumerate(vals) if v > 0.5]
    return vecs[:, keep]


def restrict(context, class_index: int, Pi: Representation) -> Representation:
    """Compress a class-supported representation to the centralizer algebra."""
    blocks = context.block_algebra()
    tw = blocks.twists[class_index]
    P = Pi.matrices[context.support_projector_label(class_index)]
    Q = _range_basis(P)
    pivot = context.support_block_index(class_index)
    mats = {}
    for v in tw.elements:
        scalar, label = context.phi_iso_inverse(class_index, pivot, pivot, v)
        mats[v] = root(scalar, context.modulus) * (Q.conj().T @ Pi.matrices[label] @ Q)
    return Representation(labels=list(tw.elements), dim=Q.shape[1], matrices=mats)


@dataclass
class SupportDecomposition:
    subspaces: dict
    dims: dict
    total: int


def support_decompose(context, Pi: Representation,
                      tol: float = 1e-9) -> SupportDecomposition:
    """Orthogonal decomposition by the class-corner projections.

    Each class contributes the subrepresentation generated by the range
    of its corner projection; the pieces are verified to be mutually
    orthogonal and to fill the space.
    """
    import numpy as np
    blocks = context.block_algebra()
    dim = Pi.dim
    subspaces = {}
    dims = {}
    for c in range(len(blocks.index_sets)):
        P = Pi.matrices[context.support_projector_label(c)]
        R = _range_basis(P)
        if R.shape[1] == 0:
            subspaces[c] = R
            dims[c] = 0
            continue
        stack = np.hstack([Pi.matrices[b] @ R for b in Pi.labels])
        u, s, _ = np.linalg.svd(stack, full_matrices=False)
        rank = int(np.sum(s > tol * max(1.0, float(s[0]))))
        subspaces[c] = u[:, :rank]
        dims[c] = rank
    total = sum(dims.values())
    if total != dim:
        raise DecompositionError(
            f"support pieces fill {total} of {dim} dimensions")
    keys = sorted(subspaces)
    for i in keys:
        for j in keys:
            if i < j and subspaces[i].size and subspaces[j].size:
                overlap = np.max(np.abs(subspaces[i].conj().T @ subspaces[j]))
                if overlap > 1e-7:
                    raise DecompositionError(
                        f"support pieces of classes {i} and {j} overlap")
    return SupportDecomposition(subspaces=subspaces, dims=dims, total=total)


# -- wire format --------------------------------------------------------------


def _label_key(label) -> str:
    if isinstance(label, tuple):
        return ",".join(str(x) for x in label)
    if hasattr(label, "__dataclass_fields__"):
        vals = [getattr(label, f) for f in label.__dataclass_fields__]
        return ",".join(str(x) for x in _flatten(vals))
    return str(label)


def _flatten(vals):
    for v in vals:
        if isinstance(v, tuple):
            yield from v
        else:
            yield v


def rep_to_json(rep: Representation) -> dict:
    mats = {}
    for label in rep.labels:
        M = rep.matrices[label]
        mats[_label_key(label)] = [[[float(z.real), float(z.imag)] for z in row]
                                   for row in M]
    return {"dimension": rep.dim, "matrices": mats}


def rep_from_json(obj: dict, labels: list) -> Representation:
    import numpy as np
    d = int(obj["dimension"])
    raw = obj["matrices"]
    mats = {}
    for label in labels:
        key = _label_key(label)
        if key not in raw:
            raise KeyError(f"missing matrix for label {key}")
        M = np.array([[complex(re, im) for re, im in row] for row in raw[key]])
        if M.shape != (d, d):
            raise ValueError(f"matrix for {key} has shape {M.shape}")
        mats[label] = M
    return Representation(labels=list(labels), dim=d, matrices=mats)
