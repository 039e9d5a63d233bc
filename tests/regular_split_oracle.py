"""Test oracle: the floating-point split of a regular representation.

A random self-adjoint element of the commutant (a right multiplication)
is diagonalized; eigenvalue clusters cut the space into invariant
subspaces, which are grouped into equivalence classes by their
characters.  The library reads the blocks off the block isomorphism
exactly (:func:`tubealg.rep.decompose`); this independent route is kept
here to cross-check it at small orders.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

from tubealg.phase import DecompositionError, root
from tubealg.splitting import MAX_ATTEMPTS, Seeded
from tubealg.staralg import MonomialStarAlgebra


def characters(alg: MonomialStarAlgebra, subspaces: list,
               idx: dict) -> list[np.ndarray]:
    """Per subspace range(Q), the character b -> trace(L_b Q Q^H): the
    sum of ph (Q Q^H)[a, r] over the products (b, a) -> (ph, r)."""
    products = alg.products
    left, right, result = np.array(
        [(idx[b], idx[a], idx[r]) for (b, a), (_, r) in products.items()],
        dtype=np.intp).reshape(-1, 3).T
    phase = np.array([root(ph, alg.modulus) for ph, _ in products.values()])
    chars = [np.zeros(len(idx), dtype=complex) for _ in subspaces]
    for ch, Q in zip(chars, subspaces):
        np.add.at(ch, left, phase * np.sum(Q[right] * Q[result].conj(), axis=1))
    return chars


class CharacterBlock(NamedTuple):
    dimension: int
    multiplicity: int
    character: tuple


def regular_split(alg: MonomialStarAlgebra, seed: int = 0, tol: float = 1e-9,
                  max_retries: int = MAX_ATTEMPTS) -> Seeded:
    """Split the regular representation into irreducible blocks.

    Ambiguous eigenvalue gaps trigger a retry with a fresh seeded
    element; the result's ``seeds`` lists the attempts, as does the
    :class:`DecompositionError` when all fail.
    """
    labels = list(alg.labels())
    idx = {a: i for i, a in enumerate(labels)}
    n = len(labels)
    last_error = None
    seeds = []
    for attempt in range(max_retries):
        seeds.append(f"{seed}:{attempt}")
        rng = random.Random(seeds[-1])
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
        chars = characters(alg, subspaces, idx)
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
            blocks.append(CharacterBlock(
                dimension=dims.pop(), multiplicity=len(grp),
                character=tuple(np.round(chars[grp[0]], 9))))
        if not ok:
            last_error = f"inconsistent block dims at attempt {attempt}"
            continue
        if sum(b.dimension * b.multiplicity for b in blocks) != n:
            last_error = f"block dimensions do not add up at attempt {attempt}"
            continue
        return Seeded(sorted(blocks, key=lambda b: (b.dimension, b.multiplicity)),
                      seeds)
    raise DecompositionError(
        f"{last_error or 'decomposition failed'}; seeds tried {seeds}", seeds)
