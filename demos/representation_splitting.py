"""
Counting and splitting representations
======================================

Two exact ways to count irreducible representations of the tube
algebra: the center dimensions of the twisted centralizer algebras,
and the blocks of the regular representation, read off the block
isomorphism from the projective irreducible dimensions of those
algebras.  The second half moves representations between a centralizer
block and the full algebra by induction and restriction.
"""

import numpy as np

from tubealg import (TubeAlgebra, center_dimension, decompose, induce,
                     phase_str, regular_representation, restrict,
                     simple_count, standard_cyclic_cocycle, support_decompose)
from tubealg.rep import Representation

omega = standard_cyclic_cocycle(2, 1)
G = omega.group
alg = TubeAlgebra(G, omega)

# Exact counts, class by class.
counts = simple_count(alg)
print("center dimensions per class:", counts.per_class, "total:", counts.total)

# The same number from the other side: the blocks of the left regular
# representation of the whole 4-dimensional algebra, one per projective
# irreducible of a twisted centralizer algebra.
blocks = decompose(alg, seed=0)
print("regular representation splits into:",
      [(b.dimension, b.multiplicity) for b in blocks])

# The nonidentity class carries a twisted group algebra in which the
# generator squares to exp(2 pi i k/N), here -1; its regular
# representation splits into two lines where the generator acts by the
# two square roots, exp(2 pi i (k + jN)/2N) for j = 0, 1, here +i and -i.
talg = alg.block_algebra().algebras[1]
print("twisted center dimension:", center_dimension(talg))
k, N = talg.products[(1, 1)][0], talg.modulus
halves = [k + j * N for j in (0, 1)]  # in units of 1/2N of a turn
for h in halves:
    print("  line with generator acting as exp(2 pi i *",
          phase_str(h, 2 * N) + ")")
eigvals = np.linalg.eigvals(regular_representation(talg).matrices[1])
print("  the eigen-solver finds both:",
      all(np.min(np.abs(eigvals - np.exp(1j * np.pi * h / N))) < 1e-9
          for h in halves))

# Induction: a 1-dimensional block representation extends to the tube
# algebra, acting through the block map; restriction compresses back.
pi = Representation(labels=[0, 1], dim=1,
                    matrices={0: np.eye(1, dtype=complex),
                              1: 1j * np.eye(1, dtype=complex)})
Pi = induce(alg, 1, pi)
print("induced representation dimension:", Pi.dim,
      "; multiplicative and *-compatible:", Pi.check(alg).ok)
back = restrict(alg, 1, Pi)
print("restriction returns the original matrices:",
      all(np.array_equal(back.matrices[v], pi.matrices[v]) for v in (0, 1)))

# Support decomposition: a direct sum of inductions from different
# classes is cut apart by the class units, each the sum of the
# identities of its class's objects.
pieces = [induce(alg, c, regular_representation(talg))
          for c, talg in enumerate(alg.block_algebra().algebras)]
dim = sum(p.dim for p in pieces)
mats = {}
for lab in alg.labels():
    M = np.zeros((dim, dim), dtype=complex)
    at = 0
    for p in pieces:
        M[at:at + p.dim, at:at + p.dim] = p.matrices[lab]
        at += p.dim
    mats[lab] = M
total = Representation(labels=list(alg.labels()), dim=dim, matrices=mats)
sd = support_decompose(alg, total)
print("support dimensions by class:", sd.dims)
