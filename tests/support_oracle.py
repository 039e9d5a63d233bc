"""The support decomposition by singular values, kept as a test oracle.

``rep.support_decompose`` takes class C's piece to be the range of
Pi(1_C), 1_C the unit of C's block.  This is the construction it
replaced: the subrepresentation generated by the range of one corner
projection, the identity of :meth:`support_block_index`, found as the
column space of Pi(b) R stacked over every basis label b, with its rank
read off the singular values to ``tol``.  For a *-representation the
two agree, because 1_C is the central support of that corner.
"""

from __future__ import annotations

import numpy as np

from tubealg.rep import Representation, _range_basis


def support_pieces(context, Pi: Representation, tol: float = 1e-9) -> dict:
    """Class index -> orthonormal columns spanning that class's piece."""
    pieces = {}
    for c in range(len(context.block_algebra().index_sets)):
        corner = context.identity(context.support_block_index(c))
        R = _range_basis(Pi.matrices[corner])
        if R.shape[1] == 0:
            pieces[c] = R
            continue
        stack = np.hstack([np.asarray(Pi.matrices[b], dtype=complex) @ R
                           for b in Pi.labels])
        u, s, _ = np.linalg.svd(stack, full_matrices=False)
        pieces[c] = u[:, :int(np.sum(s > tol * max(1.0, float(s[0]))))]
    return pieces
