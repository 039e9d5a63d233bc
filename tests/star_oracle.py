"""The star formulas written out by hand, one per kind of algebra.

``MonomialStarAlgebra.star_basis`` derives every star from the product:
m* = -tau(m^-1, m) m^-1.  These are the explicit cocycle formulas it
replaces, kept as the oracle it is compared with:

- the tube-shaped algebras (tube, annular, cut-down):
  (x -s-> y)* = w(s,b,s^-1) w(a,s,s^-1)^-1 w(s,s^-1,a)^-1 (y -s^-1-> x),
  with a and b the weights of x and y;
- a twisted group algebra: [g]* = phi(g^-1, g)^-1 [g^-1];
- the box calculus: (h1, g1, g2, h2)* = w(h1, g1, h2^-1)^-1
  (h1^-1, g2, g1, h2^-1), the paper's formula, which is an involution
  only once the cocycle is gauge-fixed.
"""

from __future__ import annotations

from tubealg.annular_bh import BoxAlgebra, BoxMorphism
from tubealg.staralg import TwistedGroupAlgebra
from tubealg.tube_diag import TubeShapedAlgebra


def tube_star(alg: TubeShapedAlgebra, label) -> tuple[int, object]:
    x, s, y, a, b = alg._split(label)
    w, si = alg.omega, alg.group.inverse(s)
    scalar = (w(s, b, si) - w(a, s, si) - w(s, si, a)) % alg.modulus
    return scalar, alg._label_of[(y, si, x)]


def twist_star(alg: TwistedGroupAlgebra, g: int) -> tuple[int, int]:
    gi = alg.group.inverse(g)
    return -alg.twist(gi, g) % alg.modulus, gi


def box_star(alg: BoxAlgebra, b: BoxMorphism) -> tuple[int, BoxMorphism]:
    G, w = alg.group, alg.omega
    scalar = -w(b.h1, b.g1, G.inverse(b.h2)) % alg.modulus
    return scalar, BoxMorphism(G.inverse(b.h1), b.g2, b.g1, G.inverse(b.h2))


def oracle_stars(alg) -> dict:
    """label -> (phase, label) of the hand-written star, for every label."""
    if isinstance(alg, TubeShapedAlgebra):
        star = tube_star
    elif isinstance(alg, TwistedGroupAlgebra):
        star = twist_star
    else:
        assert isinstance(alg, BoxAlgebra), type(alg)
        star = box_star
    return {a: star(alg, a) for a in alg.labels()}
