"""
The tube algebra of a cyclic group with a nontrivial 3-cocycle
==============================================================

Walks through the basic objects: a group, a circle-valued 3-cocycle,
the tube algebra basis a(g1, s, g2), its exact structure constants,
the canonical trace, and the block decomposition into twisted
centralizer group algebras.
"""

from tubealg import (TubeAlgebra, TubeBasisElement, phase_str, simple_count,
                     standard_cyclic_cocycle, verify_star_iso)

# The classical degree-3 class on Z/4: w(a, b, c) = i^(a * floor((b+c)/4)).
omega = standard_cyclic_cocycle(4, 1)
G = omega.group
# Phases are ints k mod the cocycle's modulus N, standing for
# exp(2 pi i k / N); phase_str prints k / N in lowest terms.
N = omega.modulus
print(f"group: Z/{G.order}, cocycle value w(1,3,3) = {phase_str(omega(1, 3, 3), N)}")

# The tube algebra has one basis element a(g1, s, g2) per pair (g1, s),
# with g2 = s^-1 g1 s forced (here: g2 = g1, the group is abelian).
alg = TubeAlgebra(G, omega)
print(f"tube algebra dimension: {len(alg.labels())}")

# Products carry exact phases mod N, so "1/2" is -1 and "1/4" is the
# imaginary unit.
a = TubeBasisElement(1, 1, 1)
b = TubeBasisElement(1, 3, 1)
phase, label = alg.mult_basis(b, a)
print(f"a(1,3,1) . a(1,1,1) = e^(2 pi i {phase_str(phase, N)}) "
      f"a({label.g1},{label.s},{label.g2})")

# The involution is an anti-automorphism squaring to the identity.
phase, star = alg.star_basis(a)
print(f"a(1,1,1)^# = e^(2 pi i {phase_str(phase, N)}) "
      f"a({star.g1},{star.s},{star.g2})")

# The basis is orthonormal for <x, y> = trace(y^# x); the generic checks
# run every law over every basis tuple in exact arithmetic.
for res in alg.check_all():
    print(f"  {res.name}: {'ok' if res.ok else res.witness}")

# The whole algebra is a direct sum over conjugacy classes of (matrices
# over the class) tensor (twisted centralizer algebra).  The block map
# is verified to be a *-isomorphism pair by pair.
print("block map *-isomorphism:", verify_star_iso(alg).ok)

# Spelled out per class: the image of a basis element.
im = alg.phi_iso(a)
print(f"a(1,1,1) maps to e^(2 pi i {phase_str(im.scalar, N)}) "
      f"E[{im.row},{im.col}] (x) "
      f"[{im.element}] in class {im.class_index}")

# Counting irreducible representations class by class (exact centers).
counts = simple_count(alg)
print("irreducibles per class:", counts.per_class, "total:", counts.total)

# For comparison: the untwisted count for the same group is 16 as well,
# but the blocks differ; on Z/2 the same construction separates the
# trivial cocycle (count 4) from the nontrivial one (count 4 with all
# blocks one-dimensional but a different twisted center).
z2 = standard_cyclic_cocycle(2, 1)
print("Z/2 twisted:", simple_count(TubeAlgebra(z2.group, z2)).per_class)
