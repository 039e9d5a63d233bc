"""
The annular algebra over a weight set indexed by G = <H, K>
===========================================================

For a group generated by two subgroups, morphisms between weight
objects are spanned by boxes (h1, g1, g2, h2), and the annular algebra
has basis A(h1, g1, s, h2, g2).  The demo runs the box calculus on the
symmetric group on three letters, verifies the block isomorphism under
both candidate twist conventions, and cuts the algebra down to
double-coset representative weights.
"""

from tubealg import (AnnularAlgebra, BHSetup, bh_verify_star_iso, double_cosets,
                     end_xg_algebra, group_from_permutations, phase_str,
                     subgroup_closure, trivial_cocycle, tube_cutdown)

s3 = group_from_permutations(3, [(1, 0, 2), (1, 2, 0)])
H = subgroup_closure(s3, [1])    # generated by a transposition
K = subgroup_closure(s3, [2])    # generated by a 3-cycle
print("weights indexed by", s3.order, "elements; H =", H, " K =", K)

setup = BHSetup(s3, H, K, trivial_cocycle(s3))
alg = AnnularAlgebra(setup)
print("annular basis size:", len(alg.labels()), "= (|H||G|)^2")

# Boxes only exist within one H-H double coset of weights.
print("double coset sizes:", [len(c) for c in double_cosets(s3, H)])
print("boxes e -> e:", len(alg.boxes.box_basis(0, 0)),
      "; boxes e -> 3-cycle:", len(alg.boxes.box_basis(0, 2)))

# A product of annular basis elements: a delta-rule on the middle pair
# labels, then a single phase times a basis element.
right = alg.basis_label(1, 2, 3, 0)
left = alg.basis_label(right.h2, right.g2, 4, 1)
phase, label = alg.mult_basis(left, right)
print(f"product phase {phase_str(phase, alg.modulus)}, "
      f"result A({label.h1},{label.g1},{label.s},{label.h2},{label.g2})")

# The block map onto sums of (matrices over the pair sets) tensor
# (twisted centralizer algebras) is checked under both twist
# conventions; the report names the ones that pass.
report = bh_verify_star_iso(alg)
print("block map passes under:", report.passing)

# Endomorphisms of a single weight form a twisted group algebra on
# H meet g^-1 H g; with the trivial cocycle all twists are trivial.
for g in (0, 2):
    tw = end_xg_algebra(setup, g)
    print(f"End of weight {g}: subgroup {tw.elements}")

# Cutting down to one weight per double coset keeps every irreducible:
# the corner's exact center dimension equals the full count.
cut = tube_cutdown(alg)
print("cut-down weights:", cut.weights)
print("corner dimensions:", cut.corner_dims)
print("simple count, full vs cut-down:",
      cut.simple_count_full.total, "vs", cut.simple_count_cutdown)
print("simple weight objects (minimal idempotents):", cut.simple_objects)
