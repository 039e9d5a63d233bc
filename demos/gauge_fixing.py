"""
Gauge fixing a cocycle for a group generated by two subgroups
=============================================================

A 3-cocycle that is trivial on H^3 and K^3 can be corrected by an
explicit coboundary so that all values of the shapes w(g, l, l^-1) and
w(l^-1, l, g), for l in H or K, become 1.  This demo builds the
smallest interesting example, shows the relations failing before the
fix, and verifies them after.
"""

from tubealg import (BHSetup, gauge_fix_bh, gl_relations_check,
                     is_normalized, product_type_cocycle)
from tubealg.phase import cocycle3_check, coboundary2, restrict_trivial_on

# The Klein four-group with the product-type cocycle
# w((a1,a2),(b1,b2),(c1,c2)) = (-1)^(a1 b2 c2): trivial on both factors
# but nontrivial as a class.
G, omega = product_type_cocycle()
H = (0, 2)   # first factor
K = (0, 1)   # second factor
setup = BHSetup(G, H, K, omega)
setup.validate()
print("setup valid: H, K generate, cocycle trivial on H^3 and K^3")

# Before fixing, the gauge relations fail:
res = gl_relations_check(G, H, K, omega)
print(f"raw cocycle gauge relations: {res.name} fails at {res.witness}")

# The fix walks the relations once: each pairs two points of G x G,
# (g, l) with (gl, l^-1) or (l, g) with (l^-1, lg), and the correcting
# 2-cochain takes the relation's value, w(g, l, l^-1) or the inverse of
# w(l^-1, l, g), on one point of its pair.
omega_prime, f = gauge_fix_bh(setup)
print("after fixing:")
print("  still a cocycle:", cocycle3_check(omega_prime).ok)
print("  still normalized:", is_normalized(omega_prime))
print("  still trivial on H^3:", restrict_trivial_on(omega_prime, H) is None)
print("  still trivial on K^3:", restrict_trivial_on(omega_prime, K) is None)
print("  gauge relations:", gl_relations_check(G, H, K, omega_prime).ok)

# The output differs from the input by exactly the coboundary of f.
# Phases are ints mod the cocycle's modulus, so products are sums mod N.
N = omega.modulus
d2f = coboundary2(G, f, N)
same = all(omega_prime.values[i] == (d2f[i] + omega.values[i]) % N
           for i in range(len(d2f)))
print("  w' = d2(f) * w pointwise:", same)

# Running the fix again is a no-op: every orbit value is already 1.
omega_again, f_again = gauge_fix_bh(BHSetup(G, H, K, omega_prime))
print("idempotent in effect:", not any(f_again))
