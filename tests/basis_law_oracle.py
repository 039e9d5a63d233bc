"""The basis-law walks over the whole ``products`` table: the oracle.

These are the star-law, trace-symmetry and Gram-identity verifiers that
:class:`tubealg.staralg.MonomialStarAlgebra` ran before it certified the
three laws from associativity, the unit and its walk over the inverses.
Each visits every nonzero basis product; the tests compare the
certificate with them on corrupted tables.
"""

from tubealg.phase import CheckResult


def star_laws_walk(alg) -> CheckResult:
    """star is involutive and anti-multiplicative on the basis.

    (b, a) -> (a*, b*) then permutes the label pairs, so sending the
    nonzero products to nonzero ones also sends zero ones to zero.
    """
    stars, products, N = alg.stars, alg.products, alg.modulus
    for a, (ph1, a1) in stars.items():
        ph2, a2 = stars[a1]
        if a2 != a or ph1 != ph2:
            # star is conjugate-linear: (ph1 * a1)* = conj(ph1) * a1*
            return CheckResult(False, "star-involution", (a,))
    for (b, a), (ph_ba, lab_ba) in products.items():
        phb, bs = stars[b]
        pha, as_ = stars[a]
        ab = products.get((as_, bs))
        if ab is None:
            return CheckResult(False, "star-antihom", (b, a))
        ph_star, lab_star = stars[lab_ba]
        if lab_star != ab[1] or (ph_star - ph_ba - pha - phb - ab[0]) % N:
            return CheckResult(False, "star-antihom", (b, a))
    return CheckResult(True, "star-laws", detail=f"exhaustive {len(products)}")


def trace_walk(alg) -> CheckResult:
    """trace(b a) == trace(a b) for all basis pairs, exactly.

    The swap permutes the pairs, so checking the pairs of nonzero
    trace covers the others.
    """
    products = alg.products
    for (b, a), (ph, lab) in products.items():
        if not alg.trace_basis(lab):
            continue
        ab = products.get((a, b))
        if ab is None or not alg.trace_basis(ab[1]) or ab[0] != ph:
            return CheckResult(False, "trace-symmetry", (b, a))
    return CheckResult(True, "trace-symmetry",
                       detail=f"exhaustive {len(products)}")


def gram_walk(alg) -> CheckResult:
    """<a, b> = trace(b* a) = delta_{a,b}: an orthonormal basis.

    Each trace-supported product (b*, a) must have a = b, and each
    <a, a> must be 1.
    """
    stars, products = alg.stars, alg.products
    starred: dict = {}
    for b, (_, bs) in stars.items():
        starred.setdefault(bs, []).append(b)
    for (bs, a), (_, lab) in products.items():
        others = [b for b in starred.get(bs, ()) if b != a]
        if others and alg.trace_basis(lab):
            return CheckResult(False, "gram", (a, others[0]))
    for a, (pha, as_) in stars.items():
        prod = products.get((as_, a))
        if prod is None or not alg.trace_basis(prod[1]) or \
                (pha + prod[0]) % alg.modulus:
            return CheckResult(False, "gram", (a, a))
    return CheckResult(True, "gram", detail=f"exhaustive {len(products)}")
