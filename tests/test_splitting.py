"""Exact projective-irreducible dimensions over a prime field.

``projective_dimensions`` is checked against the numerical regular
split of ``regular_split_oracle``, and its seeded attempts are checked
by forcing central elements that do not separate the blocks.
``rep.decompose``, which builds a tube-shaped algebra's regular blocks
from these dimensions, is checked against the same oracle.
"""

import time
from functools import cache

import pytest

from tubealg import rep, splitting
from tubealg.annular_bh import AnnularAlgebra, end_xg_algebra
from tubealg.coho import phi_class, phi_class_plain_conjugate
from tubealg.grp import conjugacy_data, cyclic_group, direct_product
from tubealg.phase import (Cocycle2, Cocycle3, inflate_cocycle,
                           standard_cyclic_cocycle)
from tubealg.rep import (DecompositionError, TwistedGroupAlgebra,
                         center_dimension)
from tubealg.splitting import projective_dimensions
from tubealg.tube_diag import TubeAlgebra
from conftest import (SMALL_NAMES, _FIXTURES, bh_setup_s3, bh_setup_v4,
                      bh_setup_z1, bh_setup_z2z4, dihedral8_sign,
                      symmetric_group)
from regular_split_oracle import regular_split


def _v4():
    z2 = cyclic_group(2)
    return direct_product(z2, z2)


def _m2_twist() -> TwistedGroupAlgebra:
    """C^alpha[V4] = M_2(C) for the non-symmetric twist a1 b2."""
    v4 = _v4()
    alpha = Cocycle2(v4, (0, 1, 2, 3),
                     [(a >> 1) * (b & 1) for a in range(4) for b in range(4)],
                     2)
    return TwistedGroupAlgebra(alpha)


@cache
def _type_iii():
    """(Z/2)^3 with the cocycle a1 b2 c3, index a1*4 + a2*2 + a3."""
    G = direct_product(_v4(), cyclic_group(2))

    def bit(g, i):
        return (g >> (2 - i)) & 1

    return G, Cocycle3(G, [bit(a, 0) * bit(b, 1) * bit(c, 2)
                           for a in range(8) for b in range(8)
                           for c in range(8)], 2)


@cache
def _s4_sign():
    s4, signs = symmetric_group(4)
    return s4, inflate_cocycle(standard_cyclic_cocycle(2, 1), s4, signs)


def _algebras():
    """(id, build) for every twisted algebra compared with the oracle."""
    out = []
    for name, setup in (("s3", bh_setup_s3), ("v4", bh_setup_v4),
                        ("z2z4", bh_setup_z2z4), ("z1", bh_setup_z1)):
        G = setup().group
        out += [(f"end-{name}-{g}",
                 lambda s=setup, g=g: TwistedGroupAlgebra(
                     end_xg_algebra(s(), g)))
                for g in G.elements()]
    # the inputs are cached, so the 3-cocycle law is checked once each
    for name, build in (("d8_sign", cache(dihedral8_sign)), ("s4_sign", _s4_sign),
                        ("type_iii", _type_iii)):
        n = conjugacy_data(build()[0]).num_classes()
        out += [(f"block-{name}-{c}",
                 lambda build=build, c=c: _block(*build(), c)) for c in range(n)]
    out.append(("m2-v4", _m2_twist))
    return out


def _block(G, omega, c: int) -> TwistedGroupAlgebra:
    """The twisted centralizer algebra of class c of the tube algebra."""
    tw = phi_class(G, omega, conjugacy_data(G), c)
    return TwistedGroupAlgebra(tw)


_ALGEBRAS = _algebras()


def test_comparison_list_is_complete():
    # 19 weight-endomorphism twists; 5 + 5 + 8 block twists; M_2(C)
    assert len(_ALGEBRAS) == 38


@pytest.mark.parametrize("build", [b for _, b in _ALGEBRAS],
                         ids=[i for i, _ in _ALGEBRAS])
def test_dimensions_match_decompose(build):
    alg = build()
    dims = projective_dimensions(alg)
    assert dims == [b.dimension for b in regular_split(alg, seed=1)]
    assert len(dims) == center_dimension(alg)
    assert sum(d * d for d in dims) == alg.dimension


def test_known_dimensions():
    assert projective_dimensions(_m2_twist()) == [2]
    assert projective_dimensions(_block(*_s4_sign(), 0)) == [1, 1, 2, 3, 3]
    # each nonidentity flux of the type-III tube keeps 2 of its 8 charges
    assert [projective_dimensions(_block(*_type_iii(), c)) for c in range(8)] \
        == [[1] * 8] + [[2, 2]] * 7


def test_huge_modulus_is_reduced_by_a_coboundary():
    # the phase 2 mod 10^20 at (1, 1) is a coboundary: the prime follows
    # |S|, not the twist's conductor 5 * 10^19
    z2 = cyclic_group(2)
    alg = TwistedGroupAlgebra(Cocycle2(z2, (0, 1), [0, 0, 0, 2], 10 ** 20))
    start = time.perf_counter()
    assert projective_dimensions(alg) == [1, 1]
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("convention", [phi_class, phi_class_plain_conjugate])
def test_reduced_twist_exponents_are_exact(convention):
    # summing the 2-cocycle law over its last argument gives |S| phi = dF,
    # so every exponent of the coboundary-reduced twist is an integer
    for G, omega in (dihedral8_sign(), _s4_sign(), _type_iii()):
        cd = conjugacy_data(G)
        for c in range(cd.num_classes()):
            tw = convention(G, omega, cd, c)
            els, N = tw.elements, tw.modulus
            F = {a: sum(tw(a, b) for b in els) for a in els}
            assert not any((len(els) * tw(a, b) - F[a] - F[b]
                            + F[G.mul(a, b)]) % N for a in els for b in els)


def test_result_does_not_depend_on_the_seed():
    alg = _block(*_s4_sign(), 0)
    results = [projective_dimensions(alg, seed=s) for s in range(4)]
    assert all(r == results[0] for r in results)
    assert results[2].seeds == ["2:0"]


def test_splitting_prime_and_root():
    for m in (1, 2, 4, 48, 2880):
        p = splitting._splitting_prime(m)
        assert p > 2 ** 16 and (p - 1) % m == 0
        assert all(p % q for q in range(2, int(p ** 0.5) + 1))
        # no smaller candidate above 2^16 is prime
        assert not any(all(q % r for r in range(2, int(q ** 0.5) + 1))
                       for q in range(p - m, 2 ** 16, -m))
    assert splitting._splitting_prime(1) == 65537
    assert splitting._splitting_prime(2) == 65537
    p = splitting._splitting_prime(24)
    for n in (1, 2, 3, 8, 24):
        z = splitting._root_of_unity(n, p)
        assert [k for k in range(1, n + 1) if pow(z, k, p) == 1] == [n]


def test_squarefree_degrees():
    p = 65537
    f = [1]
    for root, mult in ((1, 1), (2, 4), (3, 4), (5, 9)):
        for _ in range(mult):
            f = [((f[i - 1] if i else 0) - root * (f[i] if i < len(f) else 0))
                 % p for i in range(len(f) + 1)]
    assert splitting._squarefree_degrees(f, p) == {1: 1, 4: 2, 9: 1}


def _force_first(monkeypatch, element: list) -> None:
    """Make the first attempt use ``element`` in place of a random
    central element; later attempts draw as usual."""
    calls = []
    real = splitting._central_element

    def forced(*args):
        calls.append(args)
        return list(element) if len(calls) == 1 else real(*args)

    monkeypatch.setattr(splitting, "_central_element", forced)
    return calls


def _group_algebra(group) -> TwistedGroupAlgebra:
    els = tuple(group.elements())
    return TwistedGroupAlgebra(Cocycle2(group, els, [0] * len(els) ** 2, 1))


def test_unit_is_rejected_for_too_few_blocks(monkeypatch):
    # the unit has one eigenvalue of multiplicity 4 = 2^2: it reads as a
    # single 2-dimensional block, fewer than the 4 the center counts
    alg = _group_algebra(_v4())
    _force_first(monkeypatch, [1, 0, 0, 0])
    dims = projective_dimensions(alg, seed=5)
    assert dims == [1, 1, 1, 1]
    assert dims.seeds == ["5:0", "5:1"]


def test_non_central_element_is_rejected_for_its_squared_dimensions(
        monkeypatch):
    # left multiplication by a 3-cycle of S3 has three eigenvalues of
    # multiplicity 2: three blocks, as the center counts, but 1 + 1 + 1 != 6
    s3, _ = symmetric_group(3)
    alg = _group_algebra(s3)
    cycle = next(g for g in s3.elements() if s3.mul3(g, g, g) == 0 and g)
    _force_first(monkeypatch, [int(g == cycle) for g in alg.labels()])
    dims = projective_dimensions(alg)
    assert dims == [1, 1, 2]
    assert dims.seeds == ["0:0", "0:1"]


def test_every_attempt_failing_raises_with_the_seeds(monkeypatch):
    alg = _group_algebra(_v4())
    monkeypatch.setattr(splitting, "_central_element",
                        lambda *args: [1, 0, 0, 0])
    with pytest.raises(DecompositionError) as exc:
        projective_dimensions(alg, seed=3)
    assert exc.value.seeds == [f"3:{i}" for i in range(splitting.MAX_ATTEMPTS)]
    assert "seeds tried" in str(exc.value)


# -- the regular representation of a tube-shaped algebra ----------------------


def _tube_shaped():
    """(id, build) for every tube-shaped algebra compared with the oracle."""
    out = [(name, lambda f=_FIXTURES[name]: TubeAlgebra(f.group, f.omega))
           for name in SMALL_NAMES]
    out += [(name, lambda build=build: TubeAlgebra(*build()))
            for name, build in (("d8_sign", dihedral8_sign),
                                ("s4_sign", _s4_sign), ("type_iii", _type_iii))]
    out += [(f"annular-{name}", lambda s=setup: AnnularAlgebra(s()))
            for name, setup in (("s3", bh_setup_s3), ("v4", bh_setup_v4),
                                ("z2z4", bh_setup_z2z4), ("z1", bh_setup_z1))]
    return out


_TUBE_SHAPED = _tube_shaped()


@pytest.mark.parametrize("build", [b for _, b in _TUBE_SHAPED],
                         ids=[i for i, _ in _TUBE_SHAPED])
def test_decompose_matches_the_regular_split(build):
    alg = build()
    exact = rep.decompose(alg, seed=1)
    numerical = regular_split(alg, seed=1)
    assert [(b.dimension, b.multiplicity) for b in exact] == \
        [(b.dimension, b.multiplicity) for b in numerical]
    assert len(exact) == len(numerical) == center_dimension(alg)
    assert sum(b.dimension ** 2 for b in exact) == len(alg.labels())


def test_decompose_names_each_block_class():
    # S4-sign: each class C gives |I_C| d for the projective dimensions d
    alg = TubeAlgebra(*_s4_sign())
    blocks = alg.block_algebra()
    got = sorted((b.class_index, b.dimension) for b in rep.decompose(alg))
    want = sorted((c, len(blocks.index_sets[c]) * d)
                  for c in range(len(blocks.algebras))
                  for d in projective_dimensions(_block(*_s4_sign(), c)))
    assert got == want and len(got) == 21


@pytest.mark.parametrize("dims, check, witness", [
    ([1], "block-count", (2, 4)), ([1, 2], "dimension-sum", (10, 4))])
def test_decompose_cross_checks_reject_wrong_dimensions(monkeypatch, dims,
                                                        check, witness):
    # the semion tube: two classes, each a 2-dimensional algebra
    monkeypatch.setattr(splitting, "projective_dimensions",
                        lambda alg, seed: splitting.Seeded(dims, [f"{seed}:0"]))
    with pytest.raises(DecompositionError) as exc:
        semion = standard_cyclic_cocycle(2, 1)
        rep.decompose(TubeAlgebra(semion.group, semion))
    assert (exc.value.check, exc.value.witness) == (check, witness)
