"""Center dimensions as phase-consistent orbit counts, against the field oracle."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubealg.annular_bh import AnnularAlgebra, CutdownAlgebra, end_xg_algebra
from tubealg.cyclotomic import nullspace_dimension
from tubealg.grp import cyclic_group, direct_product
from tubealg.phase import Cocycle2, Cocycle3
from tubealg.rep import TwistedGroupAlgebra, center_dimension
from tubealg.staralg import MonomialStarAlgebra
from tubealg.tube_diag import TubeAlgebra, simple_count

from conftest import (_FIXTURES, SMALL_NAMES, bh_setup_s3, bh_setup_v4,
                      bh_setup_z1, bh_setup_z2z4, dihedral8_sign)
from cyclotomic_oracle import (CyclotomicField, center_dimension_oracle,
                               nullspace_dimension as oracle_nullspace)

_SETUPS = {"s3": bh_setup_s3, "v4": bh_setup_v4, "z1": bh_setup_z1,
           "z2z4": bh_setup_z2z4}


def _algebras():
    """(id, builder) for every algebra the orbit count is cross-checked on."""
    tubes = {name: (_FIXTURES[name].group, _FIXTURES[name].omega)
             for name in SMALL_NAMES}
    out = [(f"tube-{name}", lambda go=go: TubeAlgebra(*go))
           for name, go in tubes.items()]
    out.append(("tube-d8_sign", lambda: TubeAlgebra(*dihedral8_sign())))
    for name, (G, omega) in tubes.items():
        for conv in ("op-inverse", "plain-conjugate"):
            algebras = TubeAlgebra(G, omega).block_algebra(conv).algebras
            out += [(f"block-{name}-{conv}-{c}", lambda talg=talg: talg)
                    for c, talg in enumerate(algebras)]
    for name, setup in _SETUPS.items():
        out.append((f"annular-{name}", lambda s=setup: AnnularAlgebra(s())))
        out.append((f"cutdown-{name}",
                    lambda s=setup: CutdownAlgebra(s())))
        G = setup().group
        out += [(f"end-{name}-{g}",
                 lambda s=setup, g=g: TwistedGroupAlgebra(
                     end_xg_algebra(s(), g)))
                for g in G.elements()]
    return out


_ALGEBRAS = _algebras()


def test_cross_check_list_is_complete():
    # 8 tubes, 40 block twists, 4 annular and 4 cut-down algebras,
    # 19 weight-endomorphism twists
    assert len(_ALGEBRAS) == 75


@pytest.mark.parametrize("build", [b for _, b in _ALGEBRAS],
                         ids=[i for i, _ in _ALGEBRAS])
def test_center_dimension_matches_field_oracle(build):
    alg = build()
    assert center_dimension(alg) == center_dimension_oracle(alg)


def test_whole_tube_center_is_the_simple_count(s4_sign_fixture):
    for G, omega in (dihedral8_sign(),
                     (s4_sign_fixture.group, s4_sign_fixture.omega)):
        alg = TubeAlgebra(G, omega)
        assert center_dimension(alg) == simple_count(alg).total
    assert center_dimension(TubeAlgebra(s4_sign_fixture.group,
                                        s4_sign_fixture.omega)) == 21


def test_center_dimension_drops_non_regular_classes():
    # every algebra above has only regular classes; these do not.  The
    # V4 twist a1 b2 is not symmetric, so C^alpha[V4] = M_2(C).
    z2 = cyclic_group(2)
    v4 = direct_product(z2, z2)
    alpha = Cocycle2(v4, (0, 1, 2, 3),
                     [(a >> 1) * (b & 1) for a in range(4) for b in range(4)],
                     2)
    twisted = TwistedGroupAlgebra(alpha)
    assert center_dimension(twisted) == center_dimension_oracle(twisted) == 1
    # the type-III cocycle a1 b2 c3 on (Z/2)^3: each nonidentity flux
    # keeps 2 of its 8 charges
    G = direct_product(v4, z2)   # index a1*4 + a2*2 + a3

    def _bit(g, i):
        return (g >> (2 - i)) & 1

    omega = Cocycle3(G, [_bit(a, 0) * _bit(b, 1) * _bit(c, 2)
                         for a in range(8) for b in range(8)
                         for c in range(8)], 2)
    tube = TubeAlgebra(G, omega)
    assert center_dimension(tube) == center_dimension_oracle(tube) \
        == simple_count(tube).total == 8 + 7 * 2
    for block in tube.block_algebra().algebras:
        assert center_dimension(block) == center_dimension_oracle(block)


def _dense(rows, ncols, modulus):
    """The oracle's rows: zeta^a on column c minus zeta^b on column d."""
    k = CyclotomicField(modulus)
    out = []
    for row in rows:
        dense = [k.zero()] * ncols
        for sign, (c, a) in zip((1, -1), row):
            z = k.zeta_power(a)
            dense[c] = k.add(dense[c], z if sign > 0 else k.neg(z))
        out.append(dense)
    return k, out


@st.composite
def two_term_systems(draw):
    ncols = draw(st.integers(1, 6))
    modulus = draw(st.integers(1, 12))
    term = st.tuples(st.integers(0, ncols - 1), st.integers(0, modulus - 1))
    rows = draw(st.lists(st.one_of(st.tuples(term), st.tuples(term, term)),
                         max_size=10))
    return rows, ncols, modulus


@settings(max_examples=150, deadline=None)
@given(two_term_systems())
@example(([], 3, 1))
@example(([((0, 1),)], 2, 3))                          # a forced zero
@example(([((0, 0), (1, 1)), ((1, 0), (0, 1))], 2, 4))  # z0 = i z1 = -z0
@example(([((0, 0), (1, 1)), ((1, 0), (0, 3))], 2, 4))  # z0 = i z1 = z0
@example(([((0, 0), (1, 1)), ((1, 0), (2, 1)),
           ((2, 0), (0, 1))], 3, 3))                   # phases sum to 3 = 0
@example(([((0, 0), (1, 1)), ((1, 0), (2, 1)),
           ((2, 0), (0, 1))], 3, 4))                   # phases sum to 3 != 0
@example(([((1, 0), (1, 2))], 2, 4))                   # a one-edge loop
@example(([((1, 3), (1, 3))], 2, 4))                   # a zero row
@example(([((0, 0), (1, 2)), ((2, 0),), ((1, 1), (2, 0))], 4, 5))
def test_nullspace_dimension_matches_field_oracle(system):
    rows, ncols, modulus = system
    k, dense = _dense(rows, ncols, modulus)
    assert nullspace_dimension(rows, ncols, modulus) == \
        oracle_nullspace(k, dense, ncols)


class _TwoTermsOneSide(MonomialStarAlgebra):
    """Labels 0, 1, 2 with 0 * 1 = 0 * 2 = 0: not a twisted groupoid algebra."""

    modulus = 1
    objects = (0,)

    def labels(self):
        return (0, 1, 2)

    def ends(self, label):
        return 0, 0

    def mult_basis(self, left, right):
        return (0, 0) if left == 0 and right in (1, 2) else None


def test_center_dimension_rejects_two_terms_on_one_side():
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        center_dimension(_TwoTermsOneSide())
