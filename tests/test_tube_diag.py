"""Tube algebra structure constants, trace, and the block isomorphism."""

import random

import pytest

from tubealg import tube_diag
from tubealg.coho import gamma
from tubealg.phase import (Cocycle2, CocycleError, root,
                           standard_cyclic_cocycle, trivial_cocycle)
from tubealg.tube_diag import (TubeAlgebra, TubeBasisElement, simple_count,
                               structure_constants_json, verify_star_iso)
from tubealg.staralg import MonomialStarAlgebra

from cocycle2_oracle import cocycle2_check
from conftest import corrupt_last_twist, dihedral8_sign, symmetric_group
from regular_split_oracle import regular_split


def mult_oracle(omega, right, left):
    """The three cocycle factors of a product, written out directly."""
    G = omega.group
    g1, s = right.g1, right.s
    g2, t, g3 = left.g1, left.s, left.g2
    return (omega(g1, s, t) - omega(s, g2, t) + omega(s, t, g3)) % omega.modulus


def star_oracle(omega, a):
    G = omega.group
    si = G.inverse(a.s)
    return (-omega(a.g1, a.s, si) + omega(a.s, a.g2, si)
            - omega(a.s, si, a.g1)) % omega.modulus


@pytest.fixture
def semion_algebra():
    omega = standard_cyclic_cocycle(2, 1)
    return TubeAlgebra(omega.group, omega)


def test_mult_trivial_cocycle_is_label_composition():
    g, _ = symmetric_group(3)
    alg = TubeAlgebra(g, trivial_cocycle(g))
    for right in alg.labels():
        for t in g.elements():
            left = alg.basis_label(right.g2, t)
            ph, lab = alg.mult_basis(left, right)
            assert ph == 0
            assert lab == TubeBasisElement(right.g1, g.mul(right.s, t), left.g2)


def test_mult_semion_square(semion_algebra):
    a = TubeBasisElement(1, 1, 1)
    ph, lab = semion_algebra.mult_basis(a, a)
    assert (semion_algebra.modulus, ph) == (2, 1)
    assert lab == TubeBasisElement(1, 0, 1)
    assert ph == mult_oracle(semion_algebra.omega, a, a)


def test_mult_mismatched_middle_is_zero(semion_algebra):
    left = TubeBasisElement(0, 1, 0)
    right = TubeBasisElement(1, 1, 1)
    assert semion_algebra.mult_basis(left, right) is None


def test_mult_validates_labels(semion_algebra):
    with pytest.raises(ValueError):
        semion_algebra.mult_basis(TubeBasisElement(1, 1, 0),
                                  TubeBasisElement(1, 1, 1))


def test_star_diagonal_identity_fixed(small_fixture):
    alg = TubeAlgebra(small_fixture.group, small_fixture.omega)
    for g in small_fixture.group.elements():
        ph, lab = alg.star_basis(TubeBasisElement(g, 0, g))
        assert ph == 0 and lab == TubeBasisElement(g, 0, g)


def test_star_semion(semion_algebra):
    ph, lab = semion_algebra.star_basis(TubeBasisElement(1, 1, 1))
    assert (semion_algebra.modulus, ph) == (2, 1)
    assert lab == TubeBasisElement(1, 1, 1)
    assert ph == star_oracle(semion_algebra.omega, TubeBasisElement(1, 1, 1))


def test_exact_basis_laws(small_fixture):
    alg = TubeAlgebra(small_fixture.group, small_fixture.omega)
    for res in alg.check_all():
        assert res.ok, (small_fixture.name, res.name, res.witness)


D8_CERTIFIED = ("certified 4096 by block map exhaustive 512, "
                "class twists exhaustive 1216")


def test_associativity_certified_s4(s4_sign_fixture):
    # 331,776 triples, certified by the 24^3 block-map products and the
    # 5 class twists' laws (24^3 + 8^3 + 3^3 + 4^3 + 4^3)
    alg = TubeAlgebra(s4_sign_fixture.group, s4_sign_fixture.omega)
    res = alg.check_associativity()
    assert res.ok and res.detail == ("certified 331776 by block map "
                                     "exhaustive 13824, class twists "
                                     "exhaustive 14491")


class _SignFlippedTube(TubeAlgebra):
    """Negates every product whose left factor is the last basis label."""

    def mult_basis(self, left, right):
        hit = super().mult_basis(left, right)
        if hit is not None and left == self.labels()[-1]:
            return (hit[0] + self.modulus // 2) % self.modulus, hit[1]
        return hit


def test_associativity_detail_states_coverage():
    alg = TubeAlgebra(*dihedral8_sign())
    res = alg.check_associativity()
    assert res.ok and res.detail == D8_CERTIFIED
    res = MonomialStarAlgebra.check_associativity(alg)
    assert res.ok and res.detail == "exhaustive 4096"


def test_associativity_takes_no_bound():
    # no bound, no samples, no seed: the certificate covers every triple
    alg = TubeAlgebra(*dihedral8_sign())
    talg = alg.block_algebra().algebras[0]
    for kwargs in ({"exhaustive_limit": 0}, {"samples": 100}, {"seed": 3}):
        for a in (alg, talg):
            with pytest.raises(TypeError):
                a.check_associativity(**kwargs)
            with pytest.raises(TypeError):
                a.check_all(**kwargs)
    assert alg.check_associativity().detail == D8_CERTIFIED


def test_associativity_certified_and_walked_z4():
    omega = standard_cyclic_cocycle(4, 1)
    alg = TubeAlgebra(omega.group, omega)
    res = alg.check_associativity()
    assert res.ok and res.detail == ("certified 256 by block map exhaustive "
                                     "64, class twists exhaustive 256")
    res = MonomialStarAlgebra.check_associativity(alg)
    assert res.ok and res.detail == "exhaustive 256"


def test_block_sum_rejects_a_class_twist_that_fails_its_law(monkeypatch):
    # a class twist that fails its 2-cocycle law never reaches the block
    # map or the certificate: building the block sum raises, naming a
    # triple at which the law fails
    original, broken = tube_diag.phi_class, []

    def flipped(group, omega, class_data, c):
        tw = original(group, omega, class_data, c)
        if c != class_data.num_classes() - 1:
            return tw
        values = list(tw.values)
        values[-1] += tw.modulus // 2
        broken.append(Cocycle2(group, tw.elements, values, tw.modulus))
        return broken[-1]

    monkeypatch.setattr(tube_diag, "phi_class", flipped)
    alg = TubeAlgebra(*dihedral8_sign())
    with pytest.raises(CocycleError, match="twist fails associativity at "
                                           "triple") as exc:
        alg.block_algebra()
    [tw] = broken
    assert not cocycle2_check(tw).ok
    x, y, z = exc.value.witness
    G = tw.group
    assert (tw(x, y) + tw(G.mul(x, y), z) - tw(y, z) - tw(x, G.mul(y, z))) \
        % tw.modulus
    with pytest.raises(CocycleError):
        alg.check_associativity()


def test_associativity_falls_back_to_the_walk_on_late_triples():
    # the broken triples all involve the last label, the last to be
    # walked; the block map fails on them, so the walk finds one
    alg = _SignFlippedTube(*dihedral8_sign())
    assert alg.check_block_map().name == "phi-mult"
    res = alg.check_associativity()
    assert not res.ok and res.name == "associativity"
    assert alg.labels()[-1] in res.witness
    assert res == MonomialStarAlgebra.check_associativity(alg)


def inner(alg, x, y):
    """<x, y> = trace(y* x) for coefficient dicts, read from the tables:
    linear in x, conjugate-linear in y."""
    total = 0
    for b, cb in y.items():
        ph_b, bs = alg.stars[b]
        for a, ca in x.items():
            hit = alg.products.get((bs, a))
            if hit is not None and alg.trace_basis(hit[1]):
                total += cb.conjugate() * ca * root(ph_b + hit[0], alg.modulus)
    return total


def test_trace_values(semion_algebra):
    alg = semion_algebra
    assert alg.trace_basis(TubeBasisElement(0, 0, 0)) == 1
    assert alg.trace_basis(TubeBasisElement(1, 1, 1)) == 0


def test_trace_positivity_sampled(small_fixture):
    alg = TubeAlgebra(small_fixture.group, small_fixture.omega)
    rng = random.Random(3)
    for _ in range(10):
        x = {k: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for k in alg.labels()}
        val = inner(alg, x, x)
        assert val.real > 0
        assert abs(val.imag) < 1e-9


def test_inner_product_basics(semion_algebra):
    alg = semion_algebra
    a = {TubeBasisElement(1, 1, 1): 1.0 + 0.0j}
    b = {TubeBasisElement(0, 1, 0): 1.0 + 0.0j}
    assert inner(alg, {}, a) == 0
    assert abs(inner(alg, a, a) - 1) < 1e-12
    assert inner(alg, a, b) == 0
    # sesquilinearity spot checks
    x = {k: 2j * c for k, c in a.items()}
    assert abs(inner(alg, x, {**b, **a}) -
               (2j * inner(alg, a, b) + 2j * inner(alg, a, a))) < 1e-12


def test_block_dimension_audit(small_fixture):
    alg = TubeAlgebra(small_fixture.group, small_fixture.omega)
    blocks = alg.block_algebra()
    assert blocks.total_dimension() == small_fixture.group.order ** 2


def test_phi_iso_class_representative_unit(small_fixture):
    alg = TubeAlgebra(small_fixture.group, small_fixture.omega)
    for c, gc in enumerate(alg.class_data.reps):
        im = alg.phi_iso(TubeBasisElement(gc, 0, gc))
        assert im.class_index == c and im.scalar == 0
        assert im.row == gc and im.col == gc and im.element == 0


def test_phi_iso_trivial_cocycle_scalars():
    g, _ = symmetric_group(3)
    alg = TubeAlgebra(g, trivial_cocycle(g))
    assert all(alg.phi_iso(a).scalar == 0 for a in alg.labels())


def test_phi_iso_semion_scalar_is_transport_value(semion_algebra):
    alg = semion_algebra
    a = TubeBasisElement(1, 1, 1)
    im = alg.phi_iso(a)
    cd = alg.class_data
    w1, w2 = cd.transport[1], cd.transport[1]
    u = alg.group.mul(alg.group.inverse(w1), alg.group.mul(1, w2))
    assert im.scalar == -gamma(alg.group, alg.omega, cd.reps[1], w1, w2, u) % 2
    assert (im.row, im.col, im.element) == (1, 1, 1)


def test_phi_iso_roundtrip(small_fixture):
    # the image table is a bijection onto the block sum's basis, so every
    # position has one preimage to read back, as restriction does
    alg = TubeAlgebra(small_fixture.group, small_fixture.omega)
    blocks = alg.block_algebra()
    positions = {(im.class_index, im.row, im.col, im.element)
                 for im in alg.block_images.values()}
    assert len(positions) == len(alg.labels()) == blocks.total_dimension()
    for (c, row, col, v) in positions:
        idx = blocks.index_sets[c]
        assert row in idx and col in idx and v in blocks.algebras[c].labels()


def test_star_iso_fixtures(small_fixture):
    res = verify_star_iso(TubeAlgebra(small_fixture.group, small_fixture.omega))
    assert res.ok, (small_fixture.name, res.name, res.witness)


def test_star_iso_detects_corrupted_twist(monkeypatch, fixtures):
    corrupt_last_twist(monkeypatch)
    fx = fixtures["s3_sign"]
    res = verify_star_iso(TubeAlgebra(fx.group, fx.omega))
    assert not res.ok and res.name in ("phi-mult", "phi-star")
    assert res.witness


def test_simple_counts():
    s3, _ = symmetric_group(3)
    assert simple_count(TubeAlgebra(s3, trivial_cocycle(s3))).total == 8
    sem = standard_cyclic_cocycle(2, 1)
    counts = simple_count(TubeAlgebra(sem.group, sem))
    assert counts.total == 4
    assert counts.per_class == {0: 2, 1: 2}
    from tubealg.grp import cyclic_group
    z3 = cyclic_group(3)
    assert simple_count(TubeAlgebra(z3, trivial_cocycle(z3))).total == 9


def test_simple_count_trivial_group():
    from tubealg.grp import cyclic_group
    z1 = cyclic_group(1)
    assert simple_count(TubeAlgebra(z1, trivial_cocycle(z1))).total == 1


def test_semion_blocks_all_one_dimensional():
    sem = standard_cyclic_cocycle(2, 1)
    alg = TubeAlgebra(sem.group, sem)
    for talg in alg.block_algebra().algebras:
        assert all(b.dimension == 1 for b in regular_split(talg))


def test_structure_constant_dump(semion_algebra):
    dump = structure_constants_json(semion_algebra)
    # composable pairs: |G|^3
    assert len(dump) == 8
    entry = next(d for d in dump if d["left"] == [1, 1, 1]
                 and d["right"] == [1, 1, 1])
    assert entry["scalar"] == "1/2"
    assert entry["result"] == [1, 0, 1]
