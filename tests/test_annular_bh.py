"""Box calculus, annular structure constants, block map, and the cut-down."""

import pytest

from tubealg import annular_bh
from tubealg.annular_bh import (ABasisElement, AnnularAlgebra, BoxMorphism,
                                CutdownAlgebra, bh_verify_star_iso, box_checks,
                                compare_cutdown_diagonal, double_cosets,
                                end_xg_algebra, tube_cutdown)
from tubealg.coho import BHSetup
from tubealg.grp import subgroup_closure
from tubealg.phase import standard_cyclic_cocycle, trivial_cocycle
from tubealg.tube_diag import TubeAlgebra, TubeBasisElement

from cocycle2_oracle import cocycle2_check
from conftest import (bh_setup_s3, bh_setup_v4, bh_setup_z1, bh_setup_z2z4,
                      corrupt_last_twist, symmetric_group)


@pytest.fixture(params=["s3", "v4", "z1"])
def annular(request):
    setup = {"s3": bh_setup_s3, "v4": bh_setup_v4, "z1": bh_setup_z1}[request.param]()
    return AnnularAlgebra(setup)


# -- labels --------------------------------------------------------------------


def test_labels_are_plain_tuples(annular):
    G = annular.group
    boxes = [b for g1 in G.elements() for g2 in G.elements()
             for b in annular.boxes.box_basis(g1, g2)]
    for labels in (TubeAlgebra(G, annular.omega).labels(), annular.labels(),
                   CutdownAlgebra(annular.setup).labels(), boxes):
        assert labels
        for label in labels:
            assert isinstance(label, tuple)
            assert label == tuple(label) and hash(label) == hash(tuple(label))


def test_label_fields():
    assert TubeBasisElement._fields == ("g1", "s", "g2")
    assert ABasisElement._fields == ("h1", "g1", "s", "h2", "g2")
    assert BoxMorphism._fields == ("h1", "g1", "g2", "h2")
    assert repr(TubeBasisElement(1, 2, 3)) == "TubeBasisElement(g1=1, s=2, g2=3)"


# -- box calculus --------------------------------------------------------------


def test_identity_boxes_compose(annular):
    for g in annular.group.elements():
        b = annular.boxes.identity(g)
        ph, out = annular.boxes.box_compose(b, b)
        assert ph == 0 and out == b


def test_box_compose_trivial_cocycle():
    alg = AnnularAlgebra(bh_setup_s3())
    for g1 in alg.group.elements():
        for inner in alg.boxes.box_basis(g1, g1):
            for outer in alg.boxes.box_basis(g1, g1):
                ph, out = alg.boxes.box_compose(outer, inner)
                assert ph == 0
                assert out.h1 == alg.group.mul(outer.h1, inner.h1)


def test_box_compose_product_fixture_oracle():
    alg = AnnularAlgebra(bh_setup_v4())
    w, G = alg.omega, alg.group
    inner = alg.boxes.box_basis(1, 1)[1]       # a box on the weight in K
    outer = alg.boxes.box_basis(1, 1)[1]
    ph, out = alg.boxes.box_compose(outer, inner)
    oracle = (-w(outer.h1, inner.h1, inner.g1)
              + w(outer.h1, outer.g1, inner.h2)
              - w(outer.g2, outer.h2, inner.h2)) % w.modulus
    assert ph == oracle
    assert out == BoxMorphism(G.mul(outer.h1, inner.h1), inner.g1,
                              outer.g2, G.mul(outer.h2, inner.h2))


def test_box_star_identity_box(annular):
    b = annular.boxes.identity(0)
    ph, out = annular.boxes.stars[b]
    assert ph == 0 and out == b


def test_box_checks_exhaustive(annular):
    for res in box_checks(annular):
        assert res.ok, (res.name, res.witness)


def test_box_checks_state_coverage():
    alg = AnnularAlgebra(bh_setup_s3())
    G = alg.group
    boxes = [b for g1 in G.elements() for g2 in G.elements()
             for b in alg.boxes.box_basis(g1, g2)]
    triples = sum(1 for a in boxes for b in boxes if b.g1 == a.g2
                  for c in boxes if c.g1 == b.g2)
    details = {r.name: r.detail for r in box_checks(alg)}
    assert details == {"box-star-involution": f"exhaustive {len(boxes)}",
                       "box-unitarity": f"exhaustive {len(boxes)}",
                       "box-associativity": f"exhaustive {triples}"}


def _shift_phase(monkeypatch, method: str, args: tuple) -> None:
    """Add 1 to the phase that ``BoxAlgebra.<method>`` returns at ``args``."""
    original = getattr(annular_bh.BoxAlgebra, method)

    def shifted(self, *call):
        ph, out = original(self, *call)
        return (ph + (call == args)) % self.modulus, out
    monkeypatch.setattr(annular_bh.BoxAlgebra, method, shifted)


def test_corrupted_box_compose_fails_associativity(monkeypatch):
    clean = AnnularAlgebra(bh_setup_v4()).boxes
    pair = next(p for p in clean.products
                if not any(clean.trace_basis(b) for b in p))
    _shift_phase(monkeypatch, "box_compose", pair)
    alg = AnnularAlgebra(bh_setup_v4())
    res = box_checks(alg)[2]
    assert (res.name, res.ok) == ("box-associativity", False)
    # the witness is a composable triple (c, b, a) that the shift breaks
    c, b, a = res.witness
    compose = alg.boxes.box_compose
    (ph_cb, cb), (ph_ba, ba) = compose(c, b), compose(b, a)
    (ph_l, left), (ph_r, right) = compose(cb, a), compose(c, ba)
    assert left == right and (ph_cb + ph_l - ph_ba - ph_r) % alg.modulus
    assert pair in {(c, b), (b, a), (cb, a), (c, ba)}


def test_corrupted_box_star_fails_involution(monkeypatch):
    clean = AnnularAlgebra(bh_setup_v4()).boxes
    b, bs = next((b, bs) for b, (_, bs) in clean.stars.items() if bs != b)
    _shift_phase(monkeypatch, "star_basis", (b,))
    res = box_checks(AnnularAlgebra(bh_setup_v4()))[0]
    assert (res.name, res.ok) == ("box-star-involution", False)
    assert res.witness in {(b,), (bs,)}


def test_boxes_are_built_on_first_use(monkeypatch):
    calls = []
    original = annular_bh.BoxAlgebra.box_basis

    def counting(self, g1, g2):
        calls.append((g1, g2))
        return original(self, g1, g2)
    monkeypatch.setattr(annular_bh.BoxAlgebra, "box_basis", counting)
    alg = AnnularAlgebra(bh_setup_s3())
    assert "boxes" not in vars(alg)
    boxes = alg.boxes
    assert calls == [] and "_labels" not in vars(boxes)
    # an endomorphism twist reads only the endomorphism boxes of its weight
    end_xg_algebra(alg.setup, 2)
    assert calls == [(2, 2)]
    calls.clear()
    report = tube_cutdown(alg)
    assert calls == [(g, g) for g in report.weights]
    calls.clear()
    assert len(boxes.labels()) == 24 and len(calls) == 6 * 6  # |G|^2 pairs


def test_box_basis_counts():
    alg = AnnularAlgebra(bh_setup_s3())
    G, H = alg.group, alg.H
    assert len(alg.boxes.box_basis(0, 0)) == len(H)
    # weights in different double cosets have no morphisms
    assert alg.boxes.box_basis(0, 2) == []
    # endomorphisms of a weight g are counted by |H meet g H g^-1|
    g = 2
    overlap = [h for h in H
               if G.mul(G.mul(g, 0), 0) is not None and
               G.mul(G.mul(G.inverse(g), h), g) in set(H)]
    # oracle: h1 determines h2 = g^-1 h1 g which must land in H
    expected = sum(1 for h1 in H
                   if G.mul(G.mul(G.inverse(g), h1), g) in set(H))
    assert len(alg.boxes.box_basis(g, g)) == expected == 1


# -- annular basis -------------------------------------------------------------


def a_mult_oracle(omega, G, right, left):
    """The three-factor scalar, written out directly."""
    s, t = right.s, left.s
    a = G.mul(right.h1, right.g1)
    b = G.mul(right.h2, right.g2)
    c = G.mul(left.h2, left.g2)
    return (omega(s, t, c) - omega(s, b, t) + omega(a, s, t)) % omega.modulus


def test_a_mult_trivial_is_delta_rule():
    alg = AnnularAlgebra(bh_setup_s3())
    right = alg.basis_label(1, 2, 3, 0)
    left = alg.basis_label(right.h2, right.g2, 4, 1)
    ph, lab = alg.mult_basis(left, right)
    assert ph == 0
    assert lab.h1 == right.h1 and lab.g1 == right.g1
    assert lab.s == alg.group.mul(right.s, left.s)


def test_a_mult_zero_on_label_mismatch():
    alg = AnnularAlgebra(bh_setup_s3())
    right = alg.basis_label(0, 0, 0, 1)      # target pair (1, g)
    left = alg.basis_label(0, right.g2, 0, 0)  # source pair (0, g)
    assert (left.h1, left.g1) != (right.h2, right.g2)
    assert alg.mult_basis(left, right) is None


def test_a_idempotents(annular):
    for h in annular.H:
        for g in annular.group.elements():
            lab = ABasisElement(h, g, 0, h, g)
            ph, out = annular.mult_basis(lab, lab)
            assert ph == 0 and out == lab


def test_a_mult_product_fixture_oracle():
    alg = AnnularAlgebra(bh_setup_v4())
    w, G = alg.omega, alg.group
    found_nontrivial = False
    for right in alg.labels():
        for t in G.elements():
            for h3 in alg.H:
                left = alg.basis_label(right.h2, right.g2, t, h3)
                ph, lab = alg.mult_basis(left, right)
                assert ph == a_mult_oracle(w, G, right, left)
                if ph != 0:
                    found_nontrivial = True
    assert found_nontrivial


def test_a_star_identity_like(annular):
    for h in annular.H:
        lab = ABasisElement(h, 0, 0, h, 0)
        ph, out = annular.star_basis(lab)
        assert ph == 0 and out == lab


def a_star_oracle(omega, G, x):
    """The three-factor involution scalar, written out directly."""
    s, si = x.s, G.inverse(x.s)
    a = G.mul(x.h1, x.g1)
    b = G.mul(x.h2, x.g2)
    return (-omega(a, s, si) + omega(s, b, si) - omega(s, si, a)) % omega.modulus


@pytest.mark.parametrize("make_setup", [bh_setup_s3, bh_setup_v4])
def test_a_star_oracle_every_label(make_setup):
    alg = AnnularAlgebra(make_setup())
    G = alg.group
    for x in alg.labels():
        ph, out = alg.star_basis(x)
        assert ph == a_star_oracle(alg.omega, G, x)
        assert out == ABasisElement(x.h2, x.g2, G.inverse(x.s), x.h1, x.g1)


def test_a_star_oracle_sees_nontrivial_phases():
    alg = AnnularAlgebra(bh_setup_v4())
    assert alg.modulus == 2
    assert any(alg.star_basis(x)[0] != 0 for x in alg.labels())


# basis size -> composable triples, block-map products, class-twist
# triples of the S3, V4 and Z1 setups
_CERTIFIED = {144: (20736, 1728, 251), 64: (4096, 512, 256), 1: (1, 1, 1)}


def test_exact_basis_laws(annular):
    for res in annular.check_all():
        assert res.ok, (res.name, res.witness)
    assert annular.check_associativity().detail == (
        "certified {} by block map exhaustive {}, class twists exhaustive {}"
        .format(*_CERTIFIED[len(annular.labels())]))


def test_basis_and_block_counts():
    setup = bh_setup_s3()
    alg = AnnularAlgebra(setup)
    G, H = alg.group, alg.H
    assert len(alg.labels()) == (len(H) * G.order) ** 2
    blocks = alg.block_algebra()
    cd = alg.class_data
    for c, pairs in enumerate(blocks.index_sets):
        assert len(pairs) == len(H) * len(cd.classes[c])
        for (h, g) in pairs:
            assert cd.class_of[G.mul(h, g)] == c
    assert blocks.total_dimension() == (len(H) * G.order) ** 2 == 144


def test_a_trace_values():
    alg = AnnularAlgebra(bh_setup_s3())
    assert alg.trace_basis(ABasisElement(1, 2, 0, 1, 2)) == 1
    h1_ne_h2 = alg.basis_label(1, 0, 0, 0)
    assert not alg.trace_basis(h1_ne_h2)


def test_bh_phi_iso_unit_images():
    alg = AnnularAlgebra(bh_setup_s3())
    for c, gc in enumerate(alg.class_data.reps):
        im = alg.phi_iso(ABasisElement(0, gc, 0, 0, gc))
        assert im.class_index == c and im.scalar == 0
        assert im.row == (0, gc) and im.col == (0, gc) and im.element == 0


def test_bh_phi_iso_bijection(annular):
    images = [annular.phi_iso(x) for x in annular.labels()]
    keys = {(im.class_index, im.row, im.col, im.element) for im in images}
    assert len(keys) == len(annular.labels())


def test_annular_counts_agree_both_ways():
    # exact centers of the block twists vs numerical regular splitting
    from regular_split_oracle import regular_split
    from tubealg.tube_diag import simple_count
    for setup in (bh_setup_v4(), bh_setup_s3()):
        alg = AnnularAlgebra(setup)
        counts = simple_count(alg)
        blocks = regular_split(alg, seed=9)
        assert counts.total == len(blocks)


def test_bh_star_iso(annular):
    report = bh_verify_star_iso(annular)
    assert report.ok
    assert "op-inverse" in report.passing
    assert annular.block_algebra().total_dimension() == len(annular.labels())


def test_bh_star_iso_conventions_separated():
    # only the opposite-inverse twist survives on this fixture; the
    # pointwise-conjugate candidate fails multiplicativity with a witness
    setup = bh_setup_z2z4()
    report = bh_verify_star_iso(AnnularAlgebra(setup))
    assert report.passing == ["op-inverse"]
    failed = report.results["plain-conjugate"]
    assert not failed.ok and failed.name == "phi-mult"


def test_bh_star_iso_detects_corrupted_twist(monkeypatch):
    corrupt_last_twist(monkeypatch)
    report = bh_verify_star_iso(AnnularAlgebra(bh_setup_v4()))
    assert "op-inverse" not in report.passing
    res = report.results["op-inverse"]
    assert not res.ok and res.name in ("phi-mult", "phi-star")
    assert res.witness


def test_z2z4_fixture_full_battery():
    setup = bh_setup_z2z4()
    alg = AnnularAlgebra(setup)
    for res in alg.check_all():
        assert res.ok, (res.name, res.witness)
    for res in box_checks(alg):
        assert res.ok, (res.name, res.witness)
    report = tube_cutdown(alg)
    assert report.counts_agree and report.simple_count_full.total == 64


def test_end_xg_identity_weight(annular):
    tw = end_xg_algebra(annular.setup, 0)
    assert tw.elements == tuple(annular.H)
    assert all(tw(a, b) == 0 for a in tw.elements for b in tw.elements)


def test_end_xg_trivial_cocycle():
    setup = bh_setup_s3()
    for g in setup.group.elements():
        tw = end_xg_algebra(setup, g)
        assert cocycle2_check(tw).ok
        assert all(tw(a, b) == 0 for a in tw.elements for b in tw.elements)


@pytest.mark.parametrize("make_setup", [bh_setup_v4, bh_setup_s3, bh_setup_z1,
                                        bh_setup_z2z4],
                         ids=["v4", "s3", "z1", "z2z4"])
def test_end_xg_product_fixture_oracle(make_setup):
    setup = make_setup()
    w, G = setup.omega, setup.group
    for g in G.elements():
        tw = end_xg_algebra(setup, g)
        assert cocycle2_check(tw).ok
        gi = G.inverse(g)
        for h1 in tw.elements:
            for h2 in tw.elements:
                c1 = G.mul(G.mul(g, h1), gi)
                c2 = G.mul(G.mul(g, h2), gi)
                oracle = (-w(c1, c2, g) + w(c1, g, h2) - w(g, h1, h2)) % w.modulus
                assert tw(h1, h2) == oracle


def test_end_xg_elements_are_sorted():
    # H = A3 in S3: conjugating by a transposition swaps the 3-cycles, so
    # the endomorphism boxes of g come in an order other than their h2's
    s3 = bh_setup_s3()
    setup = s3._replace(H=s3.K, K=s3.H)
    G, Hs = setup.group, set(setup.H)
    for g in G.elements():
        gi = G.inverse(g)
        assert end_xg_algebra(setup, g).elements == tuple(sorted(
            h for h in setup.H if G.mul(G.mul(g, h), gi) in Hs))


def test_end_xg_matches_box_composition(annular):
    # the twisted product must reproduce composition of endomorphism boxes
    G = annular.group
    Hs = set(annular.H)
    for g in G.elements():
        tw = end_xg_algebra(annular.setup, g)
        gi = G.inverse(g)
        for h1 in tw.elements:
            b1 = BoxMorphism(G.mul(G.mul(g, h1), gi), g, g, h1)
            for h2 in tw.elements:
                b2 = BoxMorphism(G.mul(G.mul(g, h2), gi), g, g, h2)
                ph, out = annular.boxes.box_compose(b1, b2)
                assert ph == tw(h1, h2)
                assert out.h2 == G.mul(h1, h2)


def test_double_cosets_s3():
    s3, _ = symmetric_group(3)
    H = subgroup_closure(s3, [1])
    cosets = double_cosets(s3, H)
    assert sorted(len(c) for c in cosets) == [2, 4]


# -- cut-down ------------------------------------------------------------------


def test_cutdown_trivial_group():
    report = tube_cutdown(AnnularAlgebra(bh_setup_z1()))
    assert report.weights == (0,)
    assert report.corner_dims == {(0, 0): 1}
    assert report.simple_count_cutdown == 1 == report.simple_count_full.total


def test_cutdown_s3_counts_match():
    report = tube_cutdown(AnnularAlgebra(bh_setup_s3()))
    assert report.weights == (0, 2)
    assert report.counts_agree
    assert report.simple_count_full.total == 8
    assert report.simple_count_cutdown == 8
    # corner dims recomputed from the defining constraint
    setup = bh_setup_s3()
    G, H = setup.group, setup.H
    for (d1, d2), dim in report.corner_dims.items():
        oracle = sum(1 for h1 in H for h2 in H for s in G.elements()
                     if G.mul(G.mul(G.mul(h1, d1), s), 0)
                     == G.mul(s, G.mul(h2, d2)))
        assert dim == oracle
    assert report.corner_dims == {(0, 0): 8, (0, 2): 2, (2, 0): 2, (2, 2): 5}


def test_cutdown_simple_objects_s3():
    report = tube_cutdown(AnnularAlgebra(bh_setup_s3()))
    # identity weight carries the full H-algebra, the 4-element coset a line
    assert [e.minimal_projections for e in report.end_data] == [2, 1]
    assert report.simple_objects == 3


def test_cutdown_closed_under_mult():
    alg = AnnularAlgebra(bh_setup_s3())
    cut = CutdownAlgebra(alg.setup)
    labels = set(cut.labels())
    for a in cut.labels():
        for b in cut.labels():
            hit = cut.mult_basis(a, b)
            if hit is not None:
                assert hit[1] in labels
        assert cut.star_basis(a)[1] in labels


def test_cutdown_trivial_H_matches_tube_spec_case():
    # the contract case: trivial cocycle, trivial H, K the whole group
    s3, _ = symmetric_group(3)
    setup = BHSetup(s3, (0,), tuple(range(6)), trivial_cocycle(s3))
    assert compare_cutdown_diagonal(setup).ok


def test_cutdown_trivial_H_matches_tube_nontrivial_cocycle():
    # same comparison at the formula level with a nontrivial cocycle
    omega = standard_cyclic_cocycle(4, 1)
    setup = BHSetup(omega.group, (0,), tuple(range(4)), omega)
    assert compare_cutdown_diagonal(setup).ok


class _DroppedProductTube(TubeAlgebra):
    """Reports the product of the last label with one factor as zero."""

    def mult_basis(self, left, right):
        if left == self.labels()[-1] and right == self._right_factors(left)[1]:
            return None
        return super().mult_basis(left, right)


def test_cutdown_diagonal_names_the_first_mismatch(monkeypatch):
    s3, _ = symmetric_group(3)
    setup = BHSetup(s3, (0,), tuple(range(6)), trivial_cocycle(s3))
    monkeypatch.setattr(annular_bh, "TubeAlgebra", _DroppedProductTube)
    res = compare_cutdown_diagonal(setup)
    tube = _DroppedProductTube(s3, setup.omega)
    left = tube.labels()[-1]
    right = tube._right_factors(left)[1]
    assert not res.ok and res.name == "cutdown-diagonal-mult"
    assert res.witness == (ABasisElement(0, *left[:2], 0, left.g2),
                           ABasisElement(0, *right[:2], 0, right.g2))


def test_cutdown_comparison_requires_trivial_H():
    with pytest.raises(ValueError):
        compare_cutdown_diagonal(bh_setup_s3())
