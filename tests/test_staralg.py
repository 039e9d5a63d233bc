"""The product and involution tables every verifier and builder reads."""

import pytest

from tubealg.annular_bh import AnnularAlgebra, CutdownAlgebra
from tubealg.coho import phi_class
from tubealg.grp import conjugacy_data
from tubealg.rep import TwistedGroupAlgebra
from tubealg.tube_diag import TubeAlgebra

from conftest import bh_setup_s3, bh_setup_v4, dihedral8_sign


def all_pairs_products(alg) -> dict:
    """The nonzero products found by trying every label pair."""
    out = {}
    for left in alg.labels():
        for right in alg.labels():
            hit = alg.mult_basis(left, right)
            if hit is not None:
                out[(left, right)] = hit
    return out


def _assert_tables_match_oracle(alg):
    # same pairs, same values, same left-major label order
    assert list(alg.products.items()) == list(all_pairs_products(alg).items())
    assert alg.stars == {a: alg.star_basis(a) for a in alg.labels()}


def test_tube_tables_match_oracle(small_fixture):
    alg = TubeAlgebra(small_fixture.group, small_fixture.omega)
    _assert_tables_match_oracle(alg)
    assert len(alg.products) == small_fixture.group.order ** 3


@pytest.mark.parametrize("make_setup", [bh_setup_s3, bh_setup_v4])
def test_annular_and_cutdown_tables_match_oracle(make_setup):
    annular = AnnularAlgebra(make_setup())
    _assert_tables_match_oracle(annular)
    _assert_tables_match_oracle(CutdownAlgebra(annular))


def test_twisted_group_algebra_table_matches_oracle(fixtures):
    fx = fixtures["s3_sign"]
    cd = conjugacy_data(fx.group)
    for c in range(cd.num_classes()):
        tw = phi_class(fx.group, fx.omega, cd, c)
        _assert_tables_match_oracle(
            TwistedGroupAlgebra(fx.group, tw.elements, tw))


class _CountingTube(TubeAlgebra):
    calls = 0

    def mult_basis(self, left, right):
        self.calls += 1
        return super().mult_basis(left, right)


def test_products_try_composable_pairs_only(s4_sign_fixture):
    alg = _CountingTube(s4_sign_fixture.group, s4_sign_fixture.omega)
    assert alg.calls == 0          # built on first use, not on construction
    assert len(alg.products) == 24 ** 3
    assert alg.calls == 24 ** 3    # 13,824 of the 331,776 label pairs
    alg.products
    assert alg.calls == 24 ** 3


class _DroppedProductTube(TubeAlgebra):
    """Reports the product of one composable pair as zero."""

    dropped = None

    def mult_basis(self, left, right):
        if (left, right) == self.dropped:
            return None
        return super().mult_basis(left, right)


def test_dropped_product_fails_the_verifiers():
    alg = _DroppedProductTube(*dihedral8_sign())
    labels = alg.labels()
    left = labels[-1]
    alg.dropped = (left, alg._right_factors(left)[3])
    assert alg.dropped not in alg.products
    assert len(alg.products) == 8 ** 3 - 1
    laws = [alg.check_star_laws(), alg.check_trace()]
    assert not all(r.ok for r in laws)
    res = alg.check_block_map()
    assert not res.ok and res.name == "phi-mult-zero"
    assert res.witness == alg.dropped


def test_checks_state_coverage():
    alg = TubeAlgebra(*dihedral8_sign())
    details = {r.name: r.detail for r in alg.check_all()}
    assert details == {"associativity": "exhaustive 4096",
                       "star-laws": "exhaustive 512",
                       "trace-symmetry": "exhaustive 512",
                       "gram": "exhaustive 512",
                       "unit": "exhaustive 64"}
    assert alg.check_block_map().detail == "exhaustive 512"
