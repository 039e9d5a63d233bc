"""The product and involution tables every verifier and builder reads."""

import ast
import copy
from pathlib import Path

import pytest

import tubealg
from tubealg import phase, staralg
from tubealg.annular_bh import AnnularAlgebra, CutdownAlgebra
from tubealg.coho import phi_class
from tubealg.grp import conjugacy_data
from tubealg.rep import TwistedGroupAlgebra
from tubealg.tube_diag import BlockAlgebra, TubeAlgebra, TubeShapedAlgebra

from conftest import (SMALL_NAMES, _FIXTURES, bh_setup_s3, bh_setup_v4,
                      bh_setup_z1, dihedral8_sign)


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
    _assert_tables_match_oracle(CutdownAlgebra(annular.setup))
    _assert_tables_match_oracle(annular.boxes)


def test_twisted_group_algebra_table_matches_oracle(fixtures):
    fx = fixtures["s3_sign"]
    cd = conjugacy_data(fx.group)
    for c in range(cd.num_classes()):
        tw = phi_class(fx.group, fx.omega, cd, c)
        _assert_tables_match_oracle(
            TwistedGroupAlgebra(tw))


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
    assert details == {"associativity": "certified 4096 by block map "
                                        "exhaustive 512, class twists "
                                        "exhaustive 1216",
                       "star-laws": "exhaustive 512",
                       "trace-symmetry": "exhaustive 512",
                       "gram": "exhaustive 512",
                       "unit": "exhaustive 64"}
    assert alg.check_block_map().detail == "exhaustive 512"


def _callers(names) -> dict:
    """name -> the set of "module.Class.method" (or "module.function")
    scopes under src/tubealg that call it."""
    out = {name: set() for name in names}

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else \
                    getattr(f, "id", None)
                if name in out:
                    out[name].add(".".join((module,) + scope))
            visit(child, module, inner)

    for path in sorted(Path(tubealg.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    return out


def test_one_product_path():
    # structure constants are read through the tables only, and phases
    # become complex numbers only in rep's numerical half
    callers = _callers(("mult_basis", "star_basis", "root", "phi_iso",
                        "gamma", "TwistedGroupAlgebra"))
    assert callers["mult_basis"] == {"staralg.MonomialStarAlgebra.products"}
    assert callers["star_basis"] == {"staralg.MonomialStarAlgebra.stars"}
    assert callers["root"] and \
        {c.split(".")[0] for c in callers["root"]} == {"rep"}
    # block images are computed once, for the block-map check, induction
    # and restriction
    assert callers["phi_iso"] == {"tube_diag.TubeShapedAlgebra.block_images"}
    # the transport cochain has one block-map caller, beside the identity
    # certificate
    assert callers["gamma"] == {"tube_diag.TubeShapedAlgebra.phi_iso",
                                "coho._gamma_identity_holds"}
    # a class twist's algebra is built once, by the block sum; the other
    # two build the weight-endomorphism and transport-identity twists'
    assert callers["TwistedGroupAlgebra"] == {
        "tube_diag.TubeShapedAlgebra.block_algebra", "annular_bh.tube_cutdown",
        "coho.gamma_identity_check"}
    # and the block sum multiplies through those algebras' tables alone
    assert BlockAlgebra._fields == ("class_data", "index_sets", "algebras")
    assert not any(hasattr(BlockAlgebra, a) for a in ("twists", "group"))
    # a twist's 2-cocycle law is its twisted group algebra's associativity
    assert not hasattr(phase, "cocycle2_check")
    assert not hasattr(staralg, "Element")
    for cls in (staralg.MonomialStarAlgebra, TubeShapedAlgebra,
                TwistedGroupAlgebra):
        assert not hasattr(cls, "validate_label")


# -- associativity: the block-map certificate against the walk -----------------


def _certified_algebras() -> dict:
    algs = {name: (lambda fx=_FIXTURES[name]: TubeAlgebra(fx.group, fx.omega))
            for name in SMALL_NAMES}
    algs["d8_sign"] = lambda: TubeAlgebra(*dihedral8_sign())
    for name, make in (("s3", bh_setup_s3), ("v4", bh_setup_v4),
                       ("z1", bh_setup_z1)):
        algs[f"{name}_annular"] = lambda make=make: AnnularAlgebra(make())
        algs[f"{name}_cutdown"] = lambda make=make: CutdownAlgebra(make())
    return algs


_CERTIFIED_ALGEBRAS = _certified_algebras()


def _corruptions(alg, per_kind: int = 20):
    """Product tables with one entry changed: its phase shifted, its label
    replaced by the next label, or the product dropped; for ``per_kind``
    entries spread evenly over the table, skipping no-op changes."""
    products, labels, N = alg.products, alg.labels(), alg.modulus
    keys = list(products)
    nxt = {a: labels[(i + 1) % len(labels)] for i, a in enumerate(labels)}
    for key in keys[::max(1, len(keys) // per_kind)][:per_kind]:
        ph, lab = products[key]
        for hit in ((ph + 1) % N, lab), (ph, nxt[lab]), None:
            if hit == (ph, lab):
                continue
            table = dict(products)
            if hit is None:
                del table[key]
            else:
                table[key] = hit
            yield table


@pytest.mark.parametrize("name", list(_CERTIFIED_ALGEBRAS))
def test_certificate_accepts_no_table_the_walk_rejects(name):
    alg = _CERTIFIED_ALGEBRAS[name]()
    alg.block_images, alg.stars, alg.block_algebra()   # shared by the copies
    counts = {"walk rejects": 0, "certificate rejects": 0, "tables": 0}
    for table in _corruptions(alg):
        mutant = copy.copy(alg)
        mutant.products = table          # shadows the cached table
        mutant._block_checks = {}
        walk = staralg.MonomialStarAlgebra.check_associativity(mutant)
        res = mutant.check_associativity()
        certified = res.detail.startswith("certified ")
        assert res.ok == walk.ok and (walk.ok or not certified)
        if not walk.ok:
            assert res == walk           # the walk's first witness
        counts["tables"] += 1
        counts["walk rejects"] += not walk.ok
        counts["certificate rejects"] += not certified
    assert counts["tables"] > 0
    assert counts["certificate rejects"] >= counts["walk rejects"]
    # one label: the one change drops the one product, and no triple is left
    assert counts["walk rejects"] > 0 or len(alg.labels()) == 1


@pytest.mark.parametrize("name", list(_CERTIFIED_ALGEBRAS))
def test_certified_triple_count_is_the_walked_count(name):
    # sum over classes of |I_C|^4 |C_G(g_C)|^3, against the composable
    # triples the walk would visit
    alg = _CERTIFIED_ALGEBRAS[name]()
    comp = alg._composable()
    walked = sum(len(comp[b]) for b, _ in alg.products)
    res = alg.check_associativity()
    assert res.ok and res.detail.startswith(f"certified {walked} by block map ")


def test_no_sampler_is_left():
    source = Path(staralg.__file__).read_text()
    assert "random" not in source and "samples" not in source
