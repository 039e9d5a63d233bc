"""The product and involution tables every verifier and builder reads."""

import ast
import copy
from pathlib import Path

import pytest

import tubealg
from tubealg import phase, staralg
from tubealg.annular_bh import AnnularAlgebra, CutdownAlgebra, box_checks
from tubealg.coho import gauge_fix_bh, phi_class
from tubealg.grp import conjugacy_data, cyclic_group
from tubealg.phase import CheckResult, Cocycle2
from tubealg.rep import TwistedGroupAlgebra, regular_representation
from tubealg.tube_diag import BlockAlgebra, TubeAlgebra, TubeShapedAlgebra

from conftest import (SMALL_NAMES, _FIXTURES, bh_coboundary_shift,
                      bh_setup_s3, bh_setup_v4, bh_setup_z1, bh_setup_z2z4,
                      dihedral8_sign, s4_sign)
from star_oracle import oracle_stars


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
                        "gamma", "TwistedGroupAlgebra", "tube_phase"))
    assert callers["mult_basis"] == {"staralg.MonomialStarAlgebra.products",
                                     "staralg.MonomialStarAlgebra.star_basis"}
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
    # tau is written once, in Cocycle3.tube_phase: the tube product, the
    # centralizer and class twists and the transport identity read it
    assert callers["tube_phase"] == {
        "tube_diag.TubeShapedAlgebra.mult_basis", "coho.phi_a",
        "coho.phi_class", "coho._gamma_identity_holds"}
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


def _definitions() -> dict:
    """name -> the "module.Class" (or "module") scopes under src/tubealg
    that define it: as a function, or by assigning it as a name or an
    attribute."""
    out: dict = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                names = [child.name]
            elif isinstance(child, (ast.Assign, ast.AnnAssign)) and child.value:
                targets = getattr(child, "targets", [getattr(child, "target", None)])
                names = [getattr(t, "id", None) or getattr(t, "attr", None)
                         for t in targets]
            for name in filter(None, names):
                out.setdefault(name, set()).add(".".join(scope))
            inner = scope + (child.name,) \
                if isinstance(child, ast.ClassDef) else scope
            visit(child, inner)

    for path in sorted(Path(tubealg.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), (path.stem,))
    return out


def test_the_groupoid_is_written_once():
    # trace, unit, right factors and star are derived from ends, identity,
    # inverse and product in the core; no algebra restates them
    defs = _definitions()
    assert defs["trace_basis"] == {"staralg.MonomialStarAlgebra"}
    assert defs["star_basis"] == {"staralg.MonomialStarAlgebra"}
    assert {"staralg.TwistedGroupAlgebra", "tube_diag.TubeShapedAlgebra",
            "annular_bh.BoxAlgebra"} <= defs["inverse"]
    assert defs["_right_factors"] == {"staralg.MonomialStarAlgebra"}
    assert defs["_into"] == {"staralg.MonomialStarAlgebra"}
    for name in ("unit_labels", "support_projector_label", "identity_box",
                 "normalized", "box_star"):
        assert name not in defs, (name, defs.get(name))


# -- the star: derived from the product, against the hand-written formulas ---


def _class_twists(alg) -> list:
    """The class twists' algebras of a tube-shaped alg, both conventions."""
    if not isinstance(alg, TubeShapedAlgebra):
        return []
    return [t for conv in ("op-inverse", "plain-conjugate")
            for t in alg.block_algebra(conv).algebras]


def _assert_stars_match_oracle(alg):
    """alg's stars and its class twists' equal the hand-written formulas."""
    for a in [alg] + _class_twists(alg):
        assert a.stars == oracle_stars(a)


@pytest.mark.parametrize("name", SMALL_NAMES + ["d8_sign", "s4_sign"])
def test_tube_stars_match_the_oracle(name):
    make = {"d8_sign": dihedral8_sign, "s4_sign": s4_sign}.get(
        name, lambda: (_FIXTURES[name].group, _FIXTURES[name].omega))
    _assert_stars_match_oracle(TubeAlgebra(*make()))


_SHIFTED = {"s3": bh_setup_s3, "v4": bh_setup_v4, "z1": bh_setup_z1,
            "z2z4": bh_setup_z2z4}


def _shifts(make) -> dict:
    """(scale, seed) -> the setup shifted by a coboundary: 16 setups."""
    return {(scale, seed): bh_coboundary_shift(make(), scale, seed)
            for scale in (1, 2, 3, 6) for seed in range(4)}


@pytest.mark.parametrize("name", list(_SHIFTED))
def test_bh_stars_match_the_oracle(name):
    # the annular and cut-down stars as given and shifted, and the box
    # star once gauge-fixed, where the paper's formula is an involution
    make = _SHIFTED[name]
    for setup in [make(), *_shifts(make).values()]:
        _assert_stars_match_oracle(AnnularAlgebra(setup))
        _assert_stars_match_oracle(CutdownAlgebra(setup))
        fixed = setup._replace(omega=gauge_fix_bh(setup)[0])
        _assert_stars_match_oracle(AnnularAlgebra(fixed).boxes)


def test_box_star_needs_no_gauge_fix():
    # On the 64 shifted setups, not gauge-fixed: the derived box star
    # passes every box check, and the paper's formula fails the star laws
    # or the Gram identity exactly where the two stars differ.
    differ, oracle_fails = set(), set()
    for name, make in _SHIFTED.items():
        for key, setup in _shifts(make).items():
            alg = AnnularAlgebra(setup)
            assert all(r.ok for r in box_checks(alg)), (name, key)
            mutant = copy.copy(alg.boxes)
            mutant.stars = oracle_stars(alg.boxes)   # shadows the cached table
            if mutant.stars != alg.boxes.stars:
                differ.add((name, key))
            if not (mutant.check_star_laws().ok
                    and mutant.check_gram_identity().ok):
                oracle_fails.add((name, key))
    assert differ == oracle_fails
    assert len(differ) == 43


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


def _corruptions(alg, per_kind: int = 20, keys=None):
    """Product tables with one entry changed: its phase shifted, its label
    replaced by the next label, or the product dropped; for ``per_kind``
    entries spread evenly over the table (or over ``keys``), skipping
    no-op changes."""
    products, labels, N = alg.products, alg.labels(), alg.modulus
    keys = list(products) if keys is None else keys
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


# -- the unit: the walk over the source and target identities --------------


def all_identities_unit_check(alg) -> CheckResult:
    """The unit check that tries every label against every identity."""
    units, products = [alg.identity(x) for x in alg.objects], alg.products
    for a in alg.labels():
        for side, pairs in (("unit-left", [(u, a) for u in units]),
                            ("unit-right", [(a, u) for u in units])):
            hits = [products[p] for p in pairs if p in products]
            if len(hits) != 1 or hits[0][1] != a or hits[0][0]:
                return CheckResult(False, side, (a,))
    return CheckResult(True, "unit", detail=f"exhaustive {len(alg.labels())}")


def _unit_algebras() -> dict:
    algs = {name: (lambda fx=_FIXTURES[name]: TubeAlgebra(fx.group, fx.omega))
            for name in SMALL_NAMES}
    algs["d8_sign"] = lambda: TubeAlgebra(*dihedral8_sign())
    algs["s4_sign"] = lambda: TubeAlgebra(*s4_sign())
    for name, make in (("s3", bh_setup_s3), ("v4", bh_setup_v4),
                       ("z1", bh_setup_z1), ("z2z4", bh_setup_z2z4)):
        algs[f"{name}_annular"] = lambda make=make: AnnularAlgebra(make())
        algs[f"{name}_cutdown"] = lambda make=make: CutdownAlgebra(make())
        algs[f"{name}_boxes"] = lambda make=make: AnnularAlgebra(make()).boxes
    return algs


_UNIT_ALGEBRAS = _unit_algebras()


@pytest.mark.parametrize("name", list(_UNIT_ALGEBRAS))
def test_unit_check_matches_the_all_identities_walk(name):
    alg = _UNIT_ALGEBRAS[name]()
    res = alg.check_unit()
    assert res.ok and res == all_identities_unit_check(alg)
    for talg in _class_twists(alg):
        assert talg.check_unit() == all_identities_unit_check(talg)
    # tables with one product by an identity changed
    ids = {alg.identity(x) for x in alg.objects}
    rejected = 0
    for table in _corruptions(alg, 4, [k for k in alg.products
                                       if ids.intersection(k)]):
        mutant = copy.copy(alg)
        mutant.products = table          # shadows the cached table
        res = mutant.check_unit()
        assert res == all_identities_unit_check(mutant)
        rejected += not res.ok
    assert rejected > 0


def test_unnormalized_twist_fails_the_unit_check():
    # a 2-cocycle (a constant one) that is not normalized: [0][0] = -[0],
    # so [0] is not the unit, and the star it gives [0] is no
    # anti-automorphism either
    tw = Cocycle2(cyclic_group(2), (0, 1), [1, 1, 1, 1], 2)
    alg = TwistedGroupAlgebra(tw)
    results = alg.check_all()
    assert [(r.name, r.witness) for r in results if not r.ok] == [
        ("star-antihom", (0, 0)), ("unit-left", (0,))]
    res = regular_representation(alg).check(alg)
    assert not res.ok and "star-antihom fails" in res.detail \
        and res.detail.endswith("unit-left fails")
