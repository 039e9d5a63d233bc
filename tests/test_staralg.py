"""The product and involution tables every verifier and builder reads."""

import ast
import copy
import re
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
from basis_law_oracle import gram_walk, star_laws_walk, trace_walk
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


# 512 products, certified by associativity, the unit and the walk over
# the 64 labels' inverses
CERTIFIED_D8 = "certified 512 by associativity, unit, inverses exhaustive 64"


def test_checks_state_coverage():
    alg = TubeAlgebra(*dihedral8_sign())
    details = {r.name: r.detail for r in alg.check_all()}
    assert details == {"associativity": "certified 4096 by block map "
                                        "exhaustive 512, class twists "
                                        "exhaustive 1216",
                       "star-laws": CERTIFIED_D8,
                       "trace-symmetry": CERTIFIED_D8,
                       "gram": CERTIFIED_D8,
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


def test_one_verdict_cache():
    # every kept verdict is kept by _kept, with the tables its check read;
    # no algebra keeps one in an attribute of its own
    assert _definitions()["_kept"] == {"staralg.MonomialStarAlgebra"}
    for path in sorted(Path(tubealg.__file__).parent.glob("*.py")):
        source = path.read_text()
        assert not re.search(r"\b_(premises|block_checks|associativity)\b",
                             source), path.name


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


# -- star laws, trace symmetry, Gram identity: the certificate against the walks


def _law_algebras() -> dict:
    """28 algebras: the tube, annular and cut-down algebras above, the box
    algebras of three setups and the class twists of three fixtures."""
    algs = dict(_CERTIFIED_ALGEBRAS)
    for name, make in (("s3", bh_setup_s3), ("v4", bh_setup_v4),
                       ("z1", bh_setup_z1)):
        algs[f"{name}_boxes"] = lambda make=make: AnnularAlgebra(make()).boxes
    for name in ("s3_sign", "v4_product", "z4_std"):
        fx = _FIXTURES[name]
        cd = conjugacy_data(fx.group)
        for c in range(cd.num_classes()):
            algs[f"{name}_twist{c}"] = lambda fx=fx, cd=cd, c=c: \
                TwistedGroupAlgebra(phi_class(fx.group, fx.omega, cd, c))
    return algs


_LAW_ALGEBRAS = _law_algebras()


def _law_mutants(alg, per_kind: int = 20):
    """(table name, table) with one value changed: a product's phase
    shifted by 1 or its result moved to the next label, over products
    spread evenly over the table and over the products of a label with
    its inverse; or a star's phase shifted or its label moved, over
    labels spread evenly.  No-op changes are skipped."""
    labels, N = alg.labels(), alg.modulus
    nxt = {a: labels[(i + 1) % len(labels)] for i, a in enumerate(labels)}
    inverses = [pair for a in labels
                for pair in ((alg.inverse(a), a), (a, alg.inverse(a)))]

    def spread(keys):
        return keys[::max(1, len(keys) // per_kind)][:per_kind]

    for name, table, keys in (
            ("products", alg.products, spread(list(alg.products))
             + spread(inverses)),
            ("stars", alg.stars, spread(list(labels)))):
        for key in keys:
            ph, lab = table[key]
            for value in ((ph + 1) % N, lab), (ph, nxt[lab]):
                if value != (ph, lab):
                    yield name, {**table, key: value}


def _laws(alg) -> list:
    return [alg.check_star_laws(), alg.check_trace(), alg.check_gram_identity()]


def _walks(alg) -> list:
    return [star_laws_walk(alg), trace_walk(alg), gram_walk(alg)]


@pytest.mark.parametrize("name", list(_LAW_ALGEBRAS))
def test_law_certificate_passes_no_table_a_walk_rejects(name):
    alg = _LAW_ALGEBRAS[name]()
    if isinstance(alg, TubeShapedAlgebra):
        alg.block_images, alg.block_algebra()   # shared by the copies
    assert all(r.ok for r in _laws(alg) + _walks(alg))
    mutants = rejected = 0
    for table_name, table in _law_mutants(alg):
        mutant = copy.copy(alg)
        setattr(mutant, table_name, table)      # shadows the cached table
        laws, walks = _laws(mutant), _walks(mutant)
        # one verdict for the three laws: the first failing premise's
        assert len({(r.ok, r.witness, r.detail) for r in laws}) == 1
        for law, walk in zip(laws, walks):
            assert walk.ok or not law.ok, (table_name, walk, law)
        if all(w.ok for w in walks) and not laws[0].ok:
            # stricter than the walks only where a reported check fails
            assert not (mutant.check_associativity().ok
                        and mutant.check_unit().ok), (table_name, laws[0])
        mutants += 1
        rejected += not all(w.ok for w in walks)
    # one label: every change is a no-op or moves a result onto itself
    assert rejected > 0 or len(alg.labels()) == 1


def test_no_sampler_is_left():
    source = Path(staralg.__file__).read_text()
    assert "random" not in source and "samples" not in source


# -- kept verdicts: one per table, never passed between copies --------------


def _first_shifted(alg) -> dict:
    """alg's products with the first product's phase shifted by one."""
    key, (ph, label) = next(iter(alg.products.items()))
    return {**alg.products, key: ((ph + 1) % alg.modulus, label)}


def _calls(monkeypatch, cls, name) -> list:
    """The instance of each later call of ``cls.name``, in call order."""
    calls, method = [], getattr(cls, name)

    def counted(self, *args):
        calls.append(self)
        return method(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_a_copy_neither_passes_nor_inherits_a_verdict():
    alg = TubeAlgebra(*dihedral8_sign())
    alg.block_images, alg.products, alg.stars   # shared by the copies
    mutant = copy.copy(alg)
    mutant.products = _first_shifted(alg)       # shadows the cached table
    assert mutant.check_block_map()[:2] == (False, "phi-mult")
    assert alg.check_block_map()[:2] == (True, "star-isomorphism")
    assert alg.check_associativity().detail.startswith("certified ")
    # a copy made after the original's verdicts were kept
    late = copy.copy(alg)
    late.products = mutant.products
    assert late.check_block_map()[:2] == (False, "phi-mult")
    assert not late.check_associativity().ok


@pytest.mark.parametrize("c", range(5))
def test_a_class_twist_copy_walks_its_own_law(c):
    G, omega = dihedral8_sign()
    twist = TwistedGroupAlgebra(phi_class(G, omega, conjugacy_data(G), c))
    mutant = copy.copy(twist)
    mutant.products = _first_shifted(twist)
    res = mutant.check_associativity()
    assert not res.ok and res.witness is not None
    assert res == staralg.MonomialStarAlgebra._associativity_walk(mutant)
    assert twist.check_associativity().ok


@pytest.mark.parametrize("make_setup", [bh_setup_s3, bh_setup_v4])
def test_box_checks_walk_the_box_algebra_once(make_setup, monkeypatch):
    # the box laws' premises and box-associativity read one walk
    alg = AnnularAlgebra(make_setup())
    walks = _calls(monkeypatch, staralg.MonomialStarAlgebra, "_triples")
    assert all(res.ok for res in box_checks(alg))
    assert [a for a in walks if a is alg.boxes] == [alg.boxes]


def test_the_default_block_map_is_the_op_inverse_one(monkeypatch):
    alg = TubeAlgebra(*dihedral8_sign())
    walks = _calls(monkeypatch, TubeShapedAlgebra, "_walk_block_map")
    assert alg.check_block_map() is alg.check_block_map("op-inverse")
    assert walks == [alg]


def test_a_corrupted_copy_walks_associativity_once(monkeypatch):
    # the failing block map sends associativity to the walk, and the star
    # laws' premises read the same walk
    alg = TubeAlgebra(*dihedral8_sign())
    mutant = copy.copy(alg)
    mutant.products = _first_shifted(alg)
    walks = _calls(monkeypatch, staralg.MonomialStarAlgebra, "_triples")
    results = mutant.check_all()
    assert not any(res.ok for res in results)
    assert [a for a in walks if a is mutant] == [mutant]


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
    # so [0] is not the unit, and the three laws certified from the unit
    # fail on that premise, with its witness
    tw = Cocycle2(cyclic_group(2), (0, 1), [1, 1, 1, 1], 2)
    alg = TwistedGroupAlgebra(tw)
    results = alg.check_all()
    assert [(r.name, r.witness, r.detail) for r in results if not r.ok] == [
        (name, (0,), "premise unit-left fails")
        for name in ("star-laws", "trace-symmetry", "gram")] + [
        ("unit-left", (0,), "")]
    res = regular_representation(alg).check(alg)
    assert not res.ok and res.witness == (0,) and res.detail == (
        "exact: associativity exhaustive 8, star-laws fails, trace-symmetry "
        "fails, gram fails, unit-left fails")
