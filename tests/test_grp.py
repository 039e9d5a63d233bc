"""Group tables, conjugacy data, and the canonical choices they fix."""

import random
import tracemalloc
from itertools import product

import pytest

from tubealg.grp import (GroupError, GroupTable, centralizer, conjugacy_data,
                         cyclic_group, direct_product, generating_set,
                         group_from_json, group_from_permutations,
                         group_from_table, group_to_json, is_subgroup,
                         subgroup_closure)

from conftest import (_FIXTURES, bh_setup_s3, bh_setup_v4, bh_setup_z1,
                      bh_setup_z2z4, dihedral8_sign, symmetric_group)
import group_oracle


def brute_force_classes(group):
    """Independent conjugacy oracle by exhaustive conjugation."""
    classes = set()
    for g in group.elements():
        classes.add(frozenset(group.conjugate(x, g) for x in group.elements()))
    return classes


def test_trivial_group():
    g = group_from_table(1, [[0]])
    assert g.order == 1 and g.inv == (0,)


def test_z4_table():
    mult = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    g = group_from_table(4, mult)
    assert g.inv[1] == 3


def test_missing_inverse():
    with pytest.raises(GroupError) as exc:
        group_from_table(2, [[0, 1], [1, 1]])
    assert exc.value.witness == (1,)


def test_non_associative():
    with pytest.raises(GroupError) as exc:
        group_from_table(3, [[0, 1, 2], [1, 0, 0], [2, 0, 0]])
    a, b, c = exc.value.witness
    mult = [[0, 1, 2], [1, 0, 0], [2, 0, 0]]
    assert mult[mult[a][b]][c] != mult[a][mult[b][c]]


def test_missing_identity():
    with pytest.raises(GroupError):
        group_from_table(2, [[1, 0], [0, 1]])


def test_bad_shape():
    with pytest.raises(GroupError):
        group_from_table(2, [[0, 1]])
    with pytest.raises(GroupError):
        group_from_table(2, [[0, 5], [1, 0]])


def test_perm_closure_s3():
    g = group_from_permutations(3, [(1, 0, 2), (1, 2, 0)])
    # oracle: the closure of a transposition and a 3-cycle is everything
    assert g.order == 6


def test_perm_empty_generators():
    g = group_from_permutations(3, [])
    assert g.order == 1


def test_perm_degree_costs_nothing_without_generators():
    # a 10^6-point identity alone would be over 30 MB of tuple and ints
    tracemalloc.start()
    try:
        trivial = group_from_json({"type": "perm", "degree": 10 ** 6,
                                   "generators": []})
        with pytest.raises(GroupError) as short:
            group_from_permutations(10 ** 6, [[0]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trivial == group_from_permutations(3, [])
    assert short.value.witness == (0,)
    assert peak < 1 << 20


def test_perm_negative_degree_is_rejected():
    with pytest.raises(GroupError, match="degree -1 is negative"):
        group_from_permutations(-1, [])
    with pytest.raises(GroupError, match="degree -1 is negative"):
        group_from_permutations(-1, [[]])


def test_perm_single_transposition():
    g = group_from_permutations(2, [(1, 0)])
    assert g.order == 2


def test_perm_rejects_non_permutation():
    with pytest.raises(GroupError):
        group_from_permutations(3, [(0, 0, 1)])


def test_perm_closure_bound():
    with pytest.raises(GroupError):
        group_from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)], max_order=10)


def test_conjugacy_s3():
    g, _ = symmetric_group(3)
    cd = conjugacy_data(g)
    assert sorted(len(c) for c in cd.classes) == [1, 2, 3]
    assert sorted(len(c) for c in cd.centralizers) == [2, 3, 6]
    assert {frozenset(c) for c in cd.classes} == brute_force_classes(g)


def test_conjugacy_abelian():
    g = cyclic_group(6)
    cd = conjugacy_data(g)
    assert all(len(c) == 1 for c in cd.classes)
    assert all(w == 0 for w in cd.transport)
    assert all(len(c) == 6 for c in cd.centralizers)


def test_conjugacy_z2():
    cd = conjugacy_data(cyclic_group(2))
    assert cd.classes == ((0,), (1,))


def test_transport_properties(small_fixture):
    g = small_fixture.group
    cd = conjugacy_data(g)
    for x in g.elements():
        c = cd.class_of[x]
        w = cd.transport[x]
        assert g.conjugate(w, cd.reps[c]) == x
    for c, gc in enumerate(cd.reps):
        assert cd.transport[gc] == 0
        assert cd.centralizers[c] == tuple(
            s for s in g.elements()
            if g.conjugate(s, gc) == gc)


def test_class_membership_iff_conjugate(s4_sign_fixture):
    g = s4_sign_fixture.group
    cd = conjugacy_data(g)
    for a in g.elements():
        for b in g.elements():
            conjugate = any(g.conjugate(x, a) == b for x in g.elements())
            assert conjugate == (cd.class_of[a] == cd.class_of[b])


def test_orbit_stabilizer(small_fixture):
    g = small_fixture.group
    cd = conjugacy_data(g)
    assert sum(len(c) for c in cd.classes) == g.order
    for c, cls in enumerate(cd.classes):
        assert len(cls) * len(cd.centralizers[c]) == g.order


def test_conjugacy_deterministic():
    g1, _ = symmetric_group(3)
    g2, _ = symmetric_group(3)
    assert conjugacy_data(g1) == conjugacy_data(g2)


def test_subgroup_closure_s3():
    g, _ = symmetric_group(3)
    h = subgroup_closure(g, [1])
    k = subgroup_closure(g, [2])
    assert len(h) == 2 and len(k) == 3
    assert subgroup_closure(g, list(h) + list(k)) == tuple(range(6))


def test_subgroup_closure_trivial():
    g = cyclic_group(4)
    assert subgroup_closure(g, []) == (0,)
    assert subgroup_closure(g, [1]) == (0, 1, 2, 3)


def test_generating_set_examples():
    assert generating_set(symmetric_group(4)[0]) == (1, 2)
    assert generating_set(symmetric_group(5)[0]) == (1, 2)
    assert generating_set(cyclic_group(1)) == (0,)
    assert generating_set(cyclic_group(6)) == (1,)


_MORE_GROUPS = {
    "d8": lambda: dihedral8_sign()[0],
    "s4": lambda: symmetric_group(4)[0],
    "bh_s3": lambda: bh_setup_s3().group,
    "bh_v4": lambda: bh_setup_v4().group,
    "bh_z1": lambda: bh_setup_z1().group,
    "bh_z2z4": lambda: bh_setup_z2z4().group,
}


@pytest.mark.parametrize("name", _MORE_GROUPS)
def test_generating_set_is_greedy_and_generates(name):
    _check_generating_set(_MORE_GROUPS[name]())


def test_generating_set_small(small_fixture):
    _check_generating_set(small_fixture.group)


def _check_generating_set(group):
    gens = generating_set(group)
    everything = tuple(group.elements())
    assert subgroup_closure(group, gens) == everything
    if group.order == 1:
        assert gens == (0,)
        return
    for i, g in enumerate(gens):  # the first element outside the earlier ones
        inside = subgroup_closure(group, gens[:i])
        assert g == min(set(everything) - set(inside))


def test_centralizer_identity(small_fixture):
    g = small_fixture.group
    assert centralizer(g, 0) == tuple(g.elements())


def test_centralizer_transposition():
    g, _ = symmetric_group(3)
    cent = centralizer(g, 1)
    # oracle: exhaustive commutation filter
    assert cent == tuple(s for s in g.elements()
                         if g.mul(s, 1) == g.mul(1, s))
    assert cent == (0, 1)


def test_centralizer_abelian():
    g = cyclic_group(5)
    for a in g.elements():
        assert centralizer(g, a) == tuple(range(5))


def test_direct_product_v4():
    g = direct_product(cyclic_group(2), cyclic_group(2))
    assert g.order == 4
    assert all(g.inv[x] == x for x in g.elements())


def test_direct_product_with_trivial():
    base = cyclic_group(5)
    g = direct_product(cyclic_group(1), base)
    assert g.mult == base.mult


def element_order(group: GroupTable, g: int) -> int:
    k, x = 1, g
    while x != 0:
        x = group.mul(x, g)
        k += 1
    return k


def test_direct_product_z2_z3_is_cyclic():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    z6 = cyclic_group(6)
    orders = sorted(element_order(g, x) for x in g.elements())
    assert orders == sorted(element_order(z6, x) for x in z6.elements())
    assert max(orders) == 6  # has a generator, hence cyclic


def test_group_json_roundtrip():
    g, _ = symmetric_group(3)
    assert group_from_json(group_to_json(g)) == g
    assert group_from_json({"type": "perm", "degree": 3,
                            "generators": [[1, 0, 2], [1, 2, 0]]}).order == 6


def test_group_json_unknown_type():
    with pytest.raises(KeyError):
        group_from_json({"type": "nope"})


# -- Light's associativity test and the one closure walk, against oracles ------


_ORACLE_GROUPS = {
    "z1": lambda: cyclic_group(1),
    "z2": lambda: _FIXTURES["z2_semion"].group,
    "z3": lambda: _FIXTURES["z3_trivial"].group,
    "z4": lambda: _FIXTURES["z4_std"].group,
    "v4": lambda: _FIXTURES["v4_product"].group,
    "s3": lambda: symmetric_group(3)[0],
    "s4": lambda: symmetric_group(4)[0],
}


def _light_fails(mult) -> bool:
    """Whether group_from_table rejects ``mult`` as non-associative,
    asserting that the full walk agrees and that the witness fails."""
    witness = None
    try:
        group_from_table(len(mult), mult)
    except GroupError as exc:
        if str(exc).startswith("associativity fails"):
            witness = exc.witness
    assert (witness is None) == \
        (group_oracle.first_non_associative(mult) is None)
    if witness is not None:
        a, b, s = witness
        assert mult[mult[a][b]][s] != mult[a][mult[b][s]]
    return witness is not None


@pytest.mark.parametrize("name", _ORACLE_GROUPS)
def test_light_test_matches_the_full_walk_on_single_entry_changes(name):
    mult = [list(row) for row in _ORACLE_GROUPS[name]().mult]
    n, changed, failing = len(mult), 0, 0
    for i in range(1, n):
        for j in range(1, n):
            kept = mult[i][j]
            for v in range(n):
                if v != kept:
                    mult[i][j] = v
                    changed += 1
                    failing += _light_fails(mult)
            mult[i][j] = kept
    assert changed == (n - 1) ** 3 and (failing or n <= 2)


def test_light_test_matches_the_full_walk_on_every_order_3_table():
    # six of these 81 tables fail only at the second greedy generator
    for a, b, c, d in product(range(3), repeat=4):
        _light_fails([[0, 1, 2], [1, a, b], [2, c, d]])


def _fixture_group(name):
    return _FIXTURES[name].group if name in _FIXTURES else _MORE_GROUPS[name]()


@pytest.mark.parametrize("name", list(_FIXTURES) + list(_MORE_GROUPS))
def test_fixture_tables_and_a_relabelling_pass(name):
    group = _fixture_group(name)
    n = group.order
    again = group_from_table(n, [list(row) for row in group.mult])
    assert (again.mult, again.inv) == (group.mult, group.inv)
    perm = [0] + random.Random(n).sample(range(1, n), n - 1)
    mult = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            mult[perm[a]][perm[b]] = perm[group.mul(a, b)]
    relabelled = group_from_table(n, mult)
    assert all(relabelled.inv[perm[a]] == perm[group.inv[a]] for a in range(n))


@pytest.mark.parametrize("name", list(_FIXTURES) + list(_MORE_GROUPS))
def test_subgroup_closure_matches_the_two_sided_oracle(name):
    group = _fixture_group(name)
    assert group.order <= 24
    for a in group.elements():
        for b in group.elements():
            assert subgroup_closure(group, [a, b]) == \
                group_oracle.subgroup_closure(group, [a, b])


def test_is_subgroup_matches_the_pairwise_oracle():
    # every subset of S3: its six subgroups, and nothing else
    s3 = symmetric_group(3)[0]
    found = 0
    for mask in range(2 ** s3.order):
        sub = [g for g in s3.elements() if mask >> g & 1]
        assert is_subgroup(s3, sub) == group_oracle.is_subgroup(s3, sub), sub
        found += is_subgroup(s3, sub)
    assert found == 6
    # random subsets, and subgroups with one element taken out or put in
    rng = random.Random(28)
    for group in (dihedral8_sign()[0], symmetric_group(4)[0]):
        n, hits = group.order, 0
        for _ in range(100):
            closed = list(subgroup_closure(group, rng.sample(range(n), 2)))
            for sub in (rng.sample(range(n), rng.randint(0, n)), closed,
                        closed[:-1], closed + [rng.randrange(n)]):
                rng.shuffle(sub)
                want = group_oracle.is_subgroup(group, sub)
                assert is_subgroup(group, sub) == want, sub
                hits += want
        assert hits >= 100


@pytest.mark.parametrize("name", list(_FIXTURES) + list(_MORE_GROUPS) + ["s5"])
def test_conjugacy_data_matches_the_three_walk_oracle(name):
    group = symmetric_group(5)[0] if name == "s5" else _fixture_group(name)
    assert conjugacy_data(group) == group_oracle.conjugacy_data(group)
