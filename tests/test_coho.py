"""Centralizer cocycles, the transport cochain, and gauge fixing."""

import ast
import inspect
from itertools import product
from pathlib import Path

import pytest

from tubealg import coho
from tubealg.coho import (BHSetup, BHSetupError, gamma, gamma_identity_check,
                          gauge_fix_bh, gl_relations_check, phi_a, phi_class)
from tubealg.grp import (centralizer, conjugacy_data, cyclic_group,
                         subgroup_closure)
from tubealg.phase import (CheckResult, Cocycle2, coboundary2, cocycle3_check,
                           inflate_cocycle, is_normalized,
                           restrict_trivial_on, standard_cyclic_cocycle,
                           trivial_cocycle, two_factor_cocycle)

from tubealg.annular_bh import AnnularAlgebra, CutdownAlgebra
from tubealg.tube_diag import TubeAlgebra

import gamma_identity_oracle
from cocycle2_oracle import cocycle2_check
from conftest import (SMALL_NAMES, _FIXTURES, bh_coboundary_shift, bh_setup_s3,
                      bh_setup_v4, bh_setup_z1, bh_setup_z2z4, dihedral8_sign,
                      s4_sign, symmetric_group)


def phi_a_oracle(group, omega, a, g, h):
    """Direct three-factor evaluation, independent of the library path."""
    return (-omega(a, g, h) + omega(g, a, h) - omega(g, h, a)) % omega.modulus


def test_phi_a_trivial(small_fixture):
    g = small_fixture.group
    omega = trivial_cocycle(g)
    for a in g.elements():
        phi = phi_a(g, omega, a)
        assert all(phi(x, y) == 0 for x in phi.elements for y in phi.elements)


def test_phi_a_semion():
    omega = standard_cyclic_cocycle(2, 1)
    phi = phi_a(omega.group, omega, 1)
    assert (phi.modulus, phi(1, 1)) == (2, 1)
    assert phi(1, 1) == phi_a_oracle(omega.group, omega, 1, 1, 1)


def test_phi_a_z4():
    omega = standard_cyclic_cocycle(4, 1)
    phi = phi_a(omega.group, omega, 1)
    assert (phi.modulus, phi(3, 3)) == (4, 3)
    assert phi(3, 3) == phi_a_oracle(omega.group, omega, 1, 3, 3)


def test_phi_a_is_cocycle_everywhere(small_fixture):
    g, omega = small_fixture.group, small_fixture.omega
    for a in g.elements():
        assert cocycle2_check(phi_a(g, omega, a)).ok


def test_phi_class_trivial():
    g, _ = symmetric_group(3)
    omega = trivial_cocycle(g)
    cd = conjugacy_data(g)
    for c in range(cd.num_classes()):
        phi = phi_class(g, omega, cd, c)
        assert all(phi(x, y) == 0 for x in phi.elements for y in phi.elements)


def test_phi_class_semion():
    omega = standard_cyclic_cocycle(2, 1)
    cd = conjugacy_data(omega.group)
    phi = phi_class(omega.group, omega, cd, 1)
    # conj(phi_1(1^-1, 1^-1)) with inverses trivial in Z/2
    assert phi(1, 1) == -phi_a_oracle(omega.group, omega, 1, 1, 1) % 2
    assert (phi.modulus, phi(1, 1)) == (2, 1)


def test_phi_class_abelian_full_domain():
    omega = standard_cyclic_cocycle(4, 1)
    cd = conjugacy_data(omega.group)
    for c in range(4):
        phi = phi_class(omega.group, omega, cd, c)
        assert phi.elements == (0, 1, 2, 3)
        assert cocycle2_check(phi).ok


def test_phi_class_conventions_differ_on_z4():
    # the opposite-inverse twist is not the plain conjugate in general
    from tubealg.coho import phi_class_plain_conjugate
    omega = standard_cyclic_cocycle(4, 1)
    cd = conjugacy_data(omega.group)
    a = phi_class(omega.group, omega, cd, 1)
    b = phi_class_plain_conjugate(omega.group, omega, cd, 1)
    assert any(a(s, t) != b(s, t) for s in range(4) for t in range(4))


def gamma_oracle(group, omega, a, x, y, g):
    """Re-derivation of the eight factors, spelled out one by one."""
    G = group
    xi, yi = G.inverse(x), G.inverse(y)
    f1 = -omega(x, G.mul(a, xi), G.mul3(x, g, yi))
    f2 = -omega(a, xi, G.mul3(x, g, yi))
    f3 = omega(a, g, yi)
    f4 = -omega(g, a, yi)
    f5 = -omega(G.mul(g, yi), y, G.mul(a, yi))
    f6 = omega(g, yi, y)
    f7 = omega(x, G.mul(g, yi), G.mul3(y, a, yi))
    f8 = omega(xi, x, G.mul(g, yi))
    return (f1 + f2 + f3 + f4 + f5 + f6 + f7 + f8) % omega.modulus


def test_gamma_trivial_cocycle():
    g, _ = symmetric_group(3)
    omega = trivial_cocycle(g)
    for a in g.elements():
        for x in g.elements():
            assert gamma(g, omega, a, x, 0, a) == 0


def test_gamma_diagonal_at_identity(small_fixture):
    g, omega = small_fixture.group, small_fixture.omega
    for a in g.elements():
        for x in g.elements():
            assert gamma(g, omega, a, x, x, 0) == 0


def test_gamma_semion_against_oracle():
    omega = standard_cyclic_cocycle(2, 1)
    g = omega.group
    for a in range(2):
        for x in range(2):
            for y in range(2):
                for s in range(2):
                    assert gamma(g, omega, a, x, y, s) == \
                        gamma_oracle(g, omega, a, x, y, s)


def test_gamma_rejects_non_centralizing():
    g, _ = symmetric_group(3)
    omega = trivial_cocycle(g)
    with pytest.raises(ValueError):
        gamma(g, omega, 1, 0, 0, 2)  # a 3-cycle does not centralize a flip


def test_gamma_family():
    omega = standard_cyclic_cocycle(2, 1)
    G = omega.group
    assert gamma(G, omega, 1, 0, 0, 1) == gamma_oracle(G, omega, 1, 0, 0, 1)
    # values are phases reduced mod the cocycle's modulus
    assert {gamma(G, omega, 1, x, y, g) for x in range(2) for y in range(2)
            for g in range(2)} <= set(range(omega.modulus))


def _certified(G) -> str:
    """The detail of a passing certificate: every (a, g, h, x, y, z), the
    pairs whose last morphism is one of the n + |C(a)| - 1 generators,
    and every twist triple."""
    cents = [centralizer(G, a) for a in G.elements()]
    n = G.order
    tuples = n ** 3 * sum(len(c) ** 2 for c in cents)
    visited = sum((n + len(c) - 1) * n * len(c) for c in cents)
    triples = sum(len(c) ** 3 for c in cents)
    return (f"certified {tuples} by last morphism over generators, "
            f"exhaustive {visited}, centralizer twists exhaustive {triples}")


def test_gamma_identity_exhaustive(small_fixture):
    G = small_fixture.group
    res = gamma_identity_check(G, small_fixture.omega)
    assert res.ok and res.detail == _certified(G)
    oracle = gamma_identity_oracle.gamma_identity_check(G, small_fixture.omega)
    tuples = G.order ** 3 * sum(len(centralizer(G, a)) ** 2
                                for a in G.elements())
    assert oracle.ok and oracle.detail == f"exhaustive {tuples}"


def test_gamma_identity_states_its_count():
    # S3: centralizers of orders 6, 2, 2, 2, 3, 3; 6^3 (36 + 3*4 + 2*9)
    # tuples, 6 (6*11 + 3*2*7 + 2*3*8) generator pairs, 216 + 3*8 + 2*27
    fx = _FIXTURES["s3_sign"]
    res = gamma_identity_check(fx.group, fx.omega)
    assert res.ok and res.detail == (
        "certified 14256 by last morphism over generators, exhaustive 936, "
        "centralizer twists exhaustive 294")


def test_gamma_identity_certified_s4(s4_sign_fixture):
    res = gamma_identity_check(s4_sign_fixture.group, s4_sign_fixture.omega)
    assert res.ok and res.detail == (
        "certified 14266368 by last morphism over generators, exhaustive "
        "91008, centralizer twists exhaustive 16344")
    assert res.detail == _certified(s4_sign_fixture.group)


def test_gamma_identity_takes_no_knobs():
    params = inspect.signature(gamma_identity_check).parameters
    assert list(params) == ["group", "omega"]


def test_only_splitting_imports_random():
    importers = set()
    for path in Path(coho.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     else [])
            if "random" in names:
                importers.add(path.stem)
    assert importers == {"splitting"}


# -- the certificate against the full walk, on mutated gamma and phi_a -------


def _gamma_shifted(monkeypatch, at):
    """gamma[a, x, y](g) plus 1 at ``at`` = (a, x, y, g)."""
    real = coho.gamma

    def shifted(G, omega, a, x, y, g):
        return (real(G, omega, a, x, y, g) + ((a, x, y, g) == at)) \
            % omega.modulus

    monkeypatch.setattr(coho, "gamma", shifted)


def _phi_shifted(monkeypatch, target, shift):
    """phi_a of ``target`` plus ``shift(g, h)`` on its centralizer."""
    real = coho.phi_a

    def shifted(G, omega, a):
        phi = real(G, omega, a)
        if a != target:
            return phi
        els = phi.elements
        return Cocycle2(G, els, [phi(g, h) + shift(g, h) for g in els
                                 for h in els], phi.modulus)

    monkeypatch.setattr(coho, "phi_a", shifted)


def _agrees_with_the_oracle(G, omega) -> CheckResult:
    res = gamma_identity_check(G, omega)
    oracle = gamma_identity_oracle.gamma_identity_check(G, omega)
    assert res.ok == oracle.ok, (res, oracle)
    if not res.ok and len(res.witness) == 6:
        # no fallback walk: the tuple it hit is a real counterexample
        phis = {a: coho.phi_a(G, omega, a) for a in G.elements()}
        assert not gamma_identity_oracle.identity_holds(G, omega, phis,
                                                        *res.witness)
    return res


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_gamma_shift_verdicts_match_the_walk(name, monkeypatch):
    G, omega = _FIXTURES[name].group, _FIXTURES[name].omega
    n, last = G.order, G.order - 1
    targets = {(last, 1 % n, 0, centralizer(G, last)[-1]), (0, 0, 0, 0),
               (0, last, last, last)}
    for at in sorted(targets):
        monkeypatch.undo()
        _gamma_shifted(monkeypatch, at)
        res = _agrees_with_the_oracle(G, omega)
        # a shifted gamma is off by the coboundary of a point mass
        assert res.ok == (omega.modulus == 1), (name, at)


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_phi_coboundary_shift_verdicts_match_the_walk(name, monkeypatch):
    # phi_a plus d(f) for f a point mass at t: still a 2-cocycle, so the
    # twist walk passes and the generator walk must find the tuple
    G, omega = _FIXTURES[name].group, _FIXTURES[name].omega
    for a in G.elements():
        t = centralizer(G, a)[-1]

        def df(g, h, t=t):
            return (g == t) + (h == t) - (G.mul(g, h) == t)

        monkeypatch.undo()
        _phi_shifted(monkeypatch, a, df)
        res = _agrees_with_the_oracle(G, omega)
        ca = centralizer(G, a)
        vanishes = not any(df(g, h) % omega.modulus for g in ca for h in ca)
        assert res.ok == vanishes, (name, a)
        assert res.ok or len(res.witness) == 6


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_phi_law_breaking_shift_verdicts_match_the_walk(name, monkeypatch):
    # phi_a plus 1 at one pair (g, h): when that breaks the 2-cocycle law
    # (always, at (e, h) with h not e), the twist walk names a and a
    # failing triple
    G, omega = _FIXTURES[name].group, _FIXTURES[name].omega
    broken = 0
    for a, pair in product(G.elements(), ("unit", "middle")):
        ca = centralizer(G, a)
        pair = (0, ca[-1]) if pair == "unit" else (ca[-1], ca[len(ca) // 2])
        monkeypatch.undo()
        _phi_shifted(monkeypatch, a, lambda g, h, pair=pair: (g, h) == pair)
        phi = coho.phi_a(G, omega, a)
        law = cocycle2_check(phi)
        res = _agrees_with_the_oracle(G, omega)
        if not law.ok:
            broken += 1
            assert res.witness[0] == a and len(res.witness) == 2
            assert "2-cocycle law" in res.detail
            (c, b, d) = res.witness[1]
            assert (phi(b, d) - phi(G.mul(c, b), d) + phi(c, G.mul(b, d))
                    - phi(c, b)) % phi.modulus
    assert broken or omega.modulus == 1


# -- the class twists are the tube product's endomorphism phases -------------


def _assert_twists_are_endomorphism_phases(alg):
    """At every object x whose weight is a class representative g, read
    off ``products``: the op-inverse twist phi_C(s, t) is the phase of
    (x -s^-1-> x)(x -t^-1-> x), the plain-conjugate phi(s, t) that of
    (x -t-> x)(x -s-> x)."""
    G, cd, products = alg.group, alg.class_data, alg.products
    op, plain = (alg.block_algebra(conv).algebras
                 for conv in ("op-inverse", "plain-conjugate"))
    seen = 0
    for c, g in enumerate(cd.reps):
        for x in (x for x in alg.objects if alg._weight[x] == g):
            seen += 1
            endo = {s: alg._label_of[(x, s, x)] for s in cd.centralizers[c]}
            for s, t in product(cd.centralizers[c], repeat=2):
                si, ti = G.inverse(s), G.inverse(t)
                assert products[(endo[si], endo[ti])] == \
                    (op[c].twist(s, t), endo[G.mul(ti, si)]), (x, s, t)
                assert products[(endo[t], endo[s])] == \
                    (plain[c].twist(s, t), endo[G.mul(s, t)]), (x, s, t)
    assert seen


@pytest.mark.parametrize("name", SMALL_NAMES + ["d8_sign", "s4_sign"])
def test_tube_class_twists_are_endomorphism_phases(name):
    make = {"d8_sign": dihedral8_sign, "s4_sign": s4_sign}.get(
        name, lambda: (_FIXTURES[name].group, _FIXTURES[name].omega))
    _assert_twists_are_endomorphism_phases(TubeAlgebra(*make()))


@pytest.mark.parametrize("name", ["s3", "v4", "z1", "z2z4"])
def test_bh_class_twists_are_endomorphism_phases(name):
    # as given and shifted by coboundaries at moduli above 2
    make = {"s3": bh_setup_s3, "v4": bh_setup_v4, "z1": bh_setup_z1,
            "z2z4": bh_setup_z2z4}[name]
    for setup in [make()] + [bh_coboundary_shift(make(), scale, seed)
                             for scale in (3, 6) for seed in range(2)]:
        _assert_twists_are_endomorphism_phases(AnnularAlgebra(setup))
        _assert_twists_are_endomorphism_phases(CutdownAlgebra(setup))


# -- two-subgroup setups -------------------------------------------------------


def test_setup_valid():
    bh_setup_s3().validate()
    bh_setup_v4().validate()


def test_setup_rejects_inflated_sign():
    s3, sign = symmetric_group(3)
    omega = inflate_cocycle(standard_cyclic_cocycle(2, 1), s3, sign)
    H = subgroup_closure(s3, [1])
    K = subgroup_closure(s3, [2])
    setup = BHSetup(s3, H, K, omega)
    with pytest.raises(BHSetupError) as exc:
        setup.validate()
    assert "restricts trivially to H" in exc.value.invariant
    # the witness is a flip cubed: the inflated value there is -1
    w = exc.value.witness
    assert (omega.modulus, omega(*w)) == (2, 1)


def test_setup_rejects_non_subgroup():
    s3, _ = symmetric_group(3)
    setup = BHSetup(s3, (0, 1, 2), subgroup_closure(s3, [2]),
                    trivial_cocycle(s3))
    with pytest.raises(BHSetupError):
        setup.validate()


def test_setup_rejects_non_generating():
    z4 = cyclic_group(4)
    setup = BHSetup(z4, (0, 2), (0, 2), trivial_cocycle(z4))
    with pytest.raises(BHSetupError) as exc:
        setup.validate()
    assert "generate" in exc.value.invariant


def test_gauge_fix_trivial_cocycle():
    setup = bh_setup_s3()
    omega_prime, f = gauge_fix_bh(setup)
    assert omega_prime.is_trivial()
    assert all(v == 0 for v in f)


def test_gauge_fix_product_type():
    setup = bh_setup_v4()
    omega_prime, f = gauge_fix_bh(setup)
    G = setup.group
    assert cocycle3_check(omega_prime).ok
    assert is_normalized(omega_prime)
    assert restrict_trivial_on(omega_prime, setup.H) is None
    assert restrict_trivial_on(omega_prime, setup.K) is None
    assert gl_relations_check(G, setup.H, setup.K, omega_prime).ok
    N = setup.omega.modulus
    d2f = coboundary2(G, f, N)
    assert omega_prime.modulus == N == 2
    for i in range(len(d2f)):
        assert omega_prime.values[i] == (d2f[i] + setup.omega.values[i]) % N


def test_gauge_fix_z2z4():
    setup = bh_setup_z2z4()
    omega_prime, f = gauge_fix_bh(setup)
    G = setup.group
    assert cocycle3_check(omega_prime).ok
    assert is_normalized(omega_prime)
    assert gl_relations_check(G, setup.H, setup.K, omega_prime).ok
    assert restrict_trivial_on(omega_prime, setup.H) is None
    assert restrict_trivial_on(omega_prime, setup.K) is None


def _bh_setup_z3z3() -> BHSetup:
    G, omega = two_factor_cocycle(3, 3, 1)
    return BHSetup(G, (0, 3, 6), (0, 1, 2), omega)


_GAUGE_SETUPS = {"s3": bh_setup_s3, "v4": bh_setup_v4, "z2z4": bh_setup_z2z4,
                 "z3z3": _bh_setup_z3z3}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("scale", [3, 6])
@pytest.mark.parametrize("name", sorted(_GAUGE_SETUPS))
def test_gauge_fix_kills_the_relations_of_a_shifted_cocycle(name, scale, seed):
    """Shifted by a coboundary at a modulus above 2, a value and its
    inverse differ, so each relation's value must carry its sign."""
    setup = bh_coboundary_shift(_GAUGE_SETUPS[name](), scale, seed)
    omega_prime, f = gauge_fix_bh(setup)
    G, omega, N = setup.group, setup.omega, setup.omega.modulus
    assert cocycle3_check(omega_prime).ok
    assert is_normalized(omega_prime)
    assert restrict_trivial_on(omega_prime, setup.H) is None
    assert restrict_trivial_on(omega_prime, setup.K) is None
    assert gl_relations_check(G, setup.H, setup.K, omega_prime).ok
    assert omega_prime.values == tuple(
        (d + v) % N for d, v in zip(coboundary2(G, f, N), omega.values))


def test_gauge_fix_idempotent_in_effect():
    setup = bh_setup_v4()
    omega_prime, _ = gauge_fix_bh(setup)
    again = BHSetup(setup.group, setup.H, setup.K, omega_prime)
    omega2, f2 = gauge_fix_bh(again)
    assert all(v == 0 for v in f2)
    assert omega2.values == omega_prime.values


def test_gl_relations_trivial():
    setup = bh_setup_s3()
    res = gl_relations_check(setup.group, setup.H, setup.K, setup.omega)
    assert res.ok
    # (l, g1, g2) for the 4 elements l of H or K
    assert len(set(setup.H) | set(setup.K)) == 4
    assert res.detail == f"exhaustive {4 * 6 * 6}"


def test_gl_relations_fail_before_fixing():
    setup = bh_setup_v4()
    res = gl_relations_check(setup.group, setup.H, setup.K, setup.omega)
    assert not res.ok
    assert res.name == "gl-i"
