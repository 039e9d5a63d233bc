"""Exact circle arithmetic, the cochain complex, and the cocycle fixtures."""

import ast
import math
import pathlib
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tubealg
from tubealg.grp import cyclic_group, generating_set, subgroup_closure
from tubealg.phase import (CocycleError, Cocycle2, Cocycle3,
                           coboundary1, coboundary2, cocycle3_check,
                           cocycle_from_json, cocycle_to_json,
                           inflate_cocycle, is_normalized, normalize3,
                           phase_str, product_type_cocycle, root,
                           standard_cyclic_cocycle, table_to_json,
                           trivial_cocycle)

import cocycle3_oracle
from cocycle2_oracle import cocycle2_check
from conftest import (SMALL_NAMES, _FIXTURES, bh_setup_s3, bh_setup_v4,
                      bh_setup_z1, bh_setup_z2z4, dihedral8_sign,
                      symmetric_group)


def law_holds(omega, quad) -> bool:
    """Independent statement of the 3-cocycle law at one quadruple."""
    G = omega.group
    a, b, c, d = quad
    lhs = omega(a, b, c) + omega(a, G.mul(b, c), d) + omega(b, c, d)
    rhs = omega(G.mul(a, b), c, d) + omega(a, b, G.mul(c, d))
    return (lhs - rhs) % omega.modulus == 0


def brute_force_cocycle3(omega) -> bool:
    G = omega.group
    return all(law_holds(omega, (a, b, c, d))
               for a in G.elements() for b in G.elements()
               for c in G.elements() for d in G.elements())


# every rational mod 1 with denominator at most 24, as an int mod L
L = math.lcm(*range(1, 25))
phases = st.fractions(min_value=0, max_value=1,
                      max_denominator=24).map(lambda q: int(q % 1 * L))


def test_phase_examples():
    assert phase_str(1 + 1, 2) == "0/1"
    assert -1 % 3 == 2 and phase_str(-1, 3) == "2/3"
    assert phase_str(3 * 1, 4) == "3/4"
    assert phase_str(18, 24) == "3/4" and phase_str(0, 7) == "0/1"


@given(a=phases, b=phases, c=phases)
def test_phase_group_laws(a, b, c):
    # ints mod L, read through phase_str and root, add like the circle group
    assert L == 5354228880
    for k in (a, b, c, a + b + c, -a):
        assert Fraction(phase_str(k, L)) == Fraction(k, L) % 1
    assert abs(root(a + b + c, L) - root(a, L) * root(b, L) * root(c, L)) < 1e-9
    assert phase_str(a - a, L) == "0/1"
    assert abs(root(-a, L) - root(a, L).conjugate()) < 1e-12


def test_phase_complex():
    assert abs(root(1, 2) + 1) < 1e-12
    assert abs(root(1, 4) - 1j) < 1e-12
    # exactly the rational-mod-1 formula, whatever the modulus
    for k, n in ((1, 3), (5, 12), (-1, 7), (9, 6), (0, 5)):
        t = 2.0 * math.pi * float(Fraction(k, n) % 1)
        assert root(k, n) == complex(math.cos(t), math.sin(t))
        assert root(3 * k, 3 * n) == root(k, n)


def test_one_phase_representation_in_src():
    """Phases are ints mod N everywhere: no module imports ``fractions``,
    names ``Fraction`` or ``Phase``, or reads ``.q``."""
    offenders = []
    for path in sorted(pathlib.Path(tubealg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Import)
                    and any(a.name.split(".")[0] == "fractions" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "fractions"
                    or isinstance(node, ast.Name) and node.id in ("Fraction", "Phase")
                    or isinstance(node, ast.Attribute) and node.attr == "q"):
                offenders.append((path.name, node.lineno))
    assert offenders == []


def test_table_to_json_examples():
    assert table_to_json([0, 3, 6, 9], 12) == {"modulus": 4, "values": [0, 1, 2, 3]}
    assert table_to_json([0, 0], 6) == {"modulus": 1, "values": [0, 0]}
    assert table_to_json([-2, 2], 8) == {"modulus": 4, "values": [3, 1]}


@given(st.lists(phases, min_size=1, max_size=6))
def test_table_to_json_is_lcm_of_reduced_denominators(values):
    qs = [Fraction(v, L) for v in values]
    mod = math.lcm(*(q.denominator for q in qs))
    assert table_to_json(values, L) == {
        "modulus": mod, "values": [int(q * mod) for q in qs]}


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_tube_phase_matches_the_three_factors(name):
    # the phase of (y -t-> z) . (x -s-> y), weights a, b = s^-1 a s and
    # c = t^-1 b t, written out as its three cocycle factors
    omega = _FIXTURES[name].omega
    G = omega.group
    for a, s, t in product(G.elements(), repeat=3):
        b = G.conjugate(G.inverse(s), a)
        c = G.conjugate(G.inverse(t), b)
        want = (omega(a, s, t) - omega(s, b, t) + omega(s, t, c)) % omega.modulus
        assert omega.tube_phase(a, s, b, t, c) == want, (name, a, s, t)


def test_cocycle3_trivial_passes(small_fixture):
    assert cocycle3_check(trivial_cocycle(small_fixture.group)).ok


def test_semion_passes():
    omega = standard_cyclic_cocycle(2, 1)
    res = cocycle3_check(omega)
    assert res.ok and res.detail == (
        "certified 16 by last argument over 1 generator, exhaustive 8")
    assert brute_force_cocycle3(omega)
    # only the all-ones entry is nontrivial
    for a in range(2):
        for b in range(2):
            for c in range(2):
                expected = 1 if (a, b, c) == (1, 1, 1) else 0
                assert (omega.modulus, omega(a, b, c)) == (2, expected)


def test_perturbed_z2_fails_with_witness():
    z2 = cyclic_group(2)
    values = [0] * 8
    values[(1 * 2 + 1) * 2 + 0] = 1  # only w(1,1,0) = -1
    omega = Cocycle3(z2, values, 2)
    res = cocycle3_check(omega)
    assert not res.ok
    assert not law_holds(omega, res.witness)


def test_trivial_group_nonzero_value_is_rejected():
    # the generating set of the trivial group is (0,), never empty
    res = cocycle3_check(Cocycle3(cyclic_group(1), [1], 2))
    assert (res.ok, res.witness) == (False, (0, 0, 0, 0))


def _law_fixture(name: str) -> Cocycle3:
    if name in _FIXTURES:
        return _FIXTURES[name].omega
    if name == "d8_sign":
        return dihedral8_sign()[1]
    if name == "s4_sign":
        s4, signs = symmetric_group(4)
        return inflate_cocycle(standard_cyclic_cocycle(2, 1), s4, signs)
    return {"bh_s3": bh_setup_s3, "bh_v4": bh_setup_v4, "bh_z1": bh_setup_z1,
            "bh_z2z4": bh_setup_z2z4}[name]().omega


@pytest.mark.parametrize("name", [*SMALL_NAMES, "d8_sign", "s4_sign", "bh_s3",
                                  "bh_v4", "bh_z1", "bh_z2z4"])
def test_single_value_shifts_match_the_oracle(name):
    """Shift one value by one step mod N: the reduced check and the full
    walk give the same verdict, and the same witness when both reject."""
    omega = _law_fixture(name)
    N = max(omega.modulus, 2)  # a step mod 1 changes nothing: read mod 2
    size = len(omega.values)
    stride = 1 if size <= 512 else 499  # S4: 28 of its 13,824 values
    rejected = 0
    for i in range(0, size, stride):
        values = list(omega.values)
        values[i] += 1
        shifted = Cocycle3(omega.group, values, N)
        want = cocycle3_oracle.cocycle3_check(shifted)
        got = cocycle3_check(shifted)
        assert (got.ok, got.witness) == (want.ok, want.witness), (name, i)
        rejected += not want.ok
    assert rejected


@pytest.mark.parametrize("name", ["s3_sign", "v4_product", "d8_sign",
                                  "s4_sign", "bh_z2z4"])
def test_law_failing_outside_a_subgroup_is_rejected(name):
    """w(a, b, c) = [c not in H] mod 3 gives dw(a, b, c, d) = h(c) + h(d) - h(cd),
    which vanishes exactly for d in H: with H generated by the first i
    greedy generators, only the later ones expose the failure."""
    G = _law_fixture(name).group
    gens = generating_set(G)
    assert len(gens) >= 2
    for i in range(len(gens) + 1):
        H = set(subgroup_closure(G, gens[:i]))
        omega = Cocycle3(G, [int(c not in H) for _ in range(G.order ** 2)
                             for c in G.elements()], 3)
        want = cocycle3_oracle.cocycle3_check(omega)
        got = cocycle3_check(omega)
        assert want.ok == (i == len(gens)), (name, i)
        assert (got.ok, got.witness) == (want.ok, want.witness), (name, i)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from([*SMALL_NAMES, "d8_sign"]), data=st.data())
def test_twist_by_a_coboundary_passes_both_checks(name, data):
    omega = _law_fixture(name)
    G, n = omega.group, omega.group.order
    f = data.draw(st.lists(phases, min_size=n * n, max_size=n * n))
    scale = L // omega.modulus
    twisted = Cocycle3(G, [scale * w + d for w, d in zip(
        omega.values, coboundary2(G, f, L))], L)
    assert cocycle3_oracle.cocycle3_check(twisted).ok
    assert cocycle3_check(twisted).ok


def test_cocycle2_trivial():
    z2 = cyclic_group(2)
    phi = Cocycle2(z2, (0, 1), [0] * 4, 1)
    assert cocycle2_check(phi).ok


def test_cocycle2_twisted_z2():
    z2 = cyclic_group(2)
    phi = Cocycle2(z2, (0, 1), [0, 0, 0, 1], 2)
    assert cocycle2_check(phi).ok


def test_cocycle2_broken_normalization():
    z2 = cyclic_group(2)
    phi = Cocycle2(z2, (0, 1), [0, 0, 1, 0], 2)  # phi(1,0) = -1
    res = cocycle2_check(phi)
    assert not res.ok
    assert 0 in res.witness


def test_coboundary_trivial_inputs():
    g = cyclic_group(3)
    assert coboundary1(g, [0] * 3, 1) == (0,) * 9
    assert coboundary2(g, [0] * 9, 1) == (0,) * 27


def test_coboundary1_z2_example():
    z2 = cyclic_group(2)
    gamma = [0, 1]  # gamma(1) = i, mod 4
    d1 = coboundary1(z2, gamma, 4)
    # gamma(1)^2 / gamma(0) = -1
    assert d1[1 * 2 + 1] == 2


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_d2_of_d1_is_trivial(data):
    g = cyclic_group(4)
    c1 = [data.draw(phases) for _ in range(4)]
    d2d1 = coboundary2(g, coboundary1(g, c1, L), L)
    assert all(v == 0 for v in d2d1)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_d2_always_a_cocycle(data):
    g, _ = symmetric_group(3)
    c2 = [data.draw(phases) for _ in range(36)]
    omega = Cocycle3(g, coboundary2(g, c2, L), L)
    assert cocycle3_check(omega).ok


def test_normalize_fixed_point():
    omega = standard_cyclic_cocycle(2, 1)
    out = normalize3(omega)
    assert out.values == omega.values


def test_normalize_trivial():
    g = cyclic_group(3)
    assert normalize3(trivial_cocycle(g)).is_trivial()


def _denormalized_fixture():
    omega = standard_cyclic_cocycle(2, 1)
    g = omega.group
    c2 = [0, 3, 4, 6]  # 0, 1/4, 1/3 and 1/2, mod 12
    d2 = coboundary2(g, c2, 12)
    return Cocycle3(g, [d2[i] + 6 * omega.values[i] for i in range(8)], 12)


def test_normalize_general():
    omega = _denormalized_fixture()
    assert cocycle3_check(omega).ok
    assert not is_normalized(omega)
    out = normalize3(omega)
    assert is_normalized(out)
    assert cocycle3_check(out).ok
    # the correction is exactly the coboundary of the stated cochain
    g = omega.group
    f = [omega(a, 0, 0) - omega(0, 0, b)
         for a in range(2) for b in range(2)]
    d2f = coboundary2(g, f, 12)
    assert out.modulus == 12
    for i in range(8):
        assert out.values[i] == (d2f[i] + omega.values[i]) % 12


def test_normalize_rejects_invalid():
    z2 = cyclic_group(2)
    values = [0] * 8
    values[(1 * 2 + 1) * 2 + 0] = 1
    with pytest.raises(CocycleError):
        normalize3(Cocycle3(z2, values, 2))


def test_is_normalized_detects():
    assert is_normalized(standard_cyclic_cocycle(2, 1))
    z2 = cyclic_group(2)
    values = [0] * 8
    values[(0 * 2 + 1) * 2 + 1] = 1  # w(e,1,1) != 1
    assert not is_normalized(Cocycle3(z2, values, 2))


def test_standard_cyclic_trivial_parameter():
    assert standard_cyclic_cocycle(3, 0).is_trivial()


def test_standard_cyclic_z4():
    omega = standard_cyclic_cocycle(4, 1)
    assert brute_force_cocycle3(omega)
    assert is_normalized(omega)


def test_two_factor_family():
    from tubealg.phase import two_factor_cocycle
    for (m, n, k) in [(2, 4, 1), (3, 3, 1), (2, 3, 1), (4, 2, 3)]:
        g, omega = two_factor_cocycle(m, n, k)
        assert brute_force_cocycle3(omega), (m, n, k)
        assert is_normalized(omega)
        first = tuple(a * n for a in range(m))
        second = tuple(range(n))
        for sub in (first, second):
            for a in sub:
                for b in sub:
                    for c in sub:
                        assert omega(a, b, c) == 0


def test_product_type():
    g, omega = product_type_cocycle()
    assert brute_force_cocycle3(omega)
    # restrictions to the two factor subgroups are trivial
    for sub in ((0, 2), (0, 1)):
        for a in sub:
            for b in sub:
                for c in sub:
                    assert omega(a, b, c) == 0
    assert not omega.is_trivial()


def test_inflate_sign_s3():
    s3, sign = symmetric_group(3)
    omega = inflate_cocycle(standard_cyclic_cocycle(2, 1), s3, sign)
    assert cocycle3_check(omega).ok
    assert not omega.is_trivial()


def test_inflate_trivial_and_identity():
    z4 = cyclic_group(4)
    assert inflate_cocycle(trivial_cocycle(cyclic_group(2)), z4,
                           [0, 1, 0, 1]).is_trivial()
    omega = standard_cyclic_cocycle(4, 1)
    same = inflate_cocycle(omega, z4, [0, 1, 2, 3])
    assert same.values == omega.values


def test_inflate_rejects_non_homomorphism():
    z4 = cyclic_group(4)
    with pytest.raises(CocycleError):
        inflate_cocycle(standard_cyclic_cocycle(2, 1), z4, [0, 1, 1, 0])


def test_cocycle_json_roundtrip(small_fixture):
    payload = cocycle_to_json(small_fixture.omega)
    back = cocycle_from_json(small_fixture.group, payload)
    omega = small_fixture.omega
    assert (back.modulus, back.values) == (omega.modulus, omega.values)


def test_cocycle_json_modulus():
    payload = cocycle_to_json(standard_cyclic_cocycle(4, 1))
    assert payload["modulus"] == 4
    assert len(payload["values"]) == 64
