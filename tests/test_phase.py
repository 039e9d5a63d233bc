"""Exact circle arithmetic, the cochain complex, and the cocycle fixtures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubealg.grp import cyclic_group
from tubealg.phase import (CocycleError, Cocycle2, Cocycle3, Phase,
                           coboundary1, coboundary2, cocycle2_check,
                           cocycle3_check, cocycle_from_json, cocycle_to_json,
                           inflate_cocycle, is_normalized, normalize3,
                           product_type_cocycle, standard_cyclic_cocycle,
                           trivial_cocycle)

from conftest import symmetric_group

ONE = Phase.of(0)


def law_holds(omega, quad) -> bool:
    """Independent statement of the 3-cocycle law at one quadruple."""
    G = omega.group
    a, b, c, d = quad
    lhs = omega(a, b, c).q + omega(a, G.mul(b, c), d).q + omega(b, c, d).q
    rhs = omega(G.mul(a, b), c, d).q + omega(a, b, G.mul(c, d)).q
    return (lhs - rhs) % 1 == 0


def brute_force_cocycle3(omega) -> bool:
    G = omega.group
    return all(law_holds(omega, (a, b, c, d))
               for a in G.elements() for b in G.elements()
               for c in G.elements() for d in G.elements())


fractions_mod_one = st.fractions(min_value=0, max_value=1,
                                 max_denominator=24).map(lambda q: q % 1)


def test_phase_examples():
    assert Phase.of(1, 2) * Phase.of(1, 2) == ONE
    assert Phase.of(1, 3).inv() == Phase.of(2, 3)
    assert Phase.of(1, 4) ** 3 == Phase.of(3, 4)


@given(a=fractions_mod_one, b=fractions_mod_one, c=fractions_mod_one)
def test_phase_group_laws(a, b, c):
    pa, pb, pc = Phase(a), Phase(b), Phase(c)
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * pa.inv() == ONE
    assert pa * ONE == pa


def test_phase_complex():
    assert abs(Phase.of(1, 2).as_complex() + 1) < 1e-12
    assert abs(Phase.of(1, 4).as_complex() - 1j) < 1e-12


def test_cocycle3_trivial_passes(small_fixture):
    assert cocycle3_check(trivial_cocycle(small_fixture.group)).ok


def test_semion_passes():
    omega = standard_cyclic_cocycle(2, 1)
    assert cocycle3_check(omega).ok
    assert brute_force_cocycle3(omega)
    # only the all-ones entry is nontrivial
    for a in range(2):
        for b in range(2):
            for c in range(2):
                expected = Phase.of(1, 2) if (a, b, c) == (1, 1, 1) else ONE
                assert omega(a, b, c) == expected


def test_perturbed_z2_fails_with_witness():
    z2 = cyclic_group(2)
    values = [ONE] * 8
    values[(1 * 2 + 1) * 2 + 0] = Phase.of(1, 2)  # only w(1,1,0) = -1
    omega = Cocycle3(z2, values)
    res = cocycle3_check(omega)
    assert not res.ok
    assert not law_holds(omega, res.witness)


def test_cocycle2_trivial():
    z2 = cyclic_group(2)
    phi = Cocycle2(z2, (0, 1), [ONE] * 4)
    assert cocycle2_check(phi).ok


def test_cocycle2_twisted_z2():
    z2 = cyclic_group(2)
    phi = Cocycle2(z2, (0, 1), [ONE, ONE, ONE, Phase.of(1, 2)])
    assert cocycle2_check(phi).ok


def test_cocycle2_broken_normalization():
    z2 = cyclic_group(2)
    phi = Cocycle2(z2, (0, 1), [ONE, ONE, Phase.of(1, 2), ONE])  # phi(1,0) = -1
    res = cocycle2_check(phi)
    assert not res.ok
    assert 0 in res.witness


def test_coboundary_trivial_inputs():
    g = cyclic_group(3)
    assert all(v == ONE for v in coboundary1(g, [ONE] * 3))
    assert all(v == ONE for v in coboundary2(g, [ONE] * 9))


def test_coboundary1_z2_example():
    z2 = cyclic_group(2)
    gamma = [ONE, Phase.of(1, 4)]  # gamma(1) = i
    d1 = coboundary1(z2, gamma)
    # gamma(1)^2 / gamma(0) = -1
    assert d1[1 * 2 + 1] == Phase.of(1, 2)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_d2_of_d1_is_trivial(data):
    g = cyclic_group(4)
    c1 = [Phase(data.draw(fractions_mod_one)) for _ in range(4)]
    d2d1 = coboundary2(g, coboundary1(g, c1))
    assert all(v == ONE for v in d2d1)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_d2_always_a_cocycle(data):
    g, _ = symmetric_group(3)
    c2 = [Phase(data.draw(fractions_mod_one)) for _ in range(36)]
    omega = Cocycle3(g, coboundary2(g, c2))
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
    c2 = [ONE, Phase.of(1, 4), Phase.of(1, 3), Phase.of(1, 2)]
    d2 = coboundary2(g, c2)
    return Cocycle3(g, [d2[i] * omega.values[i] for i in range(8)])


def test_normalize_general():
    omega = _denormalized_fixture()
    assert cocycle3_check(omega).ok
    assert not is_normalized(omega)
    out = normalize3(omega)
    assert is_normalized(out)
    assert cocycle3_check(out).ok
    # the correction is exactly the coboundary of the stated cochain
    g = omega.group
    f = [omega(a, 0, 0) * omega(0, 0, b).inv()
         for a in range(2) for b in range(2)]
    d2f = coboundary2(g, f)
    for i in range(8):
        assert out.values[i] == d2f[i] * omega.values[i]


def test_normalize_rejects_invalid():
    z2 = cyclic_group(2)
    values = [ONE] * 8
    values[(1 * 2 + 1) * 2 + 0] = Phase.of(1, 2)
    with pytest.raises(CocycleError):
        normalize3(Cocycle3(z2, values))


def test_is_normalized_detects():
    assert is_normalized(standard_cyclic_cocycle(2, 1))
    z2 = cyclic_group(2)
    values = [ONE] * 8
    values[(0 * 2 + 1) * 2 + 1] = Phase.of(1, 2)  # w(e,1,1) != 1
    assert not is_normalized(Cocycle3(z2, values))


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
                        assert omega(a, b, c) == ONE


def test_product_type():
    g, omega = product_type_cocycle()
    assert brute_force_cocycle3(omega)
    # restrictions to the two factor subgroups are trivial
    for sub in ((0, 2), (0, 1)):
        for a in sub:
            for b in sub:
                for c in sub:
                    assert omega(a, b, c) == ONE
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
    assert back.values == small_fixture.omega.values


def test_cocycle_json_modulus():
    payload = cocycle_to_json(standard_cyclic_cocycle(4, 1))
    assert payload["modulus"] == 4
    assert len(payload["values"]) == 64
