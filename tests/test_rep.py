"""Twisted group algebras, centers, induction, restriction, and the
numerical regular split (the test oracle of ``rep.decompose``)."""

import numpy as np
import pytest

from tubealg.annular_bh import AnnularAlgebra, end_xg_algebra, tube_cutdown
from tubealg.coho import phi_class
from tubealg.grp import conjugacy_data, cyclic_group
from tubealg.phase import (Cocycle2, Cocycle3, normalize3, root,
                           standard_cyclic_cocycle, trivial_cocycle)
from tubealg.rep import (DecompositionError, Representation,
                         TwistedGroupAlgebra, center_dimension, decompose,
                         induce,
                         regular_representation, rep_from_json, rep_to_json,
                         restrict, support_decompose)
from tubealg.tube_diag import TubeAlgebra, simple_count

from cocycle2_oracle import cocycle2_check
from conftest import (_FIXTURES, SMALL_NAMES, bh_coboundary_shift, bh_setup_s3,
                      bh_setup_v4, bh_setup_z1, bh_setup_z2z4,
                      coboundary_shift, dihedral8_sign, force_ambiguous_eigh,
                      symmetric_group)
from regular_split_oracle import characters, regular_split


def _z2_twisted():
    z2 = cyclic_group(2)
    phi = Cocycle2(z2, (0, 1), [0, 0, 0, 1], 2)
    return TwistedGroupAlgebra(phi)


# -- a coboundary changes no count and no verdict ----------------------------


def _tube_verdicts(alg) -> tuple:
    return (simple_count(alg).per_class, list(decompose(alg)),
            [(r.name, r.ok) for r in alg.check_all()],
            alg.check_block_map().ok)


@pytest.mark.parametrize("scale", [2, 3, 5])
@pytest.mark.parametrize("name", SMALL_NAMES + ["d8_sign"])
def test_tube_verdicts_survive_a_coboundary(name, scale):
    G, omega = dihedral8_sign() if name == "d8_sign" else \
        (_FIXTURES[name].group, _FIXTURES[name].omega)
    shifted = normalize3(coboundary_shift(omega, scale, seed=scale))
    assert shifted.modulus == scale * omega.modulus
    assert _tube_verdicts(TubeAlgebra(G, shifted)) == \
        _tube_verdicts(TubeAlgebra(G, omega))


def _bh_verdicts(setup) -> tuple:
    alg = AnnularAlgebra(setup)
    report = tube_cutdown(alg)
    return (report.simple_objects, report.simple_count_full,
            report.simple_count_cutdown, report.counts_agree,
            list(decompose(alg)), alg.check_block_map("op-inverse").ok)


@pytest.mark.parametrize("scale", [3, 5])
@pytest.mark.parametrize("name, setup", [
    ("s3", bh_setup_s3), ("v4", bh_setup_v4), ("z2z4", bh_setup_z2z4)])
def test_bh_verdicts_survive_a_coboundary(name, setup, scale):
    shifted = bh_coboundary_shift(setup(), scale, seed=scale)
    shifted = shifted._replace(omega=normalize3(shifted.omega))
    assert _bh_verdicts(shifted) == _bh_verdicts(setup())


def test_untwisted_is_group_algebra():
    z3 = cyclic_group(3)
    phi = Cocycle2(z3, (0, 1, 2), [0] * 9, 1)
    alg = TwistedGroupAlgebra(phi)
    for g in range(3):
        for h in range(3):
            ph, lab = alg.mult_basis(g, h)
            assert ph == 0 and lab == (g + h) % 3


def test_twisted_z2_square_rule():
    alg = _z2_twisted()
    ph, lab = alg.mult_basis(1, 1)
    assert (alg.modulus, ph) == (2, 1) and lab == 0


def test_non_cocycle_rejected_with_witness():
    z2 = cyclic_group(2)
    bad = Cocycle2(z2, (0, 1), [0, 0, 1, 0], 2)
    with pytest.raises(ValueError) as exc:
        TwistedGroupAlgebra(bad)
    assert "triple" in str(exc.value)


def _twists() -> list:
    """(id, twist) for every class twist, under both conventions, of each
    small fixture and D8 sign, and every endomorphism twist of four
    setups; then each of those with modulus above 1 again, with its last
    value shifted by one step."""
    tubes = {name: (_FIXTURES[name].group, _FIXTURES[name].omega)
             for name in SMALL_NAMES} | {"d8_sign": dihedral8_sign()}
    out = []
    for name, (G, omega) in tubes.items():
        alg = TubeAlgebra(G, omega)
        for conv in ("op-inverse", "plain-conjugate"):
            out += [(f"class-{name}-{conv}-{c}", talg.twist) for c, talg
                    in enumerate(alg.block_algebra(conv).algebras)]
    for name, setup in (("s3", bh_setup_s3), ("v4", bh_setup_v4),
                        ("z2z4", bh_setup_z2z4), ("z1", bh_setup_z1)):
        s = setup()
        out += [(f"end-{name}-{g}", end_xg_algebra(s, g))
                for g in s.group.elements()]
    return out + [(f"{key}-shifted", Cocycle2(
        tw.group, tw.elements, tw.values[:-1] + (tw.values[-1] + 1,),
        tw.modulus)) for key, tw in out if tw.modulus > 1]


_TWISTS = _twists()


@pytest.mark.parametrize("tw", [tw for _, tw in _TWISTS],
                         ids=[key for key, _ in _TWISTS])
def test_constructor_rejects_exactly_what_the_oracle_rejects(tw):
    if cocycle2_check(tw).ok:
        assert TwistedGroupAlgebra(tw).twist is tw
    else:
        with pytest.raises(ValueError, match="fails associativity"):
            TwistedGroupAlgebra(tw)


def test_shifted_twists_include_broken_ones():
    # the oracle comparison sees both outcomes
    shifted = [cocycle2_check(tw).ok for key, tw in _TWISTS
               if key.endswith("-shifted")]
    assert True in shifted and False in shifted


def test_center_dimensions():
    z2 = cyclic_group(2)
    plain = TwistedGroupAlgebra(Cocycle2(z2, (0, 1), [0] * 4, 1))
    assert center_dimension(plain) == 2
    assert center_dimension(_z2_twisted()) == 2
    s3, _ = symmetric_group(3)
    cd = conjugacy_data(s3)
    phi = phi_class(s3, trivial_cocycle(s3), cd, 0)
    assert center_dimension(TwistedGroupAlgebra(phi)) == 3


def test_center_dimension_is_invariant_under_modulus_scaling():
    # zeta_N^k and zeta_3N^3k are the same root of unity
    def scaled(tw):
        return Cocycle2(tw.group, tw.elements, [3 * v for v in tw.values],
                        3 * tw.modulus)

    z2 = cyclic_group(2)
    for modulus in (2, 6, 12):
        phi = Cocycle2(z2, (0, 1), [0, 0, 0, modulus // 2], modulus)
        assert center_dimension(TwistedGroupAlgebra(scaled(phi))) \
            == center_dimension(TwistedGroupAlgebra(phi)) == 2
    G, omega = dihedral8_sign()
    omega3 = Cocycle3(G, [3 * v for v in omega.values], 3 * omega.modulus)
    assert center_dimension(TubeAlgebra(G, omega3)) \
        == center_dimension(TubeAlgebra(G, omega)) == 22
    for talg in TubeAlgebra(G, omega).block_algebra().algebras:
        assert center_dimension(TwistedGroupAlgebra(scaled(talg.twist))) \
            == center_dimension(talg)


def test_decompose_twisted_z2_blocks():
    alg = _z2_twisted()
    blocks = regular_split(alg, seed=1)
    assert [(b.dimension, b.multiplicity) for b in blocks] == [(1, 1), (1, 1)]
    # the generator acts as +i on one block and -i on the other
    vals = sorted((b.character[1] for b in blocks), key=lambda z: z.imag)
    assert abs(vals[0] + 1j) < 1e-6 and abs(vals[1] - 1j) < 1e-6


def test_decompose_one_dimensional_algebra():
    z1 = cyclic_group(1)
    alg = TwistedGroupAlgebra(Cocycle2(z1, (0,), [0], 1))
    blocks = regular_split(alg)
    assert [(b.dimension, b.multiplicity) for b in blocks] == [(1, 1)]


def test_decompose_regular_s3():
    s3, _ = symmetric_group(3)
    cd = conjugacy_data(s3)
    phi = phi_class(s3, trivial_cocycle(s3), cd, 0)
    alg = TwistedGroupAlgebra(phi)
    blocks = regular_split(alg, seed=2)
    assert [(b.dimension, b.multiplicity) for b in blocks] == \
        [(1, 1), (1, 1), (2, 2)]


def _regular_s3():
    s3, _ = symmetric_group(3)
    phi = phi_class(s3, trivial_cocycle(s3), conjugacy_data(s3), 0)
    return TwistedGroupAlgebra(phi)


def test_decompose_names_its_seeds():
    assert regular_split(_regular_s3(), seed=2).seeds == ["2:0"]


def test_decompose_retries_an_ambiguous_gap(monkeypatch):
    force_ambiguous_eigh(monkeypatch, 1)
    blocks = regular_split(_regular_s3(), seed=2)
    assert [(b.dimension, b.multiplicity) for b in blocks] == \
        [(1, 1), (1, 1), (2, 2)]
    assert blocks.seeds == ["2:0", "2:1"]


def test_decompose_failure_names_every_seed(monkeypatch):
    force_ambiguous_eigh(monkeypatch, 3)
    with pytest.raises(DecompositionError) as exc:
        regular_split(_regular_s3(), seed=2, max_retries=3)
    assert exc.value.seeds == ["2:0", "2:1", "2:2"]
    assert "ambiguous eigenvalue gap at attempt 2" in str(exc.value)


def test_block_dimension_sum_rule(small_fixture):
    # sum of squared irreducible dimensions fills each twisted algebra
    alg = TubeAlgebra(small_fixture.group, small_fixture.omega)
    for talg in alg.block_algebra().algebras:
        blocks = regular_split(talg, seed=4)
        assert sum(b.dimension ** 2 for b in blocks) == talg.dimension
        assert all(b.multiplicity == b.dimension for b in blocks)


def test_center_count_matches_regular_decomposition(small_fixture):
    # two independent computations of the number of irreducibles
    alg = TubeAlgebra(small_fixture.group, small_fixture.omega)
    counts = simple_count(alg)
    blocks = regular_split(alg, seed=6)
    assert counts.total == len(blocks)


def test_regular_representation_is_star_rep(small_fixture):
    alg = TubeAlgebra(small_fixture.group, small_fixture.omega)
    for talg in alg.block_algebra().algebras:
        reg = regular_representation(talg)
        assert reg.check(talg).ok


def _semion_context():
    omega = standard_cyclic_cocycle(2, 1)
    alg = TubeAlgebra(omega.group, omega)
    return alg, alg.block_algebra().algebras[1]


def test_induce_trivial_class():
    s3, _ = symmetric_group(3)
    alg = TubeAlgebra(s3, trivial_cocycle(s3))
    talg = alg.block_algebra().algebras[0]
    pi = Representation(labels=list(talg.labels()), dim=1,
                        matrices={v: np.eye(1, dtype=complex)
                                  for v in talg.labels()})
    assert pi.check(talg).ok
    Pi = induce(alg, 0, pi)
    assert Pi.dim == 1  # the identity class is a singleton
    assert Pi.check(alg).ok


def test_induce_semion_one_dimensional():
    alg, talg = _semion_context()
    pi = Representation(labels=[0, 1], dim=1,
                        matrices={0: np.eye(1, dtype=complex),
                                  1: 1j * np.eye(1, dtype=complex)})
    assert pi.check(talg).ok
    Pi = induce(alg, 1, pi)
    assert Pi.dim == 1
    assert Pi.check(alg).ok


def _induce_certified(alg, c):
    """The regular induction of class ``c``, once the exact certificate
    (the exact check of pi and the block-map check) has accepted it."""
    talg = alg.block_algebra().algebras[c]
    pi = regular_representation(talg)
    res = pi.check(talg)
    assert res.ok and res.detail.startswith("exact: ")
    assert alg.check_block_map().ok
    return talg, induce(alg, c, pi)


def test_induce_regular_has_product_dimension(small_fixture):
    # the numerical check passes on what the exact certificate accepts
    alg = TubeAlgebra(small_fixture.group, small_fixture.omega)
    blocks = alg.block_algebra()
    for c in range(len(blocks.algebras)):
        talg, Pi = _induce_certified(alg, c)
        assert Pi.dim == len(blocks.index_sets[c]) * talg.dimension
        assert Pi.check(alg).ok


@pytest.mark.parametrize("context", ["d8_sign", "bh_setup_s3"])
def test_exact_certificate_implies_numerical_check(context):
    from tubealg.annular_bh import AnnularAlgebra
    from conftest import bh_setup_s3
    alg = TubeAlgebra(*dihedral8_sign()) if context == "d8_sign" \
        else AnnularAlgebra(bh_setup_s3())
    for c in range(len(alg.block_algebra().algebras)):
        _, Pi = _induce_certified(alg, c)
        res = Pi.check(alg)
        assert res.ok and res.detail.startswith("tol 1e-09, ")


def test_matrices_are_nested_lists_of_complex():
    alg, talg = _semion_context()
    pi = regular_representation(talg)
    for r in (pi, induce(alg, 1, pi), restrict(alg, 1, induce(alg, 1, pi))):
        for M in r.matrices.values():
            assert type(M) is list and len(M) == r.dim
            assert all(type(z) is complex for row in M for z in row)


def test_restrict_after_induce_is_exact(small_fixture):
    alg = TubeAlgebra(small_fixture.group, small_fixture.omega)
    blocks = alg.block_algebra()
    for c, talg in enumerate(blocks.algebras):
        pi = regular_representation(talg)
        back = restrict(alg, c, induce(alg, c, pi))
        assert back.dim == pi.dim
        for v in talg.labels():
            assert np.array_equal(back.matrices[v], pi.matrices[v])


def test_induce_after_restrict_character_equal():
    alg, talg = _semion_context()
    pi = regular_representation(talg)
    Pi = induce(alg, 1, pi)
    again = induce(alg, 1, restrict(alg, 1, Pi))
    for lab in alg.labels():
        assert abs(np.trace(Pi.matrices[lab]) -
                   np.trace(again.matrices[lab])) < 1e-9


def _direct_sum(alg, reps):
    dim = sum(r.dim for r in reps)
    mats = {}
    for lab in alg.labels():
        blocks_ = [r.matrices[lab] for r in reps]
        M = np.zeros((dim, dim), dtype=complex)
        at = 0
        for b in blocks_:
            M[at:at + len(b), at:at + len(b)] = b
            at += len(b)
        mats[lab] = M
    return Representation(labels=list(alg.labels()), dim=dim, matrices=mats)


def test_support_decompose_single_induction():
    alg, talg = _semion_context()
    Pi = induce(alg, 1, regular_representation(talg))
    sd = support_decompose(alg, Pi)
    assert sd.dims[1] == Pi.dim and sd.dims[0] == 0


def test_support_decompose_two_inductions():
    alg, _ = _semion_context()
    blocks = alg.block_algebra()
    reps = []
    for c, talg in enumerate(blocks.algebras):
        reps.append(induce(alg, c, regular_representation(talg)))
    S = _direct_sum(alg, reps)
    sd = support_decompose(alg, S)
    assert sd.dims == {0: reps[0].dim, 1: reps[1].dim}
    assert sd.total == S.dim


def test_support_decompose_zero_representation():
    alg, _ = _semion_context()
    zero = Representation(labels=list(alg.labels()), dim=0,
                          matrices={lab: np.zeros((0, 0), dtype=complex)
                                    for lab in alg.labels()})
    sd = support_decompose(alg, zero)
    assert all(d == 0 for d in sd.dims.values())


def test_induce_restrict_annular_context():
    from tubealg.annular_bh import AnnularAlgebra
    from conftest import bh_setup_s3
    alg = AnnularAlgebra(bh_setup_s3())
    blocks = alg.block_algebra()
    c = 1
    pi = regular_representation(blocks.algebras[c])
    Pi = induce(alg, c, pi)
    assert Pi.dim == len(blocks.index_sets[c]) * pi.dim
    back = restrict(alg, c, Pi)
    for v in pi.labels:
        assert np.array_equal(back.matrices[v], pi.matrices[v])


def test_rep_json_roundtrip():
    _, talg = _semion_context()
    reg = regular_representation(talg)
    back = rep_from_json(rep_to_json(reg), list(talg.els))
    for v in talg.els:
        assert np.allclose(back.matrices[v], reg.matrices[v])


def test_rep_json_rejects_bad_shape():
    _, talg = _semion_context()
    payload = rep_to_json(regular_representation(talg))
    payload["dimension"] = 3
    with pytest.raises(ValueError):
        rep_from_json(payload, list(talg.els))


def _characters_per_column(alg, subspaces):
    """sum over the columns v of Q of <v, L_b v>, one product at a time."""
    labels = list(alg.labels())
    idx = {a: i for i, a in enumerate(labels)}
    n = len(labels)
    chars = []
    for Q in subspaces:
        ch = np.empty(n, dtype=complex)
        for k, b in enumerate(labels):
            acc = 0.0 + 0.0j
            for col in range(Q.shape[1]):
                v = Q[:, col]
                out = np.zeros(n, dtype=complex)
                for a in labels:
                    hit = alg.mult_basis(b, a)
                    if hit is not None:
                        ph, lab = hit
                        out[idx[lab]] += root(ph, alg.modulus) * v[idx[a]]
                acc += np.vdot(v, out)
            ch[k] = acc
        chars.append(ch)
    return chars


def test_characters_match_per_column_oracle():
    alg = TubeAlgebra(*dihedral8_sign())
    n = len(alg.labels())
    idx = {a: i for i, a in enumerate(alg.labels())}
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
    Q, _ = np.linalg.qr(raw)
    subspaces = [Q[:, :1], Q[:, 1:5], np.eye(n, dtype=complex)[:, 10:13]]
    got = characters(alg, subspaces, idx)
    want = _characters_per_column(alg, subspaces)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) < 1e-9
