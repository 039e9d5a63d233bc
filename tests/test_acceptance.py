"""Acceptance suite: one test per contract criterion, exact tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass/fail
line per criterion.  All algebraic identities are checked in exact
root-of-unity arithmetic; the only numerical tolerance (1e-9) enters
through eigenvalue clustering and character comparison in the
representation-splitting criteria, exactly as stated below.
"""

import time

import numpy as np

from tubealg.annular_bh import (AnnularAlgebra, box_checks,
                                bh_verify_star_iso, compare_cutdown_diagonal,
                                end_xg_algebra, tube_cutdown)
from tubealg.coho import (BHSetup, gamma, gamma_identity_check, gauge_fix_bh,
                          gl_relations_check, phi_a)
from tubealg.grp import centralizer, cyclic_group
from tubealg.phase import (Cocycle3, coboundary2, cocycle3_check,
                           inflate_cocycle, is_normalized,
                           product_type_cocycle, restrict_trivial_on,
                           standard_cyclic_cocycle, trivial_cocycle)
from tubealg.rep import (induce, regular_representation, restrict,
                         support_decompose)
from tubealg.tube_diag import TubeAlgebra, simple_count, verify_star_iso

from cocycle2_oracle import cocycle2_check
from conftest import (bh_setup_s3, bh_setup_v4, _FIXTURES, SMALL_NAMES,
                      symmetric_group)
from regular_split_oracle import regular_split

_T0 = time.monotonic()


def _report(num: int, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _budget(num: int, seconds: float, limit: float) -> None:
    ok = seconds < limit
    print(f"[criterion {num:02d}] runtime {seconds:.2f}s (budget {limit:.0f}s)")
    assert ok, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_cocycle_law():
    t0 = time.monotonic()
    s3, sign = symmetric_group(3)
    good = [standard_cyclic_cocycle(2, 1), standard_cyclic_cocycle(4, 1),
            product_type_cocycle()[1],
            inflate_cocycle(standard_cyclic_cocycle(2, 1), s3, sign)]
    for omega in good:
        res = cocycle3_check(omega)
        assert res.ok, res.witness
    z2 = cyclic_group(2)
    values = [0] * 8
    values[(1 * 2 + 1) * 2 + 0] = 1
    bad = cocycle3_check(Cocycle3(z2, values, 2))
    assert not bad.ok and bad.witness is not None
    _report(1, True, "cocycle law on 4 fixtures, perturbed table rejected")
    _budget(1, time.monotonic() - t0, 1.0)


def test_criterion_02_centralizer_cocycles():
    t0 = time.monotonic()
    for name in SMALL_NAMES:
        fx = _FIXTURES[name]
        assert fx.group.order <= 12
        for a in fx.group.elements():
            res = cocycle2_check(phi_a(fx.group, fx.omega, a))
            assert res.ok, (name, a, res.witness)
    _report(2, True, f"derived 2-cocycles exact on {len(SMALL_NAMES)} fixtures")
    _budget(2, time.monotonic() - t0, 5.0)


def test_criterion_03_transport_identity(s4_sign_fixture):
    t0 = time.monotonic()
    for fx in [_FIXTURES[name] for name in SMALL_NAMES] + [s4_sign_fixture]:
        G = fx.group
        res = gamma_identity_check(G, fx.omega)
        n, cents = G.order, [centralizer(G, a) for a in G.elements()]
        tuples = n ** 3 * sum(len(c) ** 2 for c in cents)
        visited = sum((n + len(c) - 1) * n * len(c) for c in cents)
        triples = sum(len(c) ** 3 for c in cents)
        assert res.ok and res.detail == (
            f"certified {tuples} by last morphism over generators, "
            f"exhaustive {visited}, centralizer twists exhaustive {triples}"), \
            (fx.name, res.witness)
        if n > 8:
            continue
        for a in G.elements():
            for x in G.elements():
                assert gamma(G, fx.omega, a, x, x, 0) == 0
    assert tuples == 14266368
    _report(3, True, "certified on every tuple: 7 fixtures to order 6, "
                     "all 14,266,368 at order 24")
    _budget(3, time.monotonic() - t0, 60.0)


_TUBE_FIXTURES = ("s3_trivial", "z2_semion", "z4_std")


def test_criterion_04_tube_algebra_laws():
    t0 = time.monotonic()
    for name in _TUBE_FIXTURES:
        fx = _FIXTURES[name]
        alg = TubeAlgebra(fx.group, fx.omega)
        for res in alg.check_all():
            assert res.ok, (name, res.name, res.witness)
    _report(4, True, "associativity, involution, trace, Gram exact on 3 fixtures")
    _budget(4, time.monotonic() - t0, 60.0)


def test_criterion_05_tube_block_isomorphism():
    for name in _TUBE_FIXTURES:
        fx = _FIXTURES[name]
        res = verify_star_iso(TubeAlgebra(fx.group, fx.omega))
        assert res.ok, (name, res.name, res.witness)
    _report(5, True, "block map multiplicative and *-preserving, exact")


def test_criterion_06_simple_counts():
    s3, _ = symmetric_group(3)
    z3 = cyclic_group(3)
    semion = standard_cyclic_cocycle(2, 1)
    cases = [
        (s3, trivial_cocycle(s3), 8),
        (semion.group, semion, 4),
        (z3, trivial_cocycle(z3), 9),
    ]
    for group, omega, expected in cases:
        alg = TubeAlgebra(group, omega)
        counts = simple_count(alg)
        assert counts.total == expected
        blocks = regular_split(alg, seed=0, tol=1e-9)
        assert len(blocks) == expected
    sem_alg = TubeAlgebra(semion.group, semion)
    for talg in sem_alg.block_algebra().algebras:
        assert all(b.dimension == 1 for b in regular_split(talg, seed=0))
    _report(6, True, "8 / 4 / 9, center dims agree with regular splitting")


def test_criterion_07_induction_roundtrips():
    semion = standard_cyclic_cocycle(2, 1)
    alg = TubeAlgebra(semion.group, semion)
    blocks = alg.block_algebra()
    reps = []
    for c, talg in enumerate(blocks.algebras):
        pi = regular_representation(talg)
        Pi = induce(alg, c, pi)
        back = restrict(alg, c, Pi)
        for v in talg.labels():
            assert np.array_equal(back.matrices[v], pi.matrices[v])
        again = induce(alg, c, back)
        for lab in alg.labels():
            assert abs(np.trace(Pi.matrices[lab])
                       - np.trace(again.matrices[lab])) < 1e-9
        reps.append(Pi)
    dim = sum(r.dim for r in reps)
    mats = {}
    for lab in alg.labels():
        M = np.zeros((dim, dim), dtype=complex)
        at = 0
        for r in reps:
            M[at:at + r.dim, at:at + r.dim] = r.matrices[lab]
            at += r.dim
        mats[lab] = M
    from tubealg.rep import Representation
    sd = support_decompose(alg, Representation(labels=list(alg.labels()),
                                               dim=dim, matrices=mats))
    assert sd.dims == {0: reps[0].dim, 1: reps[1].dim}
    _report(7, True, "restrict after induce exact; both supports recovered")


def test_criterion_08_gauge_fixing():
    for setup in (bh_setup_v4(), bh_setup_s3()):
        omega_prime, f = gauge_fix_bh(setup)
        G = setup.group
        assert cocycle3_check(omega_prime).ok
        assert is_normalized(omega_prime)
        assert restrict_trivial_on(omega_prime, setup.H) is None
        assert restrict_trivial_on(omega_prime, setup.K) is None
        assert gl_relations_check(G, setup.H, setup.K, omega_prime).ok
        N = setup.omega.modulus
        d2f = coboundary2(G, f, N)
        assert omega_prime.modulus == N
        for i in range(len(d2f)):
            assert omega_prime.values[i] == (d2f[i] + setup.omega.values[i]) % N
    _report(8, True, "gauge relations, normalization, coboundary all exact")


def test_criterion_09_annular_block_isomorphism():
    setup = bh_setup_s3()
    alg = AnnularAlgebra(setup)
    assert len(alg.labels()) == 144
    cd = alg.class_data
    audit = sum((2 * len(cd.classes[c])) ** 2 * len(cd.centralizers[c])
                for c in range(cd.num_classes()))
    assert audit == 144
    assert alg.block_algebra().total_dimension() == 144
    report = bh_verify_star_iso(alg)
    assert report.ok
    for res in alg.check_all():
        assert res.ok, (res.name, res.witness)
    v4_alg = AnnularAlgebra(bh_setup_v4())
    report_v4 = bh_verify_star_iso(v4_alg)
    assert report_v4.ok
    for res in v4_alg.check_all():
        assert res.ok, (res.name, res.witness)
    _report(9, True, f"144-dim fixture and twisted fixture pass; "
                     f"conventions {report_v4.passing}")


def test_criterion_10_box_calculus():
    setup = bh_setup_s3()
    alg = AnnularAlgebra(setup)
    for res in box_checks(alg):
        assert res.ok, (res.name, res.witness)
    for g in setup.group.elements():
        assert cocycle2_check(end_xg_algebra(setup, g)).ok
    _report(10, True, "box laws exhaustive; endomorphism twists are cocycles")


def test_criterion_11_cutdown_consistency():
    s3, _ = symmetric_group(3)
    trivial_H = BHSetup(s3, (0,), tuple(range(6)), trivial_cocycle(s3))
    assert compare_cutdown_diagonal(trivial_H).ok
    report = tube_cutdown(AnnularAlgebra(bh_setup_s3()), seed=0)
    assert report.counts_agree
    assert report.simple_count_full.total == 8 == report.simple_count_cutdown
    _report(11, True, "trivial-H corner equals the tube algebra; counts 8 == 8")


def test_criterion_12_runtime():
    elapsed = time.monotonic() - _T0
    _report(12, elapsed < 300.0,
            f"acceptance module wall time {elapsed:.1f}s < 300s")
