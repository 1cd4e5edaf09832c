"""Mode expansions, the even/odd split, the Dirac embedding, phase orbits.

Rest-frame split oracles at m = 1 (phi_L up = (1, 0)):
even/up/ann = (0, i, 0, 0), even/up/cre = (0, 0, 1, 0),
odd/up/ann = (0, 0, 1, 0), odd/up/cre = (0, -i, 0, 0).
"""

import math

import numpy as np
import pytest

from selfconj import fieldops
from selfconj.fieldops import ModeExpansion, QuaternionPhase, Term
from selfconj.fock import LadderSymbol
from selfconj.halfspin import DN, UP, FourMomentum, PhaseConvention, build_spinor_basis

GRID = [
    FourMomentum(1.0, 0.0),
    FourMomentum(1.0, 1.0),
    FourMomentum(0.5, 2.0, 1.1, 2.3),
    FourMomentum(2.0, 0.7, 2.8, 5.0),
]


def sym(kind, h, dag, ptag=1):
    return LadderSymbol(kind, h, dag, ptag)


def test_term_validation():
    with pytest.raises(ValueError):
        Term(np.zeros(4), sym("a", "up", False), 0)


def test_expansion_merges_and_prunes():
    a = Term(np.array([1.0, 0, 0, 0]), sym("a", "up", False), +1)
    b = Term(np.array([-1.0, 0, 0, 0]), sym("a", "up", False), +1)
    c = Term(np.array([0, 2.0, 0, 0]), sym("a", "dn", False), +1)
    x = ModeExpansion([a, b, c])
    assert len(x.terms) == 1  # cancelled pair dropped
    assert np.array_equal(x.coefficient(sym("a", "dn", False), +1), c.coefficient)
    assert np.array_equal(
        x.coefficient(sym("a", "up", True), -1), np.zeros(4)
    )
    y = x.scale(0.5).add(x.scale(0.5))
    assert y.residual(x) == 0.0
    assert x.residual(ModeExpansion([])) == 2.0


def test_mode_structure():
    p = FourMomentum(1.0, 1.0, 1.1, 0.4)
    b = build_spinor_basis(p)
    nu = fieldops.majorana_mode(b)
    assert len(nu.terms) == 4
    assert np.allclose(nu.coefficient(sym("a", "up", False), +1), b.lam_s[UP])
    assert np.allclose(nu.coefficient(sym("a", "dn", True), -1), b.lam_a[DN])
    dirac_ready = fieldops.majorana_mode(b, distinct_antiparticle=True)
    kinds = {t.symbol.kind for t in dirac_ready.terms}
    assert kinds == {"a", "b"}
    assert np.allclose(
        dirac_ready.coefficient(sym("b", "dn", True), -1), b.lam_a[DN]
    )


def test_conjugation_is_an_involution():
    for p in GRID[1:]:
        nu = fieldops.majorana_mode(build_spinor_basis(p))
        cnu = fieldops.charge_conjugate_expansion(nu)
        for t in cnu.terms:
            assert t.symbol.dagger in (True, False)
        assert fieldops.charge_conjugate_expansion(cnu).residual(nu) < 1e-15
        # daggers toggle and frequencies flip term by term
        assert {(t.symbol.dagger, t.frequency) for t in nu.terms} == {
            (False, +1),
            (True, -1),
        }
        assert {(t.symbol.dagger, t.frequency) for t in cnu.terms} == {
            (True, -1),
            (False, +1),
        }


def test_ziino_rest_oracles():
    want = {
        ("even", "up", "ann"): [0, 1j, 0, 0],
        ("even", "up", "cre"): [0, 0, 1, 0],
        ("odd", "up", "ann"): [0, 0, 1, 0],
        ("odd", "up", "cre"): [0, -1j, 0, 0],
        ("even", "dn", "ann"): [-1j, 0, 0, 0],
        ("even", "dn", "cre"): [0, 0, 0, 1],
    }
    disp = fieldops.displayed_ziino_coefficients(FourMomentum(1.0, 0.0))
    for key, vec in want.items():
        assert np.allclose(disp[key], vec, atol=1e-14), key
    even, odd = fieldops.ziino_barut_split(build_spinor_basis(FourMomentum(1.0, 0.0)))
    assert np.allclose(even.coefficient(sym("a", "up", False), +1), [0, 1j, 0, 0])
    assert np.allclose(odd.coefficient(sym("a", "up", True), -1), [0, -1j, 0, 0])


def test_split_matches_displayed_everywhere():
    for p in GRID:
        b = build_spinor_basis(p)
        assert fieldops.ziino_split_residual(b) < 1e-14
        even, odd = fieldops.ziino_barut_split(b)
        assert even.add(odd).residual(fieldops.majorana_mode(b)) < 1e-15


def test_split_halves_are_conjugation_eigenmodes():
    for p in GRID:
        r = fieldops.conjugation_parity_residuals(build_spinor_basis(p))
        assert r["even"] < 1e-14
        assert r["odd"] < 1e-14


def test_dirac_embedding_partner_identities():
    for p in GRID[1:]:
        rep = fieldops.dirac_from_majorana(build_spinor_basis(p))
        assert rep["partner_residual"] < 1e-12
        assert rep["eigenspace_residual"] < 1e-12


def test_dirac_embedding_rank_depends_on_phases():
    p = FourMomentum(1.0, 1.0, 1.1, 0.4)
    b = build_spinor_basis(p)
    rep = fieldops.dirac_from_majorana(b)
    # default phases: the two positive-frequency images are collinear
    assert rep["positive_singular_values"][1] < 1e-12
    assert rep["phase_sum"] == 0.0
    from selfconj.halfspin import ID4, slash

    plus = ID4 + slash(p) / p.mass
    assert np.allclose(plus @ b.lam_s[DN], -1j * (plus @ b.lam_s[UP]), atol=1e-12)
    generic = fieldops.dirac_from_majorana(build_spinor_basis(p, PhaseConvention(0.3, 0.4)))
    assert generic["positive_singular_values"][1] > 0.5
    assert generic["phase_sum"] == pytest.approx(0.7)


def test_quaternion_phase_algebra():
    with pytest.raises(ValueError):
        QuaternionPhase(1.0, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        QuaternionPhase(1.0, (0.0, 0.0))
    for c0, c in ((np.nan, (0, 0, 0)), (1.0, (np.nan, 0, 0))):
        with pytest.raises(ValueError):
            QuaternionPhase(c0, c)
    qi = QuaternionPhase(0.0, (1.0, 0.0, 0.0))
    qj = QuaternionPhase(0.0, (0.0, 1.0, 0.0))
    qk = qi.multiply(qj)
    assert qk == QuaternionPhase(0.0, (0.0, 0.0, 1.0))
    assert qi.multiply(qi) == QuaternionPhase(-1.0, (0.0, 0.0, 0.0))


def test_matrix_units_realize_the_algebra():
    qi, qj, qk = fieldops.QUATERNION_UNITS
    for q in (qi, qj, qk):
        assert np.allclose(q @ q, -np.eye(4))
    assert np.allclose(qi @ qj, qk)
    assert np.allclose(qi @ qj + qj @ qi, np.zeros((4, 4)))
    assert np.allclose(qj @ qk + qk @ qj, np.zeros((4, 4)))
    assert np.array_equal(
        fieldops.orbit_matrix(QuaternionPhase(1.0, (0, 0, 0))), np.eye(4)
    )


def test_orbit_preserves_conjugation_status():
    rng = np.random.default_rng(7)
    qs = [
        QuaternionPhase(1.0, (0, 0, 0)),
        QuaternionPhase(0.0, (1.0, 0, 0)),
        QuaternionPhase(0.0, (0, 1.0, 0)),
        QuaternionPhase(0.0, (0, 0, 1.0)),
    ]
    for _ in range(4):
        v = rng.normal(size=4)
        v = v / np.linalg.norm(v)
        qs.append(QuaternionPhase(v[0], tuple(v[1:])))
    bases = [build_spinor_basis(p) for p in (GRID[1], GRID[2])]
    for q in qs:
        for b in bases:
            assert fieldops.orbit_preserves_conjugation(q, b) < 1e-12


def test_orbit_group_law():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b = rng.normal(size=4), rng.normal(size=4)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        q1 = QuaternionPhase(a[0], tuple(a[1:]))
        q2 = QuaternionPhase(b[0], tuple(b[1:]))
        assert fieldops.orbit_group_law(q1, q2) < 1e-14
