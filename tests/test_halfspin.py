"""Spin-1/2 construction against hand-computed oracles.

The frozen numbers come from evaluating the closed forms at m = 1, p = z:
E = sqrt(2), boost factors a_pm = (E + m +- |p|) / sqrt(2 m (E + m)).
"""

import math
import warnings

import numpy as np
import pytest

from selfconj import fieldops, halfspin, linalg
from selfconj.halfspin import (
    DN,
    FAMILY,
    FAMILY_SIGNS,
    LAM_S,
    RHO_S,
    UP,
    FourMomentum,
    PhaseConvention,
)

A_PLUS = 1.5537739740300374
A_MINUS = 0.6435942529055826

P_Z = FourMomentum(1.0, 1.0)  # unit momentum along +z
GRID = [
    FourMomentum(m, mag, th, ph)
    for m in (1.0, 0.5)
    for mag in (0.5, 2.0)
    for th, ph in ((0.0, 0.0), (math.pi / 2, 0.0), (1.1, 2.3), (2.7, 4.0))
]


def member(b, name):
    """A family member of a one-row grid by its FAMILY name."""
    return b.family[0, FAMILY.index(name)]


def charge_family(b):
    """(name, spinor, expected S^c eigenvalue) of a one-row grid."""
    return zip(FAMILY, b.family[0], FAMILY_SIGNS)


def test_momentum_validation():
    with pytest.raises(ValueError):
        FourMomentum(-1.0, 1.0)
    with pytest.raises(ValueError):
        FourMomentum(1.0, -0.5)
    with pytest.raises(ValueError):
        FourMomentum(math.nan, 1.0)
    with pytest.raises(ValueError):
        FourMomentum(1.0, math.nan)
    with pytest.raises(ValueError):
        FourMomentum(1.0, 1.0, theta=4.0)
    # inf % 2 pi is NaN, so a non-finite azimuth would reach every family entry
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="azimuth must be finite"):
            FourMomentum(1.0, 1.0, 0.3, phi)
        with pytest.raises(ValueError, match="azimuth must be finite"):
            FourMomentum(1.0, 0.0, 0.0, phi)
    # rest momentum forgets the direction
    p = FourMomentum(1.0, 0.0, theta=2.0, phi=1.0)
    assert p.theta == 0.0 and p.phi == 0.0


def test_the_reflected_grid_maps_the_angles():
    g = halfspin.build_spinor_grid(
        [FourMomentum(1.0, 1.0), FourMomentum(1.0, 0.0), FourMomentum(2.0, 3.0, 1.1, 6.0)]
    )
    r = g.reflected
    assert r.theta.tolist() == [math.pi, 0.0, math.pi - 1.1]
    # phi + pi wraps into [0, 2 pi); a rest row stays at (0, 0)
    assert r.phi.tolist() == [math.pi, 0.0, (6.0 + math.pi) % (2 * math.pi)]
    assert r.mass is g.mass and r.pmag is g.pmag and r.energy is g.energy
    assert np.allclose(r.pvec, -g.pvec, atol=1e-15)


def test_phase_scans_are_validated_where_they_are_made():
    for theta1, theta2 in (((0.1, 0.2), 0.0), ((0.1, 0.2), (0.3,)), (0.0, (0.3,))):
        with pytest.raises(ValueError, match="phase scans of equal length"):
            PhaseConvention(theta1, theta2)
    scan = PhaseConvention((0.1, 0.2), (0.3, 0.4))
    for rows in ([P_Z], [P_Z] * 3):
        with pytest.raises(ValueError, match="one phase pair per grid row"):
            halfspin.build_spinor_grid(rows, scan)
    assert halfspin.build_spinor_grid([P_Z] * 2, scan).family.shape == (2, 8, 4)


def test_the_head_of_a_phase_scan_keeps_its_first_pairs():
    g = halfspin.build_spinor_grid(GRID[3:6], PhaseConvention((0.1, 0.2, 0.3), (0.0, 0.5, 1.0)))
    want = halfspin.build_spinor_grid(GRID[3:5], PhaseConvention((0.1, 0.2), (0.0, 0.5)))
    assert g.head(2).convention == want.convention
    got, want = g.head(2).reflected, want.reflected
    for a, b in zip((*got[1:], got.six), (*want[1:], want.six)):
        assert np.array_equal(a, b)
    plain = halfspin.build_spinor_grid(GRID[3:6], PhaseConvention(0.1, 0.0))
    assert plain.head(2).convention is plain.convention


def test_helicity_spinors_pinned_values():
    rt = 1 / math.sqrt(2)
    assert np.allclose(halfspin.helicity_eigenspinor(math.pi / 2, 0.0, UP), [rt, rt])
    assert np.allclose(halfspin.helicity_eigenspinor(math.pi / 2, 0.0, DN), [-rt, rt])
    assert np.allclose(halfspin.helicity_eigenspinor(0.0, 0.0, UP), [1, 0])
    with pytest.raises(ValueError):
        halfspin.helicity_eigenspinor(0.0, 0.0, 0)


def test_wigner_property_of_theta():
    for th, ph in ((0.3, 1.2), (2.0, 5.1)):
        cp = halfspin.helicity_eigenspinor(th, ph, UP)
        cm = halfspin.helicity_eigenspinor(th, ph, DN)
        assert np.allclose(halfspin.THETA @ np.conjugate(cp), cm)
        assert np.allclose(halfspin.THETA @ np.conjugate(cm), -cp)


def _boost_ops(p):
    """The Weyl boost matrices (right, left) = (E + m +- sigma.p) / sqrt(2 m
    (E + m)) of one momentum; the grid builds their action on helicity
    spinors as numbers."""
    e, m = p.energy, p.mass
    sp = np.tensordot(p.pvec, halfspin.SIGMA, axes=(-1, 0))
    den = math.sqrt(2 * m * (e + m))
    return ((e + m) * np.eye(2) + sp) / den, ((e + m) * np.eye(2) - sp) / den


def test_boost_factors_at_unit_momentum():
    b = halfspin.build_spinor_basis(P_Z)
    chi_up, chi_dn = (halfspin.helicity_eigenspinor(0.0, 0.0, h) for h in (UP, DN))
    assert np.allclose(b.right[0], [A_PLUS * chi_up, A_MINUS * chi_dn], atol=1e-14)
    assert np.allclose(b.left[0], [A_MINUS * chi_up, A_PLUS * chi_dn], atol=1e-14)
    lam_r, lam_l = _boost_ops(P_Z)
    assert np.allclose(lam_r @ chi_up, A_PLUS * chi_up, atol=1e-14)
    assert np.allclose(lam_l @ chi_up, A_MINUS * chi_up, atol=1e-14)


def test_a_massless_build_is_refused_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite boosts need m > 0"):
            halfspin.build_spinor_basis(FourMomentum(0.0, 1.0))


def test_lambda_up_at_unit_momentum():
    b = halfspin.build_spinor_basis(P_Z)
    want = np.array([0.0, 1j * A_MINUS, A_MINUS, 0.0])
    assert np.allclose(member(b, "lam_s_up"), want, atol=1e-14)


def test_rest_rows_default_convention():
    b = halfspin.build_spinor_basis(FourMomentum(1.0, 0.0))
    assert np.allclose(member(b, "lam_s_up"), [0, 1j, 1, 0], atol=1e-14)
    assert np.allclose(member(b, "lam_s_dn"), [-1j, 0, 0, 1], atol=1e-14)
    assert np.allclose(member(b, "lam_a_up"), [0, -1j, 1, 0], atol=1e-14)
    assert np.allclose(member(b, "rho_s_up"), [1, 0, 0, -1j], atol=1e-14)
    assert np.allclose(member(b, "rho_a_up"), [1, 0, 0, 1j], atol=1e-14)


def test_conjugation_eigenvalues_across_grid():
    c = halfspin.charge_conjugation_op()
    assert c.square_sign() == +1
    for p in GRID:
        b = halfspin.build_spinor_basis(p)
        for name, psi, sign in charge_family(b):
            assert np.linalg.norm(c(psi) - sign * psi) < 1e-12, name


def test_conjugation_square_free_of_global_phase():
    for thetac in (0.0, 0.9, math.pi / 2, 2.2):
        c = halfspin.charge_conjugation_op(PhaseConvention(thetac=thetac))
        assert linalg.max_abs(c.squared().matrix - np.eye(4)) < 1e-15


def test_rest_phase_convention_scales():
    conv = PhaseConvention(theta1=0.3, theta2=0.0, norm=2.0)
    b = halfspin.build_spinor_basis(FourMomentum(1.0, 0.0), conv)
    assert np.allclose(b.left[0, 0], 2.0 * np.exp(0.3j) * np.array([1, 0]))


def test_dirac_v_is_chirality_image():
    u_up, u_dn, v_up, v_dn = halfspin.build_spinor_basis(P_Z).uv_stack()[0]
    for u, v in ((u_up, v_up), (u_dn, v_dn)):
        assert np.allclose(v, halfspin.GAMMA5 @ u)


def test_dynamical_residuals_zero_and_selftest():
    for p in GRID:
        r = halfspin.dynamical_residuals(halfspin.build_spinor_basis(p))
        assert all(v.shape == (1, 2) for v in r.values())  # row, helicity
        assert max(v.max() for v in r.values()) < 1e-12
    # deliberately flipped third sign must miss by exactly 2 m ||rho^S||,
    # helicity by helicity
    p = FourMomentum(1.0, 1.0, 1.1, 0.4)
    b = halfspin.build_spinor_basis(p)
    expect = [2 * p.mass * np.linalg.norm(rho) for rho in b.family[0, RHO_S]]
    flipped = halfspin.dynamical_residuals(b, flip_third_sign=True)["r3"][0]
    assert flipped == pytest.approx(expect, rel=1e-12)


def test_family_functions_read_the_basis_they_are_given(monkeypatch):
    b = halfspin.build_spinor_basis(FourMomentum(1.0, 1.0, 1.1, 0.4), PhaseConvention(0.3, 0.4))

    def rebuild(*args):
        raise AssertionError("a family function rebuilt its family")

    monkeypatch.setattr(halfspin, "build_spinor_basis", rebuild)
    monkeypatch.setattr(fieldops, "build_spinor_basis", rebuild)
    halfspin.dynamical_residuals(b, flip_third_sign=True)
    halfspin.connection_check(b)
    halfspin.xi_alias_residuals(b)
    halfspin.biorthonormality_gram(b)
    halfspin.fgm_residuals(b)
    fieldops.majorana_mode(b)
    fieldops.ziino_barut_split(b)
    fieldops.conjugation_parity_residuals(b)
    fieldops.dirac_from_majorana(b)
    fieldops.orbit_preserves_conjugation(np.array([0.0, 1.0, 0.0, 0.0]), b)
    fieldops.ziino_split_residual(b)
    # the displayed oracle builds its own family from the physical inputs
    with pytest.raises(AssertionError, match="rebuilt"):
        fieldops.displayed_ziino_coefficients(b.momentum(0), b.convention)


def test_connection_exact_at_default_convention():
    rest = halfspin.connection_check(halfspin.build_spinor_basis(FourMomentum(1.0, 0.0)))
    assert rest.raw_residual < 1e-15
    for p in GRID:
        rep = halfspin.connection_check(halfspin.build_spinor_basis(p))
        assert rep.raw_residual < 1e-12
        assert rep.aligned_residual.shape == (1, 4)  # row, lambda member
        assert np.all(rep.aligned_residual < 1e-12)
        assert np.allclose(rep.phases, np.ones(4), atol=1e-12)


def test_connection_matrix_is_frozen():
    m = 0.5 * np.array(
        [
            [1, 1j, -1, 1j],
            [-1j, 1, -1j, -1],
            [1, -1j, -1, -1j],
            [1j, 1, 1j, -1],
        ]
    )
    assert np.array_equal(halfspin.CONNECTION, m)


def test_gram_matrix_rest_oracle_and_invariance():
    want = np.array(
        [
            [0, -2j, 0, 0],
            [2j, 0, 0, 0],
            [0, 0, 0, 2j],
            [0, 0, -2j, 0],
        ]
    )
    g0 = halfspin.biorthonormality_gram(halfspin.build_spinor_basis(FourMomentum(1.0, 0.0)))
    assert np.allclose(g0, want, atol=1e-14)
    for p in GRID[::3]:
        g = halfspin.biorthonormality_gram(halfspin.build_spinor_basis(p))
        assert np.allclose(g, want * p.mass, atol=1e-12)


def test_gram_phase_dependence():
    p = FourMomentum(1.0, 1.0)
    for t1, t2 in ((0.3, 0.4), (1.0, 0.57), (0.0, math.pi / 2)):
        (g,) = halfspin.biorthonormality_gram(
            halfspin.build_spinor_basis(p, PhaseConvention(t1, t2))
        )
        assert g[0, 1] == pytest.approx(-2j * math.cos(t1 + t2), abs=1e-12)
        assert g[1, 0] == pytest.approx(+2j * math.cos(t1 + t2), abs=1e-12)
        assert g[2, 3] == pytest.approx(+2j * math.cos(t1 + t2), abs=1e-12)
        assert linalg.max_abs(np.diag(g)) < 1e-12


def test_helicity_eigen_and_noneigen_split():
    for p in GRID:
        if p.pmag == 0:
            continue
        ops = halfspin.discrete_ops(p.nhat)
        b = halfspin.build_spinor_basis(p)
        for h, u, lam in zip((UP, DN), b.uv_stack()[0], b.family[0, LAM_S]):
            assert np.linalg.norm(ops.helicity @ u - 0.5 * h * u) < 1e-12
            _, resid = linalg.eigen_residual(ops.helicity, lam)
            # exact split: equal weight on both helicity halves
            assert resid == pytest.approx(0.5 * np.linalg.norm(lam), rel=1e-12)


def test_chiral_helicity_eigenvalues():
    p = FourMomentum(1.0, 1.0, 1.1, 2.3)
    ops = halfspin.discrete_ops(p.nhat)
    b = halfspin.build_spinor_basis(p)
    for name, psi in zip(FAMILY, b.family[0]):
        sgn = +1 if name.startswith("lam") else -1
        h = UP if name.endswith("up") else DN
        assert np.linalg.norm(ops.chiral_helicity @ psi - sgn * 0.5 * h * psi) < 1e-12


def test_gauge_transforms_preserve_status():
    c = halfspin.charge_conjugation_op()
    b = halfspin.build_spinor_basis(FourMomentum(1.0, 2.0, 0.7, 0.0))
    for alpha in (0.3, 1.7):
        gl, gr = halfspin.gauge_lambda(alpha), halfspin.gauge_rho(alpha)
        for name, psi, sign in charge_family(b):
            img = (gl if name.startswith("lam") else gr) @ psi
            assert np.linalg.norm(c(img) - sign * img) < 1e-12


def test_xi_conjugates_the_boosts():
    for p in GRID:
        if p.mass <= 0 or p.pmag == 0:
            continue
        # Xi = diag(e^{i phi}, e^{-i phi}), a diagonal block of diag(Xi, Xi)
        xi = halfspin.xi_factor(p.phi)[:2, :2]
        lam_r, lam_l = _boost_ops(p)
        for lam in (lam_r, lam_l):
            assert np.allclose(xi @ lam @ np.linalg.inv(xi), np.conjugate(lam))


def test_xi_alias_residuals_default_convention():
    for p in GRID:
        out = halfspin.xi_alias_residuals(halfspin.build_spinor_basis(p))
        assert list(out) == ["alias1", "alias2", "alias3", "alias4"]
        assert all(v.shape == (1, 2) for v in out.values())  # row, helicity
        assert max(v.max() for v in out.values()) < 1e-12


def test_w_group_table_is_quaternionic():
    table = halfspin.w_group_table()
    want = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (-1, 3), (1, 3): (1, 2),
        (2, 0): (1, 2), (2, 1): (1, 3), (2, 2): (-1, 0), (2, 3): (-1, 1),
        (3, 0): (1, 3), (3, 1): (-1, 2), (3, 2): (1, 1), (3, 3): (-1, 0),
    }
    assert table == want


def test_massless_scan_closed_form():
    rows = halfspin.massless_scan([1e-2, 1e-4, 1e-6, 1e-8])
    for row in rows:
        m = row["mass"]
        e = math.hypot(m, 1.0)
        assert row["ratio"] == pytest.approx(2 * m * (e + m) / (e + m + 1.0) ** 2, rel=1e-9)
        assert row["lam_s_dn_norm"] == pytest.approx((e + m + 1.0) / math.sqrt(e + m), rel=1e-9)
    assert rows[-1]["ratio"] == pytest.approx(5.0e-9, rel=1e-3)
    assert rows[-1]["lam_s_dn_norm"] == pytest.approx(2.0, rel=1e-6)


def test_massless_scan_rejects_bad_input():
    with pytest.raises(ValueError):
        halfspin.massless_scan([])
    with pytest.raises(ValueError):
        halfspin.massless_scan([0.0])


def test_fgm_tensor_forms():
    sig, til = halfspin.FGM_SIGMA, halfspin.FGM_TILDE
    for i in range(3):
        assert np.array_equal(sig[(0, i + 1)], 1j * halfspin.SIGMA[i])
        assert np.array_equal(til[(0, i + 1)], -1j * halfspin.SIGMA[i])
    assert np.array_equal(sig[(1, 2)], halfspin.SIGMA[2])
    assert np.array_equal(til[(1, 2)], halfspin.SIGMA[2])
    assert linalg.max_abs(sig[(0, 0)]) == 0.0


def test_fgm_residuals_free_field():
    for p in GRID:
        r = halfspin.fgm_residuals(halfspin.build_spinor_basis(p))
        assert r["right"] < 1e-12 and r["left"] < 1e-12


def test_fgm_residuals_coupled_and_errors():
    b = halfspin.build_spinor_basis(P_Z)
    f = np.zeros((4, 4))
    f[0, 1], f[1, 0] = 1.0, -1.0
    out = halfspin.fgm_residuals(b, g=0.3, fmunu=f, x=[0.5, 0.2, 0.0, 0.0])
    assert out["right"] >= 0.0 and out["left"] >= 0.0
    with pytest.raises(ValueError):
        halfspin.fgm_residuals(b, fmunu=np.ones((4, 4)))
    with pytest.raises(ValueError):
        halfspin.fgm_residuals(b, fmunu=f, x=[1.0, 0.0])
    # NaN compares false against any bound, so each input is checked finite
    f_nan = f.copy()
    f_nan[2, 3] = f_nan[3, 2] = np.nan
    with pytest.raises(ValueError):
        halfspin.fgm_residuals(b, fmunu=f_nan)
    with pytest.raises(ValueError):
        halfspin.fgm_residuals(b, fmunu=f, x=[np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        halfspin.fgm_residuals(b, g=np.nan, fmunu=f, x=[0.5, 0.2, 0.0, 0.0])


def test_discrete_ops_validation():
    with pytest.raises(ValueError):
        halfspin.discrete_ops([0.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        halfspin.discrete_ops([np.nan, 0.0, 1.0])
