"""Spin-1/2 construction against hand-computed oracles.

The frozen numbers come from evaluating the closed forms at m = 1, p = z:
E = sqrt(2), boost factors a_pm = (E + m +- |p|) / sqrt(2 m (E + m)).
"""

import math
import warnings

import numpy as np
import pytest
import sympy as sp
from test_mutants import MUTANTS

from selfconj import fieldops, halfspin, linalg, spin1
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
    for a, b in zip((*got[1:], spin1.weinberg_u(got)), (*want[1:], spin1.weinberg_u(want))):
        assert np.array_equal(a, b)
    plain = halfspin.build_spinor_grid(GRID[3:6], PhaseConvention(0.1, 0.0))
    assert plain.head(2).convention is plain.convention


def test_helicity_spinors_pinned_values():
    rt = 1 / math.sqrt(2)
    # (chi_up, chi_dn) on axis -2
    assert np.allclose(halfspin._helicity_pair(math.pi / 2, 0.0), [[rt, rt], [-rt, rt]])
    assert np.allclose(halfspin._helicity_pair(0.0, 0.0)[0], [1, 0])


def test_wigner_property_of_theta():
    for th, ph in ((0.3, 1.2), (2.0, 5.1)):
        cp, cm = halfspin._helicity_pair(th, ph)
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
    chi_up, chi_dn = halfspin._helicity_pair(0.0, 0.0)
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


def test_the_family_is_the_layout_of_any_two_spinors():
    # the run's grid rows are family_of their own phi_L, phi_R
    g = halfspin.build_spinor_grid(GRID, PhaseConvention(0.3, 0.4, norm=2.0))
    assert np.array_equal(halfspin.family_of(np.stack([g.left, g.right], axis=1)), g.family)
    # and any two-spinors are laid out as displayed, into S^c eigenvectors
    rng = np.random.default_rng(39)
    chiral = rng.standard_normal((5, 2, 2, 2)) + 1j * rng.standard_normal((5, 2, 2, 2))
    family = halfspin.family_of(chiral)
    left, right = chiral[:, 0], chiral[:, 1]
    turn_l, turn_r = (linalg.apply(1j * halfspin.THETA, np.conjugate(x)) for x in (left, right))
    want = [(turn_l, left), (right, -turn_r), (-turn_l, left), (right, turn_r)]
    want = np.concatenate([np.concatenate(pair, axis=-1) for pair in want], axis=1)
    assert np.array_equal(family, want)
    assert halfspin.conjugation_gaps(family, PhaseConvention()).max() < 1e-15


def test_conjugation_square_free_of_global_phase():
    for thetac in (0.0, 0.9, math.pi / 2, 2.2):
        c = halfspin.charge_conjugation_op(PhaseConvention(thetac=thetac))
        assert linalg.max_abs(c.squared() - np.eye(4)) < 1e-15


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
    family = b.family.copy()
    family[:, RHO_S] *= -1
    flipped = halfspin.dynamical_residuals(b._replace(family=family))["r3"][0]
    assert flipped == pytest.approx(expect, rel=1e-12)


def test_family_functions_read_the_basis_they_are_given(monkeypatch):
    b = halfspin.build_spinor_basis(FourMomentum(1.0, 1.0, 1.1, 0.4), PhaseConvention(0.3, 0.4))

    def rebuild(*args):
        raise AssertionError("a family function rebuilt its family")

    monkeypatch.setattr(halfspin, "build_spinor_basis", rebuild)
    monkeypatch.setattr(fieldops, "build_spinor_basis", rebuild)
    halfspin.dynamical_residuals(b)
    halfspin.connection_check(b)
    halfspin.xi_alias_residuals(b)
    halfspin.biorthonormality_gram(b)
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


def _gauge_image_relations(g, alpha):
    """The four first-order relations, (N, relation, helicity), of g with
    gauge_lambda(alpha) on its lambda members and gauge_rho(alpha) on its rho
    members."""
    lam = np.isin(np.arange(len(FAMILY)), halfspin.LAMBDAS)[:, None]
    gl, gr = halfspin.gauge_lambda(alpha), halfspin.gauge_rho(alpha)
    img = np.where(lam, linalg.apply(gl, g.family), linalg.apply(gr, g.family))
    return np.stack(list(halfspin.dynamical_residuals(g._replace(family=img)).values()), axis=1)


def test_gauge_maps_keep_the_first_order_relations(monkeypatch):
    # slash(p) anticommutes with gamma^5, so slash(p) gauge_lambda(a) =
    # gauge_rho(a) slash(p): each relation slash(p) x = m y holds again
    # only if its lambda and its rho member take the two different maps
    g = halfspin.build_spinor_grid(GRID)
    alphas = (0.4, 1.1, math.pi / 2, 2.7)
    for alpha in alphas:
        assert _gauge_image_relations(g, alpha).max() < 1e-14, alpha
    # with one map on both, relation k misses by m ||(gauge_rho - gauge_lambda) y||
    # = 2 m |sin a| ||y|| for its mass-side member y: rho^A, lambda^S, rho^S, lambda^A
    y = np.linalg.norm(g.family.reshape(-1, 4, 2, 4)[:, [3, 0, 1, 2]], axis=-1)
    monkeypatch.setattr(halfspin, "gauge_rho", halfspin.gauge_lambda)
    for alpha in alphas:
        want = 2 * g.mass[:, None, None] * abs(math.sin(alpha)) * y
        assert _gauge_image_relations(g, alpha) == pytest.approx(want, rel=1e-12)


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


def test_the_exchange_aliases_hold_off_the_meridian(monkeypatch):
    # every run row has Xi = +-1, so the check's aliases never see a generic
    # azimuth; here phi is 0.4, 2.0 and 4.0, at unit rest phases
    rows = [(1.0, 1.0, 1.1, 0.4), (1.0, 1.0, 1.1, 2.0), (1.0, 2.0, 0.7, 4.0)]
    g = halfspin.build_spinor_grid([FourMomentum(*row) for row in rows])
    aliases = np.array(list(halfspin.xi_alias_residuals(g).values()))
    assert aliases.shape == (4, 3, 2)  # alias, row, helicity
    assert aliases.max() < 4 * np.finfo(float).eps
    # one phase e^{i phi} on both helicities, the true factor on the meridian
    plant, _, _ = MUTANTS["one-phase-xi-factor"]
    plant(monkeypatch)
    aliases = np.array(list(halfspin.xi_alias_residuals(g).values()))
    assert aliases.min() > 0.1 and aliases.max() > 1.0


def test_w_group_table_is_quaternionic():
    table = halfspin.w_group_table()
    want = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (-1, 3), (1, 3): (1, 2),
        (2, 0): (1, 2), (2, 1): (1, 3), (2, 2): (-1, 0), (2, 3): (-1, 1),
        (3, 0): (1, 3), (3, 1): (-1, 2), (3, 2): (1, 1), (3, 3): (-1, 0),
    }
    assert table == want


def test_the_exchange_factor_commutes_with_every_w_part():
    # the exchange-quadruple check reads the maps' table off the W parts; on
    # its meridian grid diag(Xi, Xi) is +-1 and commutes with any matrix, so
    # the statement is tested here at phases off the meridian
    xi = halfspin.xi_factor(np.array([0.3, 1.1, 2.5, 4.0]))
    w = halfspin.W_PARTS[:, None]
    assert np.abs(w @ xi - xi @ w).max() < 1e-15
    assert np.allclose(halfspin.xi_factor(np.array([0.0, math.pi]))[:, 0, 0], [1, -1])
    # a W part that mixes helicities within a block does not commute
    assert np.abs(halfspin.GAMMAS[0] @ xi[0] - xi[0] @ halfspin.GAMMAS[0]).max() > 0.5


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


def test_discrete_ops_validation():
    with pytest.raises(ValueError):
        halfspin.discrete_ops([0.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        halfspin.discrete_ops([np.nan, 0.0, 1.0])


# ---------------------------------------------------------------------------
# the two laws halfspin/eigenstructure-split judges, proved with sympy on a
# symbolic family: polar angle T, azimuth F, rest phase PH = theta_h, rest
# scale N and the boost factors A of phi_L and B of phi_R, each a number on
# a helicity state

T, F, PH = sp.symbols("theta phi theta_h", real=True)
N, A, B = sp.symbols("N a b", positive=True)
_THETA = sp.Matrix([[0, -1], [1, 0]])
_SIGMA = [sp.Matrix([[0, 1], [1, 0]]), sp.Matrix([[0, -sp.I], [sp.I, 0]]), sp.diag(1, -1)]


def symbolic_members(h, theta, phi):
    """lambda^S, lambda^A, rho^S, rho^A of helicity h at direction
    (theta, phi), as the module docstring defines them."""
    c, s = sp.cos(theta / 2), sp.sin(theta / 2)
    em, ep = sp.exp(-sp.I * phi / 2), sp.exp(sp.I * phi / 2)
    chi = sp.Matrix([c * em, s * ep]) if h == UP else sp.Matrix([-s * em, c * ep])
    left, right = (x * N * sp.exp(sp.I * PH) * chi for x in (A, B))
    turned_l, turned_r = (sp.I * _THETA * x.conjugate() for x in (left, right))
    return {
        "lam_s": sp.Matrix.vstack(turned_l, left),
        "lam_a": sp.Matrix.vstack(-turned_l, left),
        "rho_s": sp.Matrix.vstack(right, -turned_r),
        "rho_a": sp.Matrix.vstack(right, turned_r),
    }


def vanishes(m) -> bool:
    return m.applyfunc(lambda e: sp.simplify(sp.expand(e.rewrite(sp.exp)))) == sp.zeros(*m.shape)


def test_the_symbolic_family_is_the_built_family():
    p = FourMomentum(1.3, 0.7, 1.1, 4.0)
    b = halfspin.build_spinor_basis(p, PhaseConvention(0.3, -1.1))
    # the boost on phi_L of helicity h is e^{-h w/2}, with e^w = (E + |p|)/m
    ew = (p.energy + p.pmag) / p.mass
    for h, phase in ((UP, 0.3), (DN, -1.1)):
        values = {T: p.theta, F: p.phi, PH: phase, N: math.sqrt(p.mass)}
        values |= {A: ew ** (-h / 2), B: ew ** (h / 2)}
        for name, psi in symbolic_members(h, T, F).items():
            got = np.array(psi.subs(values).evalf(), dtype=complex)[:, 0]
            want = member(b, f"{name}_{'up' if h == UP else 'dn'}")
            assert np.allclose(got, want, rtol=0, atol=1e-14), (h, name)


def test_helicity_sends_each_member_to_half_h_its_conjugate_partner():
    n = [sp.sin(T) * sp.cos(F), sp.sin(T) * sp.sin(F), sp.cos(T)]
    sn = sum((x * s for x, s in zip(n, _SIGMA)), sp.zeros(2))
    helicity = sp.diag(sn, sn) / 2
    partners = {"lam_s": "lam_a", "lam_a": "lam_s", "rho_s": "rho_a", "rho_a": "rho_s"}
    for h in (UP, DN):
        m = symbolic_members(h, T, F)
        for name, partner in partners.items():
            assert vanishes(helicity * m[name] - sp.Rational(h, 2) * m[partner]), (h, name)


def test_parity_turns_lambda_s_by_twice_its_rest_phase():
    gamma0 = sp.Matrix(4, 4, lambda i, j: int(abs(i - j) == 2))
    for h in (UP, DN):
        m = symbolic_members(h, T, F)
        want = sp.cos(2 * PH) * m["lam_a"] - sp.I * sp.sin(2 * PH) * m["lam_s"]
        # -p at polar angle pi - theta and azimuth phi + pi, less 2 pi once
        # phi >= pi; the boost factors depend on the helicity alone
        for wraps, sign in ((0, -h), (1, h)):
            got = gamma0 * symbolic_members(h, sp.pi - T, F + sp.pi - 2 * sp.pi * wraps)["lam_s"]
            # eps_h, derived: the ratio of one component is a constant
            eps = sp.simplify(got[0] / want[0])
            assert eps == sign, (h, wraps, eps)
            assert vanishes(got - eps * want), (h, wraps)
