"""Spin-1 family: rotations, boosts, the real frame, reality classes.

Rest-frame oracle for the real-frame spinor at z, h = +1: the boost is the
identity, the helicity vector is e1, Theta3 e1 = e3, so
u = (u_re + i u_im) = (1/2) (1-i, 0, 1+i, 1+i, 0, 1-i).
"""

import math

import numpy as np
import pytest

from selfconj import halfspin, spin1
from selfconj.halfspin import FourMomentum

GRID = [
    FourMomentum(1.0, 1.0, 0.0, 0.0),
    FourMomentum(1.0, 1.0, math.pi / 2, 0.0),
    FourMomentum(0.5, 2.0, 1.1, 0.0),
    FourMomentum(1.0, 0.4, 2.2, math.pi),
    FourMomentum(2.0, 0.7, math.pi / 3, math.pi / 5),  # off the meridian plane
]


def test_wigner_theta_matrix():
    want = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=complex)
    assert np.array_equal(spin1.THETA3, want)
    assert np.allclose(spin1.THETA3 @ spin1.THETA3, np.eye(3))
    for j in spin1.JVEC:
        assert np.allclose(spin1.THETA3 @ j @ spin1.THETA3, -np.conjugate(j))


def test_rotation_and_helicity_eigenvectors():
    assert np.allclose(spin1.spin1_rotation(0.0, 0.0), np.eye(3))
    for th, ph in ((0.7, 1.9), (2.5, 4.4)):
        r = spin1.spin1_rotation(th, ph)
        assert np.allclose(r @ np.conjugate(r.T), np.eye(3), atol=1e-14)
        nhat = FourMomentum(1.0, 1.0, th, ph).nhat
        jn = nhat[0] * spin1.J1 + nhat[1] * spin1.J2 + nhat[2] * spin1.J3
        for h in spin1.HELICITIES:
            xi = spin1.helicity_eigenvector(th, ph, h)
            assert np.allclose(jn @ xi, h * xi, atol=1e-13)
    with pytest.raises(ValueError):
        spin1.helicity_eigenvector(0.0, 0.0, 2)


def test_boosts_invert_each_other():
    for p in GRID:
        br, bl = spin1.spin1_boosts(p)
        assert np.allclose(br @ bl, np.eye(3), atol=1e-12)
    # rapidity eigenvalue on the aligned helicity state: e^w = (E + |p|)/m
    br, _ = spin1.spin1_boosts(FourMomentum(1.0, 1.0))
    e1 = np.array([1.0, 0, 0])
    assert np.allclose(br @ e1, (math.sqrt(2.0) + 1.0) * e1)
    with pytest.raises(ValueError):
        spin1.spin1_boosts(FourMomentum(0.0, 1.0))


def test_covariant_family_layout():
    gam = spin1.CHIRAL_GAMMAS
    z3, i3 = spin1.Z3, np.eye(3)
    assert np.array_equal(gam[(0, 0)], np.block([[z3, i3], [i3, z3]]))
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 1)):
        assert np.array_equal(gam[(i, j)], gam[(j, i)])
    k12 = spin1.J1 @ spin1.J2 + spin1.J2 @ spin1.J1
    assert np.allclose(gam[(1, 2)], np.block([[z3, k12], [k12, z3]]))
    assert np.allclose(
        gam[(0, 1)], np.block([[z3, spin1.J1], [-spin1.J1, z3]])
    )


def test_on_shell_contraction():
    for p in GRID:
        assert np.all(spin1.on_shell_residual(p) < 1e-12)


def test_unitary_and_displayed_dagger():
    u = spin1.MAJORANA_U
    assert np.allclose(u @ np.conjugate(u.T), np.eye(6), atol=1e-15)
    assert np.allclose(
        spin1.DISPLAYED_U_DAGGER, np.conjugate(u.T), atol=1e-15
    )


def test_family_lands_on_displayed_forms():
    rep = spin1.majorana_family_report()
    for key in ("family_residual", "family_imag_part", "five_residual"):
        assert rep[key] <= 1e-12
    assert rep["unitarity"] < 1e-15
    assert rep["family_residual"] < 1e-14
    assert rep["family_imag_part"] < 1e-14
    assert rep["five_residual"] < 1e-15
    five = spin1.MR_FIVE
    assert np.array_equal(
        five, np.block([[spin1.Z3, 1j * np.eye(3)], [-1j * np.eye(3), spin1.Z3]])
    )


def test_bare_unitary_diagnostic():
    d = spin1.plain_unitary_diagnostic()
    # U alone swaps the time-time and chirality targets and flips g0i
    assert d["g00_lands_on_displayed_five"] < 1e-14
    assert d["five_lands_on_displayed_g00"] < 1e-14
    assert d["g0i_sign_flip"] < 1e-14
    # and leaves the space-space images complex; composing with the parity
    # mixer is what makes the family real
    assert d["worst_imag_part"] > 0.5


def test_mr_spinor_rest_oracle():
    s = spin1.mr_spinor(FourMomentum(1.0, 0.0))
    s = spin1.MRSpinor(s.u[0], s.v[0], s.u_re[0], s.u_im[0], s.v_re[0], s.v_im[0])  # h = +1
    want_u = 0.5 * np.array([1 - 1j, 0, 1 + 1j, 1 + 1j, 0, 1 - 1j])
    want_v = 0.5 * np.array([-1 + 1j, 0, 1 + 1j, -1 - 1j, 0, 1 - 1j])
    assert np.allclose(s.u, want_u, atol=1e-15)
    assert np.allclose(s.v, want_v, atol=1e-15)
    assert np.allclose(s.u_re + 1j * s.u_im, s.u)
    assert np.allclose(s.v_re + 1j * s.v_im, s.v)


def test_mr_spinor_is_frame_image():
    w = spin1.CHIRAL_TO_MAJORANA
    for p in GRID:
        s = spin1.mr_spinor(p)
        for k, u in enumerate(spin1.weinberg_u(p)):
            assert np.linalg.norm(s.u[k] - w @ u) < 1e-13
            v = spin1.GAMMA5_CHIRAL @ u
            assert np.linalg.norm(s.v[k] - w @ v) < 1e-13


def test_transverse_reality_on_meridian():
    for p in GRID[:4]:
        rep = spin1.transverse_reality_report(p)
        assert rep["u_re_match"] < 1e-12
        assert rep["u_im_flip"] < 1e-12
        assert rep["long_u_re_vanishes"] < 1e-12
        assert rep["long_u_pure_imag"] < 1e-12
        assert rep["long_v_pure_real"] < 1e-12
        assert rep["split_exact"] < 1e-14
        assert rep["long_u_im_norm"] > 0.5


def test_transverse_reality_fails_off_meridian():
    rep = spin1.transverse_reality_report(GRID[4])
    assert rep["u_re_match"] > 0.1
    assert rep["split_exact"] < 1e-14  # the split itself is an identity


def test_chirality_flip_everywhere():
    for p in GRID:
        assert np.all(spin1.chirality_flip_residual(p) < 1e-13)


def test_conjugation_squares():
    assert spin1.CONJUGATION.square_sign() == -1
    assert spin1.TWISTED_CONJUGATION.square_sign() == +1


def test_lambda_like_eigenvectors():
    tw = spin1.TWISTED_CONJUGATION
    for p in GRID:
        for sign in (+1, -1):
            for lam in spin1.lambda_like(p, sign):
                assert np.linalg.norm(tw(lam) - sign * lam) < 1e-12
    with pytest.raises(ValueError):
        spin1.lambda_like(GRID[0], 2)


def test_selfconjugacy_dichotomy():
    rep = spin1.selfconjugacy_analysis()
    assert rep["square_sign_plain"] == -1
    assert rep["square_sign_twisted"] == +1
    assert rep["nonexistence_margin"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert rep["plus_dim"] == 6 and rep["minus_dim"] == 6
    assert rep["eigenvector_residual"] < 1e-12
    # one gap per eigenvector, reduced to the residual above
    assert rep["eigenvector_gaps"].shape == (12,)
    assert rep["eigenvector_residual"] == np.max(rep["eigenvector_gaps"])


def test_frames_trivialize_the_conjugations():
    w = spin1.CHIRAL_TO_MAJORANA
    m_tw = spin1.TWISTED_CONJUGATION.matrix
    assert np.allclose(w @ m_tw @ w.T, np.eye(6), atol=1e-14)
    v = spin1.HALF_MAJORANA_FRAME
    c_half = halfspin.charge_conjugation_op().matrix
    assert np.allclose(v @ c_half @ v.T, np.eye(4), atol=1e-14)
    assert np.allclose(v @ np.conjugate(v.T), np.eye(4), atol=1e-14)


def test_reality_classes_both_spins():
    p = FourMomentum(1.0, 1.5, 1.1, 0.7)
    v = spin1.HALF_MAJORANA_FRAME
    b = halfspin.build_spinor_basis(p)
    classes = spin1.reality_classes(dict(zip(halfspin.FAMILY, b.family[0])), v)
    for name, (cls, minority) in classes.items():
        assert cls == ("real" if "_s_" in name else "imaginary"), name
        assert minority < 1e-12
    w = spin1.CHIRAL_TO_MAJORANA
    classes1 = spin1.reality_classes(
        {
            f"{sign:+d}_{h}": spin1.lambda_like(p, sign)[k]
            for sign in (+1, -1)
            for k, h in enumerate(spin1.HELICITIES)
        },
        w,
    )
    for name, (cls, minority) in classes1.items():
        assert cls == ("real" if name.startswith("+") else "imaginary"), name
        assert minority < 1e-12
