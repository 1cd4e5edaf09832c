"""Spin-1 family: rotations, boosts, the real frame, reality classes.

Rest-frame oracle for the real-frame spinor at z, h = +1: the boost is the
identity, the helicity vector is e1, Theta3 e1 = e3, so
u = (u_re + i u_im) = (1/2) (1-i, 0, 1+i, 1+i, 0, 1-i).
"""

import math
import random

import numpy as np
import pytest

from selfconj import checks, halfspin, linalg, spin1
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
        # column k of the rotation is xi_h for h = HELICITIES[k]
        for k, h in enumerate(spin1.HELICITIES):
            xi = r[:, k]
            assert np.allclose(jn @ xi, h * xi, atol=1e-13)


def _spin1_boosts(p):
    """The boost matrices (right, left) = exp(+-J.n w), cosh w = E/m, sinh w =
    |p|/m, in closed form; the six-spinors use their action on xi_h as
    numbers."""
    jn = spin1.jdot(p.nhat)
    sh, ch = p.pmag / p.mass, p.energy / p.mass
    return (np.eye(3) + s * sh * jn + (ch - 1.0) * jn @ jn for s in (1, -1))


def test_boosts_invert_each_other():
    for p in GRID:
        br, bl = _spin1_boosts(p)
        assert np.allclose(br @ bl, np.eye(3), atol=1e-12)
        xi = spin1.spin1_rotation(p.theta, p.phi)
        assert np.allclose(spin1.weinberg_u(p), np.concatenate([br @ xi, bl @ xi]).T, atol=1e-12)
    # rapidity eigenvalue on the aligned helicity state: e^w = (E + |p|)/m
    br, _ = _spin1_boosts(FourMomentum(1.0, 1.0))
    e1 = np.array([1.0, 0, 0])
    assert np.allclose(br @ e1, (math.sqrt(2.0) + 1.0) * e1)
    assert np.allclose(spin1.weinberg_u(FourMomentum(1.0, 1.0))[0, :3], (math.sqrt(2.0) + 1.0) * e1)
    with pytest.raises(ValueError, match="finite boosts need m > 0"):
        spin1.weinberg_u(FourMomentum(0.0, 1.0))


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
        assert rep["long_u_im_norm"] > 0.5


def test_transverse_reality_fails_off_meridian():
    rep = spin1.transverse_reality_report(GRID[4])
    assert rep["u_re_match"] > 0.1


def test_a_wrong_real_frame_split_fails_the_split_checks(monkeypatch):
    # (s or t, part, half): u_re's first half drops fl, u_im's second half
    # flips sign, so u = u_re + i u_im is no longer the frame image of u
    signs = spin1._MR_SIGNS.copy()
    signs[0, 0, 0] = 0
    signs[:, 1, 1] *= -1
    cfg = checks.SuiteConfig(suites=("spin1",))
    ids = ("spin1/transverse-reality", "spin1/chirality-flip")
    before = {r.check_id: r.status for r in checks.run_checks(cfg)}
    assert [before[i] for i in ids] == ["pass", "pass"]
    monkeypatch.setattr(spin1, "_MR_SIGNS", linalg.frozen(signs))
    after = {r.check_id: r.status for r in checks.run_checks(cfg)}
    assert [after[i] for i in ids] == ["fail", "fail"]


def test_the_real_frame_flips_chirality_on_any_six_spinor():
    # v = gamma5_MR u holds by the split's signs alone: exactly, for seeded
    # random complex six-spinors of magnitude 1e-150 to 1e150
    rng = np.random.default_rng(20261020)
    scale = 10.0 ** rng.uniform(-150.0, 150.0, (1000, 1))
    six = scale * (rng.standard_normal((1000, 6)) + 1j * rng.standard_normal((1000, 6)))
    s = spin1.real_frame(six)
    assert np.all(linalg.norm(s.v - linalg.apply(spin1.MR_FIVE, s.u)) == 0.0)
    # and the split of the boosted six-spinors is mr_spinor, bit for bit
    for p in (halfspin.build_spinor_grid(GRID), GRID[4]):
        got, want = spin1.real_frame(spin1.weinberg_u(p)), spin1.mr_spinor(p)
        assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in want]


def test_conjugation_squares():
    assert spin1.CONJUGATION.square_sign() == -1
    assert spin1.TWISTED_CONJUGATION.square_sign() == +1


def test_lambda_like_eigenvectors():
    tw = spin1.TWISTED_CONJUGATION
    for p in GRID:
        # (sign +1 then -1, helicity, component)
        lam = spin1.lambda_like(p)
        assert lam.shape == (2, 3, 6)
        for sign, per_sign in zip((+1, -1), lam):
            for v in per_sign:
                assert np.linalg.norm(tw(v) - sign * v) < 1e-12


def test_lambda_like_equals_one_sign_at_a_time():
    # one sign per call, as (sign Theta3 conj(phi_L), phi_L): the same bits
    g = halfspin.build_spinor_grid(GRID)
    fl = spin1.weinberg_u(g)[..., 3:]
    want = [
        np.concatenate([linalg.apply(sign * spin1.THETA3, np.conjugate(fl)), fl], axis=-1)
        for sign in (+1, -1)
    ]
    got = spin1.lambda_like(g)
    assert got.shape == (len(GRID), 2, 3, 6)
    assert np.array_equal(got, np.stack(want, axis=1))


def test_selfconjugacy_dichotomy():
    rep = spin1.selfconjugacy_analysis()
    assert rep["square_sign_plain"] == -1
    assert rep["square_sign_twisted"] == +1
    assert rep["nonexistence_margin"] == math.sqrt(2.0)
    assert rep["plus_dim"] == 6 and rep["minus_dim"] == 6
    # both laws hold exactly on the 0, +-1 entries
    assert rep["conjugation_law"].tolist() == [0.0, 0.0] and rep["twisted_law"] == 0.0
    # one gap per eigenvector
    assert rep["eigenvector_gaps"].shape == (12,)
    assert max(rep["eigenvector_gaps"]) == 0.0
    # an SVD, as the oracle the laws replace: every singular value of
    # R -+ 1 is sqrt(2), and T has six eigenvalues +1 and six -1
    r = linalg.realify(spin1.CONJUGATION)
    for s in (+1, -1):
        values = np.linalg.svd(r - s * np.eye(12), compute_uv=False)
        assert values == pytest.approx(np.full(12, math.sqrt(2.0)), abs=1e-14)
    spectrum = np.linalg.eigvalsh(linalg.realify(spin1.TWISTED_CONJUGATION))
    assert spectrum == pytest.approx(np.repeat([-1.0, 1.0], 6), abs=1e-14)


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
    # the self members (lambda^S, rho^S) are real, the anti-self ones imaginary
    real, minority = spin1.reality_classes(b.family, v)
    assert real.shape == minority.shape == (1, 8)
    assert real[0].tolist() == [True] * 4 + [False] * 4
    assert np.all(minority < 1e-12)
    w = spin1.CHIRAL_TO_MAJORANA
    # (sign, helicity): sign +1 is real, -1 imaginary
    vectors = spin1.lambda_like(p)
    real, minority = spin1.reality_classes(vectors, w)
    assert real.tolist() == [[True] * 3, [False] * 3]
    assert np.all(minority < 1e-12)


def test_a_warm_process_recomputes_the_fixed_matrix_checks(monkeypatch):
    # no check result outlives its run: a patched constant shows in the
    # next run of the same process, and undoing the patch undoes the FAILs
    cfg = checks.SuiteConfig(suites=("spin1",))
    first = {r.check_id: r.status for r in checks.run_checks(cfg)}
    assert "fail" not in first.values()
    monkeypatch.setattr(spin1, "MR_FIVE", linalg.frozen(-spin1.MR_FIVE))
    patched = {r.check_id: r.status for r in checks.run_checks(cfg)}
    assert patched["spin1/majorana-real-family"] == "fail"
    assert patched["spin1/chirality-flip"] == "fail"
    monkeypatch.undo()
    assert {r.check_id: r.status for r in checks.run_checks(cfg)} == first


# a mass whose float ** 2 differs in the last bit from its product by itself
SQUARE_EDGE = FourMomentum(
    0.8906129060356731, 0.0015361191321824872, 1.628096972426099, 2.059716836126121
)


def _arrays(result) -> list:
    """The arrays of a result: an array, a dict's values or a tuple's items."""
    if isinstance(result, dict):
        result = tuple(result.values())
    return [np.asarray(a) for a in (result if isinstance(result, tuple) else [result])]


def test_a_record_gives_the_bits_of_its_grid_row():
    rng = random.Random(20261019)
    momenta = [SQUARE_EDGE, FourMomentum(1.0, 0.0)] + [
        FourMomentum(
            0.25 + 3.75 * rng.random(),
            3.0 * rng.random(),
            math.pi * rng.random(),
            2 * math.pi * rng.random(),
        )
        for _ in range(200)
    ]
    g = halfspin.build_spinor_grid(momenta)
    functions = (
        spin1.weinberg_u,
        spin1.mr_spinor,
        spin1.on_shell_residual,
        spin1.lambda_like,
        spin1.transverse_reality_report,
    )
    for f in functions:
        rows = _arrays(f(g))
        for i in range(len(momenta)):
            p = g.momentum(i)
            got = [(a.shape, a.dtype, a.tobytes()) for a in _arrays(f(p))]
            want = [(a[i].shape, a.dtype, a[i].tobytes()) for a in rows]
            assert got == want, (f.__name__, p)
