"""Antilinear-operator plumbing and the small numeric helpers."""

import numpy as np
import pytest

from selfconj import linalg


def test_approx_eq_basics():
    a = np.array([1.0, 2.0])
    ok, resid = linalg.approx_eq(a, a + 1e-14)
    assert ok and resid < 1e-13
    ok, resid = linalg.approx_eq(a, a + 1.0)
    assert not ok and resid == pytest.approx(1.0)


def test_approx_eq_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        linalg.approx_eq(np.zeros(2), np.zeros(3))


def test_unit_phase_align_recovers_phase():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c, resid = linalg.unit_phase_align(v, np.exp(0.7j) * v)
    assert abs(c - np.exp(0.7j)) < 1e-12
    assert resid < 1e-12


def test_eigen_residual_is_least_squares():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c, resid = linalg.eigen_residual(m, v)
    # any perturbation of the recovered coefficient does worse
    for dc in (0.1, -0.1, 0.1j):
        assert np.linalg.norm(m @ v - (c + dc) * v) >= resid


def test_antilinear_application_and_square():
    theta = linalg.cmat([[0, -1], [1, 0]])
    j = linalg.AntilinearOp(theta, conjugates=True)
    v = np.array([1 + 2j, 3 - 1j])
    assert np.allclose(j(v), theta @ np.conjugate(v))
    sq = j.squared()
    assert not sq.conjugates
    assert np.allclose(sq.matrix, -np.eye(2))
    assert j.square_sign() == -1


def test_compose_tracks_conjugation_flags():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    anti = linalg.AntilinearOp(a, conjugates=True)
    lin = linalg.AntilinearOp(b, conjugates=False)
    # anti after lin conjugates once; anti after anti is linear
    assert np.allclose(anti.compose(lin)(v), anti(lin(v)))
    assert np.allclose(anti.compose(anti)(v), anti(anti(v)))
    assert anti.compose(lin).conjugates
    assert not anti.compose(anti).conjugates


def test_square_sign_rejects_non_scalar_square():
    m = linalg.cmat([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        linalg.AntilinearOp(m, conjugates=True).square_sign()


def test_realify_roundtrip_and_action():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    op = linalg.AntilinearOp(m, conjugates=True)
    r = linalg.realify(op)
    w = np.concatenate([np.real(v), np.imag(v)])
    back = r @ w
    assert np.allclose(back[:3] + 1j * back[3:], op(v))
    lin = linalg.AntilinearOp(m, conjugates=False)
    back = linalg.realify(lin) @ w
    assert np.allclose(back[:3] + 1j * back[3:], lin(v))


def test_involution_eigenvectors_split_and_determinism():
    t = np.diag([1.0, 1.0, -1.0, -1.0])
    plus = linalg.involution_eigenvectors(t, +1)
    minus = linalg.involution_eigenvectors(t, -1)
    assert plus.shape[1] == 2 and minus.shape[1] == 2
    assert np.allclose(t @ plus, plus)
    assert np.allclose(t @ minus, -minus)
    again = linalg.involution_eigenvectors(t, +1)
    assert np.array_equal(plus, again)
