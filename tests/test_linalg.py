"""Antilinear-operator plumbing and the small numeric helpers."""


import numpy as np
import pytest

from selfconj import fieldops, halfspin, linalg, spin1


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


def test_eigen_residual_is_scale_free():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    c, resid = linalg.eigen_residual(m, v)
    # scaled by a power of two, down to where <v, v> underflows and up to
    # where it overflows, the fit moves by exactly that power
    for k in (-540, -1000, 520):
        ck, rk = linalg.eigen_residual(m, np.ldexp(1.0, k) * v)
        assert np.array_equal(ck, c) and np.array_equal(rk, np.ldexp(resid, k))
    with pytest.raises(ValueError, match="zero vector"):
        linalg.eigen_residual(m, np.zeros((2, 4)))


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
    # a non-finite matrix is refused before any SVD runs
    with pytest.raises(ValueError, match="finite"):
        linalg.involution_eigenvectors(np.diag([np.nan, 1.0, -1.0, -1.0]), +1)


def _held_arrays(value):
    """Arrays a module-level value holds, through tuples and operators; a
    list or a dict of arrays would let a caller swap a member, so it is
    refused outright."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, linalg.AntilinearOp):
        yield value.matrix
    elif isinstance(value, (list, dict)):
        members = value.values() if isinstance(value, dict) else value
        assert not any(isinstance(v, np.ndarray) for v in members), "a mutable family"
    elif isinstance(value, tuple):
        for v in value:
            yield from _held_arrays(v)


def test_shared_matrices_are_read_only():
    with pytest.raises(ValueError):
        spin1.CHIRAL_GAMMAS[(0, 0)][0, 0] = 1
    with pytest.raises(ValueError):
        halfspin.GAMMA0 *= 2
    with pytest.raises(ValueError):
        fieldops.QUATERNION_UNITS[0][0, 0] = 0
    with pytest.raises(ValueError):
        spin1.MR_FORMS[0, 0] = np.eye(6)
    with pytest.raises(ValueError):
        spin1.MR_FIVE[0, 0] = 1
    assert np.array_equal(halfspin.GAMMA0[0], [0, 0, 1, 0])
    for module in (linalg, halfspin, spin1, fieldops):
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            for a in _held_arrays(value):
                assert not a.flags.writeable, f"{module.__name__}.{name}"


def test_frozen_keeps_values_and_refuses_other_types():
    a = np.arange(3.0)
    fam = linalg.frozen((a, (np.eye(2), np.zeros(2))))
    assert fam[0] is a and not a.flags.writeable
    assert not fam[1][1].flags.writeable
    # a family keyed by index pairs is an array, never a mapping
    for other in ([np.eye(2)], {"a": np.eye(2)}):
        with pytest.raises(TypeError):
            linalg.frozen(other)
