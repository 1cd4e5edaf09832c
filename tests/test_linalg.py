"""Antilinear-operator plumbing and the small numeric helpers."""


import numpy as np
import pytest

from selfconj import checks, fieldops, halfspin, linalg, spin1


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
    assert np.allclose(resid, np.linalg.norm(v @ m.T - c[:, None] * v, axis=-1))
    # scaled by a power of two, down to where <v, v> underflows and up to
    # where it overflows, the fit moves by exactly that power
    for k in (-540, -1000, 520):
        ck, rk = linalg.eigen_residual(m, np.ldexp(1.0, k) * v)
        assert np.array_equal(ck, c) and np.array_equal(rk, np.ldexp(resid, k))
    with pytest.raises(ValueError, match="zero vector"):
        linalg.eigen_residual(m, np.zeros((2, 4)))


def test_a_nonfinite_row_fits_to_nan_without_warnings():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    c, resid = linalg.eigen_residual(m, v)
    v[1, 2], v[2, 0] = np.nan, np.inf
    cn, rn = linalg.eigen_residual(m, v)
    assert np.isnan(cn[1:]).all() and np.isnan(rn[1:]).all()
    assert np.array_equal(cn[0], c[0]) and np.array_equal(rn[0], resid[0])


def test_a_strided_view_fits_to_the_bits_of_its_copy():
    g = halfspin.build_spinor_grid(checks.SuiteConfig().momenta())
    family = g.family.copy()
    family[1, 0, 2] = np.nan
    # one helicity matrix per row; every other member, and the components
    # in reverse order; a NaN row fits to NaN without a warning, as in a
    # contiguous array
    helicity = halfspin.discrete_ops(g.nhat).helicity
    for v in (family[:, ::2], family[..., ::-1]):
        assert not v.flags.c_contiguous
        c, resid = linalg.eigen_residual(helicity, v)
        cc, rc = linalg.eigen_residual(helicity, v.copy())
        assert np.array_equal(c, cc, equal_nan=True) and np.array_equal(resid, rc, equal_nan=True)
        assert np.isnan(resid[1, 0]) and np.isfinite(resid[0]).all()


def test_antilinear_application_and_square():
    theta = linalg.cmat([[0, -1], [1, 0]])
    j = linalg.AntilinearOp(theta)
    assert j._fields == ("matrix",)
    v = np.array([1 + 2j, 3 - 1j])
    assert np.allclose(j(v), theta @ np.conjugate(v))
    sq = j.squared()
    assert type(sq) is np.ndarray
    assert np.allclose(sq, -np.eye(2))
    assert j.square_sign() == -1


def test_the_square_is_the_linear_map_of_the_op_applied_twice():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    anti = linalg.AntilinearOp(a)
    assert np.allclose(anti.squared() @ v, anti(anti(v)))
    # linear: a complex factor passes through the square unconjugated
    assert np.allclose(anti(anti(1j * v)), 1j * anti(anti(v)))


def test_square_sign_rejects_non_scalar_square():
    m = linalg.cmat([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        linalg.AntilinearOp(m).square_sign()


def test_realify_roundtrip_and_action():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    op = linalg.AntilinearOp(m)
    r = linalg.realify(op)
    w = np.concatenate([np.real(v), np.imag(v)])
    back = r @ w
    assert np.allclose(back[:3] + 1j * back[3:], op(v))


def test_the_two_eigenspaces_are_orthonormal_and_complete():
    # the twelve closed-form eigenvectors of the twisted conjugation, as
    # (Re; Im) columns: eigenvectors of its realification t with the signs
    # +1 (first six) and -1, orthogonal with norm sqrt(2), so they span R^12
    t = linalg.realify(spin1.TWISTED_CONJUGATION)
    v = spin1._twisted_pairs(spin1._REAL_BASIS).reshape(12, 6)
    w = np.concatenate([v.real, v.imag], axis=1).T
    signs = np.repeat([1.0, -1.0], 6)
    assert linalg.max_abs(t @ w - signs * w) == 0.0
    assert linalg.max_abs(w.T @ w - 2 * np.eye(12)) == 0.0


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
