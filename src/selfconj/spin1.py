"""Spin-1 six-spinors, the covariant matrix family, and the real frame.

The chiral-basis family is pinned by one property: contracted with p^mu p^nu
it must square the mass on the boosted six-spinors.  The Majorana frame is
the unitary change of basis that makes the whole family real; reality of
individual spinors and the impossibility of self-conjugate spin-1 spinors
both live here because they are statements about that frame.

Helicity labels are +1, 0, -1; component order everywhere is m = +1, 0, -1.
Rotations use the closed polynomial form ((J.n)^3 = J.n) and a boost acts on
a helicity state xi_h as the number e^{+-h w}, so nothing here needs a
matrix exponential.  Kinematic arguments are a FourMomentum or a
SpinorGrid; on a grid every result gains a leading row axis.  Each
six-spinor function builds the six-spinors from the kinematics it is given
with `weinberg_u`; a grid holds none.  `real_frame` alone takes six-spinors,
so a statement linear in them, such as v = gamma5_MR u, can be judged on
the six unit six-spinors, which span every momentum and phase.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .linalg import (
    EYE,
    AntilinearOp,
    apply,
    cmat,
    dagger,
    diagonal,
    frozen,
    max_abs,
    norm,
    realify,
    rowscale,
)
from .halfspin import THETA as THETA_HALF
from .halfspin import _boost_eigenvalues

ID3, ID6, Z3 = frozen(
    (np.eye(3, dtype=complex), np.eye(6, dtype=complex), np.zeros((3, 3), dtype=complex))
)

_RT2 = math.sqrt(2.0)
J1, J2, J3 = JVEC = frozen(np.array([
    cmat([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / _RT2,
    cmat([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / _RT2,
    cmat([[1, 0, 0], [0, 0, 0], [0, 0, -1]]),
]))

HELICITIES = (+1, 0, -1)

# the spin-1 analogue of Theta: Theta3 J Theta3^{-1} = -conj(J)
THETA3 = frozen(cmat([[0, 0, 1], [0, -1, 0], [1, 0, 0]]))


def jdot(nhat) -> np.ndarray:
    """J.n, one matrix per direction row."""
    # summed over the components in order, as n_x J1 + n_y J2 + n_z J3
    return (np.asarray(nhat, dtype=float)[..., None, None] * JVEC).sum(axis=-3)


_J2_SQUARED = frozen(J2 @ J2)


def spin1_rotation(theta, phi) -> np.ndarray:
    """R = Rz(phi) Ry(theta), closed form (J_y^3 = J_y).  Its columns are
    the helicity eigenvectors xi_h in HELICITIES order."""
    phi = np.asarray(phi)
    rz = diagonal(np.exp(-1j * phi), np.zeros(phi.shape) + 1.0, np.exp(1j * phi))
    ry = ID3 - rowscale(1j * np.sin(theta)) * J2 + rowscale(np.cos(theta) - 1.0) * _J2_SQUARED
    return rz @ ry


def weinberg_u(p) -> np.ndarray:
    """Chiral-basis six-spinors (phi_R, phi_L) for the helicities +1, 0, -1
    on axis -2: (3, 6), or (N, 3, 6) on a grid.  The boosts exp(+-J.n w)
    act on xi_h as numbers: phi_R = e^{h w} xi_h, phi_L = e^{-h w} xi_h."""
    k = _boost_eigenvalues(p.mass, p.pmag, p.energy)[..., None]
    xi = spin1_rotation(p.theta, p.phi).swapaxes(-1, -2)
    return np.concatenate([k * xi, k[..., ::-1, :] * xi], axis=-1)


# ---------------------------------------------------------------------------
# the covariant family

# K_ij = {J_i, J_j} - delta_ij, the space-space blocks of both family forms
_K = frozen(np.array([
    [JVEC[i] @ JVEC[j] + JVEC[j] @ JVEC[i] - (1.0 if i == j else 0.0) * ID3 for j in range(3)]
    for i in range(3)
]))

# index of the (mu, nu) pairs with mu <= nu, in row-major order
_UPPER = frozen(np.triu_indices(4))


def _chiral_gammas() -> np.ndarray:
    z = np.zeros((3, 3, 3, 3), dtype=complex)
    out = np.empty((4, 4, 6, 6), dtype=complex)
    out[0, 0] = np.block([[Z3, ID3], [ID3, Z3]])
    out[0, 1:] = out[1:, 0] = np.block([[z[0], JVEC], [-JVEC, z[0]]])
    out[1:, 1:] = np.block([[z, _K], [_K, z]])
    return out


# Symmetric family gamma_{mu nu} = CHIRAL_GAMMAS[mu, nu], (4, 4, 6, 6), in
# the chiral basis, pinned by gamma_{mu nu} p^mu p^nu u(p, h) = m^2 u(p, h).
CHIRAL_GAMMAS = frozen(_chiral_gammas())
GAMMA5_CHIRAL = frozen(np.block([[ID3, Z3], [Z3, -ID3]]))
# (entry, (mu, nu)): each entry of the 6x6 family against the 16 pairs
_GAMMAS_BY_ENTRY = frozen(np.ascontiguousarray(CHIRAL_GAMMAS.reshape(16, 36).T))


def on_shell_residual(p) -> np.ndarray:
    """|| (gamma_{mu nu} p^mu p^nu - m^2) u(p, h) || for h = +1, 0, -1."""
    p4 = np.concatenate([np.asarray(p.energy)[..., None], p.pvec], axis=-1)
    # one dot product per row and matrix entry over the 16 (mu, nu) terms:
    # the products p^mu p^nu are formed first and the dot may sum in any
    # order, so an entry can differ from the term-by-term sum by a few ulp
    pp = (p4[..., :, None] * p4[..., None, :]).reshape(p4.shape[:-1] + (16,))
    op = np.matvec(_GAMMAS_BY_ENTRY, pp).reshape(p4.shape[:-1] + (6, 6))
    u = weinberg_u(p)
    return norm(apply(op, u) - rowscale(p.mass * p.mass) * u)


# ---------------------------------------------------------------------------
# the real (Majorana) frame


def _frame_blocks(t: np.ndarray) -> np.ndarray:
    """[[a, b], [c, d]] with a = (1-i) + (1+i) t, b = -(1-i) + (1+i) t,
    c = (1+i) + (1-i) t, d = -(1+i) + (1-i) t; unnormalized, so that each
    frame applies its own scale."""
    one = np.eye(t.shape[0], dtype=complex)
    a = (1 - 1j) * one + (1 + 1j) * t
    b = -(1 - 1j) * one + (1 + 1j) * t
    c = (1 + 1j) * one + (1 - 1j) * t
    d = -(1 + 1j) * one + (1 - 1j) * t
    return np.block([[a, b], [c, d]])


# the displayed 6x6 block unitary built from Theta3
MAJORANA_U = frozen(_frame_blocks(THETA3) / (2 * _RT2))

# the companion displayed form, written out; equals MAJORANA_U.conj().T
DISPLAYED_U_DAGGER = frozen(
    np.block(
        [
            [(1 + 1j) * ID3 + (1 - 1j) * THETA3, (1 - 1j) * ID3 + (1 + 1j) * THETA3],
            [-(1 + 1j) * ID3 + (1 - 1j) * THETA3, -(1 - 1j) * ID3 + (1 + 1j) * THETA3],
        ]
    )
    / (2 * _RT2)
)

# (1/sqrt2) [[1, 1], [1, -1]]: rotates the chiral split to the
# parity-adapted one.  Real, symmetric, its own inverse.
PARITY_MIXER = frozen(np.block([[ID3, ID3], [ID3, -ID3]]) / _RT2)

# Frame W = U . S mapping the chiral family to the real one.  The displayed
# U alone lands the family in a swapped/sign-flipped layout (see
# plain_unitary_diagnostic); composing with the parity mixer S reproduces
# every displayed real-frame matrix exactly, and W M W^T = 1 for the
# gamma5-twisted conjugation matrix M, which is what makes the reality
# statements below frame-exact.
CHIRAL_TO_MAJORANA = frozen(MAJORANA_U @ PARITY_MIXER)


def to_majorana_rep(mat: np.ndarray) -> np.ndarray:
    w = CHIRAL_TO_MAJORANA
    return w @ np.asarray(mat, dtype=complex) @ dagger(w)


def _mr_forms() -> np.ndarray:
    t = THETA3
    out = np.empty((4, 4, 6, 6), dtype=complex)
    out[0, 0] = np.block([[Z3, t], [t, Z3]])
    out[0, 1] = np.block([[Z3, -J1 @ t], [-J1 @ t, Z3]])
    out[0, 2] = np.block([[1j * J2 @ t, Z3], [Z3, -1j * J2 @ t]])
    out[0, 3] = np.block([[Z3, -J3 @ t], [-J3 @ t, Z3]])
    out[1:, 0] = out[0, 1:]
    dif = 1j * (np.conjugate(_K) - _K)
    tot = np.conjugate(_K) + _K
    out[1:, 1:] = 0.5 * np.block([[dif @ t, tot @ t], [tot @ t, -dif @ t]])
    return out


# The displayed real-frame family, written out and indexed like
# CHIRAL_GAMMAS, and the (imaginary) chirality matrix.
MR_FORMS = frozen(_mr_forms())
MR_FIVE = frozen(np.block([[Z3, 1j * ID3], [-1j * ID3, Z3]]))


def majorana_family_report() -> dict:
    """Transforms the chiral family with W and compares to the displayed
    forms; also reports the imaginary parts of the ten (mu, nu) images (the
    chirality image is imaginary by design and excluded).  `family_gaps`
    and `family_imag_parts` hold one worst entry per image, (10,) for the
    pairs mu <= nu in row-major order (the family is symmetric);
    `family_residual` and `family_imag_part` are their maxima."""
    imgs = to_majorana_rep(CHIRAL_GAMMAS[_UPPER])
    gaps = max_abs(imgs - MR_FORMS[_UPPER], axis=(-2, -1))
    imag = max_abs(np.imag(imgs), axis=(-2, -1))
    five = to_majorana_rep(GAMMA5_CHIRAL)
    resid5 = max_abs(five - MR_FIVE)
    return {
        "family_residual": float(gaps.max()),
        "family_imag_part": float(imag.max()),
        "five_residual": resid5,
        "family_gaps": gaps,
        "family_imag_parts": imag,
    }


def plain_unitary_diagnostic() -> dict:
    """What the displayed U does on its own to the chiral family.

    The time-time and chirality images land on each other's displayed
    targets and the time-space images pick up a sign; reported so the
    convention choice behind CHIRAL_TO_MAJORANA is visible, not buried.
    """
    u, ud = MAJORANA_U, dagger(MAJORANA_U)
    img = u @ CHIRAL_GAMMAS @ ud
    five = u @ GAMMA5_CHIRAL @ ud
    return {
        "g00_lands_on_displayed_five": max_abs(img[0, 0] - MR_FIVE),
        "five_lands_on_displayed_g00": max_abs(five - MR_FORMS[0, 0]),
        "g0i_sign_flip": max_abs(img[0, 1:] + MR_FORMS[0, 1:]),
        "worst_imag_part": max_abs(np.imag(img)),
    }


# ---------------------------------------------------------------------------
# real-frame six-spinors


# u, v in the real frame together with their displayed split parts, six
# arrays.  u = u_re + i u_im and v = v_re + i v_im hold as algebraic
# identities for any momentum; the parts are genuinely real only for
# meridian-plane momenta (azimuth 0 or pi), which is where the transverse
# identities live.
MRSpinor = namedtuple("MRSpinor", "u v u_re u_im v_re v_im")


# (s, t) by part and half: u_re = (fl + tfr, fl + tfr), u_im = (-fl + tfr,
# fl - tfr), v_re = (-fl + tfr, -fl + tfr), v_im = (fl + tfr, -fl - tfr)
_MR_SIGNS = frozen(
    np.array([[[1, 1], [-1, 1], [-1, -1], [1, -1]], [[1, 1], [1, -1], [1, 1], [1, -1]]])[..., None]
)


def real_frame(six) -> MRSpinor:
    """The real-frame spinors of chiral six-spinors (phi_R, phi_L) given on
    the last axis; every part keeps `six`'s shape."""
    fl, tfr = six[..., None, None, 3:], apply(THETA3, six[..., :3])[..., None, None, :]
    # (..., h, part, half, component): the part u_re, u_im, v_re, v_im is
    # 0.5 (s fl + t Theta3 fr) on each half with the signs (s, t) of _MR_SIGNS
    parts = (0.5 * (_MR_SIGNS[0] * fl + _MR_SIGNS[1] * tfr)).reshape(six.shape[:-1] + (4, 6))
    uv = parts[..., ::2, :] + 1j * parts[..., 1::2, :]
    return MRSpinor(uv[..., 0, :], uv[..., 1, :], *(parts[..., k, :] for k in range(4)))


def mr_spinor(p) -> MRSpinor:
    """The real-frame spinors for h = +1, 0, -1 on axis -2."""
    return real_frame(weinberg_u(p))


def transverse_reality_report(p) -> dict:
    """The real/imaginary-part identities tying the transverse spinors.

    Zero on the meridian plane; off-plane the same quantities are finite
    and the report carries them unjudged.  Each entry has p's row shape.
    """
    s = mr_spinor(p)
    up, lg, dn = (0, 1, 2)
    return {
        "u_re_match": norm(s.u_re[..., up, :] - s.u_re[..., dn, :]),
        "u_im_flip": norm(s.u_im[..., up, :] + s.u_im[..., dn, :]),
        "long_u_re_vanishes": norm(s.u_re[..., lg, :]),
        "long_u_im_norm": norm(s.u_im[..., lg, :]),
        "long_u_pure_imag": max_abs(np.real(s.u[..., lg, :]), axis=-1),
        "long_v_pure_real": max_abs(np.imag(s.v[..., lg, :]), axis=-1),
    }


# ---------------------------------------------------------------------------
# conjugation structure


# [[0, Theta3], [-Theta3, 0]] K; squares to -1, so no spin-1 spinor is
# self conjugate under it
CONJUGATION = AntilinearOp(frozen(np.block([[Z3, THETA3], [-THETA3, Z3]])))

# gamma^5 . S^c; squares to +1 and has honest eigenspinors
TWISTED_CONJUGATION = AntilinearOp(frozen(GAMMA5_CHIRAL @ CONJUGATION.matrix))


_PM_ONE = frozen(np.array([1.0, -1.0])[:, None, None])  # the signs s = +1, -1
_PM_THETA3 = frozen(_PM_ONE * THETA3)  # +Theta3, -Theta3


def _twisted_pairs(fl) -> np.ndarray:
    """(s Theta3 conj(phi), phi) for each phi on the last axis of fl, with
    the signs s = +1, -1 on a new axis -3: eigenvectors of the twisted
    conjugation with eigenvalue s."""
    fl = fl[..., None, :, :]
    turned = np.matvec(_PM_THETA3[:, None], np.conjugate(fl))
    return np.concatenate([turned, fl.repeat(2, axis=-3)], axis=-1)


def lambda_like(p) -> np.ndarray:
    """Spin-1 analogue of the lambda construction: (s Theta3 conj(phi_L),
    phi_L) for the signs s = +1, -1 on axis -3 and h = +1, 0, -1 on axis
    -2.  Eigenvectors of the twisted conjugation with eigenvalue s."""
    return _twisted_pairs(weinberg_u(p)[..., 3:])


# e_k and i e_k: a basis of C^3 over the reals
_REAL_BASIS = frozen(np.concatenate([ID3, 1j * ID3]))


def selfconjugacy_analysis() -> dict:
    """Square signs, the two realification laws, the eigenspace dimensions
    and the nonexistence margin.

    The plain conjugation squares to -1: its realification R is orthogonal
    with R^2 = -1, so R^T = -R and (R -+ 1)^T (R -+ 1) = 2.  Every singular
    value of R -+ 1 is then sqrt(2), and no eigenvector exists;
    `conjugation_law` is max |(R -+ 1)^T (R -+ 1) - 2| for the signs (+, -)
    and `nonexistence_margin` the square root of the smaller mean diagonal.
    The twisted conjugation squares to +1: its realification T is an
    involution (`twisted_law` is max |T^2 - 1|), and the realification of
    any antilinear map has trace 0, so the two eigenspaces split
    (12 +- tr T)/2 = 6 + 6.  `eigenvector_gaps` holds ||C_tw v - s v|| for
    the twelve eigenvectors (s Theta3 conj(phi), phi), phi over e_k and
    i e_k, s = +1 first.
    """
    c = CONJUGATION
    tw = TWISTED_CONJUGATION
    shifted = realify(c) - _PM_ONE * EYE[12]
    gram = shifted.swapaxes(-1, -2) @ shifted
    t = realify(tw)
    v = _twisted_pairs(_REAL_BASIS)  # (sign, phi, component)
    plus = round((12 + t.trace()) / 2)
    return {
        "square_sign_plain": c.square_sign(),
        "square_sign_twisted": tw.square_sign(),
        "conjugation_law": max_abs(gram - 2 * EYE[12], axis=(-2, -1)),
        "twisted_law": max_abs(t @ t - EYE[12]),
        "nonexistence_margin": math.sqrt(gram.trace(axis1=-2, axis2=-1).min() / 12),
        "plus_dim": plus,
        "minus_dim": 12 - plus,
        "eigenvector_gaps": norm(tw(v) - _PM_ONE * v).ravel(),
    }


# ---------------------------------------------------------------------------
# reality of the spinors themselves


# 4x4 analogue of the real frame, same block pattern with the 2x2 Theta and
# a global exp(-i pi/4); satisfies V C V^T = 1 for the spin-1/2 conjugation
# matrix, turning S^c into plain complex conjugation
HALF_MAJORANA_FRAME = frozen(np.exp(-0.25j * math.pi) * _frame_blocks(THETA_HALF) / (2 * _RT2))


def reality_classes(vectors, frame: np.ndarray):
    """Transform the vectors (on the last axis) to the frame and classify
    each by whichever part dominates: (real, minority) over the leading
    axes, real True where the real part is at least the imaginary one and
    minority the magnitude of the smaller part."""
    w = apply(frame, np.asarray(vectors, dtype=complex))
    re, im = max_abs(np.real(w), axis=-1), max_abs(np.imag(w), axis=-1)
    return re >= im, np.minimum(re, im)
