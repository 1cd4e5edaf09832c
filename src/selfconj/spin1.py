"""Spin-1 six-spinors, the covariant matrix family, and the real frame.

The chiral-basis family is pinned by one property: contracted with p^mu p^nu
it must square the mass on the boosted six-spinors.  The Majorana frame is
the unitary change of basis that makes the whole family real; reality of
individual spinors and the impossibility of self-conjugate spin-1 spinors
both live here because they are statements about that frame.

Helicity labels are +1, 0, -1; component order everywhere is m = +1, 0, -1.
All rotations and boosts use the closed polynomial forms ((J.n)^3 = J.n), so
nothing here needs a matrix exponential.  Kinematic arguments are a
FourMomentum or a SpinorGrid; on a grid every result gains a leading row
axis, and the six-spinors come from the grid, built once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import (
    EYE,
    AntilinearOp,
    apply,
    cmat,
    dagger,
    diagonal,
    frozen,
    involution_eigenvectors,
    max_abs,
    norm,
    realify,
    rowscale,
)
from .halfspin import THETA as THETA_HALF
from .halfspin import SpinorGrid

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
    nhat = np.asarray(nhat, dtype=float)
    return rowscale(nhat[..., 0]) * J1 + rowscale(nhat[..., 1]) * J2 + rowscale(nhat[..., 2]) * J3


def spin1_rotation(theta, phi) -> np.ndarray:
    """R = Rz(phi) Ry(theta), closed form (J_y^3 = J_y).  Its columns are
    the helicity eigenvectors xi_h in HELICITIES order."""
    phi = np.asarray(phi)
    rz = diagonal(np.exp(-1j * phi), np.ones(phi.shape), np.exp(1j * phi))
    ry = ID3 - rowscale(1j * np.sin(theta)) * J2 + rowscale(np.cos(theta) - 1.0) * (J2 @ J2)
    return rz @ ry


def helicity_eigenvector(theta, phi, h: int) -> np.ndarray:
    """xi_h with (J.n) xi_h = h xi_h for the direction (theta, phi)."""
    if h not in HELICITIES:
        raise ValueError("spin-1 helicity must be +1, 0 or -1")
    return spin1_rotation(theta, phi)[..., HELICITIES.index(h)]


def spin1_boosts(p) -> tuple[np.ndarray, np.ndarray]:
    """(right, left) boosts exp(+-J.n w), cosh w = E/m, sinh w = |p|/m."""
    if not (np.asarray(p.mass) > 0).all():
        raise ValueError("finite boosts need m > 0")
    ch = rowscale(p.energy / p.mass)
    sh = rowscale(p.pmag / p.mass)
    jn = jdot(p.nhat)
    jn2 = jn @ jn
    br = ID3 + sh * jn + (ch - 1.0) * jn2
    bl = ID3 - sh * jn + (ch - 1.0) * jn2
    return br, bl


def weinberg_u(p) -> np.ndarray:
    """Chiral-basis six-spinors (phi_R, phi_L), phi_X = boost_X xi_h, for
    the helicities +1, 0, -1 on axis -2: (3, 6), or (N, 3, 6) on a grid."""
    br, bl = spin1_boosts(p)
    xi = spin1_rotation(p.theta, p.phi).swapaxes(-1, -2)
    return np.concatenate([apply(br, xi), apply(bl, xi)], axis=-1)


def _six(p) -> np.ndarray:
    return p.six if isinstance(p, SpinorGrid) else weinberg_u(p)


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


def on_shell_residual(p) -> np.ndarray:
    """|| (gamma_{mu nu} p^mu p^nu - m^2) u(p, h) || for h = +1, 0, -1."""
    p4 = np.concatenate([np.asarray(p.energy)[..., None], p.pvec], axis=-1)
    op = sum(
        CHIRAL_GAMMAS[(mu, nu)] * rowscale(p4[..., mu]) * rowscale(p4[..., nu])
        for mu in range(4)
        for nu in range(4)
    )
    u = _six(p)
    return norm(apply(op, u) - rowscale(p.mass**2) * u)


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
    u = MAJORANA_U
    return {
        "unitarity": max_abs(u @ dagger(u) - ID6),
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


class MRSpinor(NamedTuple):
    """u, v in the real frame together with their displayed split parts.

    u = u_re + i u_im and v = v_re + i v_im hold as algebraic identities for
    any momentum; the parts are genuinely real only for meridian-plane
    momenta (azimuth 0 or pi), which is where the transverse identities
    live.
    """

    u: np.ndarray
    v: np.ndarray
    u_re: np.ndarray
    u_im: np.ndarray
    v_re: np.ndarray
    v_im: np.ndarray


def mr_spinor(p) -> MRSpinor:
    """The real-frame spinors for h = +1, 0, -1 on axis -2."""
    six = _six(p)
    fr, fl = six[..., :3], six[..., 3:]
    tfr = apply(THETA3, fr)
    u_re = 0.5 * np.concatenate([fl + tfr, fl + tfr], axis=-1)
    u_im = 0.5 * np.concatenate([-fl + tfr, fl - tfr], axis=-1)
    v_re = 0.5 * np.concatenate([-fl + tfr, -fl + tfr], axis=-1)
    v_im = 0.5 * np.concatenate([fl + tfr, -fl - tfr], axis=-1)
    return MRSpinor(
        u=u_re + 1j * u_im,
        v=v_re + 1j * v_im,
        u_re=u_re,
        u_im=u_im,
        v_re=v_re,
        v_im=v_im,
    )


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
        "split_exact": max_abs(s.u - (s.u_re + 1j * s.u_im), axis=(-2, -1)),
    }


def chirality_flip_residual(p) -> np.ndarray:
    """|| v - gamma5_MR u || for h = +1, 0, -1 (holds for every momentum
    and phase)."""
    s = mr_spinor(p)
    return norm(s.v - apply(MR_FIVE, s.u))


# ---------------------------------------------------------------------------
# conjugation structure


# [[0, Theta3], [-Theta3, 0]] K; squares to -1, so no spin-1 spinor is
# self conjugate under it
CONJUGATION = AntilinearOp(frozen(np.block([[Z3, THETA3], [-THETA3, Z3]])), conjugates=True)

# gamma^5 . S^c; squares to +1 and has honest eigenspinors
TWISTED_CONJUGATION = AntilinearOp(frozen(GAMMA5_CHIRAL @ CONJUGATION.matrix), conjugates=True)


def lambda_like(p, sign: int) -> np.ndarray:
    """Spin-1 analogue of the lambda construction: (sign Theta3 conj(phi_L),
    phi_L) for h = +1, 0, -1 on axis -2.  Eigenvectors of the twisted
    conjugation with eigenvalue sign."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    fl = _six(p)[..., 3:]
    return np.concatenate([apply(sign * THETA3, np.conjugate(fl)), fl], axis=-1)


def selfconjugacy_analysis() -> dict:
    """Square signs, eigenspace dimensions and the nonexistence margin.

    The plain conjugation squares to -1: its realification is orthogonal
    with spectrum on +-i, so min ||(R -+ 1) w|| / ||w|| = sqrt(2) and no
    eigenvector exists.  The twisted conjugation squares to +1 and its
    realification is an involution whose two eigenspaces split 6 + 6.
    `eigenvector_gaps` holds ||C_tw v - s v|| for each of the 12
    eigenvectors v, s = +-1 its eigenvalue.
    """
    c = CONJUGATION
    tw = TWISTED_CONJUGATION
    shifted = realify(c) - np.array([+1.0, -1.0])[:, None, None] * EYE[12]
    margin = np.linalg.svd(shifted, compute_uv=False).min()
    t = realify(tw)
    plus = involution_eigenvectors(t, +1)
    minus = involution_eigenvectors(t, -1)
    # one eigenvector per row, (Re; Im) stacked back into C^6
    cols = np.concatenate([plus, minus], axis=1).T
    v = cols[:, :6] + 1j * cols[:, 6:]
    signs = np.repeat([+1.0, -1.0], [plus.shape[1], minus.shape[1]])
    gaps = norm(tw(v) - signs[:, None] * v)
    return {
        "square_sign_plain": c.square_sign(),
        "square_sign_twisted": tw.square_sign(),
        "nonexistence_margin": float(margin),
        "plus_dim": plus.shape[1],
        "minus_dim": minus.shape[1],
        "eigenvector_residual": max_abs(gaps),
        "eigenvector_gaps": gaps,
    }


# ---------------------------------------------------------------------------
# reality of the spinors themselves


# 4x4 analogue of the real frame, same block pattern with the 2x2 Theta and
# a global exp(-i pi/4); satisfies V C V^T = 1 for the spin-1/2 conjugation
# matrix, turning S^c into plain complex conjugation
HALF_MAJORANA_FRAME = frozen(np.exp(-0.25j * math.pi) * _frame_blocks(THETA_HALF) / (2 * _RT2))


def reality_classes(vectors: dict, frame: np.ndarray) -> dict:
    """Transform each named vector (or rows of them, on the last axis; all
    of one shape) and classify as 'real' or 'imaginary' by whichever part
    dominates, with the minority-part magnitude; both have the rows' shape."""
    w = apply(frame, np.asarray(list(vectors.values()), dtype=complex))
    re, im = max_abs(np.real(w), axis=-1), max_abs(np.imag(w), axis=-1)
    kinds, minority = np.where(re >= im, "real", "imaginary"), np.minimum(re, im)
    return {name: (kinds[i], minority[i]) for i, name in enumerate(vectors)}
