"""Spin-1 six-spinors, the covariant matrix family, and the real frame.

The chiral-basis family is pinned by one property: contracted with p^mu p^nu
it must square the mass on the boosted six-spinors.  The Majorana frame is
the unitary change of basis that makes the whole family real; reality of
individual spinors and the impossibility of self-conjugate spin-1 spinors
both live here because they are statements about that frame.

Helicity labels are +1, 0, -1; component order everywhere is m = +1, 0, -1.
All rotations and boosts use the closed polynomial forms ((J.n)^3 = J.n), so
nothing here needs a matrix exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import AntilinearOp, cmat, dagger, frozen, involution_eigenvectors, max_abs, realify
from .halfspin import THETA as THETA_HALF
from .halfspin import FourMomentum

ID3, ID6, Z3 = frozen(
    (np.eye(3, dtype=complex), np.eye(6, dtype=complex), np.zeros((3, 3), dtype=complex))
)

_RT2 = math.sqrt(2.0)
J1 = frozen(cmat([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / _RT2)
J2 = frozen(cmat([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / _RT2)
J3 = frozen(cmat([[1, 0, 0], [0, 0, 0], [0, 0, -1]]))
JVEC = (J1, J2, J3)

HELICITIES = (+1, 0, -1)

# the spin-1 analogue of Theta: Theta3 J Theta3^{-1} = -conj(J)
THETA3 = frozen(cmat([[0, 0, 1], [0, -1, 0], [1, 0, 0]]))


def _jdot(nhat) -> np.ndarray:
    nhat = np.asarray(nhat, dtype=float)
    return nhat[0] * J1 + nhat[1] * J2 + nhat[2] * J3


def spin1_rotation(theta: float, phi: float) -> np.ndarray:
    """R = Rz(phi) Ry(theta), closed form (J_y^3 = J_y)."""
    rz = np.diag([np.exp(-1j * phi), 1.0, np.exp(1j * phi)])
    ry = ID3 - 1j * math.sin(theta) * J2 + (math.cos(theta) - 1.0) * (J2 @ J2)
    return rz @ ry


def helicity_eigenvector(theta: float, phi: float, h: int) -> np.ndarray:
    """xi_h with (J.n) xi_h = h xi_h for the direction (theta, phi)."""
    if h not in HELICITIES:
        raise ValueError("spin-1 helicity must be +1, 0 or -1")
    basis = {+1: 0, 0: 1, -1: 2}
    e = np.zeros(3, dtype=complex)
    e[basis[h]] = 1.0
    return spin1_rotation(theta, phi) @ e


def spin1_boosts(p: FourMomentum) -> tuple[np.ndarray, np.ndarray]:
    """(right, left) boosts exp(+-J.n w), cosh w = E/m, sinh w = |p|/m."""
    if p.mass <= 0:
        raise ValueError("finite boosts need m > 0")
    ch = p.energy / p.mass
    sh = p.pmag / p.mass
    jn = _jdot(p.nhat)
    jn2 = jn @ jn
    br = ID3 + sh * jn + (ch - 1.0) * jn2
    bl = ID3 - sh * jn + (ch - 1.0) * jn2
    return br, bl


def weinberg_u(p: FourMomentum, h: int) -> np.ndarray:
    """Chiral-basis six-spinor (phi_R, phi_L), phi_X = boost_X xi_h."""
    br, bl = spin1_boosts(p)
    xi = helicity_eigenvector(p.theta, p.phi, h)
    return np.concatenate([br @ xi, bl @ xi])


# ---------------------------------------------------------------------------
# the covariant family

# K_ij = {J_i, J_j} - delta_ij, the space-space blocks of both family forms
_K = frozen(
    {
        (i, j): JVEC[i] @ JVEC[j] + JVEC[j] @ JVEC[i] - (1.0 if i == j else 0.0) * ID3
        for i in range(3)
        for j in range(3)
    }
)


def _chiral_gammas() -> dict:
    out = {(0, 0): np.block([[Z3, ID3], [ID3, Z3]])}
    for i in range(3):
        g = np.block([[Z3, JVEC[i]], [-JVEC[i], Z3]])
        out[(0, i + 1)] = g
        out[(i + 1, 0)] = g
    for (i, j), k in _K.items():
        out[(i + 1, j + 1)] = np.block([[Z3, k], [k, Z3]])
    return out


# Symmetric family {(mu, nu): 6x6} in the chiral basis, pinned by
# gamma_{mu nu} p^mu p^nu u(p, h) = m^2 u(p, h).
CHIRAL_GAMMAS = frozen(_chiral_gammas())
GAMMA5_CHIRAL = frozen(np.block([[ID3, Z3], [Z3, -ID3]]))


def on_shell_residual(p: FourMomentum, h: int) -> float:
    """|| (gamma_{mu nu} p^mu p^nu - m^2) u(p, h) ||."""
    p4 = np.concatenate([[p.energy], p.pvec])
    op = sum(CHIRAL_GAMMAS[(mu, nu)] * p4[mu] * p4[nu] for mu in range(4) for nu in range(4))
    u = weinberg_u(p, h)
    return float(np.linalg.norm(op @ u - p.mass**2 * u))


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


def _mr_forms() -> dict:
    t = THETA3
    out = {
        (0, 0): np.block([[Z3, t], [t, Z3]]),
        (0, 1): np.block([[Z3, -J1 @ t], [-J1 @ t, Z3]]),
        (0, 2): np.block([[1j * J2 @ t, Z3], [Z3, -1j * J2 @ t]]),
        (0, 3): np.block([[Z3, -J3 @ t], [-J3 @ t, Z3]]),
    }
    for i in range(3):
        out[(i + 1, 0)] = out[(0, i + 1)]
    for (i, j), k in _K.items():
        dif = 1j * (np.conjugate(k) - k)
        tot = np.conjugate(k) + k
        out[(i + 1, j + 1)] = 0.5 * np.block([[dif @ t, tot @ t], [tot @ t, -dif @ t]])
    out["five"] = np.block([[Z3, 1j * ID3], [-1j * ID3, Z3]])
    return out


# The displayed real-frame family, written out and keyed like
# CHIRAL_GAMMAS, plus key 'five' for the (imaginary) chirality matrix.
MR_FORMS = frozen(_mr_forms())


def majorana_family_report(tol: float = 1e-12) -> dict:
    """Transforms the chiral family with W and compares to the displayed
    forms; also reports the worst imaginary part over the ten (mu, nu)
    images (the chirality image is imaginary by design and excluded)."""
    imgs = {key: to_majorana_rep(g) for key, g in CHIRAL_GAMMAS.items()}
    resid = max_abs([img - MR_FORMS[key] for key, img in imgs.items()])
    imag = max_abs([np.imag(img) for img in imgs.values()])
    five = to_majorana_rep(GAMMA5_CHIRAL)
    resid5 = max_abs(five - MR_FORMS["five"])
    u = MAJORANA_U
    return {
        "unitarity": max_abs(u @ dagger(u) - ID6),
        "family_residual": resid,
        "family_imag_part": imag,
        "five_residual": resid5,
        "ok": resid <= tol and imag <= tol and resid5 <= tol,
    }


def plain_unitary_diagnostic() -> dict:
    """What the displayed U does on its own to the chiral family.

    The time-time and chirality images land on each other's displayed
    targets and the time-space images pick up a sign; reported so the
    convention choice behind CHIRAL_TO_MAJORANA is visible, not buried.
    """
    u = MAJORANA_U
    gam = CHIRAL_GAMMAS
    want = MR_FORMS

    def img(m):
        return u @ m @ dagger(u)

    return {
        "g00_lands_on_displayed_five": max_abs(img(gam[(0, 0)]) - want["five"]),
        "five_lands_on_displayed_g00": max_abs(img(GAMMA5_CHIRAL) - want[(0, 0)]),
        "g0i_sign_flip": max_abs([img(gam[(0, i)]) + want[(0, i)] for i in (1, 2, 3)]),
        "worst_imag_part": max_abs([np.imag(img(g)) for g in gam.values()]),
    }


# ---------------------------------------------------------------------------
# real-frame six-spinors


@dataclass(frozen=True)
class MRSpinor:
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


def mr_spinor(p: FourMomentum, h: int) -> MRSpinor:
    br, bl = spin1_boosts(p)
    xi = helicity_eigenvector(p.theta, p.phi, h)
    fr, fl = br @ xi, bl @ xi
    tfr = THETA3 @ fr
    u_re = 0.5 * np.concatenate([fl + tfr, fl + tfr])
    u_im = 0.5 * np.concatenate([-fl + tfr, fl - tfr])
    v_re = 0.5 * np.concatenate([-fl + tfr, -fl + tfr])
    v_im = 0.5 * np.concatenate([fl + tfr, -fl - tfr])
    return MRSpinor(
        u=u_re + 1j * u_im,
        v=v_re + 1j * v_im,
        u_re=u_re,
        u_im=u_im,
        v_re=v_re,
        v_im=v_im,
    )


def transverse_reality_report(p: FourMomentum) -> dict:
    """The real/imaginary-part identities tying the transverse spinors.

    Zero on the meridian plane; off-plane the same quantities are finite
    and the report carries them unjudged.
    """
    up = mr_spinor(p, +1)
    dn = mr_spinor(p, -1)
    lg = mr_spinor(p, 0)
    return {
        "u_re_match": float(np.linalg.norm(up.u_re - dn.u_re)),
        "u_im_flip": float(np.linalg.norm(up.u_im + dn.u_im)),
        "long_u_re_vanishes": float(np.linalg.norm(lg.u_re)),
        "long_u_im_norm": float(np.linalg.norm(lg.u_im)),
        "long_u_pure_imag": max_abs(np.real(lg.u)),
        "long_v_pure_real": max_abs(np.imag(lg.v)),
        "split_exact": max_abs([s.u - (s.u_re + 1j * s.u_im) for s in (up, dn, lg)]),
    }


def chirality_flip_residual(p: FourMomentum, h: int) -> float:
    """|| v - gamma5_MR u || (holds for every momentum and phase)."""
    s = mr_spinor(p, h)
    g5 = MR_FORMS["five"]
    return float(np.linalg.norm(s.v - g5 @ s.u))


# ---------------------------------------------------------------------------
# conjugation structure


# [[0, Theta3], [-Theta3, 0]] K; squares to -1, so no spin-1 spinor is
# self conjugate under it
CONJUGATION = AntilinearOp(frozen(np.block([[Z3, THETA3], [-THETA3, Z3]])), conjugates=True)

# gamma^5 . S^c; squares to +1 and has honest eigenspinors
TWISTED_CONJUGATION = AntilinearOp(frozen(GAMMA5_CHIRAL @ CONJUGATION.matrix), conjugates=True)


def lambda_like(p: FourMomentum, h: int, sign: int) -> np.ndarray:
    """Spin-1 analogue of the lambda construction: (sign Theta3 conj(phi_L),
    phi_L).  Eigenvector of the twisted conjugation with eigenvalue sign."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    _, bl = spin1_boosts(p)
    fl = bl @ helicity_eigenvector(p.theta, p.phi, h)
    return np.concatenate([sign * THETA3 @ np.conjugate(fl), fl])


def selfconjugacy_analysis() -> dict:
    """Square signs, eigenspace dimensions and the nonexistence margin.

    The plain conjugation squares to -1: its realification is orthogonal
    with spectrum on +-i, so min ||(R -+ 1) w|| / ||w|| = sqrt(2) and no
    eigenvector exists.  The twisted conjugation squares to +1 and its
    realification is an involution whose two eigenspaces split 6 + 6.
    """
    c = CONJUGATION
    tw = TWISTED_CONJUGATION
    r = realify(c)
    margins = [
        float(np.min(np.linalg.svd(r - s * np.eye(12), compute_uv=False)))
        for s in (+1, -1)
    ]
    t = realify(tw)
    plus = involution_eigenvectors(t, +1)
    minus = involution_eigenvectors(t, -1)
    gaps = []
    for cols, sign in ((plus, +1), (minus, -1)):
        for k in range(cols.shape[1]):
            v = cols[:6, k] + 1j * cols[6:, k]
            gaps.append(np.linalg.norm(tw(v) - sign * v))
    return {
        "square_sign_plain": c.square_sign(),
        "square_sign_twisted": tw.square_sign(),
        "nonexistence_margin": min(margins),
        "plus_dim": plus.shape[1],
        "minus_dim": minus.shape[1],
        "eigenvector_residual": max_abs(gaps),
    }


# ---------------------------------------------------------------------------
# reality of the spinors themselves


# 4x4 analogue of the real frame, same block pattern with the 2x2 Theta and
# a global exp(-i pi/4); satisfies V C V^T = 1 for the spin-1/2 conjugation
# matrix, turning S^c into plain complex conjugation
HALF_MAJORANA_FRAME = frozen(np.exp(-0.25j * math.pi) * _frame_blocks(THETA_HALF) / (2 * _RT2))


def reality_classes(vectors: dict, frame: np.ndarray) -> dict:
    """Transform each named vector and classify as 'real' or 'imaginary'
    by whichever part dominates, with the minority-part magnitude."""
    out = {}
    for name, v in vectors.items():
        w = frame @ np.asarray(v, dtype=complex)
        re, im = max_abs(np.real(w)), max_abs(np.imag(w))
        cls = "real" if re >= im else "imaginary"
        out[name] = (cls, min(re, im))
    return out
