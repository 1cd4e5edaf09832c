"""Mode expansions of the neutral field and operations on them.

A mode expansion over a SpinorGrid is one complex array of shape
(N, 2, 2, 4): grid row, slot, helicity (up, dn), bispinor component.
Slot 0 holds the coefficients of the annihilators at frequency +1 (the
exp(-i p.x) factor), slot 1 those of the creators at frequency -1 (the
exp(+i p.x) factor); every ladder operator carries momentum tag 1.  The
1/(2 E_p) measure is a common positive factor at fixed mode and is dropped.

The field-level conjugation acts on an expansion exactly the way the
spinor-level operator acts on coefficients: matrix times conjugate, with
the two slots traded (dagger toggled, frequency flipped).  The even/odd
split of the expansion under it is built from that conjugation and
compared against its displayed coefficients elsewhere.  Every identity is
one array expression, so a NaN coefficient stays in its row.
"""

from __future__ import annotations

import numpy as np

from .halfspin import (
    GAMMA0,
    GAMMA5,
    ID4,
    LAMBDAS,
    THETA,
    FourMomentum,
    PhaseConvention,
    SpinorGrid,
    build_spinor_basis,
    charge_conjugation_op,
    conjugation_gaps,
    slash,
)
from .linalg import EYE, apply, frozen, max_abs, norm, rowscale


def residual(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Largest gap between two expansions' components, per row, slot and
    helicity: (N, 2, 2)."""
    return max_abs(x - y, axis=-1)


def mode_of(family: np.ndarray) -> np.ndarray:
    """The expansion of (N, 8, 4) families: lambda^S rides the annihilators
    at positive frequency, lambda^A the creators at negative frequency."""
    return family[:, LAMBDAS].reshape(-1, 2, 2, 4)


def majorana_mode(g: SpinorGrid) -> np.ndarray:
    """The fixed-momentum expansion of the grid's family (mode_of)."""
    return mode_of(g.family)


def charge_conjugate_expansion(
    x: np.ndarray, conv: PhaseConvention = PhaseConvention()
) -> np.ndarray:
    """Coefficients through the antilinear conjugation, slots swapped;
    applied twice this is the identity.  Leading axes before the row axis,
    such as (even, odd) halves, ride along."""
    return charge_conjugation_op(conv)(x[..., ::-1, :, :])


# +1 and -1 on a leading axis: of the conjugate in the (even, odd) halves, or
# the frequency signs (+, -) of the Dirac embedding
_SIGNS = frozen(np.array([1.0, -1.0])[:, None, None])
# [[0, -i], [i, 0]], the off-diagonal pattern of the Dirac images' Gram matrix
_SIGMA_Y = frozen(np.array([[0, -1j], [1j, 0]]))


def _halves(nu, conv):
    """(even, odd) halves (nu +- C nu) / 2 of any expansion, on a new
    leading axis."""
    return (nu + _SIGNS[..., None, None] * charge_conjugate_expansion(nu, conv)) * 0.5


def ziino_barut_split(g: SpinorGrid) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd) halves of the mode under the field-level conjugation."""
    return tuple(_halves(majorana_mode(g), g.convention))


def _displayed(left: np.ndarray) -> np.ndarray:
    """The (even, odd) halves in closed form on the two-spinors phi_L
    (N, 2, 2), in the expansion layout on a new leading axis: the even half
    puts (i Theta conj(phi_L); 0) on the annihilators and (0; phi_L) on the
    creators; the odd half swaps the pattern with a sign."""
    top = apply(1j * THETA, np.conjugate(left))
    # (half, row, slot, helicity, component), zero where nothing is written
    even, odd = halves = np.zeros((2, len(top), 2, 2, 4), dtype=complex)
    even[:, 0, :, :2] = top
    even[:, 1, :, 2:] = odd[:, 0, :, 2:] = left
    odd[:, 1, :, :2] = -top
    return halves


def displayed_split(g: SpinorGrid) -> tuple[np.ndarray, np.ndarray]:
    """The (even, odd) halves in closed form on the grid's own phi_L."""
    return tuple(_displayed(g.left))


def displayed_ziino_coefficients(
    p: FourMomentum, conv: PhaseConvention = PhaseConvention()
) -> tuple[np.ndarray, np.ndarray]:
    """displayed_split at one momentum, (even, odd) as (2, 2, 4) each.  It
    builds its own family from (p, conv), so it stays independent of any
    grid under test: compared with a grid row, it catches a row that is not
    the family of its momentum."""
    even, odd = displayed_split(build_spinor_basis(p, conv))
    return even[0], odd[0]


def split_residual(left: np.ndarray, family: np.ndarray, conv: PhaseConvention):
    """Distance of the halves of mode_of(family) from the displayed ones on
    phi_L `left`, (N, 2, 2, 2): row, half (even, odd), slot, helicity."""
    return residual(_halves(mode_of(family), conv), _displayed(left)).swapaxes(0, 1)


def ziino_split_residual(g: SpinorGrid):
    """split_residual of the grid's family and its own phi_L."""
    return split_residual(g.left, g.family, g.convention)


def parity_residuals(nu: np.ndarray, conv: PhaseConvention) -> dict:
    """The halves of the expansions `nu` are conjugation eigen-expansions:
    C even = +even, C odd = -odd; (..., 2, 2) each over nu's leading axes,
    as `residual`.  C even - even = (C^2 nu - nu) / 2, and so for odd."""
    halves = _halves(nu, conv)
    signed = _SIGNS[..., None, None] * halves
    gaps = residual(charge_conjugate_expansion(halves, conv), signed)
    return dict(zip(("even", "odd"), gaps))


def conjugation_parity_residuals(g: SpinorGrid) -> dict:
    """parity_residuals of the grid's mode: (N, 2, 2) each."""
    return parity_residuals(majorana_mode(g), g.convention)


# ---------------------------------------------------------------------------
# Dirac embedding


def dirac_from_majorana(g: SpinorGrid) -> dict:
    """(1 +- slash/m) images of the mode coefficients.

    The positive-frequency images are lambda^S + rho^A (the +m eigenspace),
    the negative-frequency ones lambda^A - rho^S (-m).  At each frequency
    sign the Gram matrix <image_h, image_k> of the two helicities is
    sigma^2 [[1, -i cos S], [i cos S, 1]], with sigma^2 = 4 N^2 E / m and
    S = theta1 + theta2.  Its eigenvalues are sigma^2 (1 +- |cos S|), so
    the two images are collinear exactly where cos S = +-1 and independent
    elsewhere: the rank-2 statement needs generic phases.  The partner and
    eigenspace residuals are (N, 2, 2): row, frequency sign (+, -),
    helicity; `gram_residual`, ||G - sigma^2 [...]|| / sigma^2, is (N, 2).
    A row that is not finite gives NaN.
    """
    sl, members = slash(g), g.family.reshape(-1, 4, 2, 4)
    # (row, frequency sign, ...): sign * m, and the members (lambda^S,
    # lambda^A) with their partners (rho^A, rho^S) at (+, -)
    m = rowscale(g.mass)[:, None] * _SIGNS
    lam, rho = members[:, [0, 2]], members[:, [3, 1]]
    images = apply(ID4 + sl[:, None] / m, lam)
    partner = images - (lam + _SIGNS * rho)
    eigenspace = apply(sl, images) - m * images
    # the images in units of sigma, so that G can neither underflow nor
    # overflow at any norm a convention admits
    sigma = 2 * g.convention.rest_scale(g.mass) * np.sqrt(g.energy / g.mass)
    unit = images / sigma[:, None, None, None]
    # (row, frequency sign, h, k)
    gram = np.vecdot(unit[..., :, None, :], unit[..., None, :, :])
    cos_s = np.cos(np.add(g.convention.theta1, g.convention.theta2))
    law = gram - (EYE[2] + np.asarray(cos_s)[..., None, None, None] * _SIGMA_Y)
    return {
        "partner_residual": norm(partner),
        "eigenspace_residual": norm(eigenspace),
        "gram_residual": norm(law.reshape(law.shape[:-2] + (4,))),
    }


# ---------------------------------------------------------------------------
# quaternionic phase orbit
#
# A quaternion phase is a row (c0, c1, c2, c3) of a float array; an orbit is
# one (K, 4) array.  Every function broadcasts over the leading axes.


def unit_quaternions(q) -> np.ndarray:
    """q as a float array of quaternion rows; raises unless every row is
    finite with unit norm (to 1e-9)."""
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (4,):
        raise ValueError("a quaternion phase has four components")
    if not np.isfinite(q).all():
        raise ValueError("quaternion phase must be finite")
    if not (abs(q[..., 0] ** 2 + (q[..., 1:] ** 2).sum(axis=-1) - 1.0) <= 1e-9).all():
        raise ValueError("quaternion phase must have unit norm")
    return q


def quaternion_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Hamilton product a b, validated like its factors."""
    a0, av, b0, bv = a[..., :1], a[..., 1:], b[..., :1], b[..., 1:]
    c0 = a0 * b0 - np.vecdot(av, bv)[..., None]
    # np.cross's arithmetic: component k is a[k+1] b[k+2] - a[k+2] b[k+1]
    cross = av[..., [1, 2, 0]] * bv[..., [2, 0, 1]] - av[..., [2, 0, 1]] * bv[..., [1, 2, 0]]
    return unit_quaternions(np.concatenate([c0, a0 * bv + b0 * av + cross], axis=-1))


# Matrix units (i, j, k) realizing the exchange-map algebra: i gamma^5,
# i gamma^0 and their product; all square to -1 and anticommute pairwise.
QUATERNION_UNITS = frozen(np.stack([1j * GAMMA5, 1j * GAMMA0, (1j * GAMMA5) @ (1j * GAMMA0)]))
_ORBIT_BASIS = frozen(np.concatenate([ID4[None], QUATERNION_UNITS]))


def orbit_matrix(q: np.ndarray) -> np.ndarray:
    """c0 + c1 i + c2 j + c3 k on the matrix units, (..., 4, 4)."""
    # summed over the components in order, as c0 + c1 i + c2 j + c3 k
    return (q[..., None, None] * _ORBIT_BASIS).sum(axis=-3)


def orbit_preserves_conjugation(q: np.ndarray, g: SpinorGrid) -> np.ndarray:
    """|S^c(M psi) - s (M psi)| per quaternion, row and family member:
    (..., N, 8).

    The units intertwine with the conjugation (real coefficients), so the
    +-1 status survives the whole orbit exactly.
    """
    return conjugation_gaps(apply(orbit_matrix(q)[..., None, None, :, :], g.family), g.convention)


def orbit_group_law(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max |M(a) M(b) - M(a b)| per pair of quaternion rows."""
    law = orbit_matrix(a) @ orbit_matrix(b) - orbit_matrix(quaternion_product(a, b))
    return max_abs(law, axis=(-2, -1))
