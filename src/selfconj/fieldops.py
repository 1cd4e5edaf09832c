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

import math

import numpy as np

from .halfspin import (
    FAMILY_SIGNS,
    GAMMA0,
    GAMMA5,
    ID4,
    LAM_A,
    LAM_S,
    RHO_A,
    RHO_S,
    THETA,
    FourMomentum,
    PhaseConvention,
    SpinorGrid,
    build_spinor_basis,
    charge_conjugation_op,
    slash,
)
from .linalg import apply, frozen, max_abs, norm, rowscale


def residual(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Largest gap between two expansions' components, per row, slot and
    helicity: (N, 2, 2)."""
    return max_abs(x - y, axis=-1)


def majorana_mode(g: SpinorGrid) -> np.ndarray:
    """The fixed-momentum expansion: lambda^S rides the annihilators at
    positive frequency, lambda^A the creators at negative frequency."""
    return np.concatenate([g.family[:, None, LAM_S], g.family[:, None, LAM_A]], axis=1)


def charge_conjugate_expansion(
    x: np.ndarray, conv: PhaseConvention = PhaseConvention()
) -> np.ndarray:
    """Coefficients through the antilinear conjugation, slots swapped;
    applied twice this is the identity."""
    return charge_conjugation_op(conv)(x[:, ::-1])


def ziino_barut_split(g: SpinorGrid) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd) halves of the mode under the field-level conjugation."""
    nu = majorana_mode(g)
    cnu = charge_conjugate_expansion(nu, g.convention)
    return (nu + cnu) * 0.5, (nu - cnu) * 0.5


def displayed_split(g: SpinorGrid) -> tuple[np.ndarray, np.ndarray]:
    """The (even, odd) halves in closed form on the grid's own phi_L, in
    the expansion layout: the even half puts (i Theta conj(phi_L); 0) on
    the annihilators and (0; phi_L) on the creators; the odd half swaps the
    pattern with a sign."""
    top = apply(1j * THETA, np.conjugate(g.left))
    # (half, row, slot, helicity, component), zero where nothing is written
    even, odd = np.zeros((2, len(top), 2, 2, 4), dtype=complex)
    even[:, 0, :, :2] = top
    even[:, 1, :, 2:] = odd[:, 0, :, 2:] = g.left
    odd[:, 1, :, :2] = -top
    return even, odd


def displayed_ziino_coefficients(
    p: FourMomentum, conv: PhaseConvention = PhaseConvention()
) -> tuple[np.ndarray, np.ndarray]:
    """displayed_split at one momentum, (even, odd) as (2, 2, 4) each.  It
    builds its own family from (p, conv), so it stays independent of any
    grid under test: compared with a grid row, it catches a row that is not
    the family of its momentum."""
    even, odd = displayed_split(build_spinor_basis(p, conv))
    return even[0], odd[0]


def ziino_split_residual(g: SpinorGrid):
    """Distance of the computed halves from the displayed coefficients,
    (N, 2, 2, 2): row, half (even, odd), slot, helicity."""
    gaps = [residual(x, y)[:, None] for x, y in zip(ziino_barut_split(g), displayed_split(g))]
    return np.concatenate(gaps, axis=1)


def conjugation_parity_residuals(g: SpinorGrid) -> dict:
    """The halves are conjugation eigen-expansions: C even = +even,
    C odd = -odd; (N, 2, 2) each, as `residual`."""
    even, odd = ziino_barut_split(g)
    return {
        "even": residual(charge_conjugate_expansion(even, g.convention), even),
        "odd": residual(charge_conjugate_expansion(odd, g.convention), -odd),
    }


# ---------------------------------------------------------------------------
# Dirac embedding


def dirac_from_majorana(g: SpinorGrid) -> dict:
    """(1 +- slash/m) images of the mode coefficients.

    The positive-frequency images are lambda^S + rho^A (the +m eigenspace),
    the negative-frequency ones lambda^A - rho^S (-m).  Whether the two
    positive images are independent depends on the phase convention: at
    theta1 + theta2 in {0, pi} they are exactly collinear, so the rank-2
    statement needs generic phases; the report carries the singular values,
    (N, 2), NaN on a row that is not finite.  The partner and eigenspace
    residuals are (N, 2, 2): row, frequency sign (+, -), helicity.
    """
    sl, m = slash(g), rowscale(g.mass)
    f = g.family
    ip = apply(ID4 + sl / m, f[:, LAM_S])
    im = apply(ID4 - sl / m, f[:, LAM_A])
    conv = g.convention
    partner = (ip - (f[:, LAM_S] + f[:, RHO_A]), im - (f[:, LAM_A] - f[:, RHO_S]))
    eigenspace = (apply(sl, ip) - m * ip, apply(sl, im) + m * im)
    # the SVD cannot take a non-finite row; such a row keeps NaN values
    finite = np.isfinite(ip).all(axis=(-2, -1))
    values = np.full(ip.shape[:-1], np.nan)
    values[finite] = np.linalg.svd(ip[finite], compute_uv=False)
    return {
        "partner_residual": np.concatenate([norm(x)[:, None] for x in partner], axis=1),
        "eigenspace_residual": np.concatenate([norm(x)[:, None] for x in eigenspace], axis=1),
        "positive_singular_values": values,
        # one number, or one per row in a phase scan
        "phase_sum": np.add(conv.theta1, conv.theta2) % (2 * math.pi),
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


def orbit_matrix(q: np.ndarray) -> np.ndarray:
    """c0 + c1 i + c2 j + c3 k on the matrix units, (..., 4, 4)."""
    qi, qj, qk = QUATERNION_UNITS
    c0, c1, c2, c3 = (rowscale(q[..., k]) for k in range(4))
    return c0 * ID4 + c1 * qi + c2 * qj + c3 * qk


def orbit_preserves_conjugation(q: np.ndarray, g: SpinorGrid) -> np.ndarray:
    """|S^c(M psi) - s (M psi)| per quaternion, row and family member:
    (..., N, 8).

    The units intertwine with the conjugation (real coefficients), so the
    +-1 status survives the whole orbit exactly.
    """
    img = apply(orbit_matrix(q)[..., None, None, :, :], g.family)
    c = charge_conjugation_op(g.convention)
    return norm(c(img) - FAMILY_SIGNS[:, None] * img)


def orbit_group_law(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max |M(a) M(b) - M(a b)| per pair of quaternion rows."""
    law = orbit_matrix(a) @ orbit_matrix(b) - orbit_matrix(quaternion_product(a, b))
    return max_abs(law, axis=(-2, -1))
