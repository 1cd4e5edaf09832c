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
from dataclasses import dataclass

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
    """Largest entrywise gap between two expansions, per row."""
    return max_abs(x - y, axis=(1, 2, 3))


def majorana_mode(g: SpinorGrid) -> np.ndarray:
    """The fixed-momentum expansion: lambda^S rides the annihilators at
    positive frequency, lambda^A the creators at negative frequency."""
    return np.stack([g.family[:, LAM_S], g.family[:, LAM_A]], axis=1)


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
    z = np.zeros_like(top)
    upper, lower = np.concatenate([top, z], axis=-1), np.concatenate([z, g.left], axis=-1)
    even = np.stack([upper, lower], axis=1)
    odd = np.stack([lower, np.concatenate([-top, z], axis=-1)], axis=1)
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
    """Per row: entrywise distance of the computed halves from the
    displayed coefficients, maximized over half, slot and helicity."""
    gaps = [residual(x, y) for x, y in zip(ziino_barut_split(g), displayed_split(g))]
    return np.maximum(*gaps)


def conjugation_parity_residuals(g: SpinorGrid) -> dict:
    """The halves are conjugation eigen-expansions: C even = +even,
    C odd = -odd; per row."""
    even, odd = ziino_barut_split(g)
    return {
        "even": residual(charge_conjugate_expansion(even, g.convention), even),
        "odd": residual(charge_conjugate_expansion(odd, g.convention), -odd),
    }


# ---------------------------------------------------------------------------
# Dirac embedding


def dirac_from_majorana(g: SpinorGrid) -> dict:
    """(1 +- slash/m) images of the mode coefficients, per row.

    The positive-frequency images are lambda^S + rho^A (the +m eigenspace),
    the negative-frequency ones lambda^A - rho^S (-m).  Whether the two
    positive images are independent depends on the phase convention: at
    theta1 + theta2 in {0, pi} they are exactly collinear, so the rank-2
    statement needs generic phases; the report carries the singular values,
    (N, 2).
    """
    sl, m = slash(g), rowscale(g.mass)
    f = g.family
    ip = apply(ID4 + sl / m, f[:, LAM_S])
    im = apply(ID4 - sl / m, f[:, LAM_A])

    def worst(*gaps):
        return np.max([norm(x) for x in gaps], axis=(0, 2))

    conv = g.convention
    partner = (ip - (f[:, LAM_S] + f[:, RHO_A]), im - (f[:, LAM_A] - f[:, RHO_S]))
    return {
        "partner_residual": worst(*partner),
        "eigenspace_residual": worst(apply(sl, ip) - m * ip, apply(sl, im) + m * im),
        "positive_singular_values": np.linalg.svd(ip, compute_uv=False),
        "phase_sum": (conv.theta1 + conv.theta2) % (2 * math.pi),
    }


# ---------------------------------------------------------------------------
# quaternionic phase orbit


@dataclass(frozen=True)
class QuaternionPhase:
    """Unit quaternion (c0, c); the constraint is enforced on construction."""

    c0: float
    c: tuple

    def __post_init__(self):
        c = tuple(float(x) for x in self.c)
        if len(c) != 3:
            raise ValueError("c must have three components")
        if not all(math.isfinite(x) for x in (self.c0, *c)):
            raise ValueError("quaternion phase must be finite")
        if not abs(self.c0**2 + sum(x * x for x in c) - 1.0) <= 1e-9:
            raise ValueError("quaternion phase must have unit norm")
        object.__setattr__(self, "c", c)

    def multiply(self, other: "QuaternionPhase") -> "QuaternionPhase":
        a0, a = self.c0, np.array(self.c)
        b0, b = other.c0, np.array(other.c)
        c0 = a0 * b0 - float(np.dot(a, b))
        cv = a0 * b + b0 * a + np.cross(a, b)
        return QuaternionPhase(c0, tuple(cv))


# Matrix units (i, j, k) realizing the exchange-map algebra: i gamma^5,
# i gamma^0 and their product; all square to -1 and anticommute pairwise.
QUATERNION_UNITS = frozen((1j * GAMMA5, 1j * GAMMA0, (1j * GAMMA5) @ (1j * GAMMA0)))


def orbit_matrix(q: QuaternionPhase) -> np.ndarray:
    qi, qj, qk = QUATERNION_UNITS
    return q.c0 * ID4 + q.c[0] * qi + q.c[1] * qj + q.c[2] * qk


def orbit_preserves_conjugation(q: QuaternionPhase, g: SpinorGrid):
    """Per row: worst |S^c(M psi) - s (M psi)| over the eight family members.

    The units intertwine with the conjugation (real coefficients), so the
    +-1 status survives the whole orbit exactly.
    """
    img = apply(orbit_matrix(q), g.family)
    c = charge_conjugation_op(g.convention)
    return np.max(norm(c(img) - FAMILY_SIGNS[:, None] * img), axis=-1)


def orbit_group_law(q1: QuaternionPhase, q2: QuaternionPhase) -> float:
    return max_abs(orbit_matrix(q1) @ orbit_matrix(q2) - orbit_matrix(q1.multiply(q2)))
