"""Mode expansions of the neutral field and operations on them.

A ModeExpansion is a finite list of (bispinor coefficient, ladder symbol,
frequency tag) triples at a fixed momentum; frequency +1 tags the
exp(-i p.x) factor, -1 the exp(+i p.x) one.  The 1/(2 E_p) measure is a
common positive factor at fixed mode and is dropped.  Built from a
SpinorGrid, every coefficient is (N, 4), one row per grid momentum, so one
expansion carries the fixed-momentum modes of the whole grid.

The field-level conjugation acts on an expansion exactly the way the
spinor-level operator acts on coefficients: matrix times conjugate, dagger
toggled, frequency flipped.  The even/odd split of the expansion under it
is built from that conjugation and compared against its displayed
coefficients elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import LadderSymbol
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

_HTAGS = ("up", "dn")
_FREQ = {"ann": +1, "cre": -1}  # frequency tag of the annihilator/creator terms


@dataclass(frozen=True)
class Term:
    coefficient: np.ndarray
    symbol: LadderSymbol
    frequency: int

    def __post_init__(self):
        if self.frequency not in (+1, -1):
            raise ValueError("frequency tag must be +1 or -1")
        c = np.asarray(self.coefficient, dtype=complex)
        object.__setattr__(self, "coefficient", c)

    @property
    def key(self):
        s = self.symbol
        return (s.kind, s.helicity, s.dagger, s.ptag, self.frequency)


class ModeExpansion:
    """Immutable, canonically ordered sum of Terms."""

    __slots__ = ("_terms",)

    def __init__(self, terms):
        merged: dict = {}
        for t in terms:
            if t.key in merged:
                merged[t.key] = Term(
                    merged[t.key].coefficient + t.coefficient, t.symbol, t.frequency
                )
            else:
                merged[t.key] = t
        kept = [t for _, t in sorted(merged.items()) if max_abs(t.coefficient) > 0]
        self._terms = tuple(kept)

    @property
    def terms(self):
        return self._terms

    def coefficient(self, symbol: LadderSymbol, frequency: int) -> np.ndarray:
        key = (symbol.kind, symbol.helicity, symbol.dagger, symbol.ptag, frequency)
        for t in self._terms:
            if t.key == key:
                return t.coefficient
        return np.zeros(4, dtype=complex)

    def scale(self, c) -> "ModeExpansion":
        return ModeExpansion(
            Term(c * t.coefficient, t.symbol, t.frequency) for t in self._terms
        )

    def add(self, other: "ModeExpansion") -> "ModeExpansion":
        return ModeExpansion(list(self._terms) + list(other._terms))

    def residual(self, other: "ModeExpansion"):
        """Largest entrywise coefficient gap, per row."""
        gaps = [t.coefficient - other.coefficient(t.symbol, t.frequency) for t in self._terms]
        gaps += [t.coefficient - self.coefficient(t.symbol, t.frequency) for t in other._terms]
        return np.max([max_abs(g, axis=-1) for g in gaps], axis=0) if gaps else 0.0


def majorana_mode(g: SpinorGrid, distinct_antiparticle: bool = False) -> ModeExpansion:
    """The fixed-momentum expansion: lambda^S rides the annihilators at
    positive frequency, lambda^A the creators at negative frequency; every
    ladder symbol carries momentum tag 1.

    distinct_antiparticle keeps 'b' labels on the creator terms (the
    Dirac-ready bookkeeping); the default identifies them with 'a'.
    """
    kind = "b" if distinct_antiparticle else "a"
    lam_s, lam_a = g.family[:, LAM_S], g.family[:, LAM_A]
    terms = []
    for i, tag in enumerate(_HTAGS):
        terms.append(Term(lam_s[:, i], LadderSymbol("a", tag, False, 1), +1))
        terms.append(Term(lam_a[:, i], LadderSymbol(kind, tag, True, 1), -1))
    return ModeExpansion(terms)


def charge_conjugate_expansion(
    x: ModeExpansion, conv: PhaseConvention = PhaseConvention()
) -> ModeExpansion:
    """Coefficients through the antilinear conjugation, daggers toggled,
    frequencies flipped; applied twice this is the identity."""
    c = charge_conjugation_op(conv)
    out = []
    for t in x.terms:
        s = t.symbol
        out.append(
            Term(
                c(t.coefficient),
                LadderSymbol(s.kind, s.helicity, not s.dagger, s.ptag),
                -t.frequency,
            )
        )
    return ModeExpansion(out)


def ziino_barut_split(g: SpinorGrid) -> tuple[ModeExpansion, ModeExpansion]:
    """(even, odd) halves of the mode under the field-level conjugation."""
    nu = majorana_mode(g)
    cnu = charge_conjugate_expansion(nu, g.convention)
    even = nu.add(cnu).scale(0.5)
    odd = nu.add(cnu.scale(-1.0)).scale(0.5)
    return even, odd


def displayed_split(g: SpinorGrid) -> dict:
    """The split coefficients in closed form on the grid's own phi_L, (N, 4)
    each: the even half puts (i Theta conj(phi_L); 0) on the annihilators
    and (0; phi_L) on the creators; the odd half swaps the pattern with a
    sign."""
    top = apply(1j * THETA, np.conjugate(g.left))
    z = np.zeros_like(top)
    out = {}
    for i, tag in enumerate(_HTAGS):
        t, l, o = top[:, i], g.left[:, i], z[:, i]
        out[("even", tag, "ann")] = np.concatenate([t, o], axis=-1)
        out[("even", tag, "cre")] = np.concatenate([o, l], axis=-1)
        out[("odd", tag, "ann")] = np.concatenate([o, l], axis=-1)
        out[("odd", tag, "cre")] = np.concatenate([-t, o], axis=-1)
    return out


def displayed_ziino_coefficients(
    p: FourMomentum, conv: PhaseConvention = PhaseConvention()
) -> dict:
    """displayed_split at one momentum, keyed the same way.  It builds its
    own family from (p, conv), so it stays independent of any grid under
    test: compared with a grid row, it catches a row that is not the
    family of its momentum."""
    return {k: v[0] for k, v in displayed_split(build_spinor_basis(p, conv)).items()}


def ziino_split_residual(g: SpinorGrid):
    """Per row: entrywise distance of the computed halves from the
    displayed coefficients, maximized over helicity and term."""
    halves = dict(zip(("even", "odd"), ziino_barut_split(g)))
    gaps = [
        halves[half].coefficient(LadderSymbol("a", tag, kind == "cre", 1), _FREQ[kind]) - want
        for (half, tag, kind), want in displayed_split(g).items()
    ]
    return np.max([max_abs(x, axis=-1) for x in gaps], axis=0)


def conjugation_parity_residuals(g: SpinorGrid) -> dict:
    """The halves are conjugation eigen-expansions: C even = +even,
    C odd = -odd; per row."""
    even, odd = ziino_barut_split(g)
    return {
        "even": charge_conjugate_expansion(even, g.convention).residual(even),
        "odd": charge_conjugate_expansion(odd, g.convention).residual(odd.scale(-1.0)),
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
