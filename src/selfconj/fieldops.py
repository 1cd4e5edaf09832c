"""Mode expansions of the neutral field and operations on them.

A ModeExpansion is a finite list of (bispinor coefficient, ladder symbol,
frequency tag) triples at a fixed momentum; frequency +1 tags the
exp(-i p.x) factor, -1 the exp(+i p.x) one.  The 1/(2 E_p) measure is a
common positive factor at fixed mode and is dropped.

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
    DN,
    GAMMA0,
    GAMMA5,
    ID4,
    THETA,
    UP,
    FourMomentum,
    PhaseConvention,
    build_spinor_basis,
    charge_conjugation_op,
    slash,
)
from .linalg import max_abs

_HTAG = {UP: "up", DN: "dn"}


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

    def residual(self, other: "ModeExpansion") -> float:
        gaps = [t.coefficient - other.coefficient(t.symbol, t.frequency) for t in self._terms]
        gaps += [t.coefficient - self.coefficient(t.symbol, t.frequency) for t in other._terms]
        return max_abs(gaps)


def majorana_mode(
    p: FourMomentum,
    conv: PhaseConvention = PhaseConvention(),
    distinct_antiparticle: bool = False,
) -> ModeExpansion:
    """The fixed-momentum expansion: lambda^S rides the annihilators at
    positive frequency, lambda^A the creators at negative frequency; every
    ladder symbol carries momentum tag 1.

    distinct_antiparticle keeps 'b' labels on the creator terms (the
    Dirac-ready bookkeeping); the default identifies them with 'a'.
    """
    b = build_spinor_basis(p, conv)
    kind = "b" if distinct_antiparticle else "a"
    terms = []
    for h in (UP, DN):
        terms.append(Term(b.lam_s[h], LadderSymbol("a", _HTAG[h], False, 1), +1))
        terms.append(Term(b.lam_a[h], LadderSymbol(kind, _HTAG[h], True, 1), -1))
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


def ziino_barut_split(
    p: FourMomentum,
    conv: PhaseConvention = PhaseConvention(),
) -> tuple[ModeExpansion, ModeExpansion]:
    """(even, odd) halves of the mode under the field-level conjugation."""
    nu = majorana_mode(p, conv)
    cnu = charge_conjugate_expansion(nu, conv)
    even = nu.add(cnu).scale(0.5)
    odd = nu.add(cnu.scale(-1.0)).scale(0.5)
    return even, odd


def displayed_ziino_coefficients(
    p: FourMomentum, conv: PhaseConvention = PhaseConvention()
) -> dict:
    """The split coefficients in closed form: the even half puts
    (i Theta conj(phi_L); 0) on the annihilators and (0; phi_L) on the
    creators; the odd half swaps the pattern with a sign."""
    b = build_spinor_basis(p, conv)
    out = {}
    for h in (UP, DN):
        top = 1j * THETA @ np.conjugate(b.phi_l[h])
        z = np.zeros(2, dtype=complex)
        out[("even", _HTAG[h], "ann")] = np.concatenate([top, z])
        out[("even", _HTAG[h], "cre")] = np.concatenate([z, b.phi_l[h]])
        out[("odd", _HTAG[h], "ann")] = np.concatenate([z, b.phi_l[h]])
        out[("odd", _HTAG[h], "cre")] = np.concatenate([-top, z])
    return out


def ziino_split_residual(
    p: FourMomentum, conv: PhaseConvention = PhaseConvention()
) -> float:
    """Entrywise distance of the computed halves from the displayed
    coefficients, maximized over helicity and term."""
    even, odd = ziino_barut_split(p, conv)
    want = displayed_ziino_coefficients(p, conv)
    gaps = []
    for h in (UP, DN):
        tag = _HTAG[h]
        ann = LadderSymbol("a", tag, False, 1)
        cre = LadderSymbol("a", tag, True, 1)
        gaps.append(even.coefficient(ann, +1) - want[("even", tag, "ann")])
        gaps.append(even.coefficient(cre, -1) - want[("even", tag, "cre")])
        gaps.append(odd.coefficient(ann, +1) - want[("odd", tag, "ann")])
        gaps.append(odd.coefficient(cre, -1) - want[("odd", tag, "cre")])
    return max_abs(gaps)


def conjugation_parity_residuals(
    p: FourMomentum, conv: PhaseConvention = PhaseConvention()
) -> dict:
    """The halves are conjugation eigen-expansions: C even = +even,
    C odd = -odd."""
    even, odd = ziino_barut_split(p, conv)
    return {
        "even": charge_conjugate_expansion(even, conv).residual(even),
        "odd": charge_conjugate_expansion(odd, conv).residual(odd.scale(-1.0)),
    }


# ---------------------------------------------------------------------------
# Dirac embedding


def dirac_from_majorana(
    p: FourMomentum, conv: PhaseConvention = PhaseConvention()
) -> dict:
    """(1 +- slash/m) images of the mode coefficients.

    The positive-frequency images are lambda^S + rho^A (the +m eigenspace),
    the negative-frequency ones lambda^A - rho^S (-m).  Whether the two
    positive images are independent depends on the phase convention: at
    theta1 + theta2 in {0, pi} they are exactly collinear, so the rank-2
    statement needs generic phases; the report carries the singular values.
    """
    b = build_spinor_basis(p, conv)
    sl, m = slash(p), p.mass
    plus = ID4 + sl / m
    minus = ID4 - sl / m
    partner = []
    eigen = []
    pos = []
    for h in (UP, DN):
        ip = plus @ b.lam_s[h]
        im = minus @ b.lam_a[h]
        pos.append(ip)
        partner.append(np.linalg.norm(ip - (b.lam_s[h] + b.rho_a[h])))
        partner.append(np.linalg.norm(im - (b.lam_a[h] - b.rho_s[h])))
        eigen.append(np.linalg.norm(sl @ ip - m * ip))
        eigen.append(np.linalg.norm(sl @ im + m * im))
    sv = np.linalg.svd(np.array(pos), compute_uv=False)
    return {
        "partner_residual": max_abs(partner),
        "eigenspace_residual": max_abs(eigen),
        "positive_singular_values": [float(s) for s in sv],
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
        if abs(self.c0**2 + sum(x * x for x in c) - 1.0) > 1e-9:
            raise ValueError("quaternion phase must have unit norm")
        object.__setattr__(self, "c", c)

    def multiply(self, other: "QuaternionPhase") -> "QuaternionPhase":
        a0, a = self.c0, np.array(self.c)
        b0, b = other.c0, np.array(other.c)
        c0 = a0 * b0 - float(np.dot(a, b))
        cv = a0 * b + b0 * a + np.cross(a, b)
        return QuaternionPhase(c0, tuple(cv))


def quaternion_units() -> list[np.ndarray]:
    """Matrix units (i, j, k) realizing the exchange-map algebra:
    i gamma^5, i gamma^0 and their product; all square to -1 and
    anticommute pairwise."""
    qi = 1j * GAMMA5
    qj = 1j * GAMMA0
    return [qi, qj, qi @ qj]


def orbit_matrix(q: QuaternionPhase) -> np.ndarray:
    qi, qj, qk = quaternion_units()
    return q.c0 * ID4 + q.c[0] * qi + q.c[1] * qj + q.c[2] * qk


def orbit_preserves_conjugation(
    q: QuaternionPhase,
    p: FourMomentum,
    conv: PhaseConvention = PhaseConvention(),
) -> float:
    """Worst |S^c(M psi) - s (M psi)| over the eight family members.

    The units intertwine with the conjugation (real coefficients), so the
    +-1 status survives the whole orbit exactly.
    """
    m = orbit_matrix(q)
    c = charge_conjugation_op(conv)
    b = build_spinor_basis(p, conv)
    gaps = []
    for _, psi, sign in b.charge_family():
        img = m @ psi
        gaps.append(np.linalg.norm(c(img) - sign * img))
    return max_abs(gaps)


def orbit_group_law(q1: QuaternionPhase, q2: QuaternionPhase) -> float:
    return max_abs(orbit_matrix(q1) @ orbit_matrix(q2) - orbit_matrix(q1.multiply(q2)))
