"""The boosted spinors of both spins against their values at 50 digits.

The exact values are built in mpmath from the grid's inputs (m, |p|, theta,
phi and the phase convention), never from its float arrays: the helicity
states chi_h and xi_h from their closed forms, boosted by the boost
matrices (E + m +- sigma.p) / sqrt(2 m (E + m)) and exp(+-J.n w), with
E = sqrt(m^2 + |p|^2).  Every row of `left`, `right` and `family` and
every chiral block of the six-spinors `spin1.weinberg_u(g)` must lie
within a few eps of its exact value, relative to the exact row's norm, at
every |p| up to the edge of the accepted domain, |p| = 2**52 m.
"""

import math
import random

import mpmath
import numpy as np
import pytest

from selfconj import halfspin, spin1
from selfconj.halfspin import FourMomentum, PhaseConvention

EPS = np.finfo(float).eps
DIGITS = 50


def _momenta(seed, n):
    """|p| / m log-uniform up to 2**52, the poles among the directions, and
    the rest frame and the domain's edge appended."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        m = rng.uniform(0.25, 4.0)
        theta = rng.choice([0.0, math.pi, rng.uniform(0.0, math.pi)])
        rows.append(FourMomentum(m, m * 2.0 ** rng.uniform(-8.0, 52.0), theta, rng.uniform(-7, 7)))
    return rows + [
        FourMomentum(1.5, 0.0),
        FourMomentum(1.0, 2.0**10, 1.1, 0.7),
        FourMomentum(1.0, 2.0**52, 1.1, 0.7),
        FourMomentum(0.5, 2.0**51),
        FourMomentum(0.7, 0.7 * 2.0**52, math.pi, 0.3),
    ]


CASES = {
    "default convention": (_momenta(11, 24), PhaseConvention()),
    "phases and a norm": (_momenta(12, 24), PhaseConvention(0.3, -2.0, 0.9, 2.5)),
}


def _theta_conj(x):
    """Theta conj(x), Theta = [[0, -1], [1, 0]]."""
    return mpmath.matrix([-mpmath.conj(x[1]), mpmath.conj(x[0])])


def _exact_row(m, p, theta, phi, conv):
    """(left, right, family, six) of one row as mpmath columns: left and
    right by helicity (up, dn), family in FAMILY order, six as (right, left)
    blocks for the helicities +1, 0, -1."""
    m, p, theta, phi = (mpmath.mpf(float(x)) for x in (m, p, theta, phi))
    e = mpmath.sqrt(m * m + p * p)
    st = mpmath.sin(theta)
    n = (st * mpmath.cos(phi), st * mpmath.sin(phi), mpmath.cos(theta))

    # spin 1/2
    c, s = mpmath.cos(theta / 2), mpmath.sin(theta / 2)
    em, ep = mpmath.expj(-phi / 2), mpmath.expj(phi / 2)
    chi = (mpmath.matrix([c * em, s * ep]), mpmath.matrix([-s * em, c * ep]))
    sp = p * mpmath.matrix([[n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], -n[2]]])
    den = mpmath.sqrt(2 * m * (e + m))
    lam_r = ((e + m) * mpmath.eye(2) + sp) / den
    lam_l = ((e + m) * mpmath.eye(2) - sp) / den
    scale = mpmath.sqrt(m) if conv.norm is None else mpmath.mpf(conv.norm)
    rest = [scale * mpmath.expj(t) * x for t, x in zip((conv.theta1, conv.theta2), chi)]
    left = [lam_l * x for x in rest]
    right = [lam_r * x for x in rest]
    ll = [_theta_conj(x) for x in left]
    rr = [_theta_conj(x) for x in right]
    halves = (
        [(1j * t, x) for t, x in zip(ll, left)]  # lambda^S
        + [(x, -1j * t) for t, x in zip(rr, right)]  # rho^S
        + [(-1j * t, x) for t, x in zip(ll, left)]  # lambda^A
        + [(x, 1j * t) for t, x in zip(rr, right)]  # rho^A
    )
    family = [mpmath.matrix(list(a) + list(b)) for a, b in halves]

    # spin 1: xi_h are the columns of Rz(phi) Ry(theta)
    r = 1 / mpmath.sqrt(2)
    j1 = mpmath.matrix([[0, r, 0], [r, 0, r], [0, r, 0]])
    j2 = mpmath.matrix([[0, -1j * r, 0], [1j * r, 0, -1j * r], [0, 1j * r, 0]])
    j3 = mpmath.diag([1, 0, -1])
    ry = mpmath.eye(3) - 1j * mpmath.sin(theta) * j2 + (mpmath.cos(theta) - 1) * j2 * j2
    rot = mpmath.diag([mpmath.expj(-phi), 1, mpmath.expj(phi)]) * ry
    jn = n[0] * j1 + n[1] * j2 + n[2] * j3
    sh, ch = p / m, e / m
    boost_r = mpmath.eye(3) + sh * jn + (ch - 1) * jn * jn
    boost_l = mpmath.eye(3) - sh * jn + (ch - 1) * jn * jn
    six = []
    for k, h in enumerate((1, 0, -1)):
        xi = rot.column(k)
        assert mpmath.norm(jn * xi - h * xi) < mpmath.mpf(10) ** (10 - DIGITS)
        six.append((boost_r * xi, boost_l * xi))
    return left, right, family, six


def _relative_error(got, want):
    """||got - want|| / ||want|| for a float row and an mpmath column."""
    return float(mpmath.norm(mpmath.matrix(got.tolist()) - want) / mpmath.norm(want))


@pytest.mark.parametrize("case", CASES)
def test_boosted_spinors_hold_their_precision_at_every_momentum(case):
    momenta, conv = CASES[case]
    g = halfspin.build_spinor_grid(momenta, conv)
    assert (g.pmag / g.mass).max() == 2.0**52
    u = spin1.weinberg_u(g)
    errors = []
    with mpmath.workdps(DIGITS):
        for i in range(len(momenta)):
            left, right, family, six = _exact_row(g.mass[i], g.pmag[i], g.theta[i], g.phi[i], conv)
            pairs = (
                [(g.left[i, k], x) for k, x in enumerate(left)]
                + [(g.right[i, k], x) for k, x in enumerate(right)]
                + [(g.family[i, k], x) for k, x in enumerate(family)]
                + [(u[i, k, :3], r) for k, (r, _) in enumerate(six)]
                + [(u[i, k, 3:], l) for k, (_, l) in enumerate(six)]
            )
            errors += [(_relative_error(got, want), i) for got, want in pairs]
    worst, row = max(errors)
    assert worst <= 4 * EPS, f"{worst / EPS:.3g} eps at |p|/m = {g.pmag[row] / g.mass[row]:.3g}"
