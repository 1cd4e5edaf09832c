"""Spin-1/2 momentum-space objects and the identities they satisfy.

Everything downstream (check suites, tables, the CLI) reduces to what is
constructed here: helicity two-spinors and their left/right Weyl boosts
(a number on each helicity state), Dirac spinors u/v, the self and anti-self
charge-conjugate bispinors (lambda and rho families), the charge-conjugation
operator, and the discrete-symmetry matrices acting on all of them.

Conventions, fixed once and used everywhere:

* helicity two-spinors (sigma.n eigenvectors, +1 and -1):
    chi_plus  = ( cos(t/2) e^{-i f/2},  sin(t/2) e^{+i f/2} )
    chi_minus = (-sin(t/2) e^{-i f/2},  cos(t/2) e^{+i f/2} )
* Theta = -i sigma_2 = [[0, -1], [1, 0]]; the Wigner property reads
  Theta conj(chi_plus) = chi_minus, Theta conj(chi_minus) = -chi_plus.
* gamma matrices in the chiral basis with the right-handed block on top:
    gamma^0 = [[0, 1], [1, 0]] blocks, gamma^i = [[0, -sigma^i],
    [sigma^i, 0]], gamma^5 = diag(1, 1, -1, -1).
* rest-frame two-spinors are N e^{i theta_h} chi_h(p) with N = sqrt(m) by
  default, always in the helicity basis of the momentum direction; the
  small-mass vanishing statements of massless_scan rely on that basis.
* bispinor families (eta = helicity label):
    lambda^S = (+i Theta conj(phi_L), phi_L),
    lambda^A = (-i Theta conj(phi_L), phi_L),
    rho^S    = (phi_R, -i Theta conj(phi_R)),
    rho^A    = (phi_R, +i Theta conj(phi_R)).
* frequency pairing (documented, load-bearing for the sign of the mass
  terms): lambda^S and rho^A ride exp(-i p.x), lambda^A and rho^S ride
  exp(+i p.x).  Under that pairing all four momentum-space relations hold
  with a plus sign: slash(p) lambda^S = +m rho^A, slash(p) rho^A =
  +m lambda^S, slash(p) lambda^A = +m rho^S, slash(p) rho^S = +m lambda^A.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

import numpy as np

from .linalg import (
    TOL,
    AntilinearOp,
    ByIdentity,
    apply,
    cmat,
    diagonal,
    frozen,
    max_abs,
    norm,
    record,
    rowscale,
    unit_phase_align,
)

ID2 = frozen(np.eye(2, dtype=complex))
ID4 = frozen(np.eye(4, dtype=complex))

SIGMA = frozen(cmat([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]))

THETA = frozen(cmat([[0, -1], [1, 0]]))  # -i sigma_2, real

GAMMA0 = frozen(np.block([[np.zeros((2, 2)), ID2], [ID2, np.zeros((2, 2))]]).astype(complex))
GAMMAS = frozen(np.block([[np.zeros((3, 2, 2)), -SIGMA], [SIGMA, np.zeros((3, 2, 2))]]))
GAMMA5 = frozen(np.block([[ID2, np.zeros((2, 2))], [np.zeros((2, 2)), -ID2]]).astype(complex))

UP, DN = +1, -1


# ---------------------------------------------------------------------------
# kinematics


class FourMomentum(record("FourMomentum", "mass pmag theta phi")):
    """On-shell momentum given as (mass, |p|, polar, azimuth).

    The energy is always the positive root sqrt(m^2 + |p|^2).  A vanishing
    |p| forgets the direction; it is normalized to the +z axis so that the
    rest-frame limit is unambiguous.
    """

    __slots__ = ()

    def __new__(cls, mass: float, pmag: float, theta: float = 0.0, phi: float = 0.0):
        # `not >= 0` also rejects NaN
        if not mass >= 0:
            raise ValueError("mass must be >= 0")
        if not pmag >= 0:
            raise ValueError("|p| must be >= 0")
        if mass > 0:
            # the accepted domain: the checks judge absolute residuals, which
            # grow with |p|, so beyond it a default grid fails (--grid 106x1
            # to 1020x1 fail four checks) or overflows (--grid 1024x1)
            den = 2 * mass * (math.hypot(mass, pmag) + mass)
            if not (pmag <= 2.0**52 * mass and 0 < den < math.inf):
                raise ValueError(
                    "momentum outside the kinematic domain: need |p| <= 2**52 m "
                    "and 2 m (E + m) finite and nonzero"
                )
        if not -1e-12 <= theta <= math.pi + 1e-12:
            raise ValueError("polar angle must lie in [0, pi]")
        if not math.isfinite(phi):
            raise ValueError("azimuth must be finite")
        theta = min(max(theta, 0.0), math.pi)
        phi = phi % (2 * math.pi)
        if pmag == 0.0:
            theta, phi = 0.0, 0.0
        return super().__new__(cls, mass, pmag, theta, phi)

    @property
    def energy(self) -> float:
        return math.hypot(self.mass, self.pmag)

    @property
    def nhat(self) -> np.ndarray:
        st, ct = math.sin(self.theta), math.cos(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi), ct])

    @property
    def pvec(self) -> np.ndarray:
        return self.pmag * self.nhat


class PhaseConvention(record("PhaseConvention", "theta1 theta2 thetac norm")):
    """Free phases of the construction.

    theta1/theta2 multiply the up/down rest spinors as e^{i theta_h}; thetac
    is the global charge-conjugation phase; norm is the rest normalization N
    (None means sqrt(m), the mass-dimension-1/2 choice that keeps the
    massless limit finite).  For a phase scan theta1 and theta2 are equal-
    length tuples, one phase per grid row.
    """

    __slots__ = ()

    def __new__(cls, theta1=0.0, theta2=0.0, thetac: float = 0.0, norm: float | None = None):
        t1, t2 = np.asarray(theta1, dtype=float), np.asarray(theta2, dtype=float)
        if t1.ndim > 1 or t1.shape != t2.shape:
            raise ValueError("theta1 and theta2 must be numbers or phase scans of equal length")
        if not (np.isfinite(t1).all() and np.isfinite(t2).all() and math.isfinite(thetac)):
            raise ValueError("phases must be finite")
        # N**2 scales every bilinear; it must be a finite normal float
        if norm is not None and not sys.float_info.min <= norm * norm < math.inf:
            raise ValueError("norm must have a square that is a finite normal float")
        return super().__new__(cls, theta1, theta2, thetac, norm)

    def rest_scale(self, mass):
        """N at a mass, or at each of an array of them."""
        return np.sqrt(mass) if self.norm is None else np.full_like(mass, self.norm)


# ---------------------------------------------------------------------------
# two-spinors and boosts
#
# Kinematic functions read `mass`, `pmag`, `theta`, `phi`, `energy`, `nhat`
# and `pvec` from their argument: scalars on a FourMomentum, arrays with one
# row per momentum on a SpinorGrid.  Their results carry the same leading
# row axis.


def _helicity_pair(theta, phi) -> np.ndarray:
    """(chi_up, chi_dn) on axis -2: sigma.n chi_h = h chi_h."""
    c, s = np.cos(np.asarray(theta) / 2), np.sin(np.asarray(theta) / 2)
    em, ep = np.exp(-0.5j * np.asarray(phi)), np.exp(+0.5j * np.asarray(phi))
    entries = (c * em, s * ep, -s * em, c * ep)
    return np.concatenate([x[..., None] for x in entries], axis=-1).reshape(c.shape + (2, 2))


def _boost_eigenvalues(mass, pmag, energy) -> np.ndarray:
    """(e^w, 1, e^-w) on a new last axis, with e^w = (E + |p|)/m.

    A boost of rapidity w along n acts on an eigenstate of J.n with
    eigenvalue h as the number e^{h w}; e^-w is m/(E + |p|), never
    (E - |p|)/m, which cancels at large |p|.
    """
    mass = np.asarray(mass)
    if not (mass > 0).all():
        raise ValueError("finite boosts need m > 0")
    s = np.asarray(energy + pmag)
    out = np.empty(s.shape + (3,))
    out[..., 0], out[..., 1], out[..., 2] = s / mass, 1.0, mass / s
    return out


# ---------------------------------------------------------------------------
# the bispinor family over a momentum grid

# Member order along the family axis of SpinorGrid.family, with the S^c
# eigenvalue of each member; LAM_S etc. pick a member's (up, dn) pair.
FAMILY = tuple(f"{m}_{h}" for m in ("lam_s", "rho_s", "lam_a", "rho_a") for h in ("up", "dn"))
FAMILY_SIGNS = frozen(np.array([+1.0, +1.0, +1.0, +1.0, -1.0, -1.0, -1.0, -1.0]))
LAM_S, RHO_S, LAM_A, RHO_A = (slice(k, k + 2) for k in (0, 2, 4, 6))
# rows (lambda^S_up, lambda^S_dn, lambda^A_up, lambda^A_dn) of the family
LAMBDAS = (0, 1, 4, 5)
# +i Theta and -i Theta; and each member's (top, bottom) halves among the 6
# blocks of family_of: phi_L, phi_R, +-i Theta conj(phi_L), +-i Theta conj(phi_R)
_I_THETA = frozen(np.array([1j, -1j])[:, None, None] * THETA)
_HALVES = frozen(np.array([[2, 0], [1, 5], [3, 0], [1, 4]]))


def family_of(chiral: np.ndarray) -> np.ndarray:
    """The (N, 8, 4) family in FAMILY order of the two-spinors `chiral`,
    (N, 2 [phi_L, phi_R], 2 [helicity], 2): lambda = (+-i Theta conj(phi_L),
    phi_L) and rho = (phi_R, -+i Theta conj(phi_R)), for any two-spinors."""
    # +-i Theta conj of both: (row, phi_L then phi_R, sign, helicity, component)
    turned = np.matvec(_I_THETA[:, None], np.conjugate(chiral)[:, :, None])
    blocks = np.concatenate([chiral, turned.reshape(-1, 4, 2, 2)], axis=1)
    return blocks[:, _HALVES].swapaxes(2, 3).reshape(-1, 8, 4)


class SpinorGrid(
    ByIdentity,
    namedtuple("SpinorGrid", "convention mass pmag theta phi energy nhat left right family"),
):
    """The spin-1/2 family at N momenta for one convention, row axis first.

    Kinematics are (N,) arrays (nhat is (N, 3)); `momentum(i)` is row i as
    a FourMomentum.  `left`/`right` are the
    boosted two-spinors phi_L/phi_R as (N, 2, 2), helicity (up, dn) on
    axis 1; `family` is (N, 8, 4) in FAMILY order.  A grid holds only the
    arrays `build` made and caches nothing derived from them.
    """

    # no instance dict: assigning any attribute raises
    __slots__ = ()
    __repr__ = object.__repr__

    @property
    def pvec(self) -> np.ndarray:
        return self.pmag[:, None] * self.nhat

    def head(self, n: int) -> "SpinorGrid":
        """The grid of the first n rows; a phase scan keeps its first n pairs."""
        conv = self.convention
        if np.asarray(conv.theta1).ndim:
            conv = conv._replace(theta1=conv.theta1[:n], theta2=conv.theta2[:n])
        return self._make((conv, *(a[:n] for a in self[1:])))

    def momentum(self, i: int) -> FourMomentum:
        """Row i as a FourMomentum record."""
        return FourMomentum(*(float(a[i]) for a in (self.mass, self.pmag, self.theta, self.phi)))

    def uv_stack(self) -> np.ndarray:
        """(N, 4, 4), rows u_up, u_dn, v_up, v_dn."""
        u = np.concatenate([self.right, self.left], axis=-1)
        return np.concatenate([u, apply(GAMMA5, u)], axis=1)

    def lambda_stack(self) -> np.ndarray:
        """(N, 4, 4), rows lambda^S_up, lambda^S_dn, lambda^A_up, lambda^A_dn."""
        return self.family[:, LAMBDAS]

    @property
    def reflected(self) -> "SpinorGrid":
        """The same construction at -p, row for row (space inversion): theta
        -> pi - theta, phi -> (phi + pi) mod 2 pi, a rest row stays at (0, 0)."""
        rest = self.pmag == 0.0
        theta = np.where(rest, 0.0, math.pi - self.theta)
        phi = np.where(rest, 0.0, (self.phi + math.pi) % (2 * math.pi))
        return type(self).build(self.mass, self.pmag, theta, phi, self.energy, self.convention)

    @classmethod
    def build(cls, mass, pmag, theta, phi, energy, conv: PhaseConvention):
        """The grid of validated (N,) kinematic arrays, the normalized
        angles and E = math.hypot(m, |p|) of FourMomentum rows."""
        st = np.sin(theta)
        columns = (st * np.cos(phi), st * np.sin(phi), np.cos(theta))
        nhat = np.concatenate([x[:, None] for x in columns], axis=1)
        # the boosts act on helicity spinors as numbers: e^{h w/2} on phi_R
        # and e^{-h w/2} on phi_L, helicity h = +1, -1 on axis 1
        half = np.sqrt(_boost_eigenvalues(mass, pmag, energy)[:, ::2, None])
        scale = conv.rest_scale(mass)
        # rest two-spinors N e^{i theta_h} chi_h, (N, 2, 2) by helicity; a
        # phase is one number, or one per row in a phase scan
        phases = np.exp(1j * np.array([conv.theta1, conv.theta2], dtype=float).T)
        if phases.shape[:-1] not in ((), mass.shape):
            raise ValueError("a phase scan needs one phase pair per grid row")
        rest = scale[:, None, None] * phases[..., None] * _helicity_pair(theta, phi)
        # (row, phi_L then phi_R, helicity, component)
        chiral = np.concatenate([half[:, None, ::-1], half[:, None]], axis=1) * rest[:, None]
        family = family_of(chiral)
        return cls(conv, mass, pmag, theta, phi, energy, nhat, chiral[:, 0], chiral[:, 1], family)


def build_spinor_grid(momenta, conv: PhaseConvention = PhaseConvention()) -> SpinorGrid:
    rows = [(p.mass, p.pmag, p.theta, p.phi, p.energy) for p in momenta]
    return SpinorGrid.build(*np.array(rows, dtype=float).reshape(-1, 5).T.copy(), conv)


def build_spinor_basis(p: FourMomentum, conv: PhaseConvention = PhaseConvention()) -> SpinorGrid:
    """The one-row grid of a single momentum."""
    return build_spinor_grid([p], conv)


_CONJUGATION_BLOCK = frozen(
    np.block([[np.zeros((2, 2)), 1j * THETA], [-1j * THETA, np.zeros((2, 2))]])
)


def charge_conjugation_op(conv: PhaseConvention = PhaseConvention()) -> AntilinearOp:
    """S^c = e^{i thetac} [[0, i Theta], [-i Theta, 0]] K.

    Its square is +identity for every thetac; the lambda^S/rho^S members sit
    at eigenvalue +1 and lambda^A/rho^A at -1.
    """
    return AntilinearOp(np.exp(1j * conv.thetac) * _CONJUGATION_BLOCK)


def conjugation_gaps(psi: np.ndarray, conv: PhaseConvention) -> np.ndarray:
    """||S^c psi - s psi|| per family member, s its S^c eigenvalue in
    FAMILY_SIGNS: psi has the family on axis -2."""
    return norm(charge_conjugation_op(conv)(psi) - FAMILY_SIGNS[:, None] * psi)


# ---------------------------------------------------------------------------
# discrete operators


# arrays; parity is gamma^0, the momentum argument flips separately
DiscreteOps = namedtuple("DiscreteOps", "helicity chiral_helicity parity")


def discrete_ops(nhat) -> DiscreteOps:
    """The operators for one direction (3,) or for rows of them (N, 3)."""
    nhat = np.asarray(nhat, dtype=float)
    if nhat.shape[-1:] != (3,) or not np.isfinite(nhat).all():
        raise ValueError("direction must be a finite 3-vector")
    # numpy's norm over an axis: the square root of the summed squares
    if not (abs(np.sqrt((nhat * nhat).sum(axis=-1)) - 1.0) <= 1e-9).all():
        raise ValueError("direction must be a unit 3-vector")
    sn = 0.5 * (nhat @ SIGMA.reshape(3, 4)).reshape(nhat.shape[:-1] + (2, 2))
    h = np.zeros(sn.shape[:-2] + (4, 4), dtype=complex)
    h[..., :2, :2] = h[..., 2:, 2:] = sn
    return DiscreteOps(helicity=h, chiral_helicity=-GAMMA5 @ h, parity=GAMMA0)


def slash(p) -> np.ndarray:
    """gamma^mu p_mu with metric (+,-,-,-)."""
    # at most one space term per real or imaginary entry: the sum is exact
    return rowscale(p.energy) * GAMMA0 - (p.pvec[..., None, None] * GAMMAS).sum(axis=-3)


def dynamical_residuals(g: SpinorGrid) -> dict:
    """Residuals of the four first-order relations slash(p) x = +m y,
    (N, 2) each: row, helicity."""
    # (row, relation, helicity, component): x and y of r1..r4, the members
    # (lambda^S, rho^A, lambda^A, rho^S) and (rho^A, lambda^S, rho^S, lambda^A)
    members = g.family.reshape(-1, 4, 2, 4)
    x, y = members[:, [0, 3, 2, 1]], members[:, [3, 0, 1, 2]]
    r = norm(apply(slash(g), x) - rowscale(g.mass)[:, None] * y)
    return {f"r{k + 1}": r[:, k] for k in range(4)}


# ---------------------------------------------------------------------------
# Dirac connection

# maps the stack (u_up, u_dn, v_up, v_dn) to (lambda^S_up, lambda^S_dn,
# lambda^A_up, lambda^A_dn); momentum independent
CONNECTION = frozen(0.5 * cmat([
    [1, 1j, -1, 1j],
    [-1j, 1, -1j, -1],
    [1, -1j, -1, -1j],
    [1j, 1, 1j, -1],
]))


# raw_residual (N,); aligned_residual (N, 4), row and member; phases (N, 4),
# the unit phases that minimize the residual
ConnectionReport = namedtuple("ConnectionReport", "raw_residual aligned_residual phases")


def connection_check(g: SpinorGrid) -> ConnectionReport:
    """The raw residual per row, (N,), and the phase-aligned residual and
    phase per row and lambda member, (N, 4)."""
    got = CONNECTION @ g.uv_stack()
    want = g.lambda_stack()
    phases, aligned = unit_phase_align(want, got)
    return ConnectionReport(
        raw_residual=max_abs(got - want, axis=(-2, -1)),
        aligned_residual=aligned,
        phases=phases,
    )


# ---------------------------------------------------------------------------
# gauge transforms and the exchange quadruple


def gauge_lambda(alpha) -> np.ndarray:
    """cos(a) - i sin(a) gamma^5; acts on the lambda family.  alpha is a
    number or an array, with one matrix per entry."""
    return rowscale(np.cos(alpha)) * ID4 - rowscale(1j * np.sin(alpha)) * GAMMA5


def gauge_rho(alpha) -> np.ndarray:
    return rowscale(np.cos(alpha)) * ID4 + rowscale(1j * np.sin(alpha)) * GAMMA5


# Momentum-independent parts of the four exchange maps.  Each map factors
# exactly as W_k . diag(Xi, Xi); the W's are [1, i gamma^5, i gamma^0,
# gamma^5 gamma^0] and generate, with signs, the order-8 group with central
# element -1 (squares +1, -1, -1, -1).  Composition statements about the
# quadruple are statements about the W parts; the common Xi factor commutes
# with all four.  One (4, 4, 4) array, W_k on axis 0.
W_PARTS = frozen(np.stack([ID4, 1j * GAMMA5, 1j * GAMMA0, GAMMA5 @ GAMMA0]))


def xi_factor(phi_p) -> np.ndarray:
    """diag(Xi, Xi), the momentum-dependent factor of every exchange map."""
    e, f = np.exp(1j * np.asarray(phi_p)), np.exp(-1j * np.asarray(phi_p))
    return diagonal(e, f, e, f)


def xi_quadruple(phi_p) -> np.ndarray:
    """The maps W_k diag(Xi, Xi) on axis 0: (4, 4, 4), or (4, N, 4, 4)."""
    g = xi_factor(phi_p)
    return W_PARTS.reshape((4,) + (1,) * (g.ndim - 2) + (4, 4)) @ g


# alias k is _ALIAS_MATRICES[k] (1, -i, i gamma^0, gamma^0) times the conjugate
# of the members lambda^A, lambda^S, lambda^A, lambda^S
_ALIAS_MATRICES = frozen(np.array([1.0, -1j, 1j, 1.0])[:, None, None] * [ID4, ID4, GAMMA0, GAMMA0])


def xi_alias_residuals(g: SpinorGrid) -> dict:
    """How far each exchange image sits from its advertised alias:
    {alias<k>: (N, 2)}, row and helicity.

    The aliases (conj lambda^A, -i conj lambda^S, i gamma^0 conj lambda^A,
    gamma^0 conj lambda^S) hold per helicity at theta1 = theta2 = 0.
    """
    images = apply(xi_quadruple(g.phi)[:, :, None], g.family[:, LAM_S])
    # (alias, row, helicity, component); each matrix has one nonzero entry
    # per row, so it changes no nonzero bit of the conjugate it acts on
    conjugates = np.conjugate(g.family.reshape(-1, 4, 2, 4)[:, [2, 0, 2, 0]]).swapaxes(0, 1)
    r = norm(images - apply(_ALIAS_MATRICES, conjugates))
    return {f"alias{k + 1}": r[k] for k in range(4)}


def w_group_table():
    """Closure table of {+-W_k}: table[(j, k)] = (sign, index) with
    W_j W_k = sign * W_index.  Raises if a product escapes the set."""
    ws = W_PARTS
    prods = ws[:, None] @ ws  # (j, k)
    signs = np.array([+1, -1])
    # hit[j, k, l, s]: W_j W_k = signs[s] W_l
    gaps = prods[:, :, None, None] - signs[:, None, None] * ws[:, None]
    hit = max_abs(gaps, axis=(-2, -1)) <= TOL
    escaped = np.argwhere(~hit.any(axis=(-2, -1)))
    if len(escaped):
        j, k = escaped[0]
        raise ValueError(f"product W_{j} W_{k} escapes the set")
    return {(j, k): (int(signs[s]), l) for j, k, l, s in np.argwhere(hit).tolist()}


# ---------------------------------------------------------------------------
# bilinears


def adjoint(psi: np.ndarray) -> np.ndarray:
    return np.conjugate(psi) @ GAMMA0


def lambda_gram(family: np.ndarray) -> np.ndarray:
    """G[n, i, j] = bar(lambda_i) lambda_j over (N, 8, 4) families' lambda rows."""
    stack = family[:, LAMBDAS]
    return adjoint(stack) @ np.swapaxes(stack, -1, -2)


def biorthonormality_gram(g: SpinorGrid) -> np.ndarray:
    """G[n, i, j] = bar(lambda_i) lambda_j over row n's lambda stack.

    Off diagonal within each family, zero across families; the diagonal
    vanishes identically.  The magnitude of the nonzero entries is
    2 N^2 |cos(theta1 + theta2)|; the sign layout this construction
    realizes is G[0,1] = -2i N^2 cos(theta1+theta2) = -G[1,0] and the
    opposite pattern in the anti block.
    """
    return lambda_gram(g.family)


# ---------------------------------------------------------------------------
# massless behavior


def massless_scan(masses, conv: PhaseConvention = PhaseConvention()) -> list[dict]:
    """Norm ratios ||lambda^S_up|| / ||lambda^S_dn|| as m -> 0 at |p| = 1
    along +z.

    With N = sqrt(m) the down member stays finite while the up member dies
    like m / (2 |p|); the rows report both.  The statement needs the
    helicity rest basis, which build_spinor_basis always uses.
    """
    masses = list(masses)
    if not masses or any(m <= 0 for m in masses):
        raise ValueError("masses must be positive")
    g = build_spinor_grid([FourMomentum(m, 1.0) for m in masses], conv)
    up, dn = norm(g.family[:, LAM_S]).T
    return [
        {"mass": m, "ratio": r, "lam_s_dn_norm": d}
        for m, r, d in zip(masses, (up / dn).tolist(), dn.tolist())
    ]


# ---------------------------------------------------------------------------
# second-order (tensor) structure

_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_i, _j, _k] = 1.0
    _EPS[_j, _i, _k] = -1.0
frozen(_EPS)


def _sigma_tensors():
    sig = np.zeros((4, 4, 2, 2), dtype=complex)
    sig[0, 1:], sig[1:, 0] = 1j * SIGMA, -1j * SIGMA
    sig[1:, 1:] = np.tensordot(_EPS, SIGMA, axes=(-1, 0))
    til = sig.copy()
    til[0, 1:], til[1:, 0] = sig[1:, 0], sig[0, 1:]
    return sig, til


# The two antisymmetric sigma^{mu nu} families as (4, 4, 2, 2) arrays,
# sigma^{mu nu} = FGM_SIGMA[mu, nu].  sigma^{0i} = +i sigma^i on the
# right-handed side, tilde uses -i; the space-space entries coincide:
# sigma^{ij} = eps_{ijk} sigma^k.
FGM_SIGMA, FGM_TILDE = frozen(np.array(_sigma_tensors()))

