"""Spin-1/2 momentum-space objects and the identities they satisfy.

Everything downstream (check suites, tables, the CLI) reduces to what is
constructed here: helicity two-spinors, the left/right Weyl boosts, Dirac
spinors u/v, the self and anti-self charge-conjugate bispinors (lambda and
rho families), the charge-conjugation operator, and the discrete-symmetry
matrices acting on all of them.

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
from dataclasses import dataclass, field

import numpy as np

from .linalg import TOL, AntilinearOp, cmat, max_abs, unit_phase_align

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

THETA = cmat([[0, -1], [1, 0]])  # -i sigma_2, real

GAMMA0 = np.block([[np.zeros((2, 2)), ID2], [ID2, np.zeros((2, 2))]]).astype(complex)
GAMMAS = [
    np.block([[np.zeros((2, 2)), -SIGMA[i]], [SIGMA[i], np.zeros((2, 2))]])
    for i in range(3)
]
GAMMA5 = np.block([[ID2, np.zeros((2, 2))], [np.zeros((2, 2)), -ID2]]).astype(complex)

UP, DN = +1, -1


# ---------------------------------------------------------------------------
# kinematics


@dataclass(frozen=True)
class FourMomentum:
    """On-shell momentum given as (mass, |p|, polar, azimuth).

    The energy is always the positive root sqrt(m^2 + |p|^2).  A vanishing
    |p| forgets the direction; it is normalized to the +z axis so that the
    rest-frame limit is unambiguous.
    """

    mass: float
    pmag: float
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        # `not >= 0` also rejects NaN
        if not self.mass >= 0:
            raise ValueError("mass must be >= 0")
        if not self.pmag >= 0:
            raise ValueError("|p| must be >= 0")
        if not -1e-12 <= self.theta <= math.pi + 1e-12:
            raise ValueError("polar angle must lie in [0, pi]")
        theta = min(max(self.theta, 0.0), math.pi)
        phi = self.phi % (2 * math.pi)
        if self.pmag == 0.0:
            theta, phi = 0.0, 0.0
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

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

    def reflected(self) -> "FourMomentum":
        """Space inversion p -> -p."""
        return FourMomentum(self.mass, self.pmag, math.pi - self.theta, self.phi + math.pi)


@dataclass(frozen=True)
class PhaseConvention:
    """Free phases of the construction.

    theta1/theta2 multiply the up/down rest spinors as e^{i theta_h}; thetac
    is the global charge-conjugation phase; norm is the rest normalization N
    (None means sqrt(m), the mass-dimension-1/2 choice that keeps the
    massless limit finite).
    """

    theta1: float = 0.0
    theta2: float = 0.0
    thetac: float = 0.0
    norm: float | None = None

    def rest_scale(self, mass: float) -> float:
        return math.sqrt(mass) if self.norm is None else self.norm

    def rest_phase(self, h: int) -> complex:
        return np.exp(1j * (self.theta1 if h == UP else self.theta2))


# ---------------------------------------------------------------------------
# two-spinors and boosts


def helicity_eigenspinor(theta: float, phi: float, h: int) -> np.ndarray:
    """chi_h for the direction (theta, phi); sigma.n chi_h = h chi_h."""
    if h not in (UP, DN):
        raise ValueError("helicity must be +1 or -1")
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    em = np.exp(-0.5j * phi)
    ep = np.exp(+0.5j * phi)
    if h == UP:
        return np.array([c * em, s * ep])
    return np.array([-s * em, c * ep])


def boost_ops(p: FourMomentum) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Weyl boosts (right, left) for m > 0.

    lam_r = (E + m + sigma.p) / sqrt(2 m (E + m)), lam_l with -sigma.p.
    """
    if p.mass <= 0:
        raise ValueError("finite boosts need m > 0")
    e, m = p.energy, p.mass
    sp = np.tensordot(p.pvec, SIGMA, axes=(0, 0))
    den = math.sqrt(2 * m * (e + m))
    lam_r = ((e + m) * ID2 + sp) / den
    lam_l = ((e + m) * ID2 - sp) / den
    return lam_r, lam_l


def _rest_pair(p: FourMomentum, conv: PhaseConvention):
    chi = {h: helicity_eigenspinor(p.theta, p.phi, h) for h in (UP, DN)}
    n = conv.rest_scale(p.mass)
    return {h: n * conv.rest_phase(h) * chi[h] for h in (UP, DN)}


# ---------------------------------------------------------------------------
# the bispinor family


@dataclass(frozen=True)
class SpinorBasis:
    """All sixteen momentum-space objects for one (p, convention) pair."""

    momentum: FourMomentum
    convention: PhaseConvention
    phi_l: dict = field(repr=False)  # left two-spinors by helicity
    phi_r: dict = field(repr=False)
    lam_s: dict = field(repr=False)
    lam_a: dict = field(repr=False)
    rho_s: dict = field(repr=False)
    rho_a: dict = field(repr=False)

    def dirac_u(self, h: int) -> np.ndarray:
        return np.concatenate([self.phi_r[h], self.phi_l[h]])

    def dirac_v(self, h: int) -> np.ndarray:
        return GAMMA5 @ self.dirac_u(h)

    def lambda_stack(self) -> np.ndarray:
        """Rows: lambda^S_up, lambda^S_dn, lambda^A_up, lambda^A_dn."""
        return np.array([self.lam_s[UP], self.lam_s[DN], self.lam_a[UP], self.lam_a[DN]])

    def uv_stack(self) -> np.ndarray:
        """Rows: u_up, u_dn, v_up, v_dn."""
        return np.array([self.dirac_u(UP), self.dirac_u(DN), self.dirac_v(UP), self.dirac_v(DN)])

    def charge_family(self):
        """(name, spinor, expected S^c eigenvalue) for all eight members."""
        out = []
        for h, tag in ((UP, "up"), (DN, "dn")):
            out.append((f"lam_s_{tag}", self.lam_s[h], +1))
            out.append((f"rho_s_{tag}", self.rho_s[h], +1))
            out.append((f"lam_a_{tag}", self.lam_a[h], -1))
            out.append((f"rho_a_{tag}", self.rho_a[h], -1))
        return out


def build_spinor_basis(
    p: FourMomentum,
    conv: PhaseConvention = PhaseConvention(),
) -> SpinorBasis:
    lam_r, lam_l = boost_ops(p)
    rest = _rest_pair(p, conv)
    phi_l = {h: lam_l @ rest[h] for h in (UP, DN)}
    phi_r = {h: lam_r @ rest[h] for h in (UP, DN)}

    def lam(h, sign):
        return np.concatenate([sign * 1j * THETA @ np.conjugate(phi_l[h]), phi_l[h]])

    def rho(h, sign):
        return np.concatenate([phi_r[h], -sign * 1j * THETA @ np.conjugate(phi_r[h])])

    return SpinorBasis(
        momentum=p,
        convention=conv,
        phi_l=phi_l,
        phi_r=phi_r,
        lam_s={h: lam(h, +1) for h in (UP, DN)},
        lam_a={h: lam(h, -1) for h in (UP, DN)},
        rho_s={h: rho(h, +1) for h in (UP, DN)},
        rho_a={h: rho(h, -1) for h in (UP, DN)},
    )


def charge_conjugation_op(conv: PhaseConvention = PhaseConvention()) -> AntilinearOp:
    """S^c = e^{i thetac} [[0, i Theta], [-i Theta, 0]] K.

    Its square is +identity for every thetac; the lambda^S/rho^S members sit
    at eigenvalue +1 and lambda^A/rho^A at -1.
    """
    m = np.block([[np.zeros((2, 2)), 1j * THETA], [-1j * THETA, np.zeros((2, 2))]])
    return AntilinearOp(np.exp(1j * conv.thetac) * m, conjugates=True)


# ---------------------------------------------------------------------------
# discrete operators


@dataclass(frozen=True)
class DiscreteOps:
    helicity: np.ndarray
    chiral_helicity: np.ndarray
    parity: np.ndarray  # gamma^0; momentum argument flips separately


def discrete_ops(nhat) -> DiscreteOps:
    nhat = np.asarray(nhat, dtype=float)
    if nhat.shape != (3,) or abs(np.linalg.norm(nhat) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit 3-vector")
    sn = np.tensordot(nhat, SIGMA, axes=(0, 0))
    h = 0.5 * np.block([[sn, np.zeros((2, 2))], [np.zeros((2, 2)), sn]])
    return DiscreteOps(helicity=h, chiral_helicity=-GAMMA5 @ h, parity=GAMMA0.copy())


def slash(p: FourMomentum) -> np.ndarray:
    """gamma^mu p_mu with metric (+,-,-,-)."""
    out = p.energy * GAMMA0
    for i in range(3):
        out = out - p.pvec[i] * GAMMAS[i]
    return out


def dynamical_residuals(
    p: FourMomentum,
    conv: PhaseConvention = PhaseConvention(),
    flip_third_sign: bool = False,
) -> dict:
    """Max-over-helicity residuals of the four first-order relations.

    flip_third_sign deliberately tests slash(p) lambda^A + m rho^S instead;
    that residual is 2m-sized and serves as the suite's self-test that the
    checks can fail.
    """
    b = build_spinor_basis(p, conv)
    sl, m = slash(p), p.mass
    s3 = +1.0 if flip_third_sign else -1.0
    pairs = {
        "r1": [(b.lam_s[h], b.rho_a[h], -1.0) for h in (UP, DN)],
        "r2": [(b.rho_a[h], b.lam_s[h], -1.0) for h in (UP, DN)],
        "r3": [(b.lam_a[h], b.rho_s[h], s3) for h in (UP, DN)],
        "r4": [(b.rho_s[h], b.lam_a[h], -1.0) for h in (UP, DN)],
    }
    return {
        k: max_abs([np.linalg.norm(sl @ x + s * m * y) for x, y, s in v])
        for k, v in pairs.items()
    }


# ---------------------------------------------------------------------------
# Dirac connection

# maps the stack (u_up, u_dn, v_up, v_dn) to (lambda^S_up, lambda^S_dn,
# lambda^A_up, lambda^A_dn); momentum independent
CONNECTION = 0.5 * cmat(
    [
        [1, 1j, -1, 1j],
        [-1j, 1, -1j, -1],
        [1, -1j, -1, -1j],
        [1j, 1, 1j, -1],
    ]
)


@dataclass(frozen=True)
class ConnectionReport:
    raw_residual: float
    aligned_residual: float
    phases: np.ndarray  # per-row unit phases that minimize the residual


def connection_check(
    p: FourMomentum,
    conv: PhaseConvention = PhaseConvention(),
) -> ConnectionReport:
    b = build_spinor_basis(p, conv)
    got = CONNECTION @ b.uv_stack()
    want = b.lambda_stack()
    raw = max_abs(got - want)
    phases, aligned = [], []
    for i in range(4):
        c, r = unit_phase_align(want[i], got[i])
        phases.append(c)
        aligned.append(r)
    return ConnectionReport(
        raw_residual=raw, aligned_residual=max_abs(aligned), phases=np.array(phases)
    )


# ---------------------------------------------------------------------------
# gauge transforms and the exchange quadruple


def gauge_lambda(alpha: float) -> np.ndarray:
    """cos(a) - i sin(a) gamma^5; acts on the lambda family."""
    return math.cos(alpha) * ID4 - 1j * math.sin(alpha) * GAMMA5


def gauge_rho(alpha: float) -> np.ndarray:
    return math.cos(alpha) * ID4 + 1j * math.sin(alpha) * GAMMA5


def xi_matrix(phi_p: float) -> np.ndarray:
    """diag(e^{+i phi_p}, e^{-i phi_p}); conjugates the Weyl boosts:
    Xi lam Xi^{-1} = conj(lam) for momenta with azimuth phi_p."""
    return cmat([[np.exp(1j * phi_p), 0], [0, np.exp(-1j * phi_p)]])


def xi_w_parts() -> list[np.ndarray]:
    """Momentum-independent parts of the four exchange maps.

    Each map factors exactly as W_k . diag(Xi, Xi); the W's are
    [1, i gamma^5, i gamma^0, gamma^5 gamma^0] and generate, with signs, the
    order-8 group with central element -1 (squares +1, -1, -1, -1).
    Composition statements about the quadruple are statements about the W
    parts; the common Xi factor commutes with all four.
    """
    return [ID4.copy(), 1j * GAMMA5, 1j * GAMMA0, GAMMA5 @ GAMMA0]


def xi_quadruple(phi_p: float) -> list[np.ndarray]:
    z2 = np.zeros((2, 2))
    xi = xi_matrix(phi_p)
    g = np.block([[xi, z2], [z2, xi]])
    return [w @ g for w in xi_w_parts()]


def xi_alias_residuals(
    p: FourMomentum,
    conv: PhaseConvention = PhaseConvention(),
) -> dict:
    """How far each exchange image sits from its advertised alias.

    The aliases (conj lambda^A, -i conj lambda^S, i gamma^0 conj lambda^A,
    gamma^0 conj lambda^S) hold per helicity at theta1 = theta2 = 0.
    """
    b = build_spinor_basis(p, conv)
    v1, v2, v3, v4 = xi_quadruple(p.phi)
    out = {}
    for h, tag in ((UP, "up"), (DN, "dn")):
        ls, la = b.lam_s[h], b.lam_a[h]
        out[f"alias1_{tag}"] = float(np.linalg.norm(v1 @ ls - np.conjugate(la)))
        out[f"alias2_{tag}"] = float(np.linalg.norm(v2 @ ls + 1j * np.conjugate(ls)))
        out[f"alias3_{tag}"] = float(np.linalg.norm(v3 @ ls - 1j * GAMMA0 @ np.conjugate(la)))
        out[f"alias4_{tag}"] = float(np.linalg.norm(v4 @ ls - GAMMA0 @ np.conjugate(ls)))
    return out


def w_group_table():
    """Closure table of {+-W_k}: table[(j, k)] = (sign, index) with
    W_j W_k = sign * W_index.  Raises if a product escapes the set."""
    ws = xi_w_parts()
    table = {}
    for j, wj in enumerate(ws):
        for k, wk in enumerate(ws):
            prod = wj @ wk
            hit = None
            for l, wl in enumerate(ws):
                for sign in (+1, -1):
                    if max_abs(prod - sign * wl) <= TOL:
                        hit = (sign, l)
            if hit is None:
                raise ValueError(f"product W_{j} W_{k} escapes the set")
            table[(j, k)] = hit
    return table


# ---------------------------------------------------------------------------
# bilinears


def adjoint(psi: np.ndarray) -> np.ndarray:
    return np.conjugate(psi) @ GAMMA0


def biorthonormality_gram(
    p: FourMomentum,
    conv: PhaseConvention = PhaseConvention(),
) -> np.ndarray:
    """G[i, j] = bar(lambda_i) lambda_j over the lambda stack.

    Off diagonal within each family, zero across families; the diagonal
    vanishes identically.  The magnitude of the nonzero entries is
    2 N^2 |cos(theta1 + theta2)|; the sign layout this construction
    realizes is G[0,1] = -2i N^2 cos(theta1+theta2) = -G[1,0] and the
    opposite pattern in the anti block.
    """
    stack = build_spinor_basis(p, conv).lambda_stack()
    return np.array([[adjoint(a) @ b for b in stack] for a in stack])


# ---------------------------------------------------------------------------
# massless behavior


def massless_scan(
    masses,
    pmag: float,
    theta: float = 0.0,
    phi: float = 0.0,
    conv: PhaseConvention = PhaseConvention(),
) -> list[dict]:
    """Norm ratios ||lambda^S_up|| / ||lambda^S_dn|| as m -> 0.

    With N = sqrt(m) the down member stays finite while the up member dies
    like m / (2 |p|); the rows report both.  The statement needs the
    helicity rest basis, which build_spinor_basis always uses.
    """
    masses = list(masses)
    if not masses or any(m <= 0 for m in masses):
        raise ValueError("masses must be positive")
    rows = []
    for m in masses:
        b = build_spinor_basis(FourMomentum(m, pmag, theta, phi), conv)
        up = float(np.linalg.norm(b.lam_s[UP]))
        dn = float(np.linalg.norm(b.lam_s[DN]))
        rows.append({"mass": m, "ratio": up / dn, "lam_s_dn_norm": dn})
    return rows


# ---------------------------------------------------------------------------
# second-order (tensor) structure

_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_i, _j, _k] = 1.0
    _EPS[_j, _i, _k] = -1.0


def fgm_tensors():
    """The two antisymmetric sigma^{mu nu} families as {(mu, nu): 2x2}.

    sigma^{0i} = +i sigma^i on the right-handed side, tilde uses -i; the
    space-space entries coincide: sigma^{ij} = eps_{ijk} sigma^k.
    """
    sig, til = {}, {}
    for mu in range(4):
        sig[(mu, mu)] = np.zeros((2, 2), dtype=complex)
        til[(mu, mu)] = np.zeros((2, 2), dtype=complex)
    for i in range(3):
        sig[(0, i + 1)] = 1j * SIGMA[i]
        sig[(i + 1, 0)] = -1j * SIGMA[i]
        til[(0, i + 1)] = -1j * SIGMA[i]
        til[(i + 1, 0)] = 1j * SIGMA[i]
    for i in range(3):
        for j in range(3):
            s = np.tensordot(_EPS[i, j], SIGMA, axes=(0, 0))
            sig[(i + 1, j + 1)] = s
            til[(i + 1, j + 1)] = s.copy()
    return sig, til


def fgm_residuals(
    p: FourMomentum,
    g: float = 0.0,
    fmunu=None,
    x=None,
    conv: PhaseConvention = PhaseConvention(),
) -> dict:
    """Second-order operator residuals on the boosted phi_R/phi_L pair.

    pi^{+-}_mu = p_mu +- g A_mu with A_mu = -(1/2) F_{mu nu} x^nu (linear
    gauge for constant F; x defaults to the origin, where A vanishes and
    the residual reduces to |p.p - m^2| times the spinor norm).
    """
    if fmunu is None:
        fmunu = np.zeros((4, 4))
    fmunu = np.asarray(fmunu, dtype=float)
    if fmunu.shape != (4, 4) or max_abs(fmunu + fmunu.T) > 1e-12:
        raise ValueError("field tensor must be 4x4 antisymmetric")
    x4 = np.zeros(4) if x is None else np.asarray(x, dtype=float)
    if x4.shape != (4,):
        raise ValueError("x must be a 4-vector")

    a = -0.5 * fmunu @ x4
    p4 = np.concatenate([[p.energy], p.pvec])
    pip = p4 + g * a
    pim = p4 - g * a
    # metric (+,-,-,-) scalar; components are numbers so ordering drops out
    scal = pip[0] * pim[0] - np.dot(pip[1:], pim[1:])

    sig, til = fgm_tensors()
    fsig = sum(sig[(mu, nu)] * fmunu[mu, nu] for mu in range(4) for nu in range(4))
    ftil = sum(til[(mu, nu)] * fmunu[mu, nu] for mu in range(4) for nu in range(4))

    b = build_spinor_basis(p, conv)
    m2 = p.mass**2
    op_r = scal * ID2 - m2 * ID2 - 0.5 * g * fsig
    op_l = scal * ID2 - m2 * ID2 - 0.5 * g * ftil
    return {
        "right": float(np.linalg.norm(op_r @ b.phi_r[UP])),
        "left": float(np.linalg.norm(op_l @ b.phi_l[UP])),
    }
