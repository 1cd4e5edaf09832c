"""Named check suites over configurable momentum grids.

The 35 checks live in one registry.  Each entry is a function of the
SuiteConfig, registered with the `_check` decorator under a stable id
("<suite>/<name>", the suite being the id's prefix), a descriptive anchor
and a tolerance rule: a function of `cfg.tolerance`, or None for a
'reported' check.  The function returns an Evaluation: the residuals it
measured, the `values` the report carries, and named structural predicates
(a group table, an eigenspace dimension, a margin).

One runner, `_run`, turns every Evaluation into a CheckResult.  The worst
residual is taken with np.max, so a NaN residual propagates and fails the
check.  A false predicate fails the check whatever the tolerance, and its
displayed residual is at least 1.0.  A reported check judges nothing: it
never fails and its numbers ride in `values`.

The default grid is 3 momentum magnitudes x 6 directions, all in the
meridian plane (azimuth 0 or pi).  That plane is where the spin-1
transverse-reality identities hold exactly; off-plane behavior has its own
reported check.  Rendering is deterministic: identical configs give
byte-identical reports.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import fieldops, fock, halfspin, linalg, spin1
from .halfspin import DN, UP, FourMomentum, PhaseConvention

KNOWN_SUITES = ("linalg", "halfspin", "spin1", "fock", "fieldops")

_MERIDIAN = [
    (0.0, 0.0),
    (math.pi / 2, 0.0),
    (math.pi, 0.0),
    (math.pi / 2, math.pi),
    (math.pi / 4, 0.0),
    (3 * math.pi / 4, math.pi),
]


@dataclass(frozen=True)
class SuiteConfig:
    masses: tuple = (1.0,)
    n_magnitudes: int = 3
    n_directions: int = 6
    tolerance: float = 1e-12
    theta1: float = 0.0
    theta2: float = 0.0
    thetac: float = 0.0
    norm: float | None = None
    suites: tuple = KNOWN_SUITES
    convention: PhaseConvention = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        masses = tuple(float(m) for m in self.masses)
        if not masses or not all(math.isfinite(m) and m > 0 for m in masses):
            raise ValueError("masses must be finite and positive")
        if self.n_magnitudes < 1 or self.n_directions < 1:
            raise ValueError("grid must be at least 1x1")
        # the largest magnitude, 2 ** ((n - 1) / 2), must be a finite float
        if (self.n_magnitudes - 1) / 2 >= sys.float_info.max_exp:
            raise ValueError("grid has too many magnitudes: the largest overflows a float")
        # `not >= 0` also rejects NaN
        if not self.tolerance >= 0:
            raise ValueError("tolerance must be >= 0")
        convention = PhaseConvention(self.theta1, self.theta2, self.thetac, self.norm)
        suites = tuple(self.suites)
        unknown = [s for s in suites if s not in KNOWN_SUITES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown}")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "suites", suites)
        object.__setattr__(self, "convention", convention)
        self.momenta()  # every grid momentum must lie in the kinematic domain

    def directions(self):
        out = list(_MERIDIAN[: self.n_directions])
        k = 1
        while len(out) < self.n_directions:
            out.append((math.pi * k / (self.n_directions + 1), 0.0))
            k += 1
        return out

    def magnitudes(self):
        n = self.n_magnitudes
        return [2.0 ** (k - (n - 1) / 2) for k in range(n)]

    def momenta(self):
        return [
            FourMomentum(m, mag, th, ph)
            for m in self.masses
            for mag in self.magnitudes()
            for th, ph in self.directions()
        ]

    def to_dict(self) -> dict:
        return {
            "masses": list(self.masses),
            "n_magnitudes": self.n_magnitudes,
            "n_directions": self.n_directions,
            "tolerance": self.tolerance,
            "theta1": self.theta1,
            "theta2": self.theta2,
            "thetac": self.thetac,
            "norm": self.norm,
            "suites": list(self.suites),
        }


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    anchor: str
    status: str  # pass | fail | reported
    max_residual: float
    tol: float | None
    values: dict

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "anchor": self.anchor,
            "status": self.status,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "values": _jsonable(self.values),
        }


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, complex):
        return {"re": float(x.real), "im": float(x.imag)}
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


# ---------------------------------------------------------------------------
# the registry and its runner


@dataclass(frozen=True)
class Evaluation:
    """What one check measured.

    residuals: every number the check judges against its tolerance (for a
    reported check, the numbers behind its headline); values: what the
    report carries alongside them; predicates: named structural statements,
    any false one fails the check whatever the tolerance.
    """

    residuals: list
    values: dict = field(default_factory=dict)
    predicates: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Check:
    check_id: str
    anchor: str
    tol: Callable[[SuiteConfig], float] | None  # None: reported
    evaluate: Callable[[SuiteConfig], Evaluation]


# tolerance rules
def _given(cfg: SuiteConfig) -> float:
    return cfg.tolerance


def _at_least(floor: float):
    return lambda cfg: max(cfg.tolerance, floor)


def _tight(cfg: SuiteConfig) -> float:
    return min(cfg.tolerance, 1e-15)


def _fixed(tol: float):
    return lambda cfg: tol


_REGISTRY: list[_Check] = []


def _check(check_id: str, anchor: str, tol=_given):
    """Register a check; tol is its tolerance rule, None for a reported check."""

    def register(evaluate):
        _REGISTRY.append(_Check(check_id, anchor, tol, evaluate))
        return evaluate

    return register


def _worst(residuals, floor: float = 0.0) -> float:
    """Largest residual, at least `floor`; unlike max(), np.max keeps NaN."""
    return float(np.max(np.asarray(residuals, dtype=float), initial=floor))


def _least(ratios) -> float:
    """Smallest ratio (inf when there is none); NaN propagates."""
    return float(np.min(np.asarray(ratios, dtype=float), initial=math.inf))


def _run(check: _Check, cfg: SuiteConfig) -> CheckResult:
    ev = check.evaluate(cfg)
    holds = all(ev.predicates.values())
    worst = _worst(ev.residuals, 0.0 if holds else 1.0)
    tol = None if check.tol is None else float(check.tol(cfg))
    status = "reported" if tol is None else "pass" if holds and worst <= tol else "fail"
    return CheckResult(check.check_id, check.anchor, status, worst, tol, ev.values)


def _prop_residual(v, img) -> float:
    """Least-squares proportionality gap: min_c ||img - c v||."""
    v = np.asarray(v, dtype=complex)
    img = np.asarray(img, dtype=complex)
    c = np.vdot(v, img) / np.vdot(v, v)
    return float(np.linalg.norm(img - c * v))


def _pinned_conv(cfg: SuiteConfig) -> PhaseConvention:
    """cfg phases with thetac forced to the real-eigenvalue convention."""
    return PhaseConvention(cfg.theta1, cfg.theta2, 0.0, cfg.norm)


# ---------------------------------------------------------------------------
# linalg suite


@_check(
    "linalg/antilinear-algebra", "antilinear application, composition and squares", _at_least(1e-14)
)
def _antilinear_algebra(cfg: SuiteConfig):
    c = halfspin.charge_conjugation_op(cfg.convention)
    j = linalg.AntilinearOp(linalg.cmat([[0, -1], [1, 0]]), conjugates=True)
    res = [
        linalg.max_abs(c.squared().matrix - np.eye(4)),
        linalg.max_abs(j.squared().matrix + np.eye(2)),
    ]
    rng = np.random.default_rng(7)
    for _ in range(16):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = rng.standard_normal() + 1j * rng.standard_normal()
        # antilinearity: op(a v + w) = conj(a) op(v) + op(w)
        res.append(linalg.max_abs(c(a * v + w) - (np.conjugate(a) * c(v) + c(w))))
    return Evaluation(
        res,
        {
            "conjugation_square_sign": c.square_sign(),
            "rotation_square_sign": j.square_sign(),
        },
    )


@_check("linalg/kron-mixed-product", "tensor product compatibility", _at_least(1e-13))
def _kron(cfg: SuiteConfig):
    rng = np.random.default_rng(11)
    res = []
    for _ in range(8):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        res.append(linalg.max_abs(np.kron(a, b) @ np.kron(v, w) - np.kron(a @ v, b @ w)))
    return Evaluation(res)


# ---------------------------------------------------------------------------
# halfspin suite


@_check("halfspin/helicity-spinors", "helicity two-spinor convention")
def _helicity_spinors(cfg: SuiteConfig):
    res = []
    for th, ph in cfg.directions():
        n = FourMomentum(1.0, 1.0, th, ph).nhat
        sn = np.tensordot(n, halfspin.SIGMA, axes=(0, 0))
        for h in (UP, DN):
            chi = halfspin.helicity_eigenspinor(th, ph, h)
            res.append(float(np.linalg.norm(sn @ chi - h * chi)))
            res.append(abs(float(np.linalg.norm(chi)) - 1.0))
    rt = 1 / math.sqrt(2)
    res.append(
        linalg.max_abs(halfspin.helicity_eigenspinor(math.pi / 2, 0.0, UP) - np.array([rt, rt]))
    )
    res.append(
        linalg.max_abs(halfspin.helicity_eigenspinor(math.pi / 2, 0.0, DN) - np.array([-rt, rt]))
    )
    return Evaluation(res)


@_check("halfspin/conjugation-eigenvalues", "self/anti-self conjugate eigenvalues")
def _conjugation_eigenvalues(cfg: SuiteConfig):
    momenta = cfg.momenta()
    # the square is +1 for every conjugation phase; the +-1 eigenvalue
    # statement is pinned to the real-eigenvalue convention thetac = 0
    squares = []
    for thetac in (0.0, 0.9, math.pi / 2, cfg.thetac):
        op = halfspin.charge_conjugation_op(
            PhaseConvention(cfg.theta1, cfg.theta2, thetac, cfg.norm)
        )
        squares.append(linalg.max_abs(op.squared().matrix - np.eye(4)))
    conv = _pinned_conv(cfg)
    c = halfspin.charge_conjugation_op(conv)
    res = list(squares)
    for p in momenta:
        b = halfspin.build_spinor_basis(p, conv)
        for _, psi, sign in b.charge_family():
            res.append(float(np.linalg.norm(c(psi) - sign * psi)))
    return Evaluation(
        res,
        {"momenta": len(momenta), "family_size": 8, "square_residual": _worst(squares)},
    )


@_check("halfspin/eigenstructure-split", "u/v helicity eigenspinors vs non-eigen conjugate family")
def _eigenstructure_split(cfg: SuiteConfig):
    conv = cfg.convention
    eigen = []
    lam_ratios = []
    parity_ratios = []
    for p in cfg.momenta():
        ops = halfspin.discrete_ops(p.nhat)
        b = halfspin.build_spinor_basis(p, conv)
        for h in (UP, DN):
            for uv in (b.dirac_u(h), b.dirac_v(h)):
                eigen.append(float(np.linalg.norm(ops.helicity @ uv - 0.5 * h * uv)))
            for fam in (b.lam_s, b.lam_a, b.rho_s, b.rho_a):
                psi = fam[h]
                _, res = linalg.eigen_residual(ops.helicity, psi)
                lam_ratios.append(res / float(np.linalg.norm(psi)))
        if abs(p.nhat[2]) < 0.99:  # parity proportionality can hold on-axis
            br = halfspin.build_spinor_basis(p.reflected(), conv)
            for h in (UP, DN):
                psi = b.lam_s[h]
                # both readings: gamma^0 as a matrix at fixed argument, and
                # the full action with the momentum argument reflected
                _, fixed = linalg.eigen_residual(ops.parity, psi)
                img = ops.parity @ br.lam_s[h]
                parity_ratios.append(fixed / float(np.linalg.norm(psi)))
                parity_ratios.append(_prop_residual(psi, img) / float(np.linalg.norm(img)))
    lam_min = _least(lam_ratios)
    parity_min = _least(parity_ratios)
    # the eigen part is judged against tol; a collapsed non-eigen margin fails
    return Evaluation(
        eigen,
        {
            "helicity_noneigen_min_ratio": lam_min,
            "parity_noneigen_min_ratio": parity_min,
        },
        {"helicity margin > 0.1": lam_min > 0.1, "parity margin > 0.1": parity_min > 0.1},
    )


@_check(
    "halfspin/chiral-helicity-halves", "chiral-helicity eigenvalues on the conjugate family", None
)
def _chiral_helicity(cfg: SuiteConfig):
    p = cfg.momenta()[0]
    ops = halfspin.discrete_ops(p.nhat)
    b = halfspin.build_spinor_basis(p, cfg.convention)
    eigenvalues = {}
    ratios = []
    for name, fam in (("lam_s", b.lam_s), ("lam_a", b.lam_a), ("rho_s", b.rho_s), ("rho_a", b.rho_a)):
        for h, tag in ((UP, "up"), (DN, "dn")):
            c, res = linalg.eigen_residual(ops.chiral_helicity, fam[h])
            eigenvalues[f"{name}_{tag}"] = complex(np.round(c, 12))
            ratios.append(res / float(np.linalg.norm(fam[h])))
    return Evaluation(
        ratios,
        {"eigenvalues": eigenvalues, "note": "normalization of the half-unit is a convention"},
    )


@_check("halfspin/dynamical-residuals", "first-order momentum-space relations")
def _dynamical_residuals(cfg: SuiteConfig):
    bases = [halfspin.build_spinor_basis(p, cfg.convention) for p in cfg.momenta()]
    res = [r for b in bases for r in halfspin.dynamical_residuals(b).values()]
    b = bases[0]
    flipped = halfspin.dynamical_residuals(b, flip_third_sign=True)["r3"]
    expected = 2 * b.momentum.mass * float(np.linalg.norm(b.rho_s[UP]))
    return Evaluation(
        res,
        {
            "frequency_map": "S-family with exp(-ip.x), A-family with exp(+ip.x)",
            "flipped_sign_selftest": flipped,
            "flipped_sign_expected": expected,
        },
    )


@_check("halfspin/dirac-connection", "Dirac-to-conjugate-basis connection matrix")
def _dirac_connection(cfg: SuiteConfig):
    # the fixed connection matrix is the unit-phase statement; nonzero rest
    # phases split the blocks and no per-row phase can repair that
    conv = PhaseConvention(0.0, 0.0, 0.0, cfg.norm)
    reps = [
        halfspin.connection_check(halfspin.build_spinor_basis(p, conv)) for p in cfg.momenta()
    ]
    phases0 = reps[0].phases
    drift = [linalg.max_abs(rep.phases - phases0) for rep in reps]
    return Evaluation(
        [rep.aligned_residual for rep in reps] + drift,
        {
            "raw_residual": _worst([rep.raw_residual for rep in reps]),
            "phase_diagonal": [complex(np.round(c, 12)) for c in phases0],
            "phase_drift_across_grid": _worst(drift),
            "pinned_rest_phases": "theta1 = theta2 = 0",
        },
    )


_GRAM_PAIRS = [
    (0.0, 0.0),
    (math.pi / 2, 0.0),
    (0.0, math.pi / 2),
    (math.pi / 4, math.pi / 4),
    (0.3, 0.4),
    (math.pi, 0.0),
    (1.1, -0.6),
    (math.pi / 3, math.pi / 6),
]


@_check(
    "halfspin/biorthonormality-structure",
    "conjugate-family Gram layout and magnitudes",
    _at_least(4e-12),
)
def _biorthonormality_structure(cfg: SuiteConfig):
    momenta = cfg.momenta()
    p = momenta[min(4, len(momenta) - 1)]
    n2 = cfg.convention.rest_scale(p.mass) ** 2
    res = []
    cross_track = {}
    for t1, t2 in _GRAM_PAIRS:
        conv = PhaseConvention(t1, t2, cfg.thetac, cfg.norm)
        g = halfspin.biorthonormality_gram(halfspin.build_spinor_basis(p, conv))
        mag = 2 * n2 * abs(math.cos(t1 + t2))
        # the two families decouple exactly when the phase sum is 0 or pi;
        # elsewhere the cross block is 2 N^2 sin(t1 + t2) sized by identity
        cross = linalg.max_abs([g[:2, 2:], g[2:, :2]])
        res += [
            linalg.max_abs(np.diag(g)),
            abs(abs(g[0, 1]) - mag),
            abs(abs(g[1, 0]) - mag),
            linalg.max_abs(g[0, 1] + g[1, 0]),
            linalg.max_abs(g[2, 3] + g[0, 1]),
            abs(cross - 2 * n2 * abs(math.sin(t1 + t2))),
        ]
        cross_track[f"cross_{t1:.2f}_{t2:.2f}"] = cross
    return Evaluation(
        res,
        {
            "phase_pairs": len(_GRAM_PAIRS),
            "zero_at_quarter_turn": True,
            "cross_family_magnitudes": cross_track,
        },
    )


@_check("halfspin/biorthonormality-sign", "signed value of the (up, dn) cross product", None)
def _biorthonormality_sign(cfg: SuiteConfig):
    p = cfg.momenta()[0]
    vals = {}
    gaps = []
    n2 = cfg.convention.rest_scale(p.mass) ** 2
    for t1, t2 in ((0.0, 0.0), (0.3, 0.4)):
        conv = PhaseConvention(t1, t2, cfg.thetac, cfg.norm)
        g = halfspin.biorthonormality_gram(halfspin.build_spinor_basis(p, conv))
        measured = g[0, 1]
        displayed = 2j * n2 * math.cos(t1 + t2)
        vals[f"measured_up_dn_{t1:.1f}_{t2:.1f}"] = complex(np.round(measured, 12))
        vals[f"displayed_up_dn_{t1:.1f}_{t2:.1f}"] = complex(np.round(displayed, 12))
        gaps.append(abs(measured - displayed))
    vals["note"] = (
        "the realized (up,dn) product carries the opposite sign to the "
        "displayed one; the (dn,up) product carries the displayed sign; "
        "flipping the down spinor's sign restores it but breaks the exact "
        "connection alignment"
    )
    return Evaluation(gaps, vals)


@_check("halfspin/gauge-orbit", "conjugation status along the gauge orbit")
def _gauge_orbit(cfg: SuiteConfig):
    conv = _pinned_conv(cfg)
    c = halfspin.charge_conjugation_op(conv)
    res = []
    momenta = cfg.momenta()[:6]
    for p in momenta:
        b = halfspin.build_spinor_basis(p, conv)
        for alpha in (0.0, 0.4, 1.1, math.pi / 2, 2.7):
            gl, gr = halfspin.gauge_lambda(alpha), halfspin.gauge_rho(alpha)
            for name, psi, sign in b.charge_family():
                m = gl if name.startswith("lam") else gr
                img = m @ psi
                res.append(float(np.linalg.norm(c(img) - sign * img)))
    return Evaluation(res, {"alphas": 5, "momenta": len(momenta)})


@_check(
    "halfspin/exchange-quadruple", "exchange-map aliases, quaternion closure, conjugation status"
)
def _exchange_quadruple(cfg: SuiteConfig):
    # the displayed aliases hold at unit rest phases
    conv = PhaseConvention(0.0, 0.0, 0.0, cfg.norm)
    bases = [halfspin.build_spinor_basis(p, conv) for p in cfg.momenta()]
    res = []
    for b in bases:
        p = b.momentum
        res.extend(halfspin.xi_alias_residuals(b).values())
        # exact factorization V_k = W_k . diag(Xi, Xi)
        z2 = np.zeros((2, 2))
        xi = halfspin.xi_matrix(p.phi)
        g = np.block([[xi, z2], [z2, xi]])
        for v, w in zip(halfspin.xi_quadruple(p.phi), halfspin.W_PARTS):
            res.append(linalg.max_abs(v - w @ g))
    table = halfspin.w_group_table()
    squares = [table[(k, k)] for k in range(4)]
    # every exchange image is again an eigenvector with a definite sign
    c = halfspin.charge_conjugation_op(conv)
    sign_map = {}
    for b in bases[:4]:
        for k, v in enumerate(halfspin.xi_quadruple(b.momentum.phi)):
            for name, psi, sign in b.charge_family():
                if not name.startswith("lam"):
                    continue
                img = v @ psi
                gap = {s: float(np.linalg.norm(c(img) - s * img)) for s in (+1, -1)}
                new_sign = min(gap, key=gap.get)
                res.append(gap[new_sign])
                sign_map[f"V{k + 1}_{name}"] = f"{sign:+d} -> {new_sign:+d}"
    return Evaluation(
        res,
        {
            "w_squares": [f"{s:+d}*W{k}" for s, k in squares],
            "closure_order": 8,
            "status_map": sign_map,
        },
        # the three non-identity maps square to the same central -1
        {"squares +1, -1, -1, -1": squares == [(1, 0), (-1, 0), (-1, 0), (-1, 0)]},
    )


_MASSLESS_RATIO = 1e-4


@_check(
    "halfspin/massless-limit", "single-helicity survival at vanishing mass", _fixed(_MASSLESS_RATIO)
)
def _massless_limit(cfg: SuiteConfig):
    # the vanishing statement assumes the sqrt(m) normalization
    conv = PhaseConvention(cfg.theta1, cfg.theta2, cfg.thetac, None)
    rows = halfspin.massless_scan([1e-2, 1e-4, 1e-6, 1e-8], conv)
    ratios = [r["ratio"] for r in rows]
    # judged by predicates alone; the tolerance shown is the ratio bound
    return Evaluation(
        [],
        {"rows": rows},
        {
            "ratio falls with the mass": all(
                ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1)
            ),
            "ratio at the smallest mass within the bound": ratios[-1] <= _MASSLESS_RATIO,
            "down member norm stays 2": abs(rows[-1]["lam_s_dn_norm"] - 2.0) <= 0.01,
        },
    )


@_check("halfspin/second-order-tensors", "antisymmetric tensor pair and free-field residuals")
def _second_order(cfg: SuiteConfig):
    sig, til = halfspin.FGM_SIGMA, halfspin.FGM_TILDE
    res = []
    for i in range(3):
        res.append(linalg.max_abs(sig[(0, i + 1)] - 1j * halfspin.SIGMA[i]))
        res.append(linalg.max_abs(til[(0, i + 1)] + 1j * halfspin.SIGMA[i]))
    res.append(linalg.max_abs(sig[(1, 2)] - halfspin.SIGMA[2]))
    res.append(linalg.max_abs(til[(1, 2)] - halfspin.SIGMA[2]))
    bases = [halfspin.build_spinor_basis(p, cfg.convention) for p in cfg.momenta()]
    for b in bases:
        r = halfspin.fgm_residuals(b)
        res += [r["right"], r["left"]]
    f = np.zeros((4, 4))
    f[0, 1], f[1, 0] = 1.0, -1.0
    sample = halfspin.fgm_residuals(bases[0], g=0.3, fmunu=f, x=[0.5, 0.2, 0.0, 0.0])
    return Evaluation(res, {"coupled_sample": sample})


# ---------------------------------------------------------------------------
# spin1 suite


@_check("spin1/wigner-theta", "spin-1 Wigner matrix and helicity triad")
def _theta3(cfg: SuiteConfig):
    t = spin1.THETA3
    res = [linalg.max_abs(t @ t - np.eye(3))]
    for j in spin1.JVEC:
        res.append(linalg.max_abs(t @ j @ t + np.conjugate(j)))
    for th, ph in cfg.directions():
        n = FourMomentum(1.0, 1.0, th, ph).nhat
        jn = n[0] * spin1.J1 + n[1] * spin1.J2 + n[2] * spin1.J3
        for h in spin1.HELICITIES:
            xi = spin1.helicity_eigenvector(th, ph, h)
            res.append(float(np.linalg.norm(jn @ xi - h * xi)))
    return Evaluation(res)


@_check("spin1/on-shell-contraction", "covariant family squares the mass on six-spinors")
def _on_shell(cfg: SuiteConfig):
    momenta = cfg.momenta()
    res = [spin1.on_shell_residual(p, h) for p in momenta for h in spin1.HELICITIES]
    return Evaluation(res, {"momenta": len(momenta), "helicities": 3})


@_check("spin1/majorana-unitarity", "real-frame unitary and its displayed conjugate", _tight)
def _majorana_unitarity(cfg: SuiteConfig):
    u = spin1.MAJORANA_U
    return Evaluation(
        [
            linalg.max_abs(u @ linalg.dagger(u) - np.eye(6)),
            linalg.max_abs(linalg.dagger(u) @ u - np.eye(6)),
            linalg.max_abs(spin1.DISPLAYED_U_DAGGER - linalg.dagger(u)),
        ]
    )


@_check("spin1/majorana-real-family", "real forms of the covariant family")
def _majorana_family(cfg: SuiteConfig):
    rep = spin1.majorana_family_report(cfg.tolerance)
    return Evaluation(
        [rep["family_residual"], rep["family_imag_part"], rep["five_residual"]], rep
    )


@_check(
    "spin1/plain-unitary-diagnostic", "what the displayed unitary alone does to the family", None
)
def _plain_unitary(cfg: SuiteConfig):
    d = spin1.plain_unitary_diagnostic()
    return Evaluation(
        [d["g00_lands_on_displayed_five"], d["five_lands_on_displayed_g00"]],
        dict(
            d,
            note=(
                "the bare unitary swaps the time-time and chirality targets "
                "and flips the time-space sign; composing with the parity "
                "mixer (see CHIRAL_TO_MAJORANA) restores every displayed form"
            ),
        ),
    )


@_check("spin1/chirality-flip", "real-frame v equals the chirality matrix times u", _tight)
def _chirality_flip(cfg: SuiteConfig):
    momenta = cfg.momenta() + [FourMomentum(cfg.masses[0], 1.0, math.pi / 3, math.pi / 5)]
    res = [spin1.chirality_flip_residual(p, h) for p in momenta for h in spin1.HELICITIES]
    return Evaluation(res, {"includes_offplane_direction": True})


@_check("spin1/transverse-reality", "real/imaginary-part identities on the meridian grid")
def _transverse_reality(cfg: SuiteConfig):
    judged = (
        "u_re_match",
        "u_im_flip",
        "long_u_re_vanishes",
        "long_u_pure_imag",
        "long_v_pure_real",
        "split_exact",
    )
    res = []
    for p in cfg.momenta():
        rep = spin1.transverse_reality_report(p)
        res += [rep[k] for k in judged]
    return Evaluation(res)


@_check("spin1/transverse-reality-offplane", "the same identities off the meridian plane", None)
def _transverse_offplane(cfg: SuiteConfig):
    p = FourMomentum(cfg.masses[0], 1.0, math.pi / 3, math.pi / 5)
    rep = spin1.transverse_reality_report(p)
    rep["note"] = (
        "off the meridian plane the split parts stop being real and the "
        "identities acquire finite residuals; the algebraic split u = "
        "u_re + i u_im itself stays exact"
    )
    return Evaluation([rep["u_re_match"]], rep)


@_check("spin1/selfconjugacy-dichotomy", "square signs decide existence of self-conjugate spinors")
def _selfconjugacy(cfg: SuiteConfig):
    rep = spin1.selfconjugacy_analysis()
    half_sign = halfspin.charge_conjugation_op(cfg.convention).square_sign()
    return Evaluation(
        [rep["eigenvector_residual"]],
        dict(rep, half_spin_square_sign=half_sign),
        {
            "plain spin-1 square -1": rep["square_sign_plain"] == -1,
            "twisted spin-1 square +1": rep["square_sign_twisted"] == +1,
            "spin-1/2 square +1": half_sign == +1,
            "eigenspaces split 6 + 6": rep["plus_dim"] == 6 and rep["minus_dim"] == 6,
            "nonexistence margin sqrt(2)": abs(rep["nonexistence_margin"] - math.sqrt(2)) < 1e-9,
        },
    )


@_check("spin1/reality-classes", "conjugation eigenvectors become pure real or pure imaginary")
def _reality_classes(cfg: SuiteConfig):
    conv = cfg.convention
    vh = spin1.HALF_MAJORANA_FRAME
    c_half = halfspin.charge_conjugation_op(PhaseConvention()).matrix
    w = spin1.CHIRAL_TO_MAJORANA
    m_tw = spin1.TWISTED_CONJUGATION.matrix
    res = [
        linalg.max_abs(vh @ c_half @ vh.T - np.eye(4)),
        linalg.max_abs(w @ m_tw @ w.T - np.eye(6)),
    ]
    classes = {}
    as_expected = []
    for p in cfg.momenta()[:6]:
        b = halfspin.build_spinor_basis(p, conv)
        half_vecs = {name: psi for name, psi, _ in b.charge_family()}
        for name, (kind, minority) in spin1.reality_classes(half_vecs, vh).items():
            as_expected.append(kind == ("real" if "_s_" in name else "imaginary"))
            res.append(minority)
            classes[f"half_{name}"] = kind
        one_vecs = {}
        for h in spin1.HELICITIES:
            one_vecs[f"one_plus_{h}"] = spin1.lambda_like(p, h, +1)
            one_vecs[f"one_minus_{h}"] = spin1.lambda_like(p, h, -1)
        for name, (kind, minority) in spin1.reality_classes(one_vecs, w).items():
            as_expected.append(kind == ("real" if "plus" in name else "imaginary"))
            res.append(minority)
            classes[name] = kind
    return Evaluation(
        res, {"classes": classes}, {"every class as expected": all(as_expected)}
    )


# ---------------------------------------------------------------------------
# fock suite

# displayed action tables, frozen: (ptag, helicity, branch) ->
# ((ptag', helicity', branch'), phase)
_INV_TABLE = {
    ("up", +1): ("dn", +1, 1j),
    ("dn", +1): ("up", +1, -1j),
    ("up", -1): ("dn", -1, 1j),
    ("dn", -1): ("up", -1, -1j),
}
_CHG_TABLE = {
    ("up", +1): ("up", -1, 1.0),
    ("dn", +1): ("dn", -1, 1.0),
    ("up", -1): ("up", +1, -1.0),
    ("dn", -1): ("dn", +1, -1.0),
}
_FLIP_TABLE = {
    ("up", +1): ("dn", -1, -1.0),
    ("dn", +1): ("up", -1, -1.0),
    ("up", -1): ("dn", +1, 1.0),
    ("dn", -1): ("up", +1, 1.0),
}


@_check(
    "fock/state-tables", "displayed single-particle action tables, unit phases, unitarity", _tight
)
def _state_tables(cfg: SuiteConfig):
    res = []
    targets_match = []
    labels = fock.both_branch_labels(1) + fock.both_branch_labels(0)
    cases = (
        (fock.INVERSION, _INV_TABLE, True),
        (fock.CHARGE, _CHG_TABLE, False),
        (fock.CHARGE_FLIP, _FLIP_TABLE, False),
    )
    for op, table, negate in cases:
        for l in labels:
            h2, b2, phase = table[(l.helicity, l.branch)]
            want = fock.ModeLabel(-l.ptag if negate else l.ptag, h2, b2)
            got, ph = op.rule(l)
            targets_match.append(got == want)
            res.append(abs(ph - phase))
        m = op.matrix_on(fock.both_branch_labels(1))
        res.append(linalg.max_abs(linalg.dagger(m) @ m - np.eye(8)))
    return Evaluation(
        res,
        {"labels_checked": len(labels) * 3},
        {"targets match the tables": all(targets_match)},
    )


@_check(
    "fock/squares-and-commutation", "operator squares, commutator, anticommutator, chains", _tight
)
def _squares_commutation(cfg: SuiteConfig):
    labels = fock.both_branch_labels(1)
    inv, chg, flip = fock.INVERSION, fock.CHARGE, fock.CHARGE_FLIP
    squares = fock.squares_report((inv, chg, flip))
    comm = fock.commutator_report(chg, inv, labels)
    anti = fock.commutator_report(flip, inv, labels)
    # chains on |p,up>^+
    start = fock.FockVector.basis(fock.ModeLabel(1, "up", +1))
    end_comm = fock.FockVector({fock.ModeLabel(-1, "dn", -1): 1j})
    tgt = fock.ModeLabel(-1, "up", -1)
    return Evaluation(
        [
            abs(squares["inversion"] - 1.0),
            abs(squares["charge"] + 1.0),
            abs(squares["charge_flip"] + 1.0),
            comm["commutator"],
            anti["anticommutator"],
            chg.apply(inv.apply(start)).sub(end_comm).norm(),
            inv.apply(chg.apply(start)).sub(end_comm).norm(),
            flip.apply(inv.apply(start)).sub(fock.FockVector({tgt: -1j})).norm(),
            inv.apply(flip.apply(start)).sub(fock.FockVector({tgt: +1j})).norm(),
        ],
        {"squares": squares, "commutator": comm, "anticommutator": anti},
    )


@_check("fock/eigencombinations", "parity and charge eigen-combinations", _tight)
def _eigencombinations(cfg: SuiteConfig):
    rest = fock.parity_eigencombos(0)
    moving = fock.parity_eigencombos(1)
    res = [d[sign]["residual"] for d in (rest, moving) for sign in ("plus", "minus")]
    charges = fock.charge_eigencombos()
    res += [d["residual"] for d in charges.values()]
    return Evaluation(
        res,
        {
            "parity_rest": rest,
            "charge_eigenvalues": {k: d["eigenvalue"] for k, d in charges.items()},
        },
        {
            "charge eigenvalues -+i": all(
                charges[f"{h}_{t}"]["eigenvalue"] == (-1j if t == "plus" else 1j)
                for h in ("up", "dn")
                for t in ("plus", "minus")
            )
        },
    )


@_check(
    "fock/joint-eigen-certificate", "no joint inversion/branch-swap eigenvector in a single branch"
)
def _joint_certificate(cfg: SuiteConfig):
    cert = fock.simultaneous_eigen_certificate()
    return Evaluation([], cert, {"margin >= 1": cert["min_singular_value"] >= 1.0})


@_check("fock/joint-eigen-existence", "joint eigenvectors on the both-branch sector", None)
def _joint_existence(cfg: SuiteConfig):
    both = fock.both_branch_joint_eigenvector()
    anti = fock.anticommuting_pair_margin()
    vals = dict(both)
    vals["anticommuting_pair_margin"] = anti["min_singular_value"]
    vals["note"] = (
        "with both branches admitted the two commuting unitaries do share "
        "an eigenvector (constructed here); for the anticommuting pair the "
        "margin stays above 1/sqrt(2) on the full sector"
    )
    return Evaluation([both["inversion_residual"], both["charge_residual"]], vals)


@_check("fock/operator-state-consistency", "ladder-rule route reproduces the state tables", _tight)
def _operator_state(cfg: SuiteConfig):
    rep = fock.operator_state_consistency()
    return Evaluation([rep["max_residual"]], rep)


# ---------------------------------------------------------------------------
# fieldops suite


@_check("fieldops/mode-structure", "fixed-momentum expansion layout and conjugation involution")
def _mode_structure(cfg: SuiteConfig):
    conv = _pinned_conv(cfg)
    b = halfspin.build_spinor_basis(cfg.momenta()[0], conv)
    nu = fieldops.majorana_mode(b)
    res = []
    for h, tag in ((UP, "up"), (DN, "dn")):
        ann = fock.LadderSymbol("a", tag, False, 1)
        cre = fock.LadderSymbol("a", tag, True, 1)
        res.append(linalg.max_abs(nu.coefficient(ann, +1) - b.lam_s[h]))
        res.append(linalg.max_abs(nu.coefficient(cre, -1) - b.lam_a[h]))
    twice = fieldops.charge_conjugate_expansion(
        fieldops.charge_conjugate_expansion(nu, conv), conv
    )
    res.append(twice.residual(nu))
    distinct = fieldops.majorana_mode(b, distinct_antiparticle=True)
    return Evaluation(
        res,
        {"terms": len(nu.terms), "distinct_labels_available": True},
        {
            "four terms": len(nu.terms) == 4,
            "distinct creator labels": sorted({t.symbol.kind for t in distinct.terms})
            == ["a", "b"],
        },
    )


@_check("fieldops/ziino-split", "even/odd halves match the displayed coefficients")
def _ziino_split(cfg: SuiteConfig):
    conv = _pinned_conv(cfg)
    momenta = cfg.momenta()
    res = []
    for p in momenta:
        b = halfspin.build_spinor_basis(p, conv)
        res.append(fieldops.ziino_split_residual(b))
        even, odd = fieldops.ziino_barut_split(b)
        res.append(even.add(odd).residual(fieldops.majorana_mode(b)))
    return Evaluation(res, {"momenta": len(momenta)})


@_check("fieldops/conjugation-parity", "the halves are conjugation eigen-expansions")
def _conjugation_parity(cfg: SuiteConfig):
    conv = _pinned_conv(cfg)
    res = []
    for p in cfg.momenta()[:8]:
        r = fieldops.conjugation_parity_residuals(halfspin.build_spinor_basis(p, conv))
        res += [r["even"], r["odd"]]
    return Evaluation(res)


@_check("fieldops/dirac-embedding", "projector images land in the mass eigenspaces")
def _dirac_embedding(cfg: SuiteConfig):
    conv = _pinned_conv(cfg)
    momenta = cfg.momenta()
    reps = [fieldops.dirac_from_majorana(halfspin.build_spinor_basis(p, conv)) for p in momenta]
    res = [r[k] for r in reps for k in ("partner_residual", "eigenspace_residual")]
    generic = fieldops.dirac_from_majorana(
        halfspin.build_spinor_basis(momenta[0], PhaseConvention(0.3, 0.4, 0.0, cfg.norm))
    )
    return Evaluation(
        res,
        {
            "generic_phase_singular_values": generic["positive_singular_values"],
            "default_phase_singular_values": reps[0]["positive_singular_values"],
            "note": (
                "at phase sum 0 or pi the two positive images are collinear; "
                "the rank-2 statement needs generic phases"
            ),
        },
        {"rank 2 at generic phases": generic["positive_singular_values"][1] > 1e-6},
    )


@_check("fieldops/quaternion-orbit", "unit-quaternion phase orbit preserves conjugation status")
def _quaternion_orbit(cfg: SuiteConfig):
    conv = _pinned_conv(cfg)
    qi, qj, qk = fieldops.QUATERNION_UNITS
    eye = np.eye(4)
    res = [
        linalg.max_abs(qi @ qi + eye),
        linalg.max_abs(qj @ qj + eye),
        linalg.max_abs(qk @ qk + eye),
        linalg.max_abs(qi @ qj - qk),
        linalg.max_abs(qi @ qj + qj @ qi),
        linalg.max_abs(qi @ qk + qk @ qi),
        linalg.max_abs(qj @ qk + qk @ qj),
    ]
    rng = np.random.default_rng(23)
    qs = [
        fieldops.QuaternionPhase(1.0, (0, 0, 0)),
        fieldops.QuaternionPhase(0.0, (1, 0, 0)),
        fieldops.QuaternionPhase(0.0, (0, 1, 0)),
        fieldops.QuaternionPhase(0.0, (0, 0, 1)),
        fieldops.QuaternionPhase(0.5, (0.5, 0.5, 0.5)),
    ]
    for _ in range(4):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        qs.append(fieldops.QuaternionPhase(v[0], tuple(v[1:])))
    bases = [halfspin.build_spinor_basis(p, conv) for p in cfg.momenta()[:4]]
    for q in qs:
        for b in bases:
            res.append(fieldops.orbit_preserves_conjugation(q, b))
    for a in qs[:5]:
        for b in qs[5:]:
            res.append(fieldops.orbit_group_law(a, b))
    return Evaluation(res, {"units_square": -1, "orbit_points": len(qs)})


# ---------------------------------------------------------------------------
# running and rendering


def run_checks(cfg: SuiteConfig):
    chosen = [c for c in _REGISTRY if c.check_id.split("/")[0] in cfg.suites]
    return [_run(c, cfg) for c in sorted(chosen, key=lambda c: c.check_id)]


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, complex):
        return f"{v.real:.12g}{v.imag:+.12g}j"
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(_jsonable(v), sort_keys=True)
    return str(v)


def render_text(cfg: SuiteConfig, results) -> str:
    lines = ["conjugate-spinor identity checks"]
    lines.append("config: " + json.dumps(cfg.to_dict(), sort_keys=True))
    lines.append("")
    for r in results:
        tol = "-" if r.tol is None else f"{r.tol:.3g}"
        lines.append(
            f"{r.status.upper():<10}{r.check_id:<40}max={r.max_residual:<13.6e}"
            f"tol={tol:<10}{r.anchor}"
        )
        if r.status == "reported":
            for k in sorted(r.values):
                lines.append(f"          . {k} = {_fmt_value(r.values[k])}")
    npass = sum(1 for r in results if r.status == "pass")
    nfail = sum(1 for r in results if r.status == "fail")
    nrep = sum(1 for r in results if r.status == "reported")
    lines.append("")
    lines.append(f"{len(results)} checks: {npass} pass, {nfail} fail, {nrep} reported")
    return "\n".join(lines) + "\n"


def render_json(cfg: SuiteConfig, results) -> str:
    doc = {
        "config": cfg.to_dict(),
        "checks": [r.to_dict() for r in results],
        "summary": {
            "total": len(results),
            "pass": sum(1 for r in results if r.status == "pass"),
            "fail": sum(1 for r in results if r.status == "fail"),
            "reported": sum(1 for r in results if r.status == "reported"),
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
