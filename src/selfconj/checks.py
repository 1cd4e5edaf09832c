"""Named check suites over configurable momentum grids.

The 35 checks live in one registry.  Each entry is a function of the
SuiteConfig and of `grid`, which returns the run's SpinorGrid at a pair of
rest phases, by default the configured ones; it is built on first use, once
per pair, at thetac 0, since thetac is the phase of S^c and no spinor
carries it.  An entry is registered with the `_check` decorator under a
stable id ("<suite>/<name>"), a descriptive anchor and a tolerance rule: a
(floor, cap) pair that clamps `cfg.tolerance`, or None for a 'reported'
check.  It returns an Evaluation: the residuals it measured, by name
(arrays with one row per momentum, phase pair, unit vector or group
element, or numbers), the `values` the report carries, and named structural
predicates.  A check that scans fixed sets evaluates them as one array
expression: the rest-phase pairs of a Gram scan or the masses of the
massless scan are the rows of one SpinorGrid build.

A residual array keeps every family axis it was measured over (momentum,
helicity, family member, frequency slot, even/odd half, phase); a library
function reduces only over the components of one vector or matrix.  One
runner, `_run`, turns every Evaluation into a CheckResult; it is the only
code that reduces residuals across those axes or applies a tolerance.  The
worst residual is numpy's maximum, so a NaN residual propagates and fails the
check.  A false predicate fails the check whatever the tolerance, and its
displayed residual is at least 1.0.  A reported check judges nothing and
its numbers ride in `values`.  A library refusal (a ValueError raised
while evaluating) fails that check alone, reported or not, with residual
1.0 and the message in `values["error"]`; any other exception propagates.

The default grid is 3 momentum magnitudes x 6 directions, all in the
meridian plane (azimuth 0 or pi).  That plane is where the spin-1
transverse-reality identities hold exactly; off-plane behavior has its own
reported check.  Rendering is deterministic: identical configs give
byte-identical reports.  The JSON report is strict JSON, written in one
walk with json.dumps(sort_keys=True, indent=2)'s layout; _plain holds the
one set of rules that turn arrays, numpy scalars, complex and non-finite
numbers into JSON values.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import namedtuple

import numpy as np

from . import fieldops, fock, halfspin, linalg, spin1
from .halfspin import DN, FAMILY, FAMILY_SIGNS, LAM_A, LAM_S, LAMBDAS, UP
from .halfspin import FourMomentum, PhaseConvention
from .linalg import apply, norm

KNOWN_SUITES = ("linalg", "halfspin", "spin1", "fock", "fieldops")

_MERIDIAN = [
    (0.0, 0.0),
    (math.pi / 2, 0.0),
    (math.pi, 0.0),
    (math.pi / 2, math.pi),
    (math.pi / 4, 0.0),
    (3 * math.pi / 4, math.pi),
]


_CONFIG_FIELDS = "masses n_magnitudes n_directions tolerance theta1 theta2 thetac norm suites"


def _number(x) -> float:
    """x as a Python float, so that the config echoes plain JSON numbers; a
    bool is refused, though float() would take it."""
    if isinstance(x, (bool, np.bool_)):
        raise ValueError("a config number must not be a bool")
    return float(x)


class SuiteConfig(linalg.record("SuiteConfig", _CONFIG_FIELDS)):
    # immutable; the instance dict holds only the grid's kinematic arrays and
    # the validated `convention`, whose thetac only S^c reads
    def __new__(
        cls,
        masses: tuple = (1.0,),
        n_magnitudes: int = 3,
        n_directions: int = 6,
        tolerance: float = 1e-12,
        theta1: float = 0.0,
        theta2: float = 0.0,
        thetac: float = 0.0,
        norm: float | None = None,
        suites: tuple = KNOWN_SUITES,
    ):
        masses = tuple(_number(m) for m in masses)
        if not masses or not all(math.isfinite(m) and m > 0 for m in masses):
            raise ValueError("masses must be finite and positive")
        if not all(type(n) is int for n in (n_magnitudes, n_directions)):
            raise ValueError("grid sizes must be integers")
        if n_magnitudes < 1 or n_directions < 1:
            raise ValueError("grid must be at least 1x1")
        # the largest magnitude, 2 ** ((n - 1) / 2), must be a finite float
        if (n_magnitudes - 1) / 2 >= sys.float_info.max_exp:
            raise ValueError("grid has too many magnitudes: the largest overflows a float")
        # dtype=object: a ragged nesting is one row per entry, not numpy's error
        if np.asarray(theta1, dtype=object).ndim or np.asarray(theta2, dtype=object).ndim:
            raise ValueError("theta1 and theta2 must be numbers, not one per row")
        tolerance, theta1, theta2, thetac = map(_number, (tolerance, theta1, theta2, thetac))
        norm = None if norm is None else _number(norm)
        # `not >= 0` also rejects NaN; an infinite tolerance would pass any
        # finite residual
        if not (tolerance >= 0 and math.isfinite(tolerance)):
            raise ValueError("tolerance must be finite and >= 0")
        # -0.0 == 0.0, so equal configs must render one zero
        zeros = (abs(x) if x == 0 else x for x in (tolerance, theta1, theta2, thetac))
        tolerance, theta1, theta2, thetac = zeros
        conv = PhaseConvention(theta1, theta2, thetac, norm)  # validates the phases and the norm
        suites = tuple(suites)
        unknown = [s for s in suites if s not in KNOWN_SUITES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown}")
        # each suite once, in KNOWN_SUITES order: one config, one echo
        suites = tuple(s for s in KNOWN_SUITES if s in suites)
        cfg = super().__new__(
            cls, masses, n_magnitudes, n_directions, tolerance, theta1, theta2, thetac, norm, suites
        )
        # the kinematic domain depends on (mass, |p|) alone: one record per
        # pair validates it and gives E = math.hypot(m, |p|); the directions
        # lie in [0, pi] x {0, pi}, where a record would change no bit
        pairs = [FourMomentum(m, mag) for m in masses for mag in cfg.magnitudes()]
        kin = np.array([(p.mass, p.pmag, p.energy) for p in pairs]).repeat(n_directions, axis=0)
        angles = np.array([cfg.directions()]).repeat(len(pairs), axis=0).reshape(-1, 2)
        # the (mass, |p|, theta, phi, E) arrays of the grid rows
        rows = np.concatenate([kin[:, :2], angles, kin[:, 2:]], axis=1).T.copy()
        cfg.__dict__.update(_rows=linalg.frozen(tuple(rows)), convention=conv)
        return cfg

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a SuiteConfig is immutable")

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
        """The grid rows as FourMomentum records, built on each call."""
        return [FourMomentum(*row) for row in zip(*(a.tolist() for a in self._rows[:4]))]

    def to_dict(self) -> dict:
        return self._asdict()


# one check's outcome: status "pass", "fail" or "reported", tol a float (None
# for a reported check), values a dict
class CheckResult(namedtuple("CheckResult", "check_id anchor status max_residual tol values")):
    __slots__ = ()

    def to_dict(self) -> dict:
        """The fields as plain JSON data (see _jsonable)."""
        return _jsonable(self._asdict())


def _plain(x):
    """One step of the JSON conversion of a value that is not a dict, list
    or tuple: a numpy array becomes its nested list, a numpy scalar its
    Python value, a complex {"re", "im"}, a non-finite float the string
    "NaN", "Infinity" or "-Infinity" (so the output parses as strict JSON)
    and any other object but a JSON value its str().  A JSON value comes
    back as itself; anything else returned takes another step."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, float) and not math.isfinite(x):
        return "NaN" if math.isnan(x) else "Infinity" if x > 0 else "-Infinity"
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


def _jsonable(x):
    """Plain JSON data: dict keys become str, tuples lists, and every other
    value is converted by _plain."""
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    y = _plain(x)
    return x if y is x else _jsonable(y)


_QUOTE = json.encoder.encode_basestring_ascii  # json's escaper, in C


def _write_json(x, out: list, pad: str) -> None:
    """Append to `out` the text json.dumps(_jsonable(x), sort_keys=True,
    indent=2) gives, in one walk of x: `pad` is the newline and indent of
    the line x starts on.  JSON values of the exact types str, int and
    finite float are written as json writes them; every other leaf goes
    through _plain."""
    t = type(x)
    if t is float and math.isfinite(x):
        out.append(float.__repr__(x))
    elif t is str:
        out.append(_QUOTE(x))
    elif t is int:
        out.append(int.__repr__(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = pad + "  "
        items = {str(k): v for k, v in x.items()}
        sep = "{" + inner
        for k in sorted(items):
            out.append(sep + _QUOTE(k) + ": ")
            _write_json(items[k], out, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write_json(v, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif x is None:
        out.append("null")
    elif x is True or x is False:
        out.append("true" if x else "false")
    else:
        y = _plain(x)
        if y is not x:
            _write_json(y, out, pad)
        # a subclass of str, int or finite float, written as json writes it
        elif isinstance(x, str):
            out.append(_QUOTE(x))
        elif isinstance(x, int):
            out.append(int.__repr__(x))
        else:
            out.append(float.__repr__(x))


# ---------------------------------------------------------------------------
# the registry and its runner


# What one check measured, three dicts.  residuals: every number the check
# judges against its tolerance (for a reported check, the numbers behind its
# headline), by snake_case name: a real array of any shape, or a number;
# values: what the report carries alongside them; predicates: named
# structural statements, any false one fails the check whatever the
# tolerance.  The empty defaults are shared, so the runner copies `values`
# into the result.
Evaluation = namedtuple("Evaluation", "residuals values predicates", defaults=({}, {}))

# tol: (floor, cap) on cfg.tolerance, None for a reported check; evaluate:
# (cfg, grid) -> Evaluation, where grid(theta1, theta2) is the run's
# SpinorGrid at those rest phases, by default the configured ones
_Check = namedtuple("_Check", "check_id anchor tol evaluate")

_REGISTRY: list[_Check] = []

_TIGHT = (0.0, 1e-15)  # exact algebra on fixed matrices: never looser than 1e-15


def _check(check_id: str, anchor: str, tol=(0.0, math.inf)):
    """Register a check judged at min(max(cfg.tolerance, floor), cap) for
    tol = (floor, cap); tol None marks a reported check."""

    def register(evaluate):
        _REGISTRY.append(_Check(check_id, anchor, tol, evaluate))
        return evaluate

    return register


def _run(check: _Check, cfg: SuiteConfig, grid) -> CheckResult:
    tol = None
    if check.tol is not None:
        floor, cap = check.tol
        tol = float(min(max(cfg.tolerance, floor), cap))
    try:
        ev = check.evaluate(cfg, grid)
    except ValueError as exc:
        # a library refusal (a square that is not +-1, a product outside its
        # group) fails this check alone, as a false predicate would
        return CheckResult(check.check_id, check.anchor, "fail", 1.0, tol, {"error": str(exc)})
    holds = all(ev.predicates.values())
    # dtype=float: a complex residual warns instead of losing its imaginary
    # part silently; unlike the builtin max(), the array's max keeps NaN
    flat = [np.asarray(r, dtype=float).ravel() for r in ev.residuals.values()]
    worst = float(np.concatenate(flat or [[]]).max(initial=0.0 if holds else 1.0))
    status = "reported" if tol is None else "pass" if holds and worst <= tol else "fail"
    return CheckResult(check.check_id, check.anchor, status, worst, tol, dict(ev.values))


def _intertwining(maps, signs, conv: PhaseConvention) -> np.ndarray:
    """|S^c(M e_k) - s M S^c(e_k)| per map M and unit vector e_k of C^4:
    (..., 4) for maps (..., 4, 4) and signs s broadcasting against their
    leading axes.  The gap is real-linear in M and additive in the vector,
    so on the unit vectors it decides S^c M = s M S^c, under which M keeps
    the S^c status of every spinor, up to the sign s."""
    c = halfspin.charge_conjugation_op(conv)
    # the rows of M^T are the images M e_k
    turned = np.matvec(maps[..., None, :, :], c(halfspin.ID4))
    return norm(c(maps.swapaxes(-1, -2)) - np.asarray(signs)[..., None, None] * turned)


# the sixteen unit two-spinors, the real unit vectors e_k and i e_k of
# (phi_L, phi_R): (vector, phi_L then phi_R, helicity, component)
_UNIT_TWO_SPINORS = linalg.frozen(np.concatenate([np.eye(8), 1j * np.eye(8)]).reshape(16, 2, 2, 2))
# the 8 with phi_R = 0, the real unit vectors x_a of phi_L, then the 28 sums
# x_a + x_b, a < b: a real quadratic form Q in phi_L that vanishes on all 36
# vanishes, as Q(x_a + x_b) - Q(x_a) - Q(x_b) is twice its polar form
_UNIT_PHI_L = linalg.frozen(_UNIT_TWO_SPINORS[[0, 1, 2, 3, 8, 9, 10, 11]])
_POLARIZATION = linalg.frozen(
    np.concatenate([_UNIT_PHI_L, (_UNIT_PHI_L[:, None] + _UNIT_PHI_L)[np.triu_indices(8, 1)]])
)


# ---------------------------------------------------------------------------
# linalg suite


@_check(
    "linalg/antilinear-algebra",
    "antilinear application, composition and squares",
    (1e-14, math.inf),
)
def _antilinear_algebra(cfg: SuiteConfig, grid):
    c = halfspin.charge_conjugation_op(cfg.convention)
    j = linalg.AntilinearOp(linalg.cmat([[0, -1], [1, 0]]))
    res = {
        "conjugation_square": linalg.max_abs(c.squared() - halfspin.ID4),
        "rotation_square": linalg.max_abs(j.squared() + halfspin.ID2),
    }
    # M conj(.) is real-linear, so op(i v) = -i op(v) on the unit vectors e_k
    # and i e_k of C^4 gives antilinearity, op(a v + w) = conj(a) op(v) + op(w)
    v = np.concatenate([halfspin.ID4, 1j * halfspin.ID4])
    res["antilinearity"] = linalg.max_abs(c(1j * v) + 1j * c(v), axis=-1)
    return Evaluation(
        res,
        {
            "conjugation_square_sign": c.square_sign(),
            "rotation_square_sign": j.square_sign(),
        },
    )


@_check("linalg/kron-mixed-product", "tensor product compatibility")
def _kron(cfg: SuiteConfig, grid):
    # the chiral-basis Dirac matrices as chirality (x) spin products:
    # gamma^0 = sigma_x (x) 1, gamma^i = Theta (x) sigma^i, gamma^5 = sigma_z (x) 1.
    # The mixed-product law M (a (x) b) = (A a) (x) (B b) is bilinear in
    # (a, b), so on the unit pairs it is M = A (x) B, judged entry by entry
    sigma, theta, one = halfspin.SIGMA, halfspin.THETA, halfspin.ID2
    gammas = np.concatenate([[halfspin.GAMMA0], halfspin.GAMMAS, [halfspin.GAMMA5]])
    chirality = np.array([sigma[0], theta, theta, theta, sigma[2]])
    spin = np.array([one, *sigma, one])
    # (A (x) B)[2 i + k, 2 j + l] = A[i, j] B[k, l]
    kron = (chirality[:, :, None, :, None] * spin[:, None, :, None, :]).reshape(5, 4, 4)
    return Evaluation({"mixed_product": np.abs(gammas - kron)})


# ---------------------------------------------------------------------------
# halfspin suite


@_check("halfspin/helicity-spinors", "helicity two-spinor convention")
def _helicity_spinors(cfg: SuiteConfig, grid):
    # every direction at once: the grid's first rows are the directions
    d = grid().head(cfg.n_directions)
    sn = (d.nhat @ halfspin.SIGMA.reshape(3, 4)).reshape(-1, 2, 2)
    # _helicity_pair: chi_h for h = up, dn on axis 1, sigma.n chi_h = h chi_h
    chi = halfspin._helicity_pair(d.theta, d.phi)
    eigen = norm(apply(sn, chi) - np.array([UP, DN])[:, None] * chi)
    rt = 1 / math.sqrt(2)
    along_x = halfspin._helicity_pair(math.pi / 2, 0.0) - [[rt, rt], [-rt, rt]]
    return Evaluation(
        {"eigen": eigen, "unit_norm": np.abs(norm(chi) - 1.0), "along_x": np.abs(along_x).max(-1)}
    )


@_check("halfspin/conjugation-eigenvalues", "self/anti-self conjugate eigenvalues")
def _conjugation_eigenvalues(cfg: SuiteConfig, grid):
    # the square is +1 for every conjugation phase (linalg/antilinear-algebra
    # judges the configured one); the +-1 eigenvalues are pinned to thetac 0
    phases = np.exp(1j * np.array([0.0, 0.9, math.pi / 2]))
    m = linalg.rowscale(phases) * halfspin.charge_conjugation_op().matrix
    squares = linalg.max_abs(m @ np.conjugate(m) - halfspin.ID4, axis=(-2, -1))
    # no grid: each gap is real-linear in (phi_L, phi_R), and a grid row's
    # family is family_of its own two-spinors; at thetac 0, as grids are built
    family = halfspin.family_of(_UNIT_TWO_SPINORS)
    return Evaluation(
        {"squares": squares, "eigen": halfspin.conjugation_gaps(family, PhaseConvention())},
        {"family_size": 8},
    )


@_check("halfspin/eigenstructure-split", "u/v helicity eigenspinors vs non-eigen conjugate family")
def _eigenstructure_split(cfg: SuiteConfig, grid):
    g = grid()
    helicity = halfspin.discrete_ops(g.nhat).helicity
    uv = g.uv_stack()
    # h/2 per FAMILY member, the first four also those of the (u, v) stack
    half_h = 0.5 * np.array([UP, DN] * 4)[:, None]
    eigen = norm(apply(helicity, uv) - half_h[:4] * uv)
    # helicity flips the sign of the Theta conj(phi) half, so it sends each
    # member to h/2 times its S^c partner, four places along FAMILY
    partner = norm(apply(helicity, g.family) - half_h * np.roll(g.family, 4, axis=1))
    # parity is gamma^0 with the momentum reflected: gamma^0 lambda^S_h(-p)
    # = eps_h (cos 2 theta_h lambda^A_h(p) - i sin 2 theta_h lambda^S_h(p)),
    # eps_h = -h until the reflected azimuth phi + pi wraps, +h from there
    turn = 2 * np.array([[cfg.theta1], [cfg.theta2]])
    eps = np.where(g.phi < math.pi, -1.0, 1.0)[:, None, None] * [[UP], [DN]]
    want = eps * (np.cos(turn) * g.family[:, LAM_A] - 1j * np.sin(turn) * g.family[:, LAM_S])
    # the law needs |p| > 0, which every run row has: a rest row's axis is
    # pinned to +z, where gamma^0 lambda^S = rho^A instead
    got = apply(halfspin.GAMMA0, g.reflected.family[:, LAM_S])
    return Evaluation(
        {"uv_eigen": eigen, "helicity_partner": partner, "parity_turn": norm(got - want)}
    )


@_check(
    "halfspin/chiral-helicity-halves", "chiral-helicity eigenvalues on the conjugate family", None
)
def _chiral_helicity(cfg: SuiteConfig, grid):
    g = grid()
    ops = halfspin.discrete_ops(g.nhat[0])
    c, res = linalg.eigen_residual(ops.chiral_helicity, g.family[0])
    return Evaluation(
        {"eigen_fit": res / norm(g.family[0])},
        {
            "eigenvalues": dict(zip(FAMILY, c.round(12).tolist())),
            "note": "normalization of the half-unit is a convention",
        },
    )


@_check("halfspin/dynamical-residuals", "first-order momentum-space relations")
def _dynamical_residuals(cfg: SuiteConfig, grid):
    return Evaluation(
        halfspin.dynamical_residuals(grid()),
        {"frequency_map": "S-family with exp(-ip.x), A-family with exp(+ip.x)"},
    )


@_check("halfspin/dirac-connection", "Dirac-to-conjugate-basis connection matrix")
def _dirac_connection(cfg: SuiteConfig, grid):
    # the fixed connection matrix is the unit-phase statement; nonzero rest
    # phases split the blocks and no per-row phase can repair that
    rep = halfspin.connection_check(grid(0.0, 0.0))
    drift = np.abs(rep.phases - rep.phases[0])
    return Evaluation(
        {"aligned": rep.aligned_residual, "phase_drift": drift},
        {
            "raw_residual": float(rep.raw_residual.max()),
            "phase_diagonal": rep.phases[0].round(12).tolist(),
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


def _gram_scan(g, i: int, pairs):
    """The Gram matrices at row i of g, (K, 4, 4) for K rest-phase pairs:
    one build, from g's kinematic arrays and norm."""
    t1, t2 = zip(*pairs)
    rows = [i] * len(pairs)
    kinematics = (a[rows] for a in (g.mass, g.pmag, g.theta, g.phi, g.energy))
    conv = g.convention._replace(theta1=t1, theta2=t2)
    return halfspin.biorthonormality_gram(halfspin.SpinorGrid.build(*kinematics, conv))


def _modulus(z):
    """|z| as abs() of one complex number (np.abs of an array may differ)."""
    return np.hypot(z.real, z.imag)


@_check(
    "halfspin/biorthonormality-structure",
    "conjugate-family Gram layout and magnitudes",
    (4e-12, math.inf),
)
def _biorthonormality_structure(cfg: SuiteConfig, grid):
    base = grid()
    i = min(4, len(base.mass) - 1)
    n2 = base.convention.rest_scale(base.mass[i]) ** 2
    g = _gram_scan(base, i, _GRAM_PAIRS)
    tsum = np.array(_GRAM_PAIRS).sum(axis=1)
    mag = 2 * n2 * np.abs(np.cos(tsum))
    # the two families decouple exactly when the phase sum is 0 or pi;
    # elsewhere the cross block is 2 N^2 sin(t1 + t2) sized by identity
    cross = linalg.max_abs(np.concatenate([g[:, :2, 2:], g[:, 2:, :2]], axis=1), axis=(1, 2))
    # the layout laws, once: each Gram entry is a real quadratic form in
    # phi_L, which the polarization set decides for every row, phase and N
    b = halfspin.lambda_gram(halfspin.family_of(_POLARIZATION))
    res = {
        "diagonal": np.abs(b.diagonal(axis1=-2, axis2=-1)),
        "up_dn_magnitude": np.abs(_modulus(g[:, 0, 1]) - mag),
        "dn_up_magnitude": np.abs(_modulus(g[:, 1, 0]) - mag),
        "antisymmetry": np.abs(b[:, 0, 1] + b[:, 1, 0]),
        "rho_mirrors_lambda": np.abs(b[:, 2, 3] + b[:, 0, 1]),
        "cross_magnitude": np.abs(cross - 2 * n2 * np.abs(np.sin(tsum))),
    }
    return Evaluation(
        res,
        {
            "phase_pairs": len(_GRAM_PAIRS),
            "cross_family_magnitudes": {
                f"cross_{t1:.2f}_{t2:.2f}": x for (t1, t2), x in zip(_GRAM_PAIRS, cross.tolist())
            },
        },
    )


@_check("halfspin/biorthonormality-sign", "signed value of the (up, dn) cross product", None)
def _biorthonormality_sign(cfg: SuiteConfig, grid):
    g = grid()
    n2 = g.convention.rest_scale(g.mass[0]) ** 2
    pairs = ((0.0, 0.0), (0.3, 0.4))
    measured = _gram_scan(g, 0, pairs)[:, 0, 1]
    displayed = 2j * n2 * np.cos(np.array(pairs).sum(axis=1))
    vals = {}
    for (t1, t2), m, d in zip(pairs, measured.round(12), displayed.round(12)):
        vals[f"measured_up_dn_{t1:.1f}_{t2:.1f}"] = complex(m)
        vals[f"displayed_up_dn_{t1:.1f}_{t2:.1f}"] = complex(d)
    vals["note"] = (
        "the realized (up,dn) product carries the opposite sign to the "
        "displayed one; the (dn,up) product carries the displayed sign; "
        "flipping the down spinor's sign restores it but breaks the exact "
        "connection alignment"
    )
    return Evaluation({"displayed_gap": _modulus(measured - displayed)}, vals)


@_check("halfspin/gauge-orbit", "conjugation status along the gauge orbit")
def _gauge_orbit(cfg: SuiteConfig, grid):
    # no grid: both gauge maps intertwine with S^c at every alpha, which the
    # unit vectors decide for every spinor
    alphas = np.array([0.0, 0.4, 1.1, math.pi / 2, 2.7])
    maps = np.array([halfspin.gauge_lambda(alphas), halfspin.gauge_rho(alphas)])
    return Evaluation({"conjugation": _intertwining(maps, 1.0, cfg.convention)}, {"alphas": 5})


# the azimuths 0 and pi/2, which span the exchange maps over the reals, and
# the two signs an exchange map can give, against (map, azimuth)
_AZIMUTHS = linalg.frozen(np.array([0.0, math.pi / 2]))
_PLUS_MINUS = linalg.frozen(np.array([1.0, -1.0])[:, None, None])


@_check(
    "halfspin/exchange-quadruple", "exchange-map aliases, quaternion closure, conjugation status"
)
def _exchange_quadruple(cfg: SuiteConfig, grid):
    # the displayed aliases hold at unit rest phases
    g = grid(0.0, 0.0)
    # the common factor diag(Xi, Xi) commutes with every W_k, so the group
    # table of the W parts is the table of the maps; on the meridian grid
    # Xi is +-1, so the commutation is tested at generic phi in tests/
    table = halfspin.w_group_table()
    squares = [table[(k, k)] for k in range(4)]
    # every exchange image is again an eigenvector with a definite sign:
    # S^c V_k = s_k V_k S^c, with one sign s_k per map.  V_k(phi) is
    # cos(phi) V_k(0) + sin(phi) V_k(pi/2) and the law is real-linear in the
    # map, so the two azimuths decide it at every phi; (sign +1 then -1,
    # map, azimuth, unit vector)
    gaps = _intertwining(halfspin.xi_quadruple(_AZIMUTHS)[None], _PLUS_MINUS, cfg.convention)
    flips = gaps[1].max(axis=(1, 2)) < gaps[0].max(axis=(1, 2))
    image_sign = np.where(flips[:, None, None], gaps[1], gaps[0])
    # the image of a member of S^c sign s has sign s_k s
    members = {FAMILY[i]: int(FAMILY_SIGNS[i]) for i in LAMBDAS}
    sign_map = {
        f"V{k + 1}_{name}": f"{s:+d} -> {-s if flip else s:+d}"
        for k, flip in enumerate(flips.tolist())
        for name, s in members.items()
    }
    return Evaluation(
        # dict(**...) refuses a repeated name
        dict(**halfspin.xi_alias_residuals(g), image_sign=image_sign),
        {
            # the distinct signed elements +-W_k the products reach
            "closure_order": len(set(table.values())),
            "status_map": sign_map,
        },
        # the three non-identity maps square to the same central -1
        {"squares +1, -1, -1, -1": squares == [(1, 0), (-1, 0), (-1, 0), (-1, 0)]},
    )


_MASSLESS_RATIO = 1e-4


@_check(
    "halfspin/massless-limit",
    "single-helicity survival at vanishing mass",
    (_MASSLESS_RATIO, _MASSLESS_RATIO),
)
def _massless_limit(cfg: SuiteConfig, grid):
    # the vanishing statement assumes the sqrt(m) normalization
    conv = PhaseConvention(cfg.theta1, cfg.theta2)
    rows = halfspin.massless_scan([1e-2, 1e-4, 1e-6, 1e-8], conv)
    ratios = [r["ratio"] for r in rows]
    # judged by predicates alone; the tolerance shown is the ratio bound
    return Evaluation(
        {},
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
def _second_order(cfg: SuiteConfig, grid):
    # sigma^mu = (1, sigma^i) and bar sigma^mu = (1, -sigma^i); the pair is
    # (i/2)(bar sigma^mu sigma^nu - bar sigma^nu sigma^mu) and its tilde,
    # (i/2)(sigma^mu bar sigma^nu - sigma^nu bar sigma^mu)
    s = np.concatenate([halfspin.ID2[None], halfspin.SIGMA])
    sbar = np.concatenate([halfspin.ID2[None], -halfspin.SIGMA])
    prods = np.array([sbar[:, None] @ s, s[:, None] @ sbar])
    want = 0.5j * (prods - prods.swapaxes(1, 2))
    pair = np.array([halfspin.FGM_SIGMA, halfspin.FGM_TILDE])
    # no grid: the free second-order residuals |p.p - m^2| ||phi|| see only
    # the grid's energies, which dynamical-residuals and
    # on-shell-contraction judge
    return Evaluation({"tensor_pair": linalg.max_abs(pair - want, axis=(-2, -1))})


# ---------------------------------------------------------------------------
# spin1 suite


@_check("spin1/wigner-theta", "spin-1 Wigner matrix and helicity triad")
def _theta3(cfg: SuiteConfig, grid):
    t, j = spin1.THETA3, spin1.JVEC
    res = {
        "involution": linalg.max_abs(t @ t - spin1.ID3),
        "conjugates_j": linalg.max_abs(t @ j @ t + np.conjugate(j)),
    }
    # every direction at once: the grid's first rows are the directions;
    # xi rows are the helicity eigenvectors, in HELICITIES order
    d = grid().head(cfg.n_directions)
    xi = spin1.spin1_rotation(d.theta, d.phi).swapaxes(-1, -2)
    h = np.array(spin1.HELICITIES)[:, None]
    res["triad"] = norm(apply(spin1.jdot(d.nhat), xi) - h * xi)
    return Evaluation(res)


@_check("spin1/on-shell-contraction", "covariant family squares the mass on six-spinors")
def _on_shell(cfg: SuiteConfig, grid):
    g = grid()
    return Evaluation(
        {"on_shell": spin1.on_shell_residual(g)}, {"momenta": len(g.mass), "helicities": 3}
    )


@_check("spin1/majorana-unitarity", "real-frame unitary and its displayed conjugate", _TIGHT)
def _majorana_unitarity(cfg: SuiteConfig, grid):
    u = spin1.MAJORANA_U
    return Evaluation(
        {
            # a square U with U U^dagger = 1 also has U^dagger U = 1: the two
            # differences from 1 share U's singular values
            "u_udagger": linalg.max_abs(u @ linalg.dagger(u) - spin1.ID6),
            "displayed_dagger": linalg.max_abs(spin1.DISPLAYED_U_DAGGER - linalg.dagger(u)),
        }
    )


@_check("spin1/majorana-real-family", "real forms of the covariant family")
def _majorana_family(cfg: SuiteConfig, grid):
    rep = spin1.majorana_family_report()
    # judged per image, so the report's two maxima stay out of the values
    return Evaluation({k: rep[k] for k in ("family_gaps", "family_imag_parts", "five_residual")})


@_check(
    "spin1/plain-unitary-diagnostic", "what the displayed unitary alone does to the family", None
)
def _plain_unitary(cfg: SuiteConfig, grid):
    d = spin1.plain_unitary_diagnostic()
    return Evaluation(
        {k: d[k] for k in ("g00_lands_on_displayed_five", "five_lands_on_displayed_g00")},
        dict(
            d,
            note=(
                "the bare unitary swaps the time-time and chirality targets "
                "and flips the time-space sign; composing with the parity "
                "mixer (see CHIRAL_TO_MAJORANA) restores every displayed form"
            ),
        ),
    )


@_check("spin1/chirality-flip", "real-frame v equals the chirality matrix times u", _TIGHT)
def _chirality_flip(cfg: SuiteConfig, grid):
    # v - gamma5_MR u is linear in the six-spinor: on the six unit
    # six-spinors it holds for every momentum and phase
    s = spin1.real_frame(spin1.ID6)
    return Evaluation({"unit_six_spinors": norm(s.v - apply(spin1.MR_FIVE, s.u))})


@_check("spin1/transverse-reality", "real/imaginary-part identities on the meridian grid")
def _transverse_reality(cfg: SuiteConfig, grid):
    rep = spin1.transverse_reality_report(grid())
    return Evaluation({k: v for k, v in rep.items() if k != "long_u_im_norm"})


@_check("spin1/transverse-reality-offplane", "the same identities off the meridian plane", None)
def _transverse_offplane(cfg: SuiteConfig, grid):
    # one row off the meridian plane; its |p| = 1 is absolute, not in units
    # of the mass, so it alone does not scale with a change of units
    # (m, |p|, N) -> (4^k m, 4^k |p|, 2^k N)
    p = FourMomentum(cfg.masses[0], 1.0, math.pi / 3, math.pi / 5)
    rep = {k: float(np.asarray(v).max()) for k, v in spin1.transverse_reality_report(p).items()}
    rep["note"] = (
        "off the meridian plane the split parts stop being real and the "
        "identities acquire finite residuals"
    )
    return Evaluation({"u_re_match": rep["u_re_match"]}, rep)


@_check(
    "spin1/selfconjugacy-dichotomy",
    "square signs decide existence of self-conjugate spinors",
    _TIGHT,
)
def _selfconjugacy(cfg: SuiteConfig, grid):
    # the spin-1/2 square is linalg/antilinear-algebra's conjugation_square
    rep = spin1.selfconjugacy_analysis()
    judged = {k: rep.pop(k) for k in ("conjugation_law", "twisted_law", "eigenvector_gaps")}
    return Evaluation(
        judged,
        rep,
        {
            "plain spin-1 square -1": rep["square_sign_plain"] == -1,
            "twisted spin-1 square +1": rep["square_sign_twisted"] == +1,
        },
    )


@_check("spin1/reality-classes", "conjugation eigenvectors become pure real or pure imaginary")
def _reality_classes(cfg: SuiteConfig, grid):
    # a unitary V with V C V^T = 1 turns C K into complex conjugation, so the
    # part of V psi that psi's class says is absent is |V (psi - s C K psi)|/2:
    # the S^c gaps of conjugation-eigenvalues and selfconjugacy-dichotomy
    vh = spin1.HALF_MAJORANA_FRAME
    c_half = halfspin.charge_conjugation_op().matrix
    w = spin1.CHIRAL_TO_MAJORANA
    m_tw = spin1.TWISTED_CONJUGATION.matrix
    return Evaluation(
        {
            "half_frame": linalg.max_abs(vh @ c_half @ vh.T - halfspin.ID4),
            "one_frame": linalg.max_abs(w @ m_tw @ w.T - spin1.ID6),
            "half_frame_unitary": linalg.max_abs(vh @ linalg.dagger(vh) - halfspin.ID4),
            "one_frame_unitary": linalg.max_abs(w @ linalg.dagger(w) - spin1.ID6),
        }
    )


# ---------------------------------------------------------------------------
# fock suite

# displayed action tables, frozen: (helicity, branch) -> (helicity',
# branch', phase); each case's `negate` flag in _state_tables says whether
# the momentum tag is negated
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


def _table_matrix(table: dict, negate: bool, modes) -> np.ndarray:
    """The matrix a frozen table displays on the (ptag, helicity, branch)
    `modes`, written entry by entry: column j holds the image of mode j."""
    index = {mode: i for i, mode in enumerate(modes)}
    m = np.zeros((len(modes), len(modes)), dtype=complex)
    for (ptag, h, b), j in index.items():
        h2, b2, phase = table[(h, b)]
        m[index[(-ptag if negate else ptag, h2, b2)], j] = phase
    return m


@_check(
    "fock/state-tables", "displayed single-particle action tables, unit phases, unitarity", _TIGHT
)
def _state_tables(cfg: SuiteConfig, grid):
    ops = (fock.INVERSION, fock.CHARGE, fock.CHARGE_FLIP)
    tables = ((_INV_TABLE, True), (_CHG_TABLE, False), (_FLIP_TABLE, False))
    # (op, row, column) on MODES, as the ops hold them and as the tables show them
    got = np.array([op.matrix for op in ops])
    want = np.array([_table_matrix(table, negate, fock.MODES) for table, negate in tables])
    unitary = got.conj().swapaxes(-1, -2) @ got
    res = {
        # one gap per (op, mode) column
        "columns": linalg.max_abs(got - want, axis=-2),
        "unitary": linalg.max_abs(unitary - linalg.EYE[len(fock.MODES)], axis=(-2, -1)),
    }
    return Evaluation(
        res,
        {"labels_checked": len(ops) * len(fock.MODES)},
        {"nonzero patterns match the tables": bool(((got != 0) == (want != 0)).all())},
    )


@_check(
    "fock/squares-and-commutation", "operator squares, commutator, anticommutator, chains", _TIGHT
)
def _squares_commutation(cfg: SuiteConfig, grid):
    inv, chg, flip = fock.INVERSION, fock.CHARGE, fock.CHARGE_FLIP
    squares = fock.squares_report((inv, chg, flip))
    comm = fock.commutator_report(chg, inv)
    anti = fock.commutator_report(flip, inv)
    # four chains on |p,up>^+: the first ops, then the second
    start = fock.FockVector.basis(1, "up", +1).amps
    end_comm = 1j * fock.FockVector.basis(-1, "dn", -1).amps
    tgt = fock.FockVector.basis(-1, "up", -1).amps
    orders = ((inv, chg, inv, flip), (chg, inv, flip, inv))
    steps = np.array([[op.matrix for op in ops] for ops in orders])
    chains = np.matvec(steps[1], np.matvec(steps[0], start))
    want = np.array([end_comm, end_comm, -1j * tgt, +1j * tgt])
    return Evaluation(
        {
            "inversion_square": abs(squares["inversion"] - 1.0),
            "charge_square": abs(squares["charge"] + 1.0),
            "charge_flip_square": abs(squares["charge_flip"] + 1.0),
            # judged here, so each report keeps only its other number
            "commutator": comm.pop("commutator"),
            "anticommutator": anti.pop("anticommutator"),
            "chains": norm(chains - want),
        },
        {"squares": squares, "commutator": comm, "anticommutator": anti},
    )


@_check("fock/eigencombinations", "parity and charge eigen-combinations", _TIGHT)
def _eigencombinations(cfg: SuiteConfig, grid):
    blocks = {
        f"{at}_{kind}": (tag, branch)
        for at, tag in (("rest", 0), ("moving", 1))
        for kind, branch in (("particle", +1), ("antiparticle", -1))
    }
    parity = dict(zip(blocks, fock.parity_eigencombos(blocks.values())))
    charges = fock.charge_eigencombos()
    res = {f"parity_{k}_{s}": d[s]["residual"] for k, d in parity.items() for s in d}
    res |= {f"charge_{k}": d["residual"] for k, d in charges.items()}
    # the fitted rest eigenvalues (plus, minus) of each branch
    particle, antiparticle = (
        [d["eigenvalue"] for d in parity[f"rest_{kind}"].values()]
        for kind in ("particle", "antiparticle")
    )
    return Evaluation(
        res,
        {"charge_eigenvalues": {k: d["eigenvalue"] for k, d in charges.items()}},
        # the Majorana-type construction: a Dirac-type inversion gives the
        # antiparticle branch the opposite intrinsic parity
        {"equal rest-sector parity eigenvalues on both branches": particle == antiparticle},
    )


@_check(
    "fock/joint-eigen-certificate",
    "no joint inversion/branch-swap eigenvector in a single branch",
    _TIGHT,
)
def _joint_certificate(cfg: SuiteConfig, grid):
    cert = fock.simultaneous_eigen_certificate()
    law = cert.pop("law")
    return Evaluation({"law": law}, cert, {"margin >= 1": cert["min_singular_value"] >= 1.0})


@_check("fock/joint-eigen-existence", "joint eigenvectors on the both-branch sector", None)
def _joint_existence(cfg: SuiteConfig, grid):
    both = fock.both_branch_joint_eigenvector()
    anti = fock.anticommuting_pair_margin()
    vals = dict(both)
    vals["anticommuting_pair_margin"] = anti["min_singular_value"]
    vals["note"] = (
        "with both branches admitted the two commuting unitaries do share "
        "an eigenvector (constructed here); for the anticommuting pair the "
        "margin is exactly sqrt(4 - 2 sqrt(2)) on the full sector"
    )
    res = {k: both[k] for k in ("inversion_residual", "charge_residual")}
    return Evaluation(dict(res, anticommuting_law=anti["law"]), vals)


@_check("fock/operator-state-consistency", "ladder-rule route reproduces the state tables", _TIGHT)
def _operator_state(cfg: SuiteConfig, grid):
    return Evaluation({"gaps": fock.operator_state_consistency()["gaps"]})


# ---------------------------------------------------------------------------
# fieldops suite


@_check("fieldops/mode-structure", "fixed-momentum expansion layout and conjugation involution")
def _mode_structure(cfg: SuiteConfig, grid):
    # no grid: the layout gap is real-linear in (phi_L, phi_R), so the
    # modes of the unit two-spinors' families decide it, at thetac 0
    nu = fieldops.mode_of(halfspin.family_of(_UNIT_TWO_SPINORS))
    cnu = fieldops.charge_conjugate_expansion(nu)
    # lambda^S rides the annihilators and lambda^A the creators, each with
    # its S^c sign: C(nu) is nu with the slots swapped and signs (-1, +1).
    # The involution C^2 = 1 is judged on the unit expansions, by
    # conjugation-parity
    layout = fieldops.residual(cnu, nu[:, ::-1] * np.array([-1.0, 1.0])[:, None, None])
    return Evaluation({"layout": layout}, {"terms": nu.shape[1] * nu.shape[2]})


@_check("fieldops/ziino-split", "even/odd halves match the displayed coefficients")
def _ziino_split(cfg: SuiteConfig, grid):
    # no grid for the split: the computed and the displayed halves are both
    # real-linear in phi_L, so the unit phi_L decide it, at thetac 0
    x = _UNIT_PHI_L
    split = fieldops.split_residual(x[:, 0], halfspin.family_of(x), PhaseConvention())
    g = grid()
    # the independent oracle rebuilds the first and last rows from (p, conv)
    shown = fieldops.displayed_split(g)
    oracle = []
    for i in sorted({0, len(g.mass) - 1}):
        want = fieldops.displayed_ziino_coefficients(g.momentum(i), g.convention)
        # (half, slot, helicity)
        oracle.append(linalg.max_abs([half[i] - w for half, w in zip(shown, want)], axis=-1))
    return Evaluation({"split": split, "displayed_oracle": oracle}, {"momenta": len(g.mass)})


# the sixteen unit expansions of one row: (expansion, slot, helicity, component)
_UNIT_EXPANSIONS = linalg.frozen(np.eye(16).reshape(16, 2, 2, 4))


@_check("fieldops/conjugation-parity", "the halves are conjugation eigen-expansions")
def _conjugation_parity(cfg: SuiteConfig, grid):
    # no grid: C is antilinear, so C^2 is linear, and the halves of every
    # expansion are +-eigen-expansions once those of the unit ones are
    return Evaluation(fieldops.parity_residuals(_UNIT_EXPANSIONS, cfg.convention))


@_check("fieldops/dirac-embedding", "projector images land in the mass eigenspaces")
def _dirac_embedding(cfg: SuiteConfig, grid):
    g = grid()
    # the first momentum at (0.3, 0.4), where cos S is not +-1: the Gram law
    # there is the rank-2 statement
    generic = fieldops.dirac_from_majorana(
        halfspin.build_spinor_basis(g.momentum(0), g.convention._replace(theta1=0.3, theta2=0.4))
    )
    # the Gram law alone: the partner residual +-(slash lam - m rho)/m is
    # dynamical-residuals' r1 and r3 over m, and the eigenspace residual
    # (p.p - m^2) lam / m sees only the grid's energies, which
    # dynamical-residuals and on-shell-contraction judge
    gram = fieldops.dirac_from_majorana(g)["gram_residual"]
    return Evaluation({"gram_residual": gram, "generic_gram_residual": generic["gram_residual"]})


@_check("fieldops/quaternion-orbit", "unit-quaternion phase orbit preserves conjugation status")
def _quaternion_orbit(cfg: SuiteConfig, grid):
    # no grid: the status law and the group law are real-linear in each
    # quaternion, so 1, i, j, k decide them for every phase
    units = linalg.EYE[4]
    return Evaluation(
        {
            "orbit_conjugation": _intertwining(fieldops.orbit_matrix(units), 1.0, cfg.convention),
            "orbit_group_law": fieldops.orbit_group_law(units[:, None], units[None]),
        },
        {"orbit_points": len(units)},
    )


# ---------------------------------------------------------------------------
# running and rendering

# every report lists its checks in check-id order
_REGISTRY.sort(key=lambda c: c.check_id)


def run_checks(cfg: SuiteConfig):
    # one grid per rest-phase pair, at thetac 0 whatever the config's
    @functools.cache
    def build(theta1, theta2) -> halfspin.SpinorGrid:
        conv = PhaseConvention(theta1, theta2, norm=cfg.norm)
        return halfspin.SpinorGrid.build(*cfg._rows, conv)

    def grid(theta1=cfg.theta1, theta2=cfg.theta2):
        return build(theta1, theta2)

    return [_run(c, cfg, grid) for c in _REGISTRY if c.check_id.split("/")[0] in cfg.suites]


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
            f"{r.status.upper():<10}{r.check_id:<40}max={r.max_residual:<12.6e} "
            f"tol={tol:<10}{r.anchor}"
        )
        # a reported check shows its values; a check a refusal failed, the reason
        for k in sorted(r.values) if r.status == "reported" else {"error"} & r.values.keys():
            lines.append(f"          . {k} = {_fmt_value(r.values[k])}")
    summary = "{total} checks: {pass} pass, {fail} fail, {reported} reported"
    lines += ["", summary.format(**_summary(results))]
    return "\n".join(lines) + "\n"


def _summary(results) -> dict:
    counts = {s: sum(r.status == s for r in results) for s in ("pass", "fail", "reported")}
    return dict(counts, total=len(results))


def render_json(cfg: SuiteConfig, results) -> str:
    rows = [r._asdict() for r in results]
    out: list = []
    _write_json({"config": cfg.to_dict(), "checks": rows, "summary": _summary(results)}, out, "\n")
    out.append("\n")
    return "".join(out)
