"""Named check suites over configurable momentum grids.

The 35 checks live in one registry.  Each entry is a function of the
SuiteConfig and of `grid`, which returns the run's SpinorGrid for a phase
convention (built on first use, once per convention).  It is registered
with the `_check` decorator under a stable id ("<suite>/<name>"), a
descriptive anchor and a tolerance rule: a (floor, cap) pair that clamps
`cfg.tolerance`, or None for a 'reported' check.  It returns an
Evaluation: the residuals it measured, by name (arrays with one row per
momentum, phase pair, sample or group element, or numbers), the `values`
the report carries, and named structural predicates.  A check that scans
fixed sets evaluates them as one array expression: the rest-phase pairs
of a Gram scan or the masses of the massless scan are the rows of one
SpinorGrid build.

A residual array keeps every family axis it was measured over (momentum,
helicity, family member, frequency slot, even/odd half, phase); a library
function reduces only over the components of one vector or matrix.  One
runner, `_run`, turns every Evaluation into a CheckResult; it is the only
code that reduces residuals across those axes or applies a tolerance.  The
worst residual is numpy's maximum, so a NaN residual propagates and fails the
check.  A false predicate fails the check whatever the tolerance, and its
displayed residual is at least 1.0.  A reported check judges nothing: it
never fails and its numbers ride in `values`.

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
import random
import sys
from collections import namedtuple
from typing import Callable, NamedTuple

import numpy as np

from . import fieldops, fock, halfspin, linalg, spin1
from .halfspin import DN, FAMILY, FAMILY_SIGNS, LAM_S, LAMBDAS, RHO_S, UP
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


class SuiteConfig(namedtuple("SuiteConfig", _CONFIG_FIELDS)):
    # immutable; the instance dict holds only the grid's kinematic arrays and
    # the cached `convention`
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
        masses = tuple(float(m) for m in masses)
        if not masses or not all(math.isfinite(m) and m > 0 for m in masses):
            raise ValueError("masses must be finite and positive")
        if not all(type(n) is int for n in (n_magnitudes, n_directions)):
            raise ValueError("grid sizes must be integers")
        if n_magnitudes < 1 or n_directions < 1:
            raise ValueError("grid must be at least 1x1")
        # the largest magnitude, 2 ** ((n - 1) / 2), must be a finite float
        if (n_magnitudes - 1) / 2 >= sys.float_info.max_exp:
            raise ValueError("grid has too many magnitudes: the largest overflows a float")
        # `not >= 0` also rejects NaN; an infinite tolerance would pass any
        # finite residual
        if not (tolerance >= 0 and math.isfinite(tolerance)):
            raise ValueError("tolerance must be finite and >= 0")
        # dtype=object: a ragged nesting is one row per entry, not numpy's error
        if np.asarray(theta1, dtype=object).ndim or np.asarray(theta2, dtype=object).ndim:
            raise ValueError("theta1 and theta2 must be numbers, not one per row")
        PhaseConvention(theta1, theta2, thetac, norm)  # validates the phases and the norm
        suites = tuple(suites)
        unknown = [s for s in suites if s not in KNOWN_SUITES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown}")
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
        cfg.__dict__["_rows"] = linalg.frozen(tuple(rows))
        return cfg

    # through the validating constructor, so that _replace validates too
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a SuiteConfig is immutable")

    @functools.cached_property
    def convention(self) -> PhaseConvention:
        return PhaseConvention(self.theta1, self.theta2, self.thetac, self.norm)

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


class CheckResult(NamedTuple):
    check_id: str
    anchor: str
    status: str  # pass | fail | reported
    max_residual: float
    tol: float | None
    values: dict

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


class Evaluation(NamedTuple):
    """What one check measured.

    residuals: every number the check judges against its tolerance (for a
    reported check, the numbers behind its headline), by snake_case name:
    a real array of any shape, or a number; values: what the report
    carries alongside them; predicates: named structural statements, any
    false one fails the check whatever the tolerance.  The empty defaults
    are shared, so the runner copies `values` into the result.
    """

    residuals: dict
    values: dict = {}
    predicates: dict = {}


class _Check(NamedTuple):
    check_id: str
    anchor: str
    tol: tuple[float, float] | None  # (floor, cap) on cfg.tolerance; None: reported
    evaluate: Callable  # (cfg, grid) -> Evaluation; grid(conv) is the run's SpinorGrid


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
    ev = check.evaluate(cfg, grid)
    holds = all(ev.predicates.values())
    # dtype=float: a complex residual warns instead of losing its imaginary
    # part silently; unlike the builtin max(), the array's max keeps NaN
    flat = [np.asarray(r, dtype=float).ravel() for r in ev.residuals.values()]
    worst = float(np.concatenate(flat or [[]]).max(initial=0.0 if holds else 1.0))
    tol = None
    if check.tol is not None:
        floor, cap = check.tol
        tol = float(min(max(cfg.tolerance, floor), cap))
    status = "reported" if tol is None else "pass" if holds and worst <= tol else "fail"
    return CheckResult(check.check_id, check.anchor, status, worst, tol, dict(ev.values))


@functools.cache
def _samples(seed: int, rows: int, cols: int) -> np.ndarray:
    """Seeded numbers in [-1, 1), row by row: the standard library's
    random.Random(seed).random() stream, which Python keeps the same across
    versions, mapped exactly by x -> 2 x - 1.  Drawn once per process and
    read-only."""
    draw = random.Random(seed).random
    return linalg.frozen(np.array([2 * draw() - 1 for _ in range(rows * cols)]).reshape(rows, cols))


def _prop_residual(v, img):
    """Least-squares proportionality gap min_c ||img - c v||, per row."""
    c = np.vecdot(v, img) / np.vecdot(v, v)  # vecdot conjugates v
    return norm(img - c[..., None] * v)


def _pinned_conv(cfg: SuiteConfig) -> PhaseConvention:
    """cfg phases with thetac forced to the real-eigenvalue convention."""
    return PhaseConvention(cfg.theta1, cfg.theta2, 0.0, cfg.norm)


def _unit_conv(cfg: SuiteConfig) -> PhaseConvention:
    """Unit rest phases, thetac = 0: where the displayed fixed forms hold."""
    return PhaseConvention(0.0, 0.0, 0.0, cfg.norm)


def _conjugation_gaps(c, psi):
    """||S^c psi - s psi|| per family member, s its expected eigenvalue."""
    return norm(c(psi) - FAMILY_SIGNS[:, None] * psi)


# ---------------------------------------------------------------------------
# linalg suite


@_check(
    "linalg/antilinear-algebra",
    "antilinear application, composition and squares",
    (1e-14, math.inf),
)
def _antilinear_algebra(cfg: SuiteConfig, grid):
    c = halfspin.charge_conjugation_op(cfg.convention)
    j = linalg.AntilinearOp(linalg.cmat([[0, -1], [1, 0]]), conjugates=True)
    res = {
        "conjugation_square": linalg.max_abs(c.squared().matrix - halfspin.ID4),
        "rotation_square": linalg.max_abs(j.squared().matrix + halfspin.ID2),
    }
    # 16 samples in one draw: per row v, w (re then im) and a, in the order
    # of drawing them one at a time
    s = _samples(7, 16, 18)
    v, w = s[:, 0:4] + 1j * s[:, 4:8], s[:, 8:12] + 1j * s[:, 12:16]
    a = (s[:, 16] + 1j * s[:, 17])[:, None]
    # antilinearity: op(a v + w) = conj(a) op(v) + op(w)
    res["antilinearity"] = linalg.max_abs(c(a * v + w) - (np.conjugate(a) * c(v) + c(w)), axis=-1)
    return Evaluation(
        res,
        {
            "conjugation_square_sign": c.square_sign(),
            "rotation_square_sign": j.square_sign(),
        },
    )


@_check("linalg/kron-mixed-product", "tensor product compatibility", (1e-13, math.inf))
def _kron(cfg: SuiteConfig, grid):
    # 8 samples in one draw: per row a, b, v, w (re then im each), in the
    # order of drawing them one at a time
    s = _samples(11, 8, 36)
    a = (s[:, 0:4] + 1j * s[:, 4:8]).reshape(8, 2, 2)
    b = (s[:, 8:17] + 1j * s[:, 17:26]).reshape(8, 3, 3)
    v, w = s[:, 26:28] + 1j * s[:, 28:30], s[:, 30:33] + 1j * s[:, 33:36]
    av, bw = apply(a, v), apply(b, w)
    # np.kron per row: every entry is one product x_ij y_kl
    kab = (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(8, 6, 6)
    kvw = (v[:, :, None] * w[:, None, :]).reshape(8, 6)
    kavbw = (av[:, :, None] * bw[:, None, :]).reshape(8, 6)
    return Evaluation({"mixed_product": linalg.max_abs(apply(kab, kvw) - kavbw, axis=-1)})


# ---------------------------------------------------------------------------
# halfspin suite


@_check("halfspin/helicity-spinors", "helicity two-spinor convention")
def _helicity_spinors(cfg: SuiteConfig, grid):
    # every direction at once: the grid's first rows are the directions
    d = grid(cfg.convention).head(cfg.n_directions)
    sn = (d.nhat @ halfspin.SIGMA.reshape(3, 4)).reshape(-1, 2, 2)
    chi = np.concatenate(
        [halfspin.helicity_eigenspinor(d.theta, d.phi, h)[:, None] for h in (UP, DN)], axis=1
    )
    eigen = norm(apply(sn, chi) - np.array([UP, DN])[:, None] * chi)
    res = {"eigen": eigen, "unit_norm": np.abs(norm(chi) - 1.0)}
    rt = 1 / math.sqrt(2)
    for tag, h, want in (("up", UP, [rt, rt]), ("dn", DN, [-rt, rt])):
        along_x = halfspin.helicity_eigenspinor(math.pi / 2, 0.0, h)
        res[f"along_x_{tag}"] = linalg.max_abs(along_x - want)
    return Evaluation(res)


@_check("halfspin/conjugation-eigenvalues", "self/anti-self conjugate eigenvalues")
def _conjugation_eigenvalues(cfg: SuiteConfig, grid):
    # the square is +1 for every conjugation phase; the +-1 eigenvalue
    # statement is pinned to the real-eigenvalue convention thetac = 0
    phases = np.exp(1j * np.array([0.0, 0.9, math.pi / 2, cfg.thetac]))
    m = linalg.rowscale(phases) * halfspin.charge_conjugation_op().matrix
    squares = linalg.max_abs(m @ np.conjugate(m) - halfspin.ID4, axis=(-2, -1))
    g = grid(_pinned_conv(cfg))
    c = halfspin.charge_conjugation_op(g.convention)
    return Evaluation(
        {"squares": squares, "eigen": _conjugation_gaps(c, g.family)},
        {"momenta": len(g.mass), "family_size": 8, "square_residual": float(squares.max())},
    )


@_check("halfspin/eigenstructure-split", "u/v helicity eigenspinors vs non-eigen conjugate family")
def _eigenstructure_split(cfg: SuiteConfig, grid):
    g = grid(cfg.convention)
    helicity = halfspin.discrete_ops(g.nhat).helicity
    uv = g.uv_stack()
    half_h = np.array([0.5 * UP, 0.5 * DN, 0.5 * UP, 0.5 * DN])
    eigen = norm(apply(helicity, uv) - half_h[:, None] * uv)
    _, res = linalg.eigen_residual(helicity, g.family)
    lam_min = float((res / norm(g.family)).min())
    # parity proportionality can hold on-axis; both readings: gamma^0 as a
    # matrix at fixed argument, and the full action with the momentum
    # argument reflected
    off = np.abs(g.nhat[:, 2]) < 0.99
    lam = g.family[off][:, LAM_S]
    _, fixed = linalg.eigen_residual(halfspin.GAMMA0, lam)
    img = apply(halfspin.GAMMA0, g.reflected.family[off][:, LAM_S])
    # inf when no row is off axis
    ratios = [fixed / norm(lam), _prop_residual(lam, img) / norm(img)]
    parity_min = float(np.array(ratios).min(initial=math.inf))
    # the eigen part is judged against tol; a collapsed non-eigen margin fails
    return Evaluation(
        {"uv_eigen": eigen},
        {
            "helicity_noneigen_min_ratio": lam_min,
            "parity_noneigen_min_ratio": parity_min,
        },
        {"helicity margin > 0.1": lam_min > 0.1, "parity margin > 0.1": parity_min > 0.1},
    )


@_check(
    "halfspin/chiral-helicity-halves", "chiral-helicity eigenvalues on the conjugate family", None
)
def _chiral_helicity(cfg: SuiteConfig, grid):
    g = grid(cfg.convention)
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
    g = grid(cfg.convention)
    flipped = halfspin.dynamical_residuals(g.head(1), flip_third_sign=True)["r3"][0].max()
    expected = 2 * g.mass[0] * float(norm(g.family[0, RHO_S.start]))
    return Evaluation(
        halfspin.dynamical_residuals(g),
        {
            "frequency_map": "S-family with exp(-ip.x), A-family with exp(+ip.x)",
            "flipped_sign_selftest": float(flipped),
            "flipped_sign_expected": float(expected),
        },
    )


@_check("halfspin/dirac-connection", "Dirac-to-conjugate-basis connection matrix")
def _dirac_connection(cfg: SuiteConfig, grid):
    # the fixed connection matrix is the unit-phase statement; nonzero rest
    # phases split the blocks and no per-row phase can repair that
    rep = halfspin.connection_check(grid(_unit_conv(cfg)))
    drift = np.abs(rep.phases - rep.phases[0])
    return Evaluation(
        {"aligned": rep.aligned_residual, "phase_drift": drift},
        {
            "raw_residual": float(rep.raw_residual.max()),
            "phase_diagonal": rep.phases[0].round(12).tolist(),
            "phase_drift_across_grid": float(drift.max()),
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


def _gram_scan(cfg: SuiteConfig, p: FourMomentum, pairs):
    """The Gram matrices at p, (K, 4, 4) for K rest-phase pairs: one build."""
    t1, t2 = zip(*pairs)
    conv = PhaseConvention(t1, t2, cfg.thetac, cfg.norm)
    return halfspin.biorthonormality_gram(halfspin.build_spinor_grid([p] * len(pairs), conv))


def _modulus(z):
    """|z| as abs() of one complex number (np.abs of an array may differ)."""
    return np.hypot(z.real, z.imag)


@_check(
    "halfspin/biorthonormality-structure",
    "conjugate-family Gram layout and magnitudes",
    (4e-12, math.inf),
)
def _biorthonormality_structure(cfg: SuiteConfig, grid):
    base = grid(cfg.convention)
    p = base.momentum(min(4, len(base.mass) - 1))
    n2 = cfg.convention.rest_scale(p.mass) ** 2
    g = _gram_scan(cfg, p, _GRAM_PAIRS)
    tsum = np.array(_GRAM_PAIRS).sum(axis=1)
    mag = 2 * n2 * np.abs(np.cos(tsum))
    # the two families decouple exactly when the phase sum is 0 or pi;
    # elsewhere the cross block is 2 N^2 sin(t1 + t2) sized by identity
    cross = linalg.max_abs(np.concatenate([g[:, :2, 2:], g[:, 2:, :2]], axis=1), axis=(1, 2))
    res = {
        "diagonal": np.abs(g.diagonal(axis1=-2, axis2=-1)),
        "up_dn_magnitude": np.abs(_modulus(g[:, 0, 1]) - mag),
        "dn_up_magnitude": np.abs(_modulus(g[:, 1, 0]) - mag),
        "antisymmetry": np.abs(g[:, 0, 1] + g[:, 1, 0]),
        "rho_mirrors_lambda": np.abs(g[:, 2, 3] + g[:, 0, 1]),
        "cross_magnitude": np.abs(cross - 2 * n2 * np.abs(np.sin(tsum))),
    }
    return Evaluation(
        res,
        {
            "phase_pairs": len(_GRAM_PAIRS),
            "zero_at_quarter_turn": True,
            "cross_family_magnitudes": {
                f"cross_{t1:.2f}_{t2:.2f}": x for (t1, t2), x in zip(_GRAM_PAIRS, cross.tolist())
            },
        },
    )


@_check("halfspin/biorthonormality-sign", "signed value of the (up, dn) cross product", None)
def _biorthonormality_sign(cfg: SuiteConfig, grid):
    p = grid(cfg.convention).momentum(0)
    n2 = cfg.convention.rest_scale(p.mass) ** 2
    pairs = ((0.0, 0.0), (0.3, 0.4))
    measured = _gram_scan(cfg, p, pairs)[:, 0, 1]
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
    g = grid(_pinned_conv(cfg)).head(6)
    c = halfspin.charge_conjugation_op(g.convention)
    lam = np.array([name.startswith("lam") for name in FAMILY])[:, None]
    # (alpha, row, member, component)
    alphas = np.array([0.0, 0.4, 1.1, math.pi / 2, 2.7])
    gl, gr = (op(alphas)[:, None, None] for op in (halfspin.gauge_lambda, halfspin.gauge_rho))
    img = np.where(lam, apply(gl, g.family), apply(gr, g.family))
    return Evaluation(
        {"conjugation": _conjugation_gaps(c, img)}, {"alphas": 5, "momenta": len(g.mass)}
    )


@_check(
    "halfspin/exchange-quadruple", "exchange-map aliases, quaternion closure, conjugation status"
)
def _exchange_quadruple(cfg: SuiteConfig, grid):
    # the displayed aliases hold at unit rest phases
    g = grid(_unit_conv(cfg))
    # the common factor diag(Xi, Xi) commutes with every W_k, so the group
    # table of the W parts is the table of the maps
    xi, w = halfspin.xi_factor(g.phi), halfspin.W_PARTS[:, None]
    commutes = linalg.max_abs(w @ xi - xi @ w, axis=(-2, -1))
    table = halfspin.w_group_table()
    squares = [table[(k, k)] for k in range(4)]
    # every exchange image is again an eigenvector with a definite sign;
    # the map records the signs at the last of the first four momenta
    g4 = g.head(4)
    c = halfspin.charge_conjugation_op(g4.convention)
    # (map, row, member, component)
    img = apply(halfspin.xi_quadruple(g4.phi)[:, :, None], g4.family[:, LAMBDAS])
    plus, minus = norm(c(img) - img), norm(c(img) + img)
    sign_gap = np.where(minus < plus, minus, plus)
    flips = (minus < plus)[:, -1].tolist()
    sign_map = {
        f"V{k + 1}_{FAMILY[i]}": f"{int(FAMILY_SIGNS[i]):+d} -> {-1 if flips[k][j] else +1:+d}"
        for k in range(4)
        for j, i in enumerate(LAMBDAS)
    }
    return Evaluation(
        # dict(**...) refuses a repeated name
        dict(**halfspin.xi_alias_residuals(g), xi_commutes=commutes, image_sign=sign_gap),
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
    "halfspin/massless-limit",
    "single-helicity survival at vanishing mass",
    (_MASSLESS_RATIO, _MASSLESS_RATIO),
)
def _massless_limit(cfg: SuiteConfig, grid):
    # the vanishing statement assumes the sqrt(m) normalization
    conv = PhaseConvention(cfg.theta1, cfg.theta2, cfg.thetac, None)
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
    sig, til = halfspin.FGM_SIGMA, halfspin.FGM_TILDE
    g = grid(cfg.convention)
    res = dict(
        sigma_0i=linalg.max_abs(sig[0, 1:] - 1j * halfspin.SIGMA, axis=(-2, -1)),
        tilde_0i=linalg.max_abs(til[0, 1:] + 1j * halfspin.SIGMA, axis=(-2, -1)),
        sigma_12=linalg.max_abs(sig[1, 2] - halfspin.SIGMA[2]),
        tilde_12=linalg.max_abs(til[1, 2] - halfspin.SIGMA[2]),
        **halfspin.fgm_residuals(g),
    )
    f = np.zeros((4, 4))
    f[0, 1], f[1, 0] = 1.0, -1.0
    sample = halfspin.fgm_residuals(g.head(1), g=0.3, fmunu=f, x=[0.5, 0.2, 0.0, 0.0])
    return Evaluation(res, {"coupled_sample": {k: float(v[0]) for k, v in sample.items()}})


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
    d = grid(cfg.convention).head(cfg.n_directions)
    xi = spin1.spin1_rotation(d.theta, d.phi).swapaxes(-1, -2)
    h = np.array(spin1.HELICITIES)[:, None]
    res["triad"] = norm(apply(spin1.jdot(d.nhat), xi) - h * xi)
    return Evaluation(res)


@_check("spin1/on-shell-contraction", "covariant family squares the mass on six-spinors")
def _on_shell(cfg: SuiteConfig, grid):
    g = grid(cfg.convention)
    return Evaluation(
        {"on_shell": spin1.on_shell_residual(g)}, {"momenta": len(g.mass), "helicities": 3}
    )


@_check("spin1/majorana-unitarity", "real-frame unitary and its displayed conjugate", _TIGHT)
def _majorana_unitarity(cfg: SuiteConfig, grid):
    u = spin1.MAJORANA_U
    return Evaluation(
        {
            "u_udagger": linalg.max_abs(u @ linalg.dagger(u) - spin1.ID6),
            "udagger_u": linalg.max_abs(linalg.dagger(u) @ u - spin1.ID6),
            "displayed_dagger": linalg.max_abs(spin1.DISPLAYED_U_DAGGER - linalg.dagger(u)),
        }
    )


@_check("spin1/majorana-real-family", "real forms of the covariant family")
def _majorana_family(cfg: SuiteConfig, grid):
    rep = spin1.majorana_family_report()
    # judged per image; the report carries the four scalars
    res = {k: rep.pop(k) for k in ("family_gaps", "family_imag_parts")}
    return Evaluation(dict(res, five_residual=rep["five_residual"]), rep)


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
    offplane = FourMomentum(cfg.masses[0], 1.0, math.pi / 3, math.pi / 5)
    flip = spin1.chirality_flip_residual
    res = {"grid": flip(grid(cfg.convention)), "offplane": flip(offplane)}
    return Evaluation(res, {"includes_offplane_direction": True})


@_check("spin1/transverse-reality", "real/imaginary-part identities on the meridian grid")
def _transverse_reality(cfg: SuiteConfig, grid):
    rep = spin1.transverse_reality_report(grid(cfg.convention))
    return Evaluation({k: v for k, v in rep.items() if k != "long_u_im_norm"})


@_check("spin1/transverse-reality-offplane", "the same identities off the meridian plane", None)
def _transverse_offplane(cfg: SuiteConfig, grid):
    p = FourMomentum(cfg.masses[0], 1.0, math.pi / 3, math.pi / 5)
    rep = {k: float(v) for k, v in spin1.transverse_reality_report(p).items()}
    rep["note"] = (
        "off the meridian plane the split parts stop being real and the "
        "identities acquire finite residuals; the algebraic split u = "
        "u_re + i u_im itself stays exact"
    )
    return Evaluation({"u_re_match": rep["u_re_match"]}, rep)


@_check("spin1/selfconjugacy-dichotomy", "square signs decide existence of self-conjugate spinors")
def _selfconjugacy(cfg: SuiteConfig, grid):
    rep = spin1.selfconjugacy_analysis()
    gaps = rep.pop("eigenvector_gaps")
    half_sign = halfspin.charge_conjugation_op(cfg.convention).square_sign()
    return Evaluation(
        {"eigenvector_gaps": gaps},
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
def _reality_classes(cfg: SuiteConfig, grid):
    vh = spin1.HALF_MAJORANA_FRAME
    c_half = halfspin.charge_conjugation_op(PhaseConvention()).matrix
    w = spin1.CHIRAL_TO_MAJORANA
    m_tw = spin1.TWISTED_CONJUGATION.matrix
    res = {
        "half_frame": linalg.max_abs(vh @ c_half @ vh.T - halfspin.ID4),
        "one_frame": linalg.max_abs(w @ m_tw @ w.T - spin1.ID6),
    }
    # classes are judged on the first six momenta and shown for the last
    g = grid(cfg.convention).head(6)
    half = {f"half_{name}": g.family[:, i] for i, name in enumerate(FAMILY)}
    one = {
        f"one_{tag}_{h}": vecs[:, j]
        for sign, tag in ((+1, "plus"), (-1, "minus"))
        for vecs in [spin1.lambda_like(g, sign)]
        for j, h in enumerate(spin1.HELICITIES)
    }
    classes = {}
    as_expected = []
    for spin, vectors, frame in (("half", half, vh), ("one", one, w)):
        found = spin1.reality_classes(vectors, frame)
        for name, (kind, _) in found.items():
            real = "_s_" in name or "plus" in name
            as_expected.append((kind == ("real" if real else "imaginary")).all())
            classes[name] = str(kind[-1])
        # (vector, row): the magnitude of the part each class says is absent
        res[f"{spin}_minority"] = np.array([minority for _, minority in found.values()])
    return Evaluation(res, {"classes": classes}, {"every class as expected": all(as_expected)})


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
    res = {}
    patterns = []
    cases = (
        (fock.INVERSION, _INV_TABLE, True),
        (fock.CHARGE, _CHG_TABLE, False),
        (fock.CHARGE_FLIP, _FLIP_TABLE, False),
    )
    for op, table, negate in cases:
        for at, got, modes in (("moving", op.moving, fock.SECTOR), ("rest", op.matrix, fock.REST)):
            want = _table_matrix(table, negate, modes)
            res[f"{op.name}_{at}"] = linalg.max_abs(got - want)
            patterns.append(((got != 0) == (want != 0)).all())
        unitary = linalg.dagger(op.moving) @ op.moving
        res[f"{op.name}_unitary"] = linalg.max_abs(unitary - linalg.EYE[8])
    return Evaluation(
        res,
        {"labels_checked": len(cases) * (len(fock.SECTOR) + len(fock.REST))},
        {"nonzero patterns match the tables": all(patterns)},
    )


@_check(
    "fock/squares-and-commutation", "operator squares, commutator, anticommutator, chains", _TIGHT
)
def _squares_commutation(cfg: SuiteConfig, grid):
    inv, chg, flip = fock.INVERSION, fock.CHARGE, fock.CHARGE_FLIP
    squares = fock.squares_report((inv, chg, flip))
    comm = fock.commutator_report(chg, inv)
    anti = fock.commutator_report(flip, inv)
    # chains on |p,up>^+
    start = fock.FockVector.basis(1, "up", +1)
    end_comm = 1j * fock.FockVector.basis(-1, "dn", -1).amps
    tgt = fock.FockVector.basis(-1, "up", -1).amps
    chains = [
        (chg.apply(inv.apply(start)), end_comm),
        (inv.apply(chg.apply(start)), end_comm),
        (flip.apply(inv.apply(start)), -1j * tgt),
        (inv.apply(flip.apply(start)), +1j * tgt),
    ]
    return Evaluation(
        {
            "inversion_square": abs(squares["inversion"] - 1.0),
            "charge_square": abs(squares["charge"] + 1.0),
            "charge_flip_square": abs(squares["charge_flip"] + 1.0),
            "commutator": comm["commutator"],
            "anticommutator": anti["anticommutator"],
            "chains": norm(np.array([got.amps - want for got, want in chains])),
        },
        {"squares": squares, "commutator": comm, "anticommutator": anti},
    )


@_check("fock/eigencombinations", "parity and charge eigen-combinations", _TIGHT)
def _eigencombinations(cfg: SuiteConfig, grid):
    parity = {"rest": fock.parity_eigencombos(0), "moving": fock.parity_eigencombos(1)}
    charges = fock.charge_eigencombos()
    res = {f"parity_{at}_{s}": d[s]["residual"] for at, d in parity.items() for s in d}
    res |= {f"charge_{k}": d["residual"] for k, d in charges.items()}
    return Evaluation(
        res,
        {
            "parity_rest": parity["rest"],
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
def _joint_certificate(cfg: SuiteConfig, grid):
    cert = fock.simultaneous_eigen_certificate()
    return Evaluation({}, cert, {"margin >= 1": cert["min_singular_value"] >= 1.0})


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
    return Evaluation({k: both[k] for k in ("inversion_residual", "charge_residual")}, vals)


@_check("fock/operator-state-consistency", "ladder-rule route reproduces the state tables", _TIGHT)
def _operator_state(cfg: SuiteConfig, grid):
    rep = fock.operator_state_consistency()
    return Evaluation({"gaps": rep["gaps"]}, {"max_residual": rep["max_residual"]})


# ---------------------------------------------------------------------------
# fieldops suite


@_check("fieldops/mode-structure", "fixed-momentum expansion layout and conjugation involution")
def _mode_structure(cfg: SuiteConfig, grid):
    g = grid(_pinned_conv(cfg))
    nu = fieldops.majorana_mode(g)
    cnu = fieldops.charge_conjugate_expansion(nu, g.convention)
    # lambda^S rides the annihilators and lambda^A the creators, each with
    # its S^c sign: C(nu) is nu with the slots swapped and signs (-1, +1)
    layout = fieldops.residual(cnu, nu[:, ::-1] * np.array([-1.0, 1.0])[:, None, None])
    twice = fieldops.residual(fieldops.charge_conjugate_expansion(cnu, g.convention), nu)
    return Evaluation({"layout": layout, "involution": twice}, {"terms": nu.shape[1] * nu.shape[2]})


@_check("fieldops/ziino-split", "even/odd halves match the displayed coefficients")
def _ziino_split(cfg: SuiteConfig, grid):
    g = grid(_pinned_conv(cfg))
    even, odd = fieldops.ziino_barut_split(g)
    # the independent oracle rebuilds the first and last rows from (p, conv)
    shown = fieldops.displayed_split(g)
    oracle = []
    for i in sorted({0, len(g.mass) - 1}):
        want = fieldops.displayed_ziino_coefficients(g.momentum(i), g.convention)
        oracle.append(linalg.max_abs([half[i] - w for half, w in zip(shown, want)]))
    return Evaluation(
        {
            "split": fieldops.ziino_split_residual(g),
            "halves_sum": fieldops.residual(even + odd, fieldops.majorana_mode(g)),
            "displayed_oracle": oracle,
        },
        {"momenta": len(g.mass)},
    )


@_check("fieldops/conjugation-parity", "the halves are conjugation eigen-expansions")
def _conjugation_parity(cfg: SuiteConfig, grid):
    return Evaluation(fieldops.conjugation_parity_residuals(grid(_pinned_conv(cfg)).head(8)))


@_check("fieldops/dirac-embedding", "projector images land in the mass eigenspaces")
def _dirac_embedding(cfg: SuiteConfig, grid):
    g = grid(_pinned_conv(cfg))
    rep = fieldops.dirac_from_majorana(g)
    generic = fieldops.dirac_from_majorana(
        halfspin.build_spinor_basis(g.momentum(0), PhaseConvention(0.3, 0.4, 0.0, cfg.norm))
    )
    generic_sv = [float(s) for s in generic["positive_singular_values"][0]]
    return Evaluation(
        {k: rep[k] for k in ("partner_residual", "eigenspace_residual")},
        {
            "generic_phase_singular_values": generic_sv,
            "default_phase_singular_values": [
                float(s) for s in rep["positive_singular_values"][0]
            ],
            "note": (
                "at phase sum 0 or pi the two positive images are collinear; "
                "the rank-2 statement needs generic phases"
            ),
        },
        {"rank 2 at generic phases": generic_sv[1] > 1e-6},
    )


@_check("fieldops/quaternion-orbit", "unit-quaternion phase orbit preserves conjugation status")
def _quaternion_orbit(cfg: SuiteConfig, grid):
    u = fieldops.QUATERNION_UNITS
    # the pairs (i, j), (i, k), (j, k)
    a, b = u[[0, 0, 1]], u[[1, 2, 2]]
    res = {
        "units_square": linalg.max_abs(u @ u + halfspin.ID4, axis=(-2, -1)),
        "ij_is_k": linalg.max_abs(u[0] @ u[1] - u[2]),
        "anticommute": linalg.max_abs(a @ b + b @ a, axis=(-2, -1)),
    }
    # 1, i, j, k, (1 + i + j + k) / 2 and four seeded random phases
    v = _samples(23, 4, 4)
    qs = fieldops.unit_quaternions(
        np.concatenate([linalg.EYE[4], [[0.5] * 4], v / norm(v)[:, None]])
    )
    g = grid(_pinned_conv(cfg)).head(4)
    res["orbit_conjugation"] = fieldops.orbit_preserves_conjugation(qs, g)
    res["orbit_group_law"] = fieldops.orbit_group_law(qs[:5, None], qs[None, 5:])
    return Evaluation(res, {"units_square": -1, "orbit_points": len(qs)})


# ---------------------------------------------------------------------------
# running and rendering


def run_checks(cfg: SuiteConfig):
    @functools.cache
    def grid(conv: PhaseConvention) -> halfspin.SpinorGrid:
        return halfspin.SpinorGrid.build(*cfg._rows, conv)

    chosen = [c for c in _REGISTRY if c.check_id.split("/")[0] in cfg.suites]
    return [_run(c, cfg, grid) for c in sorted(chosen, key=lambda c: c.check_id)]


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
