"""Batched fixed-size evaluations against the loops they replace.

Each oracle below is the per-item loop that the batched code replaced, kept
here as the reference: the group table, the quaternion orbit and its group
law, the massless scan, the rest-phase scan of the Gram matrix, the
direction residuals, the seeded samples and the Kronecker products.  A
batched row must equal its loop result bit for bit (np.array_equal), so
batching cannot move a printed number.  The same holds for the forms that
replaced containers: the grid of a run's kinematic arrays and its reflection
against the grid of FourMomentum records, and the spin-1 (mu, nu) arrays
against the dicts they replaced.
"""

import functools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfconj import checks, fieldops, fock, halfspin, linalg, spin1
from selfconj.halfspin import LAM_A, LAM_S, RHO_A, RHO_S, FourMomentum, PhaseConvention
from selfconj.halfspin import build_spinor_basis
from selfconj.linalg import TOL, max_abs, norm

SETTINGS = settings(database=None, deadline=None, max_examples=40)
phases = st.floats(-1e3, 1e3)
unit_quaternion = (
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: v / np.linalg.norm(v))
)
momenta = st.builds(
    FourMomentum,
    st.floats(1e-3, 1e3),
    st.floats(0.0, 1e3),
    st.floats(0.0, math.pi),
    st.floats(-10.0, 10.0),
)


def _grid(cfg):
    return functools.partial(halfspin.build_spinor_grid, cfg.momenta())


# ---------------------------------------------------------------------------
# the exchange group


def _w_group_table_loop(ws):
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


@SETTINGS
@given(st.permutations(range(4)), st.lists(st.sampled_from([1, -1]), min_size=4, max_size=4))
def test_w_group_table_equals_the_loop(order, signs):
    # any relabeling of the group's elements, signs included, still closes
    parts = np.array(signs)[:, None, None] * halfspin.W_PARTS[list(order)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(halfspin, "W_PARTS", parts)
        assert halfspin.w_group_table() == _w_group_table_loop(parts)


def test_w_group_table_raises_when_a_product_escapes(monkeypatch):
    parts = halfspin.W_PARTS.copy()
    parts[3] = parts[3] * np.exp(0.1j)
    with pytest.raises(ValueError, match="escapes"):
        _w_group_table_loop(parts)
    monkeypatch.setattr(halfspin, "W_PARTS", parts)
    with pytest.raises(ValueError, match="W_1 W_2 escapes"):
        halfspin.w_group_table()


# ---------------------------------------------------------------------------
# the quaternion orbit


def _orbit_matrix_loop(q):
    qi, qj, qk = fieldops.QUATERNION_UNITS
    c0, c = float(q[0]), tuple(float(x) for x in q[1:])
    return c0 * halfspin.ID4 + c[0] * qi + c[1] * qj + c[2] * qk


def _product_loop(a, b):
    a0, av, b0, bv = float(a[0]), np.array(a[1:]), float(b[0]), np.array(b[1:])
    c0 = a0 * b0 - float(np.dot(av, bv))
    return np.array([c0, *(a0 * bv + b0 * av + np.cross(av, bv))])


@SETTINGS
@given(
    st.lists(unit_quaternion, min_size=1, max_size=5),
    st.lists(unit_quaternion, min_size=1, max_size=4),
)
def test_orbit_and_group_law_equal_the_loop(left, right):
    qa, qb = fieldops.unit_quaternions(left), fieldops.unit_quaternions(right)
    assert np.array_equal(fieldops.orbit_matrix(qa), [_orbit_matrix_loop(q) for q in left])

    def law(a, b):
        m = _orbit_matrix_loop
        return max_abs(m(a) @ m(b) - m(_product_loop(a, b)))

    want = [[law(a, b) for b in right] for a in left]
    assert np.array_equal(fieldops.orbit_group_law(qa[:, None], qb[None, :]), want)
    g = halfspin.build_spinor_grid([FourMomentum(1.0, 1.0, 1.1, 0.4), FourMomentum(0.5, 2.0)])
    c = halfspin.charge_conjugation_op(g.convention)
    status = []
    for q in left:
        img = linalg.apply(_orbit_matrix_loop(q), g.family)
        status.append(norm(c(img) - halfspin.FAMILY_SIGNS[:, None] * img))
    assert np.array_equal(fieldops.orbit_preserves_conjugation(qa, g), status)


# ---------------------------------------------------------------------------
# phase scans


def _massless_scan_loop(masses, conv):
    rows = []
    for m in masses:
        up, dn = build_spinor_basis(FourMomentum(m, 1.0), conv).family[0, LAM_S]
        up, dn = float(np.linalg.norm(up)), float(np.linalg.norm(dn))
        rows.append({"mass": m, "ratio": up / dn, "lam_s_dn_norm": dn})
    return rows


@SETTINGS
@given(st.lists(st.floats(1e-12, 1e6), min_size=1, max_size=6), phases, phases)
def test_massless_scan_equals_the_loop(masses, theta1, theta2):
    conv = PhaseConvention(theta1, theta2)
    assert halfspin.massless_scan(masses, conv) == _massless_scan_loop(masses, conv)


@SETTINGS
@given(
    momenta,
    st.lists(st.tuples(phases, phases), min_size=1, max_size=8),
    phases,
    st.none() | st.floats(1e-3, 1e3),
)
def test_phase_scan_grams_equal_one_row_grams(p, pairs, thetac, rest_norm):
    t1, t2 = zip(*pairs)
    conv = PhaseConvention(t1, t2, thetac, rest_norm)
    scan = halfspin.biorthonormality_gram(halfspin.build_spinor_grid([p] * len(pairs), conv))
    one_row = [
        halfspin.biorthonormality_gram(
            build_spinor_basis(p, PhaseConvention(a, b, thetac, rest_norm))
        )[0]
        for a, b in pairs
    ]
    assert np.array_equal(scan, one_row)


def test_a_phase_scan_needs_finite_phases():
    with pytest.raises(ValueError):
        PhaseConvention((0.1, math.nan), (0.0, 0.0))
    # a run takes one rest phase each, never one per grid row
    with pytest.raises(ValueError, match="numbers"):
        checks.SuiteConfig(theta1=(0.1,) * 18, theta2=(0.0,) * 18)


# ---------------------------------------------------------------------------
# directions, seeded samples and Kronecker products


@SETTINGS
@given(st.integers(1, 30))
def test_direction_residuals_equal_the_loops(n_directions):
    cfg = checks.SuiteConfig(n_magnitudes=1, n_directions=n_directions)
    helicity = checks._helicity_spinors(cfg, _grid(cfg)).residuals
    wigner = checks._theta3(cfg, _grid(cfg)).residuals
    eigen, unit, triad = [], [], []
    for th, ph in cfg.directions():
        n = FourMomentum(1.0, 1.0, th, ph).nhat
        sn = np.tensordot(n, halfspin.SIGMA, axes=(0, 0))
        for h, chi in zip((+1, -1), halfspin._helicity_pair(th, ph)):
            eigen.append(float(np.linalg.norm(sn @ chi - h * chi)))
            unit.append(abs(float(np.linalg.norm(chi)) - 1.0))
        jn = n[0] * spin1.J1 + n[1] * spin1.J2 + n[2] * spin1.J3
        for k, h in enumerate(spin1.HELICITIES):
            xi = spin1.spin1_rotation(th, ph)[:, k]
            triad.append(float(np.linalg.norm(jn @ xi - h * xi)))
    assert np.array_equal(np.ravel(helicity["eigen"]), eigen)
    assert np.array_equal(np.ravel(helicity["unit_norm"]), unit)
    assert np.array_equal(np.ravel(wigner["triad"]), triad)


def _stream(seed):
    """The samples' source drawn one value at a time: random.Random(seed)
    mapped to [-1, 1); draw(*shape) takes the next values, row-major."""
    rng = random.Random(seed)

    def draw(*shape):
        return np.array([2 * rng.random() - 1 for _ in range(math.prod(shape))]).reshape(shape)

    return draw


def test_seeded_samples_equal_the_loops():
    cfg = checks.SuiteConfig()
    c = halfspin.charge_conjugation_op(cfg.convention)
    draw = _stream(7)
    antilinear = []
    for _ in range(16):
        v = draw(4) + 1j * draw(4)
        w = draw(4) + 1j * draw(4)
        a = draw() + 1j * draw()
        antilinear.append(max_abs(c(a * v + w) - (np.conjugate(a) * c(v) + c(w))))
    got = checks._antilinear_algebra(cfg, None).residuals["antilinearity"]
    assert np.array_equal(got, antilinear)


def test_kron_residuals_equal_the_loop():
    sigma, theta, one = halfspin.SIGMA, halfspin.THETA, halfspin.ID2
    # gamma^0, gamma^1..3, gamma^5 and their (chirality, spin) factors
    factors = [(halfspin.GAMMA0, sigma[0], one)]
    factors += [(g, theta, s) for g, s in zip(halfspin.GAMMAS, sigma)]
    factors += [(halfspin.GAMMA5, sigma[2], one)]
    for m, chirality, spin in factors:
        assert np.array_equal(m, np.kron(chirality, spin))
    kron = [np.abs(m - np.kron(chirality, spin)) for m, chirality, spin in factors]
    got = checks._kron(checks.SuiteConfig(), None).residuals["mixed_product"]
    assert np.array_equal(got, kron)


# ---------------------------------------------------------------------------
# builders without numpy's Python-level wrappers
#
# The builders as they were written with np.stack, np.tensordot and
# np.zeros_like; the rewrites use concatenate, @ and one zeroed array and
# must give the same bits, signed zeros included.  The grid's boosted
# spinors are the exception: the stacked builder applies the boost
# matrices, the grid multiplies by their eigenvalues, and the two agree to
# a few eps times kappa = (E + |p|)/m of each row's norm, the error of the
# matrix form.


def _helicity_pair_stacked(theta, phi):
    c, s = np.cos(np.asarray(theta) / 2), np.sin(np.asarray(theta) / 2)
    em, ep = np.exp(-0.5j * np.asarray(phi)), np.exp(+0.5j * np.asarray(phi))
    return np.stack([c * em, s * ep, -s * em, c * ep], axis=-1).reshape(c.shape + (2, 2))


def _boost_ops_tensordot(p):
    e, m = p.energy, p.mass
    sp = np.tensordot(p.pvec, halfspin.SIGMA, axes=(-1, 0))
    den = linalg.rowscale(np.sqrt(2 * m * (e + m)))
    lam_r = (linalg.rowscale(e + m) * halfspin.ID2 + sp) / den
    lam_l = (linalg.rowscale(e + m) * halfspin.ID2 - sp) / den
    return lam_r, lam_l


def _grid_stacked(momenta, conv):
    """(nhat, left, right, family) of SpinorGrid.build."""
    rows = [(p.mass, p.pmag, p.theta, p.phi, p.energy) for p in momenta]
    mass, pmag, theta, phi, energy = np.array(rows, dtype=float).reshape(-1, 5).T.copy()
    st = np.sin(theta)
    nhat = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)
    kinematics = SimpleNamespace(mass=mass, energy=energy, pvec=pmag[:, None] * nhat)
    lam_r, lam_l = _boost_ops_tensordot(kinematics)
    scale = np.sqrt(mass) if conv.norm is None else np.full_like(mass, conv.norm)
    phases = np.stack([np.exp(1j * np.asarray(t)) for t in (conv.theta1, conv.theta2)], axis=-1)
    rest = scale[:, None, None] * phases[..., None] * _helicity_pair_stacked(theta, phi)
    left = linalg.apply(lam_l, rest)
    right = linalg.apply(lam_r, rest)
    lp, lm, rp, rm = (
        linalg.apply(s * halfspin.THETA, np.conjugate(x)) for x in (left, right) for s in (1j, -1j)
    )
    halves = [(lp, left), (right, rm), (lm, left), (right, rp)]
    family = np.concatenate([np.concatenate(h, axis=-1) for h in halves], axis=1)
    return nhat, left, right, family


def _discrete_ops_tensordot(nhat):
    sn = 0.5 * np.tensordot(nhat, halfspin.SIGMA, axes=(-1, 0))
    h = np.zeros(sn.shape[:-2] + (4, 4), dtype=complex)
    h[..., :2, :2] = h[..., 2:, 2:] = sn
    return h, -halfspin.GAMMA5 @ h


def _majorana_mode_stacked(g):
    return np.stack([g.family[:, LAM_S], g.family[:, halfspin.LAM_A]], axis=1)


def _displayed_split_stacked(g):
    top = linalg.apply(1j * halfspin.THETA, np.conjugate(g.left))
    z = np.zeros_like(top)
    upper, lower = np.concatenate([top, z], axis=-1), np.concatenate([z, g.left], axis=-1)
    even = np.stack([upper, lower], axis=1)
    odd = np.stack([lower, np.concatenate([-top, z], axis=-1)], axis=1)
    return even, odd


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def _seeded_momenta(seed, n):
    """Masses, magnitudes and angles drawn from random.Random(seed), with
    the poles, the rest frame and negative azimuths among them."""
    rng = random.Random(seed)
    return [
        FourMomentum(
            rng.uniform(0.25, 4.0),
            rng.choice([0.0, 1.0, rng.uniform(0.0, 30.0)]),
            rng.choice([0.0, math.pi, math.pi / 2, rng.uniform(0.0, math.pi)]),
            rng.choice([0.0, math.pi, rng.uniform(-10.0, 10.0)]),
        )
        for _ in range(n)
    ]


def _scan(seed, n):
    rng = random.Random(seed)
    return tuple(rng.uniform(-7.0, 7.0) for _ in range(n))


BUILDER_CASES = {
    "one row": ([FourMomentum(1.0, 1.0, 1.1, 0.4)], PhaseConvention()),
    "4x8, two masses": (
        checks.SuiteConfig(masses=(0.7, 2.5), n_magnitudes=4, n_directions=8).momenta(),
        PhaseConvention(1.1, -0.6, 0.7),
    ),
    "seeded, norm given": (_seeded_momenta(3, 24), PhaseConvention(0.3, 0.4, 0.0, 2.5)),
    "seeded, per-row phase scan": (
        _seeded_momenta(5, 8),
        PhaseConvention(_scan(6, 8), _scan(7, 8), 0.2),
    ),
    "seeded, phase scan with norm": (
        _seeded_momenta(8, 16),
        PhaseConvention(_scan(9, 16), _scan(10, 16), -1.3, 0.6),
    ),
}


@pytest.mark.parametrize("case", BUILDER_CASES)
def test_builders_keep_their_bits(case):
    momenta, conv = BUILDER_CASES[case]
    g = halfspin.build_spinor_grid(momenta, conv)
    nhat, *boosted = _grid_stacked(momenta, conv)
    _assert_same_bits(g.nhat, nhat)
    kappa = (g.energy + g.pmag) / g.mass
    for got, want in zip((g.left, g.right, g.family), boosted):
        assert got.shape == want.shape and got.dtype == want.dtype
        bound = 4 * np.finfo(float).eps * kappa[:, None] * norm(want)
        assert (norm(got - want) <= bound).all()
    _assert_same_bits(
        halfspin._helicity_pair(g.theta, g.phi), _helicity_pair_stacked(g.theta, g.phi)
    )
    p = momenta[-1]
    pair = halfspin._helicity_pair(p.theta, p.phi)
    _assert_same_bits(pair, _helicity_pair_stacked(p.theta, p.phi))
    for nhat in (g.nhat, g.nhat[0]):
        ops = halfspin.discrete_ops(nhat)
        for got, want in zip((ops.helicity, ops.chiral_helicity), _discrete_ops_tensordot(nhat)):
            _assert_same_bits(got, want)
    _assert_same_bits(fieldops.majorana_mode(g), _majorana_mode_stacked(g))
    for got, want in zip(fieldops.displayed_split(g), _displayed_split_stacked(g)):
        _assert_same_bits(got, want)


# ---------------------------------------------------------------------------
# grids from kinematic arrays against grids from FourMomentum records
#
# A grid used to be built from a list of records, and its reflection from
# the records' own p -> -p; a run now hands SpinorGrid.build the arrays of
# its SuiteConfig, and the reflection maps the arrays.


def _reflected_record(p):
    """Space inversion of one record, as FourMomentum.reflected was."""
    return FourMomentum(p.mass, p.pmag, math.pi - p.theta, p.phi + math.pi)


GRID_FIELDS = ("mass", "pmag", "theta", "phi", "energy", "nhat", "left", "right", "family")


def _assert_same_grid(got, want):
    for name in GRID_FIELDS:
        _assert_same_bits(getattr(got, name), getattr(want, name))
    _assert_same_bits(spin1.weinberg_u(got), spin1.weinberg_u(want))


def _edge_momenta(seed):
    """Seeded rows plus a rest row, the poles, an azimuth just below 2 pi
    and a second mass."""
    below = math.nextafter(2 * math.pi, 0.0)
    return [
        FourMomentum(1.0, 0.0),
        FourMomentum(1.0, 2.0, 0.0, 0.0),
        FourMomentum(0.3, 2.0, math.pi, 1.0),
        FourMomentum(2.5, 0.7, 1.2, below),
        FourMomentum(2.5, 3.0, math.pi, below),
        *_seeded_momenta(seed, 11),
    ]


REFLECTION_CASES = {
    "edges": (_edge_momenta(12), PhaseConvention()),
    "edges, norm given": (_edge_momenta(13), PhaseConvention(0.3, 0.4, 0.7, 2.5)),
    "edges, phase scan": (_edge_momenta(14), PhaseConvention(_scan(15, 16), _scan(16, 16), 0.2)),
    "4x8, two masses": (
        checks.SuiteConfig(masses=(0.7, 2.5), n_magnitudes=4, n_directions=8).momenta(),
        PhaseConvention(1.1, -0.6, 0.0, 0.6),
    ),
}


@pytest.mark.parametrize("case", REFLECTION_CASES)
def test_the_reflected_grid_equals_the_grid_of_reflected_records(case):
    momenta, conv = REFLECTION_CASES[case]
    g = halfspin.build_spinor_grid(momenta, conv)
    reflected = [_reflected_record(p) for p in momenta]
    _assert_same_grid(g.reflected, halfspin.build_spinor_grid(reflected, conv))
    assert g.reflected.mass is g.mass and g.reflected.energy is g.energy


CONFIGS = {
    "default": checks.SuiteConfig(),
    "two masses, 4x8, norm": checks.SuiteConfig(
        masses=(0.5, 2.0), n_magnitudes=4, n_directions=8, norm=2.5
    ),
    "seeded masses, phases": checks.SuiteConfig(
        masses=(random.Random(4).uniform(0.25, 4.0), 3.7), n_magnitudes=3, n_directions=7,
        theta1=0.3, theta2=0.4,
    ),
    "1x1": checks.SuiteConfig(n_magnitudes=1, n_directions=1),
    "32x32": checks.SuiteConfig(n_magnitudes=32, n_directions=32),
}


def _config_records(cfg):
    """The grid momenta as SuiteConfig made them, one record per row."""
    return [
        FourMomentum(m, mag, th, ph)
        for m in cfg.masses
        for mag in cfg.magnitudes()
        for th, ph in cfg.directions()
    ]


@pytest.mark.parametrize("case", CONFIGS)
def test_a_runs_grid_equals_the_grid_of_its_records(case):
    cfg = CONFIGS[case]
    records = _config_records(cfg)
    for conv in (cfg.convention, PhaseConvention(0.0, 0.0, 0.0, cfg.norm)):
        g = halfspin.SpinorGrid.build(*cfg._rows, conv)
        _assert_same_grid(g, halfspin.build_spinor_grid(records, conv))
        reflected = [_reflected_record(p) for p in records]
        _assert_same_grid(g.reflected, halfspin.build_spinor_grid(reflected, conv))
    # a row read back as a record is the record it came from
    assert [g.momentum(i) for i in range(len(g.mass))] == cfg.momenta() == records


# ---------------------------------------------------------------------------
# the spin-1 (mu, nu) families against the dicts they replaced


def _k_dict():
    jv = spin1.JVEC
    return {
        (i, j): jv[i] @ jv[j] + jv[j] @ jv[i] - (1.0 if i == j else 0.0) * spin1.ID3
        for i in range(3)
        for j in range(3)
    }


def _chiral_gammas_dict():
    z3, i3, jv = spin1.Z3, spin1.ID3, spin1.JVEC
    out = {(0, 0): np.block([[z3, i3], [i3, z3]])}
    for i in range(3):
        g = np.block([[z3, jv[i]], [-jv[i], z3]])
        out[(0, i + 1)] = g
        out[(i + 1, 0)] = g
    for (i, j), k in _k_dict().items():
        out[(i + 1, j + 1)] = np.block([[z3, k], [k, z3]])
    return out


def _mr_forms_dict():
    t, z3, i3 = spin1.THETA3, spin1.Z3, spin1.ID3
    out = {
        (0, 0): np.block([[z3, t], [t, z3]]),
        (0, 1): np.block([[z3, -spin1.J1 @ t], [-spin1.J1 @ t, z3]]),
        (0, 2): np.block([[1j * spin1.J2 @ t, z3], [z3, -1j * spin1.J2 @ t]]),
        (0, 3): np.block([[z3, -spin1.J3 @ t], [-spin1.J3 @ t, z3]]),
    }
    for i in range(3):
        out[(i + 1, 0)] = out[(0, i + 1)]
    for (i, j), k in _k_dict().items():
        dif = 1j * (np.conjugate(k) - k)
        tot = np.conjugate(k) + k
        out[(i + 1, j + 1)] = 0.5 * np.block([[dif @ t, tot @ t], [tot @ t, -dif @ t]])
    out["five"] = np.block([[z3, 1j * i3], [-1j * i3, z3]])
    return out


def test_spin1_families_equal_the_dicts_they_replaced():
    k = _k_dict()
    assert len(k) == 9
    for key, want in k.items():
        _assert_same_bits(spin1._K[key], want)
    gammas, forms = _chiral_gammas_dict(), _mr_forms_dict()
    assert len(gammas) == 16 and len(forms) == 17
    for key, want in gammas.items():
        _assert_same_bits(spin1.CHIRAL_GAMMAS[key], want)
        _assert_same_bits(spin1.MR_FORMS[key], forms[key])
    _assert_same_bits(spin1.MR_FIVE, forms["five"])
    # the ten mu <= nu images in the dicts' order
    upper = [key for key in gammas if key[0] <= key[1]]
    assert list(zip(*spin1._UPPER)) == upper
    imgs = spin1.to_majorana_rep(np.array([gammas[key] for key in upper]))
    gaps = max_abs(imgs - np.array([forms[key] for key in upper]), axis=(-2, -1))
    _assert_same_bits(spin1.majorana_family_report()["family_gaps"], gaps)


# ---------------------------------------------------------------------------
# fixed index sets stacked into one expression
#
# Each function below is the loop form that a stacked expression replaced:
# over the relations, aliases, members, signs, halves, frequency signs or
# operators of one fixed set.  The stacked form repeats the loop's
# arithmetic, so it gives the same bits, with two stated exceptions:
#
# - where a product by a +-1 array stands for a plain copy or a unary minus,
#   a zero can change sign; those results are compared as values (-0.0 ==
#   0.0, NaN == NaN), and every residual derived from them, being a norm
#   or a magnitude, keeps its bits;
# - the on-shell contraction forms p^mu p^nu first and contracts the 16
#   (mu, nu) terms in one dot per entry, so it regroups the sum; it is
#   compared within the bound stated at _on_shell_bound.

STACKED_CASES = {
    **BUILDER_CASES,
    "edges, phase scan": REFLECTION_CASES["edges, phase scan"],
    "large |p|": (
        [FourMomentum(1.0, 2.0**k, 0.3 * k % math.pi, 0.7 * k) for k in range(0, 52, 3)],
        PhaseConvention(0.2, 1.3, 0.5),
    ),
}


def _assert_same_values(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)


def _family_loop(left, right):
    lp, lm, rp, rm = (
        linalg.apply(s * halfspin.THETA, np.conjugate(x)) for x in (left, right) for s in (1j, -1j)
    )
    halves = [(lp, left), (right, rm), (lm, left), (right, rp)]
    return np.concatenate([np.concatenate(h, axis=-1) for h in halves], axis=1)


def _slash_loop(p):
    out = linalg.rowscale(p.energy) * halfspin.GAMMA0
    for i in range(3):
        out = out - linalg.rowscale(p.pvec[..., i]) * halfspin.GAMMAS[i]
    return out


def _dynamical_loop(g):
    sl, m, f = _slash_loop(g), linalg.rowscale(g.mass), g.family
    pairs = (("r1", LAM_S, RHO_A), ("r2", RHO_A, LAM_S), ("r3", LAM_A, RHO_S), ("r4", RHO_S, LAM_A))
    return {k: norm(linalg.apply(sl, f[:, x]) - m * f[:, y]) for k, x, y in pairs}


def _xi_alias_loop(g):
    v1, v2, v3, v4 = halfspin.xi_quadruple(g.phi)
    ls, la = g.family[:, LAM_S], g.family[:, LAM_A]
    cls, cla = np.conjugate(ls), np.conjugate(la)
    return {
        "alias1": norm(linalg.apply(v1, ls) - cla),
        "alias2": norm(linalg.apply(v2, ls) + 1j * cls),
        "alias3": norm(linalg.apply(v3, ls) - linalg.apply(1j * halfspin.GAMMA0, cla)),
        "alias4": norm(linalg.apply(v4, ls) - linalg.apply(halfspin.GAMMA0, cls)),
    }


def _jdot_loop(nhat):
    r = linalg.rowscale
    return r(nhat[..., 0]) * spin1.J1 + r(nhat[..., 1]) * spin1.J2 + r(nhat[..., 2]) * spin1.J3


def _on_shell_loop(p):
    """The term-by-term residual and its error scale || T |u| ||, with T the
    entrywise sum of |gamma_{mu nu} p^mu p^nu| over the 16 terms."""
    p4 = np.concatenate([np.asarray(p.energy)[..., None], p.pvec], axis=-1)
    r = linalg.rowscale
    terms = [
        spin1.CHIRAL_GAMMAS[(mu, nu)] * r(p4[..., mu]) * r(p4[..., nu])
        for mu in range(4)
        for nu in range(4)
    ]
    u = spin1.weinberg_u(p)
    residual = norm(linalg.apply(sum(terms), u) - r(p.mass**2) * u)
    return residual, norm(linalg.apply(sum(np.abs(t) for t in terms), np.abs(u)))


# |new - old| <= 32 eps ||T |u||| + 4 eps r: both sums of the 16 terms err by
# at most about 20 u T per entry (two roundings per product, 15 or 16 per
# sum, a few more for complex products), each application of the operator
# by about 9 u T |u| per component, and the subtraction and the norm by a
# few u of the residual r itself
def _on_shell_bound(scale, residual):
    eps = np.finfo(float).eps
    return 32 * eps * scale + 4 * eps * residual


def _mr_spinor_loop(p):
    six = spin1.weinberg_u(p)
    fr, fl = six[..., :3], six[..., 3:]
    tfr = linalg.apply(spin1.THETA3, fr)
    u_re = 0.5 * np.concatenate([fl + tfr, fl + tfr], axis=-1)
    u_im = 0.5 * np.concatenate([-fl + tfr, fl - tfr], axis=-1)
    v_re = 0.5 * np.concatenate([-fl + tfr, -fl + tfr], axis=-1)
    v_im = 0.5 * np.concatenate([fl + tfr, -fl - tfr], axis=-1)
    return (u_re + 1j * u_im, v_re + 1j * v_im, u_re, u_im, v_re, v_im)


def _ziino_loop(g):
    """(even, odd), the split residual and the parity residuals."""
    nu = fieldops.majorana_mode(g)
    c = halfspin.charge_conjugation_op(g.convention)
    cnu = c(nu[:, ::-1])
    even, odd = (nu + cnu) * 0.5, (nu - cnu) * 0.5
    split = [
        fieldops.residual(x, y)[:, None] for x, y in zip((even, odd), fieldops.displayed_split(g))
    ]
    parity = {
        "even": fieldops.residual(c(even[:, ::-1]), even),
        "odd": fieldops.residual(c(odd[:, ::-1]), -odd),
    }
    return (even, odd), np.concatenate(split, axis=1), parity


def _dirac_loop(g):
    sl, m, f = _slash_loop(g), linalg.rowscale(g.mass), g.family
    ip = linalg.apply(halfspin.ID4 + sl / m, f[:, LAM_S])
    im = linalg.apply(halfspin.ID4 - sl / m, f[:, LAM_A])
    partner = (ip - (f[:, LAM_S] + f[:, RHO_A]), im - (f[:, LAM_A] - f[:, RHO_S]))
    eigenspace = (linalg.apply(sl, ip) - m * ip, linalg.apply(sl, im) + m * im)
    # the Gram law, one row, frequency sign and (h, k) entry at a time
    conv = g.convention
    gram = np.empty((len(g.mass), 2))
    for i in range(len(g.mass)):
        sigma = 2 * conv.rest_scale(g.mass[i]) * np.sqrt(g.energy[i] / g.mass[i])
        cos_s = np.cos(np.add(conv.theta1, conv.theta2))
        cos_s = cos_s if cos_s.ndim == 0 else cos_s[i]
        want = np.array([[1, -1j * cos_s], [1j * cos_s, 1]])
        for k, images in enumerate((ip, im)):
            u = images[i] / sigma
            got = np.array([[np.vdot(a, b) for b in u] for a in u])
            gram[i, k] = norm((got - want).ravel())
    return (
        np.concatenate([norm(x)[:, None] for x in partner], axis=1),
        np.concatenate([norm(x)[:, None] for x in eigenspace], axis=1),
        gram,
    )


@pytest.mark.parametrize("case", STACKED_CASES)
def test_stacked_grid_functions_equal_their_loops(case, monkeypatch):
    momenta, conv = STACKED_CASES[case]
    g = halfspin.build_spinor_grid(momenta, conv)
    _assert_same_bits(g.family, _family_loop(g.left, g.right))
    _assert_same_bits(halfspin.slash(g), _slash_loop(g))
    _assert_same_bits(halfspin.slash(momenta[-1]), _slash_loop(momenta[-1]))
    for got, want in (
        (halfspin.dynamical_residuals(g), _dynamical_loop(g)),
        (halfspin.xi_alias_residuals(g), _xi_alias_loop(g)),
    ):
        assert list(got) == list(want)
        for k in want:
            _assert_same_bits(got[k], want[k])
    _assert_same_values(spin1.jdot(g.nhat), _jdot_loop(g.nhat))
    for got, want in zip(spin1.mr_spinor(g), _mr_spinor_loop(g)):
        _assert_same_values(got, want)
    # the residuals read from the real-frame spinors keep their bits
    report = spin1.transverse_reality_report(g)
    with monkeypatch.context() as m:
        m.setattr(spin1, "mr_spinor", lambda p: spin1.MRSpinor(*_mr_spinor_loop(p)))
        loop = spin1.transverse_reality_report(g)
    for k in loop:
        _assert_same_bits(report[k], loop[k])
    halves, split, parity = _ziino_loop(g)
    for got, want in zip(fieldops.ziino_barut_split(g), halves):
        _assert_same_values(got, want)
    _assert_same_bits(fieldops.ziino_split_residual(g), split)
    got = fieldops.conjugation_parity_residuals(g)
    assert list(got) == list(parity)
    for k in parity:
        _assert_same_bits(got[k], parity[k])
    dirac = fieldops.dirac_from_majorana(g)
    partner, eigenspace, gram = _dirac_loop(g)
    _assert_same_bits(dirac["partner_residual"], partner)
    _assert_same_bits(dirac["eigenspace_residual"], eigenspace)
    _assert_same_bits(dirac["gram_residual"], gram)


@pytest.mark.parametrize("case", STACKED_CASES)
def test_the_on_shell_contraction_is_within_its_bound_of_the_term_sum(case):
    momenta, conv = STACKED_CASES[case]
    for p in (halfspin.build_spinor_grid(momenta, conv), momenta[-1]):
        got = spin1.on_shell_residual(p)
        want, scale = _on_shell_loop(p)
        assert got.shape == want.shape
        assert (np.abs(got - want) <= _on_shell_bound(scale, want)).all()


# the fock sector's operator and mode loops


def _squares_loop(ops):
    out = {}
    for op in ops:
        sq = op.matrix @ op.matrix
        z = complex(sq[0, 0])
        c = complex(np.rint(z.real * 1e12) / 1e12, np.rint(z.imag * 1e12) / 1e12)
        assert np.abs(sq - c * linalg.EYE[12]).max() <= 1e-12
        out[op.name] = c
    return out


def _operator_state_loop():
    created, annihilated, direct = [], [], []
    for op in (fock.INVERSION, fock.CHARGE, fock.CHARGE_FLIP):
        rows = fock._OPERATOR_RULES[op.name]
        for h in fock.HEL:
            for kind, branch in fock._BRANCH.items():
                for dagger, out in ((True, created), (False, annihilated)):
                    kind2, h2, _, negate, phase = rows[(kind, h, dagger)]
                    amps = np.zeros(len(fock.MODES), dtype=complex)
                    amps[fock.MODES.index((-1 if negate else 1, h2, fock._BRANCH[kind2]))] = phase
                    out.append(amps)
                direct.append(op.matrix[:, fock.MODES.index((1, h, branch))])
    created = np.array(created)
    return norm(np.array([created - direct, annihilated - np.conjugate(created)]))


def _parity_loop(ptag, branch):
    up, dn = (fock.FockVector.basis(ptag, h, branch).amps for h in fock.HEL)
    up_r, dn_r = (fock.FockVector.basis(-ptag, h, branch).amps for h in fock.HEL)
    out = {}
    for sign, tag in ((+1, "plus"), (-1, "minus")):
        image = fock.INVERSION.apply(fock.FockVector(up + sign * 1j * dn)).amps
        reflected = up_r + sign * 1j * dn_r
        fitted = complex(np.vdot(reflected, image) / np.vdot(reflected, reflected))
        out[tag] = {"eigenvalue": fitted, "residual": float(norm(image - sign * reflected))}
    return out


def _charge_loop():
    out = {}
    for h in fock.HEL:
        particle, antiparticle = (fock.FockVector.basis(1, h, b).amps for b in (+1, -1))
        for sign, tag in ((+1, "plus"), (-1, "minus")):
            vec = fock.FockVector(particle + sign * 1j * antiparticle)
            lam = -sign * 1j
            gap = fock.CHARGE.apply(vec).amps - lam * vec.amps
            out[f"{h}_{tag}"] = {"eigenvalue": lam, "residual": float(norm(gap))}
    return out


def _both_branch_loop():
    v = fock.FockVector([0, 0, 0, 0, 1.0, 1j, 0, 0, 0, 0, -1j, 1.0])
    return {
        "inversion_residual": float(norm(fock.INVERSION.apply(v).amps - v.amps)),
        "charge_residual": float(norm(fock.CHARGE.apply(v).amps - 1j * v.amps)),
        "charge_eigenvalue": 1j,
    }


def _state_tables_loop():
    res = {}
    cases = (
        (fock.INVERSION, checks._INV_TABLE, True),
        (fock.CHARGE, checks._CHG_TABLE, False),
        (fock.CHARGE_FLIP, checks._FLIP_TABLE, False),
    )
    for op, table, negate in cases:
        want = checks._table_matrix(table, negate, fock.MODES)
        columns = [max_abs(op.matrix[:, j] - want[:, j]) for j in range(len(fock.MODES))]
        res.setdefault("columns", []).append(columns)
        unitary = linalg.dagger(op.matrix) @ op.matrix
        res.setdefault("unitary", []).append(max_abs(unitary - linalg.EYE[12]))
    return res


def _chains_loop():
    inv, chg, flip = fock.INVERSION, fock.CHARGE, fock.CHARGE_FLIP
    start = fock.FockVector.basis(1, "up", +1)
    end_comm = 1j * fock.FockVector.basis(-1, "dn", -1).amps
    tgt = fock.FockVector.basis(-1, "up", -1).amps
    chains = [
        (chg.apply(inv.apply(start)), end_comm),
        (inv.apply(chg.apply(start)), end_comm),
        (flip.apply(inv.apply(start)), -1j * tgt),
        (inv.apply(flip.apply(start)), +1j * tgt),
    ]
    return norm(np.array([got.amps - want for got, want in chains]))


def _same_report(got, want):
    """Equal nested reports whose numbers keep their bits, signed zeros
    included (repr tells -0.0 from 0.0)."""
    assert repr(got) == repr(want)


def test_the_fock_sector_equals_its_loops():
    ops = (fock.INVERSION, fock.CHARGE, fock.CHARGE_FLIP)
    for subset in (ops, ops[:2], ops[1:], [fock.CHARGE_FLIP]):
        _same_report(fock.squares_report(subset), _squares_loop(subset))
    _assert_same_bits(fock.operator_state_consistency()["gaps"], _operator_state_loop())
    # the six blocks in one stacked call, each against its own loop
    blocks = [(ptag, branch) for ptag in (0, 1, -1) for branch in (+1, -1)]
    for block, got in zip(blocks, fock.parity_eigencombos(blocks), strict=True):
        _same_report(got, _parity_loop(*block))
    _same_report(fock.charge_eigencombos(), _charge_loop())
    _same_report(fock.both_branch_joint_eigenvector(), _both_branch_loop())
    cfg = checks.SuiteConfig()
    tables = checks._state_tables(cfg, None).residuals
    want = _state_tables_loop()
    assert list(tables) == list(want)
    for k in want:
        _assert_same_bits(tables[k], np.array(want[k]))
    _assert_same_bits(checks._squares_commutation(cfg, None).residuals["chains"], _chains_loop())
