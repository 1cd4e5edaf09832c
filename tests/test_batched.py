"""Batched fixed-size evaluations against the loops they replace.

Each oracle below is the per-item loop that the batched code replaced,
kept here as the reference: the group table, the quaternion orbit and its
group law, the massless scan, the rest-phase scan of the Gram matrix, the
field-tensor sum of the second-order residuals, the direction residuals
and the seeded samples.  A batched row must equal its
loop result bit for bit (np.array_equal), so batching cannot move a
printed number.  The same holds for the forms that replaced containers:
the grid of a run's kinematic arrays and its reflection against the grid
of FourMomentum records, and the spin-1 (mu, nu) arrays against the dicts
they replaced.
"""

import functools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfconj import checks, fieldops, halfspin, linalg, spin1
from selfconj.halfspin import LAM_S, FourMomentum, PhaseConvention, build_spinor_basis
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


@SETTINGS
@given(
    st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6),
    st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
    st.floats(-3.0, 3.0),
)
def test_second_order_residuals_equal_the_loop(upper, x, coupling):
    f = np.zeros((4, 4))
    f[np.triu_indices(4, 1)] = upper
    f = f - f.T
    g = halfspin.build_spinor_grid([FourMomentum(1.0, 1.0, 1.1, 0.4), FourMomentum(0.5, 2.0)])
    got = halfspin.fgm_residuals(g, coupling, f, x)
    sig, til = halfspin.FGM_SIGMA, halfspin.FGM_TILDE
    fsig = sum(sig[(mu, nu)] * f[mu, nu] for mu in range(4) for nu in range(4))
    ftil = sum(til[(mu, nu)] * f[mu, nu] for mu in range(4) for nu in range(4))
    p4 = np.concatenate([g.energy[:, None], g.pvec], axis=-1)
    a = -0.5 * f @ np.asarray(x)
    pip, pim = p4 + coupling * a, p4 - coupling * a
    scal = linalg.rowscale(pip[:, 0] * pim[:, 0] - np.vecdot(pip[:, 1:], pim[:, 1:]))
    m2 = linalg.rowscale(g.mass**2)
    for fs, side, key in ((fsig, g.right, "right"), (ftil, g.left, "left")):
        op = scal * halfspin.ID2 - m2 * halfspin.ID2 - 0.5 * coupling * fs
        assert np.array_equal(got[key], norm(linalg.apply(op, side[:, :1]))[:, 0])


# ---------------------------------------------------------------------------
# directions and seeded samples


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
        for h in (+1, -1):
            chi = halfspin.helicity_eigenspinor(th, ph, h)
            eigen.append(float(np.linalg.norm(sn @ chi - h * chi)))
            unit.append(abs(float(np.linalg.norm(chi)) - 1.0))
        jn = n[0] * spin1.J1 + n[1] * spin1.J2 + n[2] * spin1.J3
        for h in spin1.HELICITIES:
            xi = spin1.helicity_eigenvector(th, ph, h)
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
    draw = _stream(11)
    kron = []
    for _ in range(8):
        a = draw(2, 2) + 1j * draw(2, 2)
        b = draw(3, 3) + 1j * draw(3, 3)
        v = draw(2) + 1j * draw(2)
        w = draw(3) + 1j * draw(3)
        kron.append(max_abs(np.kron(a, b) @ np.kron(v, w) - np.kron(a @ v, b @ w)))
    assert np.array_equal(checks._kron(cfg, None).residuals["mixed_product"], kron)


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
    phases = np.stack([conv.rest_phase(+1), conv.rest_phase(-1)], axis=-1)
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


GRID_FIELDS = ("mass", "pmag", "theta", "phi", "energy", "nhat", "left", "right", "family", "six")


def _assert_same_grid(got, want):
    for name in GRID_FIELDS:
        _assert_same_bits(getattr(got, name), getattr(want, name))


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
