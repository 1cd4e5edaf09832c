"""Mode expansions, the even/odd split, the Dirac embedding, phase orbits.

An expansion is (N, 2, 2, 4): row, slot (annihilator at frequency +1,
creator at -1), helicity (up, dn), component.  Rest-frame split oracles at
m = 1 (phi_L up = (1, 0)):
even/up/ann = (0, i, 0, 0), even/up/cre = (0, 0, 1, 0),
odd/up/ann = (0, 0, 1, 0), odd/up/cre = (0, -i, 0, 0).
"""

import functools
import math

import numpy as np
import pytest

from selfconj import checks, fieldops, halfspin
from selfconj.halfspin import (
    FAMILY,
    LAM_A,
    LAM_S,
    FourMomentum,
    PhaseConvention,
    build_spinor_basis,
    build_spinor_grid,
)

GRID = [
    FourMomentum(1.0, 0.0),
    FourMomentum(1.0, 1.0),
    FourMomentum(0.5, 2.0, 1.1, 2.3),
    FourMomentum(2.0, 0.7, 2.8, 5.0),
]
ANN, CRE = 0, 1  # slots
HUP, HDN = 0, 1  # helicity positions


def member(b, name):
    return b.family[0, FAMILY.index(name)]


def test_mode_structure():
    p = FourMomentum(1.0, 1.0, 1.1, 0.4)
    b = build_spinor_basis(p)
    nu = fieldops.majorana_mode(b)
    assert nu.shape == (1, 2, 2, 4)
    assert np.allclose(nu[0, ANN, HUP], member(b, "lam_s_up"))
    assert np.allclose(nu[0, CRE, HDN], member(b, "lam_a_dn"))


def test_conjugation_is_an_involution():
    for p in GRID[1:]:
        nu = fieldops.majorana_mode(build_spinor_basis(p))
        cnu = fieldops.charge_conjugate_expansion(nu)
        twice = fieldops.residual(fieldops.charge_conjugate_expansion(cnu), nu)
        assert twice.shape == (1, 2, 2)  # row, slot, helicity
        assert np.all(twice < 1e-15)
        # annihilators and creators trade slots: C(lambda^A) = -lambda^A
        # lands on the annihilators, C(lambda^S) = +lambda^S on the creators
        layout = fieldops.residual(cnu, nu[:, ::-1] * np.array([-1, 1])[:, None, None])
        assert np.all(layout < 1e-15)


def test_ziino_rest_oracles():
    want = {
        ("even", "up", "ann"): [0, 1j, 0, 0],
        ("even", "up", "cre"): [0, 0, 1, 0],
        ("odd", "up", "ann"): [0, 0, 1, 0],
        ("odd", "up", "cre"): [0, -1j, 0, 0],
        ("even", "dn", "ann"): [-1j, 0, 0, 0],
        ("even", "dn", "cre"): [0, 0, 0, 1],
    }
    rest = fieldops.displayed_ziino_coefficients(FourMomentum(1.0, 0.0))
    disp = dict(zip(("even", "odd"), rest))
    for (half, tag, kind), vec in want.items():
        got = disp[half][("ann", "cre").index(kind), ("up", "dn").index(tag)]
        assert np.allclose(got, vec, atol=1e-14), (half, tag, kind)
    even, odd = fieldops.ziino_barut_split(build_spinor_basis(FourMomentum(1.0, 0.0)))
    assert np.allclose(even[0, ANN, HUP], [0, 1j, 0, 0])
    assert np.allclose(odd[0, CRE, HUP], [0, -1j, 0, 0])


def test_split_matches_displayed_everywhere():
    for p in GRID:
        b = build_spinor_basis(p)
        split = fieldops.ziino_split_residual(b)
        assert split.shape == (1, 2, 2, 2)  # row, half, slot, helicity
        assert np.all(split < 1e-14)
        even, odd = fieldops.ziino_barut_split(b)
        assert np.all(fieldops.residual(even + odd, fieldops.majorana_mode(b)) < 1e-15)


def test_split_halves_are_conjugation_eigenmodes():
    for p in GRID:
        r = fieldops.conjugation_parity_residuals(build_spinor_basis(p))
        assert r["even"].shape == r["odd"].shape == (1, 2, 2)
        assert np.all(r["even"] < 1e-14)
        assert np.all(r["odd"] < 1e-14)


def _with_nan_entry(g, row):
    family = g.family.copy()
    family[row, FAMILY.index("lam_s_up"), 1] = math.nan
    return g._replace(family=family)


def test_a_nan_family_entry_stays_in_its_row():
    g = _with_nan_entry(build_spinor_grid(GRID), 2)
    par = fieldops.conjugation_parity_residuals(g)
    even, odd = fieldops.ziino_barut_split(g)
    for r in (
        par["even"],
        par["odd"],
        fieldops.ziino_split_residual(g),
        fieldops.residual(even + odd, fieldops.majorana_mode(g)),
    ):
        # every NaN entry sits in row 2 and on the up helicity (last axis)
        assert {(i[0], i[-1]) for i in np.argwhere(np.isnan(r)).tolist()} == {(2, 0)}


def _registered(check_id, grid=None):
    """One registered check through the runner, on the run's grids or on
    `grid(conv)`."""
    cfg = checks.SuiteConfig()
    check = next(c for c in checks._REGISTRY if c.check_id == check_id)
    return checks._run(check, cfg, grid or functools.partial(build_spinor_grid, cfg.momenta()))


def test_a_nan_family_entry_fails_the_parity_check(monkeypatch):
    # every fieldops check reads the run's grid; with one NaN row each one
    # fails with a NaN maximum, and none raises
    build = halfspin.SpinorGrid.build.__func__
    patched = []

    def with_nan(cls, *rows):
        g = build(cls, *rows)
        if len(g.mass) < 3:  # the one-row oracles keep their rows
            return g
        patched.append(len(g.mass))
        return _with_nan_entry(g, 2)

    monkeypatch.setattr(halfspin.SpinorGrid, "build", classmethod(with_nan))
    results = checks.run_checks(checks.SuiteConfig(suites=("fieldops",)))
    assert 18 in patched  # the run's own grid had the NaN row
    assert len(results) == 5
    for r in results:
        assert r.status == "fail", r.check_id
        assert math.isnan(r.max_residual), r.check_id


def test_phase_sum_is_one_number_per_row_of_a_phase_scan():
    p = GRID[2]
    scan = ((0.3, 0.4), (math.pi, 2.0), (-1.0, 6.0))
    conv = PhaseConvention(*zip(*scan))
    rep = fieldops.dirac_from_majorana(build_spinor_grid([p] * 3, conv))
    for i, (t1, t2) in enumerate(scan):
        one = fieldops.dirac_from_majorana(build_spinor_basis(p, PhaseConvention(t1, t2)))
        assert rep["phase_sum"][i] == one["phase_sum"] == (t1 + t2) % (2 * math.pi)
        values = one["positive_singular_values"][0]
        assert np.array_equal(rep["positive_singular_values"][i], values)


def test_dirac_singular_values_are_nan_on_a_nan_row():
    g = build_spinor_grid(GRID, PhaseConvention(0.3, 0.4))
    values = fieldops.dirac_from_majorana(_with_nan_entry(g, 2))["positive_singular_values"]
    want = fieldops.dirac_from_majorana(g)["positive_singular_values"]
    assert np.all(np.isnan(values[2]))
    # the finite rows keep their values bit for bit
    assert np.array_equal(np.delete(values, 2, axis=0), np.delete(want, 2, axis=0))


def test_mode_structure_check_fails_on_a_swapped_layout(monkeypatch):
    assert _registered("fieldops/mode-structure").status == "pass"

    def swapped(g):
        return np.stack([g.family[:, LAM_A], g.family[:, LAM_S]], axis=1)

    monkeypatch.setattr(fieldops, "majorana_mode", swapped)
    assert _registered("fieldops/mode-structure").status == "fail"


def test_dirac_embedding_partner_identities():
    for p in GRID[1:]:
        rep = fieldops.dirac_from_majorana(build_spinor_basis(p))
        for k in ("partner_residual", "eigenspace_residual"):
            assert rep[k].shape == (1, 2, 2)  # row, frequency sign, helicity
            assert np.all(rep[k] < 1e-12)


def test_dirac_embedding_rank_depends_on_phases():
    p = FourMomentum(1.0, 1.0, 1.1, 0.4)
    b = build_spinor_basis(p)
    rep = fieldops.dirac_from_majorana(b)
    # default phases: the two positive-frequency images are collinear
    assert rep["positive_singular_values"][0, 1] < 1e-12
    assert rep["phase_sum"] == 0.0
    from selfconj.halfspin import ID4, slash

    plus = ID4 + slash(p) / p.mass
    lam_up, lam_dn = member(b, "lam_s_up"), member(b, "lam_s_dn")
    assert np.allclose(plus @ lam_dn, -1j * (plus @ lam_up), atol=1e-12)
    generic = fieldops.dirac_from_majorana(build_spinor_basis(p, PhaseConvention(0.3, 0.4)))
    assert generic["positive_singular_values"][0, 1] > 0.5
    assert generic["phase_sum"] == pytest.approx(0.7)


def test_quaternion_phase_algebra():
    with pytest.raises(ValueError):
        fieldops.unit_quaternions([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        fieldops.unit_quaternions([1.0, 0.0, 0.0])
    for q in ([np.nan, 0, 0, 0], [1.0, np.nan, 0, 0], [[1, 0, 0, 0], [np.inf, 0, 0, 0]]):
        with pytest.raises(ValueError):
            fieldops.unit_quaternions(q)
    one, qi, qj, qk = fieldops.unit_quaternions(np.eye(4))
    assert np.array_equal(fieldops.quaternion_product(qi, qj), qk)
    assert np.array_equal(fieldops.quaternion_product(qi, qi), -one)
    # a product that leaves the unit sphere is refused like an input
    with pytest.raises(ValueError):
        fieldops.quaternion_product(qi, 2 * qj)


def test_matrix_units_realize_the_algebra():
    qi, qj, qk = fieldops.QUATERNION_UNITS
    for q in (qi, qj, qk):
        assert np.allclose(q @ q, -np.eye(4))
    assert np.allclose(qi @ qj, qk)
    assert np.allclose(qi @ qj + qj @ qi, np.zeros((4, 4)))
    assert np.allclose(qj @ qk + qk @ qj, np.zeros((4, 4)))
    assert np.array_equal(fieldops.orbit_matrix(np.array([1.0, 0, 0, 0])), np.eye(4))


def test_orbit_preserves_conjugation_status():
    rng = np.random.default_rng(7)
    v = rng.normal(size=(4, 4))
    v = v / np.linalg.norm(v, axis=1)[:, None]
    qs = fieldops.unit_quaternions(np.concatenate([np.eye(4), v]))
    for p in (GRID[1], GRID[2]):
        status = fieldops.orbit_preserves_conjugation(qs, build_spinor_basis(p))
        assert status.shape == (8, 1, 8)  # quaternion, row, family member
        assert np.all(status < 1e-12)


def test_orbit_group_law():
    rng = np.random.default_rng(11)
    # five (a, b) pairs in the order of drawing them one at a time
    ab = rng.normal(size=(5, 2, 4))
    a, b = ab[:, 0], ab[:, 1]
    q1 = fieldops.unit_quaternions(a / np.linalg.norm(a, axis=1)[:, None])
    q2 = fieldops.unit_quaternions(b / np.linalg.norm(b, axis=1)[:, None])
    assert np.all(fieldops.orbit_group_law(q1, q2) < 1e-14)
