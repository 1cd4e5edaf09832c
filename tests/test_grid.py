"""The SpinorGrid against its one-row case, and how often a run builds it.

A grid of N rows must equal N one-row grids: a row that read another row
(a wrong axis, a broadcast across rows) would show up as a mismatch.  And a
run must build each grid once, whatever the number of momenta, and build
each phase scan as one grid, so that per-momentum or per-phase
construction cannot come back unnoticed.  No grid of a run carries thetac,
the phase of S^c: a run keys its grids by their rest phases alone.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from selfconj import checks, fieldops, halfspin, spin1

finite = st.floats(allow_nan=False, allow_infinity=False)
# N**2 must be a finite normal float
norms = st.none() | st.floats(min_value=1.5e-154, max_value=1.3e154)


# 1, i, (1 + i + j + k) / 2 and a seeded unit quaternion
_QUATERNIONS = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0.5] * 4, [0.1, -0.7, 0.1, 0.7]])


def _rows(g) -> dict:
    """Every per-row array the grid holds or an identity returns on it."""
    rep = halfspin.connection_check(g)
    dirac = fieldops.dirac_from_majorana(g)
    s = spin1.mr_spinor(g)
    out = {
        "left": g.left,
        "right": g.right,
        "family": g.family,
        "six": spin1.weinberg_u(g),
        "reflected": g.reflected.family,
        "exchange": halfspin.xi_quadruple(g.phi).swapaxes(0, 1),
        "connection": rep.phases,
        "aligned": rep.aligned_residual,
        "slash": halfspin.slash(g),
        "ziino": fieldops.ziino_split_residual(g),
        "gram": dirac["gram_residual"],
        "partner": dirac["partner_residual"],
        "eigenspace": dirac["eigenspace_residual"],
        "on_shell": spin1.on_shell_residual(g),
        "mr_u": s.u,
        "mr_v": s.v,
        "orbit": fieldops.orbit_preserves_conjugation(_QUATERNIONS, g).swapaxes(0, 1),
    }
    out.update(halfspin.dynamical_residuals(g))
    out.update(halfspin.xi_alias_residuals(g))
    out.update({f"parity_{k}": v for k, v in fieldops.conjugation_parity_residuals(g).items()})
    out.update(spin1.transverse_reality_report(g))
    return out


@settings(database=None, deadline=None, max_examples=30)
@given(
    masses=st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=2),
    n_magnitudes=st.integers(1, 4),
    n_directions=st.integers(1, 8),
    theta1=finite,
    theta2=finite,
    thetac=finite,
    norm=norms,
)
def test_grid_rows_equal_one_row_grids(
    masses, n_magnitudes, n_directions, theta1, theta2, thetac, norm
):
    cfg = checks.SuiteConfig(
        tuple(masses), n_magnitudes, n_directions, 1e-12, theta1, theta2, thetac, norm
    )
    momenta = cfg.momenta()
    # residuals of norms near the edge overflow alike in both; that is not
    # what this compares
    with np.errstate(all="ignore"):
        grid = _rows(halfspin.build_spinor_grid(momenta, cfg.convention))
        for i, p in enumerate(momenta):
            for name, one in _rows(halfspin.build_spinor_basis(p, cfg.convention)).items():
                got, want = grid[name][i], one[0]
                # equal, both NaN, or within 4 ulp of the entry's scale
                scale = np.maximum(np.abs(got), np.abs(want))
                near = np.abs(got - want) <= 4 * np.spacing(scale)
                assert np.all(near | (got == want) | (np.isnan(got) & np.isnan(want))), (name, i)


def test_a_run_builds_each_grid_once(monkeypatch):
    builds = []
    build = halfspin.SpinorGrid.build.__func__

    def counted(cls, mass, pmag, theta, phi, energy, conv):
        builds.append((np.array([mass, pmag, theta, phi, energy]), conv))
        return build(cls, mass, pmag, theta, phi, energy, conv)

    monkeypatch.setattr(halfspin.SpinorGrid, "build", classmethod(counted))
    # (theta1, theta2, thetac) and the builds a run makes: the work guard is
    # the run's grid(s) and one reflection, one build per phase scan (the two
    # Gram scans and the massless scan), the generic phases of the Dirac
    # embedding and the two rows of the Ziino oracle; one build per phase
    # pair, mass or oracle row was 19
    cases = {(0.0, 0.0, 0.0): 8, (0.0, 0.0, 0.7): 8, (0.3, 0.4, 0.0): 9, (0.3, 0.4, 0.7): 9}
    for (theta1, theta2, thetac), total in cases.items():
        for n_magnitudes, n_directions in ((3, 6), (4, 8)):
            cfg = checks.SuiteConfig(
                n_magnitudes=n_magnitudes,
                n_directions=n_directions,
                theta1=theta1,
                theta2=theta2,
                thetac=thetac,
            )
            # (mass, |p|, theta, phi, E) of the run's grid rows
            want = np.array([(*p[:4], p.energy) for p in cfg.momenta()]).T
            builds.clear()
            checks.run_checks(cfg)
            # thetac is the phase of S^c: no grid a run builds carries it
            assert all(conv.thetac == 0.0 for _, conv in builds), thetac
            # the run's rows once per distinct pair of rest phases: the
            # configured pair, and (0, 0) for the unit-phase statements
            full = [(c.theta1, c.theta2) for rows, c in builds if np.array_equal(rows, want)]
            assert sorted(full) == sorted({(theta1, theta2), (0.0, 0.0)})
            # no build per momentum: a larger grid costs no more builds
            assert len(builds) == total, (theta1, theta2, thetac)


# The run's working set over its grid's family, at 32x32.  The grid keeps
# only the arrays it was built from, so the peak is the family and its
# temporaries (7.18 with numpy 2.4, in spin1/transverse-reality); a grid
# that kept its six-spinors, exchange maps and reflection for the run
# peaked at 10.5.  Caching the exchange maps alone adds 2.0, and a
# reflected parity fit that stacked its two spinor sets into one copy
# raised the peak to 8.82.
_PEAK_OVER_FAMILY = 8


def test_a_run_keeps_no_derived_grid_parts():
    checks.run_checks(checks.SuiteConfig())  # warm: imports, constants, samples
    cfg = checks.SuiteConfig(n_magnitudes=32, n_directions=32)
    family = halfspin.build_spinor_grid(cfg.momenta(), cfg.convention).family
    assert family.nbytes == 524288
    tracemalloc.start()
    try:
        checks.run_checks(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _PEAK_OVER_FAMILY * family.nbytes, peak / family.nbytes
