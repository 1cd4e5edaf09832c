"""The SpinorGrid against its one-row case, and how often a run builds it.

A grid of N rows must equal N one-row grids: a row that read another row
(a wrong axis, a broadcast across rows) would show up as a mismatch.  And a
run must build each grid once, whatever the number of momenta, and build
each phase scan as one grid, so that per-momentum or per-phase
construction cannot come back unnoticed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from selfconj import checks, fieldops, halfspin, spin1
from selfconj.halfspin import PhaseConvention

finite = st.floats(allow_nan=False, allow_infinity=False)
# N**2 must be a finite normal float
norms = st.none() | st.floats(min_value=1.5e-154, max_value=1.3e154)


def _rows(g) -> dict:
    """Every per-row array the grid holds or an identity returns on it."""
    rep = halfspin.connection_check(g)
    dirac = fieldops.dirac_from_majorana(g)
    out = {
        "left": g.left,
        "right": g.right,
        "family": g.family,
        "six": g.six,
        "reflected": g.reflected.family,
        "connection": rep.phases,
        "aligned": rep.aligned_residual,
        "ziino": fieldops.ziino_split_residual(g),
        "singular_values": dirac["positive_singular_values"],
        "on_shell": spin1.on_shell_residual(g),
    }
    out.update(halfspin.dynamical_residuals(g))
    out.update(halfspin.xi_alias_residuals(g))
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

    def counted(cls, mass, pmag, theta, phi, energy, conv=PhaseConvention()):
        builds.append((np.array([mass, pmag, theta, phi, energy]), conv))
        return build(cls, mass, pmag, theta, phi, energy, conv)

    monkeypatch.setattr(halfspin.SpinorGrid, "build", classmethod(counted))
    totals = []
    for n_magnitudes, n_directions in ((3, 6), (4, 8)):
        cfg = checks.SuiteConfig(n_magnitudes=n_magnitudes, n_directions=n_directions)
        # (mass, |p|, theta, phi, E) of the run's grid rows
        want = np.array([(*p[:4], p.energy) for p in cfg.momenta()]).T
        builds.clear()
        checks.run_checks(cfg)
        full = [conv for rows, conv in builds if np.array_equal(rows, want)]
        # at most once per distinct convention
        assert full and len(full) == len(set(full))
        totals.append(len(builds))
    # no build per momentum: a larger grid costs no more builds
    assert totals[0] == totals[1]
    # the work guard: the run's grid and its reflection, one build per
    # phase scan (the two Gram scans and the massless scan), the generic
    # phases of the Dirac embedding and the two rows of the Ziino oracle;
    # one build per phase pair, mass or oracle row was 19
    assert totals[0] <= 8
