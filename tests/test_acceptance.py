"""The thirteen acceptance criteria, one test each, reported one line each.

Criterion 5 appears twice: the realized Gram structure (magnitudes, the
quarter-turn zero, vanishing diagonals) passes, while the displayed sign of
the (up, dn) entry is the opposite of what this construction realizes and
is mutually exclusive with criterion 4's exact phase alignment.  That
literal form is kept as a strict expected failure so the report stays
honest and any silent sign change would surface as an unexpected pass.
"""

import json
import math

import numpy as np
import pytest

from acceptance_log import note, record
from selfconj import checks, cli, fieldops, fock, halfspin, linalg, spin1
from selfconj.halfspin import FAMILY_SIGNS, LAMBDAS, RHO_S, FourMomentum, PhaseConvention

CFG = checks.SuiteConfig()
GRID = CFG.momenta()
TOL = 1e-12


@pytest.fixture(scope="module")
def default_run():
    return checks.run_checks(CFG)


def test_criterion_01_conjugation_eigenstructure():
    c = halfspin.charge_conjugation_op()
    worst = 0.0
    for p in GRID:
        for psi, sign in zip(halfspin.build_spinor_basis(p).family[0], FAMILY_SIGNS):
            worst = max(worst, float(np.linalg.norm(c(psi) - sign * psi)))
    record(
        1,
        worst <= TOL,
        f"8 spinors x {len(GRID)} momenta, worst residual {worst:.2e} <= 1e-12",
    )


def test_criterion_02_non_eigenspinor_claims():
    worst_uv = 0.0
    margin = math.inf
    for p in GRID:
        ops = halfspin.discrete_ops(p.nhat)
        b = halfspin.build_spinor_basis(p)
        for psi in b.uv_stack()[0]:
            _, r = linalg.eigen_residual(ops.helicity, psi)
            worst_uv = max(worst_uv, r)
        for lam in b.family[0, LAMBDAS]:
            n = float(np.linalg.norm(lam))
            for op in (ops.helicity, ops.parity):
                _, r = linalg.eigen_residual(op, lam)
                margin = min(margin, r / n)
    record(
        2,
        worst_uv <= TOL and margin > 0.1,
        f"u/v helicity residual {worst_uv:.2e} <= 1e-12; "
        f"lambda helicity/parity margin {margin:.3f} > 0.1",
    )


def test_criterion_03_dynamical_equations():
    grid = halfspin.build_spinor_grid(GRID)
    worst = max(float(np.max(r)) for r in halfspin.dynamical_residuals(grid).values())
    # self-test: a deliberately flipped sign must miss at the 2m scale
    p = GRID[4]
    b = halfspin.build_spinor_basis(p)
    miss = float(halfspin.dynamical_residuals(b, flip_third_sign=True)["r3"][0].max())
    assert miss > p.mass
    assert miss == pytest.approx(
        2 * p.mass * max(np.linalg.norm(rho) for rho in b.family[0, RHO_S]), rel=1e-12
    )
    record(3, worst <= TOL, f"four relations x {len(GRID)} momenta, worst {worst:.2e}")


def test_criterion_04_connection_matrix(default_run):
    rep = halfspin.connection_check(halfspin.build_spinor_grid(GRID))
    worst = float(np.max(rep.aligned_residual))
    assert np.allclose(rep.phases, np.ones((len(GRID), 4)), atol=TOL)
    by_id = {r.check_id: r for r in default_run}
    emitted = by_id["halfspin/dirac-connection"].values.get("phase_diagonal")
    record(
        4,
        worst <= TOL and emitted is not None,
        f"aligned residual {worst:.2e}; frozen phase diagonal (1,1,1,1) emitted",
    )


_PHASE_PAIRS = (
    (0.0, 0.0),
    (math.pi / 4, math.pi / 4),  # theta1+theta2 = pi/2: the zero
    (math.pi / 2, 0.0),
    (0.0, math.pi / 2),
    (0.3, 0.4),
    (1.0, 0.57),
    (2.2, 0.2),
    (0.7, 2.44),
)


def test_criterion_05_gram_structure():
    p = FourMomentum(1.0, 1.0, 1.1, 0.0)
    worst = 0.0
    for t1, t2 in _PHASE_PAIRS:
        (g,) = halfspin.biorthonormality_gram(
            halfspin.build_spinor_basis(p, PhaseConvention(t1, t2))
        )
        want_mag = 2.0 * abs(math.cos(t1 + t2))  # N^2 = m = 1
        worst = max(worst, abs(abs(g[0, 1]) - want_mag))
        worst = max(worst, abs(g[1, 0] + g[0, 1]))
        worst = max(worst, abs(g[2, 3] + g[0, 1]))
        worst = max(worst, linalg.max_abs(np.diag(g)))
    record(
        5,
        worst <= TOL,
        "support: |up.dn| = 2 N^2 |cos(theta1+theta2)| with the pi/2 zero, "
        f"antisymmetric pairs, vanishing diagonal; worst {worst:.2e}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the construction that satisfies criterion 4 realizes the opposite "
    "sign on the (up, dn) Gram entry; both signs cannot hold at once",
)
def test_criterion_05_gram_displayed_sign():
    worst = 0.0
    for t1, t2 in _PHASE_PAIRS:
        (g,) = halfspin.biorthonormality_gram(
            halfspin.build_spinor_basis(FourMomentum(1.0, 1.0, 1.1, 0.0), PhaseConvention(t1, t2))
        )
        worst = max(worst, abs(g[0, 1] - 2j * math.cos(t1 + t2)))
    note(
        5,
        worst <= TOL,
        "as stated, (up, dn) entry = +2i N^2 cos(theta1+theta2): realized "
        f"entry has the opposite sign (off by {worst:.2f}); magnitude, zero "
        "and diagonals pass (see the support line); exact alignment in "
        "criterion 4 pins this sign",
    )
    assert worst <= TOL


def test_criterion_06_massless_limit():
    rows = halfspin.massless_scan([10.0 ** (-k) for k in range(2, 9)])
    ratios = [r["ratio"] for r in rows]
    monotone = all(a > b for a, b in zip(ratios, ratios[1:]))
    record(
        6,
        monotone and ratios[-1] <= 1e-4,
        f"ratio {ratios[-1]:.3e} <= 1e-4 at m/|p| = 1e-8, monotone over the scan",
    )


def test_criterion_07_gauge_xi_group():
    c = halfspin.charge_conjugation_op()
    worst = 0.0
    for p in GRID:
        b = halfspin.build_spinor_basis(p)
        maps = [halfspin.gauge_lambda(a) for a in (0.3, 1.7, 2.9)]
        maps += [halfspin.gauge_rho(a) for a in (0.3, 1.7, 2.9)]
        maps += list(halfspin.xi_quadruple(p.phi))  # the maps on axis 0
        for psi in b.family[0]:
            for m in maps:
                img = m @ psi
                r = min(float(np.linalg.norm(c(img) - s * img)) for s in (+1, -1))
                worst = max(worst, r)
    table = halfspin.w_group_table()  # raises if a product escapes the set
    squares = [table[(k, k)] for k in range(4)]
    ok_squares = squares == [(1, 0), (-1, 0), (-1, 0), (-1, 0)]
    ok_anti = all(
        table[(j, k)] == (-table[(k, j)][0], table[(k, j)][1])
        for j in range(1, 4)
        for k in range(1, 4)
        if j != k
    )
    record(
        7,
        worst <= TOL and ok_squares and ok_anti,
        f"status preserved to {worst:.2e} under gauge and all four maps; "
        "closure table is the order-8 group with central -1",
    )


def test_criterion_08_majorana_representation():
    rep = spin1.majorana_family_report()
    g00 = spin1.to_majorana_rep(spin1.CHIRAL_GAMMAS[(0, 0)])
    t = spin1.THETA3
    g00_res = linalg.max_abs(g00 - np.block([[spin1.Z3, t], [t, spin1.Z3]]))
    ok = (
        rep["unitarity"] <= 1e-15
        and rep["family_imag_part"] <= TOL
        and rep["family_residual"] <= TOL
        and rep["five_residual"] <= 1e-15
        and g00_res <= 1e-15
    )
    record(
        8,
        ok,
        f"U unitary to {rep['unitarity']:.1e}; family real to "
        f"{rep['family_imag_part']:.1e}; five and time-time images exact",
    )


def test_criterion_09_real_frame_spinor_identities():
    g5 = spin1.MR_FIVE
    worst20 = 0.0
    worst_id = 0.0
    min_vlng = math.inf
    up, lg, dn = 0, 1, 2  # helicity axis order +1, 0, -1
    for p in GRID:
        s = spin1.mr_spinor(p)
        for k in (up, lg, dn):
            worst20 = max(worst20, float(np.linalg.norm(s.v[k] - g5 @ s.u[k])))
        worst_id = max(worst_id, float(np.linalg.norm(s.u_re[up] - s.u_re[dn])))
        worst_id = max(worst_id, float(np.linalg.norm(s.v_re[up] + s.v_re[dn])))
        worst_id = max(worst_id, float(np.linalg.norm(s.u_re[lg])))
        min_vlng = min(min_vlng, float(np.linalg.norm(s.v_re[lg])))
    record(
        9,
        worst20 <= 1e-15 and worst_id <= TOL and min_vlng > 0.1,
        f"v = five u to {worst20:.1e}; real-part identities to {worst_id:.1e}; "
        f"longitudinal v real part stays >= {min_vlng:.3f}",
    )


def test_criterion_10_antilinear_dichotomy():
    half = halfspin.charge_conjugation_op().square_sign()
    rep = spin1.selfconjugacy_analysis()
    ok = (
        half == +1
        and rep["square_sign_plain"] == -1
        and rep["square_sign_twisted"] == +1
        and abs(rep["nonexistence_margin"] - math.sqrt(2.0)) <= 1e-9
        and rep["plus_dim"] == 6
        and rep["minus_dim"] == 6
        and rep["eigenvector_residual"] <= TOL
    )
    record(
        10,
        ok,
        "squares +1 (spin-1/2), -1 (spin-1, no eigenvectors, margin sqrt(2)), "
        f"+1 (twisted, 6+6 split verified to {rep['eigenvector_residual']:.1e})",
    )


def test_criterion_11_fock_algebra():
    inv = fock.INVERSION
    comm = fock.commutator_report(inv, fock.CHARGE)
    anti = fock.commutator_report(inv, fock.CHARGE_FLIP)
    combos = fock.charge_eigencombos()
    eig_ok = all(
        combos[f"{h}_{tag}"]["eigenvalue"] == (-1j if tag == "plus" else 1j)
        and combos[f"{h}_{tag}"]["residual"] == 0.0
        for h in ("up", "dn")
        for tag in ("plus", "minus")
    )
    cert = fock.simultaneous_eigen_certificate()
    ops = fock.operator_state_consistency()
    ok = (
        comm["commutator"] == 0.0
        and anti["anticommutator"] == 0.0
        and eig_ok
        and cert["min_singular_value"] > 1.0
        and abs(cert["min_singular_value"] - math.sqrt(2.0)) <= 1e-9
        and ops["max_residual"] == 0.0
    )
    record(
        11,
        ok,
        "commutator and anticommutator exactly zero; charge eigenvalues -+i; "
        f"joint-eigenvector margin {cert['min_singular_value']:.6f}; "
        "operator and state routes agree",
    )


def test_criterion_12_field_operator_relations():
    grid = halfspin.build_spinor_grid(GRID)
    # each grid row against the displayed coefficients rebuilt from its momentum
    halves = np.stack(fieldops.ziino_barut_split(grid), axis=1)
    worst_split = 0.0
    for i, p in enumerate(GRID):
        want = np.stack(fieldops.displayed_ziino_coefficients(p))
        worst_split = max(worst_split, linalg.max_abs(halves[i] - want))
    rep = fieldops.dirac_from_majorana(grid)
    worst_dirac = float(max(np.max(rep["partner_residual"]), np.max(rep["eigenspace_residual"])))
    par = fieldops.conjugation_parity_residuals(grid)
    worst_parity = float(max(np.max(par["even"]), np.max(par["odd"])))
    ok = worst_split <= TOL and worst_dirac <= TOL and worst_parity <= TOL
    record(
        12,
        ok,
        f"split matches displayed coefficients to {worst_split:.1e}; Dirac "
        f"eigenspaces to {worst_dirac:.1e}; halves are conjugation "
        f"eigen-expansions to {worst_parity:.1e}",
    )


def test_criterion_13_byte_identical_reports(tmp_path):
    lib1 = checks.render_json(CFG, checks.run_checks(CFG))
    lib2 = checks.render_json(CFG, checks.run_checks(CFG))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["run", "--format", "json", "--out"]
    assert cli.main(argv + [str(a)]) == 0
    assert cli.main(argv + [str(b)]) == 0
    same = lib1 == lib2 and a.read_bytes() == b.read_bytes()
    json.loads(lib1)  # structured, not accidentally empty
    record(13, same, "library and CLI reports byte-identical across runs")
