"""Fock-sector symmetry actions against hand-derived tables.

Every expected phase below was recomputed by hand from the three label
rules before being frozen here, so the module tables and these tables are
independent transcriptions.
"""

import math

import numpy as np
import pytest
import sympy as sp

from selfconj import checks, fock, linalg
from selfconj.fock import FockVector


def ket(p, h, b):
    return FockVector.basis(p, h, b).amps


def test_mode_label_validation_and_order():
    with pytest.raises(ValueError):
        FockVector.basis(1, "left", +1)
    with pytest.raises(ValueError):
        FockVector.basis(1, "up", 0)
    with pytest.raises(ValueError):
        FockVector.basis(2, "up", +1)  # the sector holds one momentum pair
    # branch, then tag (+p, -p, rest), then helicity
    assert fock.MODES[:3] == ((1, "up", +1), (1, "dn", +1), (-1, "up", +1))
    assert fock.MODES[6] == (1, "up", -1)
    rest = [mode for mode in fock.MODES if mode[0] == 0]
    assert rest == [(0, "up", +1), (0, "dn", +1), (0, "up", -1), (0, "dn", -1)]


def test_fock_vector_algebra():
    v = FockVector.basis(-1, "dn", -1)
    assert v.amps.tolist() == [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0]
    assert FockVector.basis(0, "up", -1).amps.tolist() == [0] * 10 + [1, 0]
    with pytest.raises(ValueError):
        v.amps[0] = 1.0  # read-only
    for wrong in (4, 5, 8):  # a state has one amplitude per mode, rest or moving
        with pytest.raises(ValueError):
            FockVector(np.zeros(wrong))
    # a symmetry acts linearly on the amplitudes
    w = FockVector(2.0 * ket(1, "up", +1) + 3j * v.amps)
    got = fock.CHARGE.apply(w).amps
    want = 2.0 * fock.CHARGE.apply(FockVector.basis(1, "up", +1)).amps
    want += 3j * fock.CHARGE.apply(v).amps
    assert np.array_equal(got, want)


def test_label_sets():
    assert len(fock.MODES) == len(set(fock.MODES)) == 12
    assert {t for t, _, _ in fock.MODES} == {1, -1, 0}


def test_inversion_action_by_hand():
    inv = fock.INVERSION
    # independently derived: p flips, helicity flips, +i on up and -i on dn
    table = {
        (1, "up", +1): ((-1, "dn", +1), +1j),
        (1, "dn", +1): ((-1, "up", +1), -1j),
        (-1, "up", -1): ((1, "dn", -1), +1j),
        (0, "dn", -1): ((0, "up", -1), -1j),
    }
    for src, (tgt, phase) in table.items():
        got = inv.apply(FockVector.basis(*src))
        assert np.array_equal(got.amps, phase * ket(*tgt)), src


def test_charge_actions_by_hand():
    ch = fock.CHARGE
    table = {
        (1, "up", +1): ((1, "up", -1), +1.0),
        (1, "dn", -1): ((1, "dn", +1), -1.0),
    }
    for src, (tgt, phase) in table.items():
        assert np.array_equal(ch.apply(FockVector.basis(*src)).amps, phase * ket(*tgt)), src
    chf = fock.CHARGE_FLIP
    table = {
        (1, "up", +1): ((1, "dn", -1), -1.0),
        (1, "dn", -1): ((1, "up", +1), +1.0),
    }
    for src, (tgt, phase) in table.items():
        assert np.array_equal(chf.apply(FockVector.basis(*src)).amps, phase * ket(*tgt)), src


def test_squares_and_unitarity():
    ops = [fock.INVERSION, fock.CHARGE, fock.CHARGE_FLIP]
    sq = fock.squares_report(ops)
    assert sq["inversion"] == pytest.approx(+1)
    assert sq["charge"] == pytest.approx(-1)
    assert sq["charge_flip"] == pytest.approx(-1)
    for op in ops:
        m = op.matrix
        assert np.allclose(m @ np.conjugate(m.T), np.eye(12), atol=1e-14)
        assert not m.flags.writeable


def test_commutation_structure():
    inv = fock.INVERSION
    rep = fock.commutator_report(inv, fock.CHARGE)
    assert rep["commutator"] < 1e-14
    rep = fock.commutator_report(inv, fock.CHARGE_FLIP)
    assert rep["anticommutator"] < 1e-14


def test_composition_chains():
    start = FockVector.basis(1, "up", +1)
    inv = fock.INVERSION
    ch = fock.CHARGE
    chf = fock.CHARGE_FLIP
    want_commuting = +1j * ket(-1, "dn", -1)
    assert np.array_equal(ch.apply(inv.apply(start)).amps, want_commuting)
    assert np.array_equal(inv.apply(ch.apply(start)).amps, want_commuting)
    assert np.array_equal(chf.apply(inv.apply(start)).amps, -1j * ket(-1, "up", -1))
    assert np.array_equal(inv.apply(chf.apply(start)).amps, +1j * ket(-1, "up", -1))


# the moving sector span{|+-p, h>^+-} and its single-branch parts
# span{|+-p, h>^+} and span{|+-p, h>^-}: columns of MODES
MOVING = [i for i, (t, _, _) in enumerate(fock.MODES) if t]
PARTICLES = [i for i in MOVING if fock.MODES[i][2] == +1]
ANTIPARTICLES = [i for i in MOVING if fock.MODES[i][2] == -1]


def test_matrix_leak_detection():
    # the branch swap sends every particle column into the antiparticle rows
    m = fock.CHARGE.matrix
    assert np.count_nonzero(m[np.ix_(PARTICLES, PARTICLES)]) == 0
    assert np.count_nonzero(m[np.ix_(ANTIPARTICLES, PARTICLES)]) == 4


def test_parity_eigencombos():
    rest, moving = fock.parity_eigencombos([(0, +1), (-1, +1)])
    assert rest["plus"]["eigenvalue"] == +1
    assert rest["minus"]["eigenvalue"] == -1
    assert rest["plus"]["residual"] < 1e-14
    assert rest["minus"]["residual"] < 1e-14
    assert moving["plus"]["residual"] < 1e-14
    assert moving["minus"]["residual"] < 1e-14


def test_charge_eigencombos():
    out = fock.charge_eigencombos()
    for h in ("up", "dn"):
        assert out[f"{h}_plus"]["eigenvalue"] == -1j
        assert out[f"{h}_minus"]["eigenvalue"] == +1j
        assert out[f"{h}_plus"]["residual"] < 1e-14
        assert out[f"{h}_minus"]["residual"] < 1e-14


def within_4_ulp(value, want):
    return abs(value - want) <= 4 * math.ulp(want)


def test_single_branch_nonexistence_certificate():
    cert = fock.simultaneous_eigen_certificate()
    assert within_4_ulp(cert["min_singular_value"], math.sqrt(2.0))
    # inversion squares to +1, the branch swap to -1
    la, lb = cert["at"]
    assert la in (1, -1) and lb in (1j, -1j)


def test_anticommuting_pair_margin():
    # on the 8 moving columns and on all 12
    every_mode = fock._joint_margin(fock.CHARGE_FLIP, fock.INVERSION, range(12))
    for out in (fock.anticommuting_pair_margin(), every_mode):
        assert within_4_ulp(out["min_singular_value"], math.sqrt(4 - 2 * math.sqrt(2.0)))
        # the flipping swap squares to -1, inversion to +1; the four
        # eigenvalue pairs tie exactly, and roundoff must not pick among them
        assert out["at"] == (1j, 1)


# ---------------------------------------------------------------------------
# proof that the certificates' minimum over all unit phases lies at the
# eigenvalue pairs, where _joint_margin evaluates it
#
# M(x, y) = S^H [(A - e^{ix})^H (A - e^{ix}) + (B - e^{iy})^H (B - e^{iy})] S
# is Hermitian; the smallest singular value of the stacked certificate
# matrix at (e^{ix}, e^{iy}) is the square root of its smallest eigenvalue.
# If N = M - 4 has trace 0 and N^2 = f(x, y), the eigenvalues of N are
# +-sqrt(f) in equal numbers, so lambda_min(M) = 4 - sqrt(f).  Writing
# f_max - f as 4 * (sum of squares) shows f <= f_max, with equality exactly
# where every square vanishes.

X, Y = sp.symbols("x y", real=True)
TORUS = sp.Interval.Ropen(0, 2 * sp.pi)

# name: (certificate, its operands, f, f_max, the square roots of
# (f_max - f) / 4 per phase, None for a phase that drops out of M)
PROOFS = {
    # the branch swap leaves the sector: lambda_min = 4 - 2|cos x|
    "single-branch": (
        fock.simultaneous_eigen_certificate,
        (fock.INVERSION, fock.CHARGE, PARTICLES),
        4 * sp.cos(X) ** 2,
        4,
        (sp.sin(X), None),
    ),
    # the Hermitian parts anticommute: lambda_min = 4 - 2 sqrt(sin^2 x + cos^2 y)
    "anticommuting": (
        fock.anticommuting_pair_margin,
        (fock.CHARGE_FLIP, fock.INVERSION, MOVING),
        4 * (sp.sin(X) ** 2 + sp.cos(Y) ** 2),
        8,
        (sp.cos(X), sp.sin(Y)),
    ),
}


def exact(z: complex):
    return sp.nsimplify(z.real) + sp.I * sp.nsimplify(z.imag)


def operands(a, b, columns):
    return a.matrix, b.matrix, np.eye(12)[:, columns]


def symbolic_m(a, b, columns):
    ma, mb, sel = (
        sp.Matrix(*m.shape, lambda i, j: exact(m[i, j])) for m in operands(a, b, columns)
    )
    n = ma.shape[0]
    top = (ma - sp.exp(sp.I * X) * sp.eye(n)) * sel
    bottom = (mb - sp.exp(sp.I * Y) * sp.eye(n)) * sel
    return (top.H * top + bottom.H * bottom).applyfunc(sp.expand)


def is_zero(m):
    # expanded in exponentials, a sum that cancels term by term is exactly 0
    return m.applyfunc(lambda e: sp.expand(e.rewrite(sp.exp))) == sp.zeros(*m.shape)


@pytest.mark.parametrize("name", PROOFS)
def test_certificate_closed_form_is_the_torus_minimum(name):
    certificate, (a, b, columns), f, f_max, roots = PROOFS[name]
    m = symbolic_m(a, b, columns)
    n = m - 4 * sp.eye(m.shape[0])
    # lambda_min(M) = 4 - sqrt(f)
    assert is_zero(m - m.H)
    assert is_zero(sp.Matrix([n.trace()]))
    assert is_zero(n * n - f * sp.eye(m.shape[0]))
    # f <= f_max, with equality exactly where every root vanishes
    assert is_zero(sp.Matrix([f_max - f - 4 * sum(r**2 for r in roots if r is not None)]))
    cert = certificate()
    assert within_4_ulp(cert["min_singular_value"], float(sp.sqrt(4 - sp.sqrt(f_max))))
    for phase, root, op, at in zip((X, Y), roots, (a, b), cert["at"]):
        if root is None:
            # every value of this phase minimizes, the eigenvalues among them
            assert is_zero(m.diff(phase))
            continue
        minimizers = {sp.exp(sp.I * t) for t in sp.solveset(root, phase, TORUS)}
        c = exact(fock.squares_report([op])[op.name])
        assert minimizers == {sp.sqrt(c), -sp.sqrt(c)}
        assert at in {complex(z) for z in minimizers}


@pytest.mark.parametrize("name", PROOFS)
def test_certificate_closed_form_against_eigvalsh_off_lattice(name):
    certificate, ops, f, _, _ = PROOFS[name]
    ma, mb, sel = operands(*ops)
    x, y = np.random.default_rng(20260).uniform(0, 2 * np.pi, (2, 50))
    top = (ma - np.exp(1j * x)[:, None, None] * np.eye(len(ma))) @ sel
    bottom = (mb - np.exp(1j * y)[:, None, None] * np.eye(len(mb))) @ sel
    gram = np.einsum("nji,njk->nik", np.conjugate(top), top)
    gram += np.einsum("nji,njk->nik", np.conjugate(bottom), bottom)
    lowest = np.linalg.eigvalsh(gram)[:, 0]
    # the numeric spectrum catches a slip in the symbolic proof
    closed = 4 - np.sqrt(sp.lambdify((X, Y), f, "numpy")(x, y))
    assert np.max(np.abs(lowest - closed)) < 1e-12
    assert np.min(np.sqrt(np.maximum(lowest, 0.0))) >= certificate()["min_singular_value"] - 1e-12


def test_certificate_laws_hold_exactly_at_every_eigenvalue_pair():
    # H^2 = c * 1 with tr H = 0, c = 4 for the single branch and 8 for the
    # anticommuting pair, so the margins are sqrt(4 - sqrt(c)) exactly
    for certificate, c in (
        (fock.simultaneous_eigen_certificate, 4),
        (fock.anticommuting_pair_margin, 8),
    ):
        cert = certificate()
        assert cert["law"].tolist() == [0.0] * 4
        assert cert["min_singular_value"] == math.sqrt(4 - math.sqrt(c))


def test_both_branch_joint_eigenvector():
    rep = fock.both_branch_joint_eigenvector()
    assert rep["inversion_residual"] < 1e-14
    assert rep["charge_residual"] < 1e-14
    assert rep["charge_eigenvalue"] == 1j
    # the vector itself, reconstructed here from scratch
    v = ket(0, "up", +1) + 1j * ket(0, "dn", +1) - 1j * ket(0, "up", -1) + ket(0, "dn", -1)
    assert np.array_equal(fock.INVERSION.apply(FockVector(v)).amps, v)
    assert np.array_equal(fock.CHARGE.apply(FockVector(v)).amps, 1j * v)


def test_operator_route_matches_state_route():
    rep = fock.operator_state_consistency()
    assert rep["max_residual"] == 0.0
    # (creation, annihilation) x the 12 rows of the three operators
    assert rep["gaps"].shape == (2, 12)
    assert not np.any(rep["gaps"])


def fock_status(check_id):
    results = checks.run_checks(checks.SuiteConfig(suites=("fock",)))
    return {r.check_id: r for r in results}[check_id].status


@pytest.mark.parametrize(
    "name, key, row",
    [
        # the creation phase is -1j, so the adjoint phase is +1j, not -1j
        ("inversion", ("b", "dn", False), ("b", "up", False, True, -1j)),
        # the creation row keeps the helicity, this one flips it
        ("charge", ("a", "up", False), ("b", "dn", False, False, 1.0)),
    ],
    ids=["phase", "helicity"],
)
def test_annihilation_rows_are_the_adjoints_of_the_creation_rows(monkeypatch, name, key, row):
    assert fock_status("fock/operator-state-consistency") == "pass"
    monkeypatch.setitem(fock._OPERATOR_RULES[name], key, row)
    assert fock.operator_state_consistency()["max_residual"] > 0
    assert fock_status("fock/operator-state-consistency") == "fail"


def test_a_rule_that_changes_the_dagger_is_refused(monkeypatch):
    row = ("b", "up", True, False, 1.0)  # an annihilation rule that creates
    monkeypatch.setitem(fock._OPERATOR_RULES["charge"], ("a", "up", False), row)
    with pytest.raises(ValueError, match="dagger"):
        fock.operator_state_consistency()


def test_nonunit_phase_rejected():
    with pytest.raises(ValueError):
        fock.SymmetryOp.build("bad", np.diag([2.0, 1.0, 1.0, 1.0]), reflects=False)
    two_in_a_column = np.eye(4)
    two_in_a_column[1, 0] = 1.0
    with pytest.raises(ValueError):
        fock.SymmetryOp.build("bad", two_in_a_column, reflects=False)
    with pytest.raises(ValueError):
        fock.SymmetryOp.build("bad", np.diag([np.nan, 1.0, 1.0, 1.0]), reflects=False)


def test_one_matrix_acts_on_every_mode():
    # an op is its one matrix: no second form keeps an old action
    assert fock.SymmetryOp._fields == ("name", "matrix")
    identity = fock.CHARGE._replace(matrix=np.eye(12))  # a unit-phase permutation
    for mode in fock.MODES:
        state = FockVector.basis(*mode)
        assert np.array_equal(identity.apply(state).amps, state.amps), mode


def _column_times(op, mode, phase):
    """op with the image of `mode` times `phase`: one column of its matrix changed."""
    m = op.matrix.copy()
    m[:, fock.MODES.index(mode)] *= phase
    return op._replace(matrix=linalg.frozen(m))


# a wrong 12x12 matrix planted in one op: (the op's name in fock, the
# mutant, the fock checks that FAIL under it, those that FAIL on a refusal)
MATRIX_MUTANTS = {
    # one rest column and one moving column: fock/state-tables sees both
    "rest-column": (
        "CHARGE",
        lambda: _column_times(fock.CHARGE, (0, "up", +1), -1),
        {"fock/state-tables"},
        {"fock/joint-eigen-certificate", "fock/squares-and-commutation"},
    ),
    "moving-column": (
        "CHARGE",
        lambda: _column_times(fock.CHARGE, (1, "up", +1), -1),
        {"fock/state-tables", "fock/eigencombinations", "fock/operator-state-consistency"},
        {"fock/joint-eigen-certificate", "fock/squares-and-commutation"},
    ),
    # a swap that keeps the branch shares every inversion eigenvector
    "charge-keeps-the-branch": (
        "CHARGE",
        lambda: fock.CHARGE._replace(matrix=linalg.frozen(1j * np.eye(12))),
        {
            "fock/state-tables",
            "fock/eigencombinations",
            "fock/operator-state-consistency",
            "fock/squares-and-commutation",
            "fock/joint-eigen-certificate",
        },
        set(),
    ),
    # a swap that is inversion itself shares every inversion eigenvector:
    # the certificate's law holds with c = 16 and the margin is 0
    "charge-as-inversion": (
        "CHARGE",
        lambda: fock.CHARGE._replace(matrix=fock.INVERSION.matrix),
        {
            "fock/state-tables",
            "fock/eigencombinations",
            "fock/operator-state-consistency",
            "fock/squares-and-commutation",
            "fock/joint-eigen-certificate",
        },
        set(),
    ),
    # a flipping swap that commutes with inversion instead of anticommuting
    "flip-commutes": (
        "CHARGE_FLIP",
        lambda: fock.CHARGE_FLIP._replace(matrix=fock.CHARGE.matrix),
        {"fock/state-tables", "fock/operator-state-consistency", "fock/squares-and-commutation"},
        set(),
    ),
    # every phase of inversion negated: the squares and the margins stay
    "negated-inversion": (
        "INVERSION",
        lambda: fock.INVERSION._replace(matrix=linalg.frozen(-fock.INVERSION.matrix)),
        {
            "fock/state-tables",
            "fock/eigencombinations",
            "fock/operator-state-consistency",
            "fock/squares-and-commutation",
        },
        set(),
    ),
    # the Dirac-type construction: the antiparticle (branch, helicity) block
    # of inversion with the opposite phase
    "dirac-type-inversion": (
        "INVERSION",
        lambda: fock.SymmetryOp.build(
            "inversion",
            [[0, -1j, 0, 0], [1j, 0, 0, 0], [0, 0, 0, 1j], [0, 0, -1j, 0]],
            reflects=True,
        ),
        {
            "fock/state-tables",
            "fock/eigencombinations",
            "fock/operator-state-consistency",
            "fock/squares-and-commutation",
        },
        set(),
    ),
}


def fock_results():
    return {r.check_id: r for r in checks.run_checks(checks.SuiteConfig(suites=("fock",)))}


def test_every_judged_fock_check_has_a_matrix_mutant():
    judged = {i for i, r in fock_results().items() if r.tol is not None}
    assert judged == set.union(*(fails for _, _, fails, _ in MATRIX_MUTANTS.values()))


@pytest.mark.parametrize("name", MATRIX_MUTANTS)
def test_a_wrong_symmetry_matrix_fails_its_checks(monkeypatch, name):
    attr, mutant, fails, refusals = MATRIX_MUTANTS[name]
    assert "fail" not in {r.status for r in fock_results().values()}
    monkeypatch.setattr(fock, attr, mutant())
    results = fock_results()
    assert {i for i, r in results.items() if r.status == "fail"} == fails | refusals
    assert {i for i, r in results.items() if "error" in r.values} == refusals
    # a failing residual or predicate, not a refusal, fails each check in `fails`
    assert all(results[i].max_residual >= 1.0 for i in fails)
