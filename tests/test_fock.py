"""Fock-sector symmetry actions against hand-derived tables.

Every expected phase below was recomputed by hand from the three label
rules before being frozen here, so the module tables and these tables are
independent transcriptions.
"""

import math
from unittest import mock

import numpy as np
import pytest
import sympy as sp

from selfconj import fock
from selfconj.fock import FockVector, LadderSymbol, ModeLabel


def lab(p, h, b):
    return ModeLabel(p, h, b)


def test_mode_label_validation_and_order():
    with pytest.raises(ValueError):
        ModeLabel(1, "left", +1)
    with pytest.raises(ValueError):
        ModeLabel(1, "up", 0)
    assert sorted([lab(1, "up", +1), lab(-1, "dn", -1)])[0].ptag == -1


def test_fock_vector_algebra():
    v = FockVector({lab(1, "up", +1): 2.0, lab(1, "dn", +1): 0.0})
    assert v.support == {lab(1, "up", +1)}  # zero amplitudes pruned
    w = FockVector.basis(lab(1, "dn", +1))
    s = v.add(w.scale(3j))
    assert s.amplitude(lab(1, "dn", +1)) == 3j
    assert s.sub(v) == w.scale(3j)
    assert s.norm() == pytest.approx(math.sqrt(4 + 9))
    assert v.scale(1j).inner(w.scale(2.0)) == 0
    assert w.scale(1j).inner(w.scale(2.0)) == pytest.approx(-2j)
    assert hash(FockVector({lab(1, "up", +1): 2.0})) == hash(v)
    with pytest.raises(TypeError):
        FockVector({"not a label": 1.0})


def test_label_sets():
    assert len(fock.both_branch_labels(1)) == 8
    assert len(fock.both_branch_labels(0)) == 4
    assert len(fock.single_branch_labels(2)) == 4
    with pytest.raises(ValueError):
        fock.single_branch_labels(0)


def test_inversion_action_by_hand():
    inv = fock.INVERSION
    # independently derived: p flips, helicity flips, +i on up and -i on dn
    table = {
        lab(1, "up", +1): (lab(-1, "dn", +1), +1j),
        lab(1, "dn", +1): (lab(-1, "up", +1), -1j),
        lab(-2, "up", -1): (lab(2, "dn", -1), +1j),
        lab(0, "dn", -1): (lab(0, "up", -1), -1j),
    }
    for src, (tgt, phase) in table.items():
        got = inv.apply(FockVector.basis(src))
        assert got == FockVector({tgt: phase}), src


def test_charge_actions_by_hand():
    ch = fock.CHARGE
    table = {
        lab(1, "up", +1): (lab(1, "up", -1), +1.0),
        lab(1, "dn", -1): (lab(1, "dn", +1), -1.0),
    }
    for src, (tgt, phase) in table.items():
        assert ch.apply(FockVector.basis(src)) == FockVector({tgt: phase}), src
    chf = fock.CHARGE_FLIP
    table = {
        lab(1, "up", +1): (lab(1, "dn", -1), -1.0),
        lab(1, "dn", -1): (lab(1, "up", +1), +1.0),
    }
    for src, (tgt, phase) in table.items():
        assert chf.apply(FockVector.basis(src)) == FockVector({tgt: phase}), src


def test_squares_and_unitarity():
    labels = fock.both_branch_labels(1)
    ops = [fock.INVERSION, fock.CHARGE, fock.CHARGE_FLIP]
    sq = fock.squares_report(ops)
    assert sq["inversion"] == pytest.approx(+1)
    assert sq["charge"] == pytest.approx(-1)
    assert sq["charge_flip"] == pytest.approx(-1)
    for op in ops:
        m = op.matrix_on(labels)
        assert np.allclose(m @ np.conjugate(m.T), np.eye(8), atol=1e-14)


def test_commutation_structure():
    labels = fock.both_branch_labels(1)
    inv = fock.INVERSION
    rep = fock.commutator_report(inv, fock.CHARGE, labels)
    assert rep["commutator"] < 1e-14
    rep = fock.commutator_report(inv, fock.CHARGE_FLIP, labels)
    assert rep["anticommutator"] < 1e-14


def test_composition_chains():
    start = FockVector.basis(lab(1, "up", +1))
    inv = fock.INVERSION
    ch = fock.CHARGE
    chf = fock.CHARGE_FLIP
    want_commuting = FockVector({lab(-1, "dn", -1): +1j})
    assert ch.compose(inv).apply(start) == want_commuting
    assert inv.compose(ch).apply(start) == want_commuting
    assert chf.compose(inv).apply(start) == FockVector({lab(-1, "up", -1): -1j})
    assert inv.compose(chf).apply(start) == FockVector({lab(-1, "up", -1): +1j})


def test_matrix_leak_detection():
    with pytest.raises(KeyError):
        fock.CHARGE.matrix_on(fock.single_branch_labels(1))


def test_parity_eigencombos():
    rest = fock.parity_eigencombos(0)
    assert rest["plus"]["eigenvalue"] == +1
    assert rest["minus"]["eigenvalue"] == -1
    assert rest["plus"]["residual"] < 1e-14
    assert rest["minus"]["residual"] < 1e-14
    moving = fock.parity_eigencombos(3)
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
    out = fock.anticommuting_pair_margin()
    assert within_4_ulp(out["min_singular_value"], math.sqrt(4 - 2 * math.sqrt(2.0)))
    # the flipping swap squares to -1, inversion to +1
    la, lb = out["at"]
    assert la in (1j, -1j) and lb in (1, -1)


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
        (fock.INVERSION, fock.CHARGE, fock.both_branch_labels(1), fock.single_branch_labels(1)),
        4 * sp.cos(X) ** 2,
        4,
        (sp.sin(X), None),
    ),
    # the Hermitian parts anticommute: lambda_min = 4 - 2 sqrt(sin^2 x + cos^2 y)
    "anticommuting": (
        fock.anticommuting_pair_margin,
        (fock.CHARGE_FLIP, fock.INVERSION, fock.both_branch_labels(1), fock.both_branch_labels(1)),
        4 * (sp.sin(X) ** 2 + sp.cos(Y) ** 2),
        8,
        (sp.cos(X), sp.sin(Y)),
    ),
}


def exact(z: complex):
    return sp.nsimplify(z.real) + sp.I * sp.nsimplify(z.imag)


def operands(a, b, labels, columns):
    sel = np.eye(len(labels))[:, [labels.index(c) for c in columns]]
    return a.matrix_on(labels), b.matrix_on(labels), sel


def symbolic_m(a, b, labels, columns):
    ma, mb, sel = (
        sp.Matrix(*m.shape, lambda i, j: exact(m[i, j])) for m in operands(a, b, labels, columns)
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
    certificate, (a, b, labels, columns), f, f_max, roots = PROOFS[name]
    m = symbolic_m(a, b, labels, columns)
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


def test_certificates_take_at_most_ten_svds():
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        fock.simultaneous_eigen_certificate()
        fock.anticommuting_pair_margin()
    assert svd.call_count <= 10


def test_both_branch_joint_eigenvector():
    rep = fock.both_branch_joint_eigenvector()
    assert rep["inversion_residual"] < 1e-14
    assert rep["charge_residual"] < 1e-14
    assert rep["charge_eigenvalue"] == 1j
    # the vector itself, reconstructed here from scratch
    v = FockVector(
        {
            lab(0, "up", +1): 1.0,
            lab(0, "dn", +1): 1j,
            lab(0, "up", -1): -1j,
            lab(0, "dn", -1): 1.0,
        }
    )
    assert fock.INVERSION.apply(v) == v
    assert fock.CHARGE.apply(v) == v.scale(1j)


def test_ladder_symbol_rules():
    with pytest.raises(ValueError):
        LadderSymbol("c", "up", False, 1)
    rule = fock.operator_rule("inversion")
    new, phase = rule(LadderSymbol("b", "dn", True, 2))
    assert new == LadderSymbol("b", "up", True, -2)
    assert phase == -1j
    new, phase = rule(LadderSymbol("a", "up", False, 1))
    assert new == LadderSymbol("a", "dn", False, -1)
    assert phase == -1j
    with pytest.raises(KeyError):
        fock.operator_rule("rotation")


def test_operator_route_matches_state_route():
    rep = fock.operator_state_consistency()
    assert rep["max_residual"] == 0.0
    assert "annihilation" in rep["annihilation_form_note"]


def test_nonunit_phase_rejected():
    with pytest.raises(ValueError):
        fock.SymmetryOp("bad", np.diag([2.0, 1.0, 1.0, 1.0]), reflects=False)
    two_in_a_column = np.eye(4)
    two_in_a_column[1, 0] = 1.0
    with pytest.raises(ValueError):
        fock.SymmetryOp("bad", two_in_a_column, reflects=False)
    with pytest.raises(ValueError):
        fock.SymmetryOp("bad", np.diag([np.nan, 1.0, 1.0, 1.0]), reflects=False)
