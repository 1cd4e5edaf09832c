"""Fock-sector symmetry actions against hand-derived tables.

Every expected phase below was recomputed by hand from the three label
rules before being frozen here, so the module tables and these tables are
independent transcriptions.
"""

import math

import numpy as np
import pytest

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


def test_single_branch_nonexistence_certificate():
    cert = fock.simultaneous_eigen_certificate()
    assert cert["grid"] == 10000
    assert cert["min_singular_value"] == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_anticommuting_pair_margin():
    out = fock.anticommuting_pair_margin()
    assert out["min_singular_value"] >= 1 / math.sqrt(2.0) - 1e-9


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
