"""The check registry: coverage, determinism, config validation."""

import functools
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from selfconj import checks, cli, fieldops, fock, halfspin, linalg, spin1
from selfconj.halfspin import FourMomentum, PhaseConvention

REPORTED_IDS = {
    "fock/joint-eigen-existence",
    "halfspin/biorthonormality-sign",
    "halfspin/chiral-helicity-halves",
    "spin1/plain-unitary-diagnostic",
    "spin1/transverse-reality-offplane",
}


def test_default_run_shape():
    res = checks.run_checks(checks.SuiteConfig())
    ids = [r.check_id for r in res]
    assert len(ids) == 35
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)
    assert {r.check_id for r in res if r.status == "reported"} == REPORTED_IDS
    assert not [r.check_id for r in res if r.status == "fail"]


def test_every_id_has_one_anchor():
    res = checks.run_checks(checks.SuiteConfig())
    anchors = {r.check_id: r.anchor for r in res}
    assert all(isinstance(a, str) and a for a in anchors.values())
    assert len(set(anchors.values())) == len(anchors)


def test_json_rendering_is_deterministic():
    out1 = checks.render_json(checks.SuiteConfig(), checks.run_checks(checks.SuiteConfig()))
    out2 = checks.render_json(checks.SuiteConfig(), checks.run_checks(checks.SuiteConfig()))
    assert out1 == out2
    doc = json.loads(out1)
    assert set(doc) == {"config", "checks", "summary"}
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["reported"] == len(REPORTED_IDS)


def test_zero_tolerance_trips_on_roundoff():
    cfg = checks.SuiteConfig(tolerance=0.0, suites=("halfspin",))
    res = checks.run_checks(cfg)
    fails = [r for r in res if r.status == "fail"]
    assert fails
    assert all(r.max_residual < 1e-10 for r in fails)


def test_suite_filter():
    res = checks.run_checks(checks.SuiteConfig(suites=("fock",)))
    assert len(res) == 6
    assert all(r.check_id.startswith("fock/") for r in res)


def test_config_validation():
    with pytest.raises(ValueError):
        checks.SuiteConfig(suites=("fock", "gravity"))
    with pytest.raises(ValueError):
        checks.SuiteConfig(masses=())
    with pytest.raises(ValueError):
        checks.SuiteConfig(masses=(0.0,))
    with pytest.raises(ValueError):
        checks.SuiteConfig(tolerance=-1.0)
    with pytest.raises(ValueError):
        checks.SuiteConfig(n_magnitudes=0)
    with pytest.raises(ValueError):
        checks.SuiteConfig(n_directions=0)
    nan, inf = float("nan"), float("inf")
    for bad in (
        {"masses": (nan,)},
        {"masses": (1.0, inf)},
        {"theta1": nan},
        {"theta2": inf},
        {"thetac": -inf},
        {"norm": 0.0},
        {"norm": nan},
        {"norm": inf},
        {"tolerance": nan},
        # the largest magnitude 2 ** ((n - 1) / 2) overflows from n = 2049
        {"n_magnitudes": 2049},
        # and passes the kinematic bound |p| <= 2**52 m from n = 106
        {"n_magnitudes": 106},
        {"masses": (1e-20,)},
        {"masses": (1e200,)},
        # a grid size is a plain integer
        {"n_magnitudes": True},
        {"n_directions": False},
        {"n_magnitudes": 2.5},
        {"n_directions": 2.0},
        {"n_magnitudes": "3"},
        # a number is not a bool, though float() would take one
        {"tolerance": True},
        {"theta1": False},
        {"thetac": np.True_},
        {"norm": True},
        {"masses": (1.0, True)},
    ):
        with pytest.raises(ValueError):
            checks.SuiteConfig(**bad)
    assert max(checks.SuiteConfig(n_magnitudes=105).magnitudes()) == 2.0**52


def test_a_config_of_numpy_scalars_is_its_float_twin():
    # every number is stored as a Python float, so the text report's config
    # line, which json.dumps writes, takes numpy scalars too
    numbers = dict(
        tolerance=np.float32(1e-12),
        theta1=np.float32(0.3),
        theta2=np.int64(0),
        thetac=np.float16(0.5),
        norm=np.float64(1.5),
    )
    masses = (np.float32(0.7), np.int32(2))
    a = checks.SuiteConfig(masses, 1, 2, **numbers)
    twin = {k: float(v) for k, v in numbers.items()}
    b = checks.SuiteConfig(tuple(map(float, masses)), 1, 2, **twin)
    assert a == b
    assert {type(x) for x in a.masses + tuple(a[3:8])} == {float}
    for render in (checks.render_text, checks.render_json):
        assert render(a, checks.run_checks(a)) == render(b, checks.run_checks(b))


@pytest.mark.parametrize("field", ["theta1", "theta2"])
@pytest.mark.parametrize("phases", [(0.1, 0.2), [1, [2, 3]], [[0.1], 0.2]])
def test_phases_must_be_numbers_even_when_ragged(field, phases):
    with pytest.raises(ValueError, match="^theta1 and theta2 must be numbers, not one per row$"):
        checks.SuiteConfig(**{field: phases})


def _pairs(op) -> np.ndarray:
    """The 4x4 (branch, helicity) permutation `SymmetryOp.build` takes: the
    op's block on the rest modes, which the tag map fixes."""
    rest = [i for i, (tag, _, _) in enumerate(fock.MODES) if tag == 0]
    return op.matrix[np.ix_(rest, rest)]


def test_records_are_immutable_and_keep_their_equality():
    p = FourMomentum(1.0, 2.0, 0.5, 7.0)
    conv = PhaseConvention(0.3, 0.4)
    cfg = checks.SuiteConfig(masses=[2])
    g = halfspin.build_spinor_basis(p, conv)
    result = checks.run_checks(checks.SuiteConfig(suites=("linalg",)))[0]
    # validation still normalizes what it is given
    assert p.phi == 7.0 - 2 * math.pi and cfg.masses == (2.0,)
    # value types compare and hash by value: the grid cache is keyed on them
    for record, same in (
        (p, FourMomentum(1.0, 2.0, 0.5, 7.0)),
        (conv, PhaseConvention(0.3, 0.4, 0.0, None)),
        (cfg, checks.SuiteConfig(masses=(2.0,))),
    ):
        assert record == same and len({record, same}) == 1
    assert cfg.convention == PhaseConvention()
    # a grid and a Fock symmetry are equal only to themselves
    assert g == g and g != halfspin.build_spinor_basis(p, conv)
    assert fock.CHARGE != fock.SymmetryOp.build("charge", _pairs(fock.CHARGE), reflects=False)
    # a grid has no instance dict, so no attribute can be added or cached
    with pytest.raises(TypeError):
        vars(g)
    for name in ("family", "six"):
        with pytest.raises(AttributeError):
            setattr(g, name, g.left)
    for record, name in (
        (p, "theta"),
        (conv, "norm"),
        (cfg, "tolerance"),
        (cfg, "convention"),
        (result, "status"),
        (g, "family"),
        (fock.CHARGE, "matrix"),
        (halfspin.charge_conjugation_op(), "matrix"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def _twins(kind: str):
    """A record of arrays of `kind` and a second record of the same arrays."""
    if kind == "antilinear-op":
        op = halfspin.charge_conjugation_op()
        return op, linalg.AntilinearOp(op.matrix)
    if kind == "fock-vector":
        state = fock.FockVector.basis(1, "up", +1)
        return state, fock.FockVector(state.amps)
    if kind == "symmetry-op":
        return fock.CHARGE, fock.CHARGE._replace()
    g = halfspin.build_spinor_basis(FourMomentum(1.0, 2.0), PhaseConvention())
    return g, g._replace()


@pytest.mark.parametrize("kind", ["antilinear-op", "fock-vector", "symmetry-op", "spinor-grid"])
def test_records_of_arrays_are_equal_only_to_themselves(kind):
    record, twin = _twins(kind)
    assert record == record and not record != record
    assert record != twin and not record == twin
    assert hash(record) == hash(record) and record in {record} and twin not in {record}
    assert len({record, twin}) == 2


def test_a_fock_state_keeps_its_validated_amplitudes():
    state = fock.FockVector.basis(1, "up", +1)
    with pytest.raises(AttributeError):
        state.amps = np.zeros(5)
    with pytest.raises(ValueError):
        state._replace(amps=np.zeros(5))
    assert not state.amps.flags.writeable and state.amps.shape == (12,)


def test_nan_residual_fails_the_check(monkeypatch):
    real = spin1.on_shell_residual
    calls = []

    def one_nan(p):
        calls.append(None)
        res = real(p)
        res[..., 1] = math.nan  # one helicity at every momentum
        return res

    monkeypatch.setattr(spin1, "on_shell_residual", one_nan)
    res = checks.run_checks(checks.SuiteConfig(suites=("spin1",)))
    on_shell = next(r for r in res if r.check_id == "spin1/on-shell-contraction")
    assert on_shell.status == "fail"
    assert math.isnan(on_shell.max_residual)


def _scaled_w_parts():
    w = halfspin.W_PARTS.copy()
    w[3] = w[3] * 1.1
    return linalg.frozen(w)


def _charge_with_phase_i():
    m = _pairs(fock.CHARGE).copy()
    m[2, 0] = 1j
    return fock.SymmetryOp.build("charge", m, reflects=False)


def _rules_with_a_flipped_dagger():
    rules = {name: dict(table) for name, table in fock._OPERATOR_RULES.items()}
    rules["charge"][("a", "up", False)] = ("b", "up", True, False, 1.0)  # creates
    return rules


# a patched library constant that a library function refuses with
# ValueError: (module, name, value, the checks that report the refusal, its
# message, the suites whose other checks may change status)
_REFUSALS = {
    "conjugation-block": (
        halfspin,
        "_CONJUGATION_BLOCK",
        lambda: linalg.frozen(halfspin._CONJUGATION_BLOCK * 1.1),
        {"linalg/antilinear-algebra", "spin1/selfconjugacy-dichotomy"},
        "square is not +-identity",
        {"linalg", "halfspin", "spin1", "fieldops"},
    ),
    "w-parts": (
        halfspin,
        "W_PARTS",
        _scaled_w_parts,
        {"halfspin/exchange-quadruple"},
        "product W_1 W_2 escapes the set",
        {"halfspin"},
    ),
    "fock-charge": (
        fock,
        "CHARGE",
        _charge_with_phase_i,
        {"fock/joint-eigen-certificate", "fock/squares-and-commutation"},
        "charge^2 is not a scalar",
        {"fock"},
    ),
    "ladder-dagger": (
        fock,
        "_OPERATOR_RULES",
        _rules_with_a_flipped_dagger,
        {"fock/operator-state-consistency"},
        "a ladder rule changed the dagger",
        set(),
    ),
}


@pytest.mark.parametrize("mutant", sorted(_REFUSALS))
def test_a_library_refusal_fails_its_check_not_the_run(mutant, monkeypatch, capsys):
    module, name, value, refusing, message, touched = _REFUSALS[mutant]
    before = {r.check_id: r.status for r in checks.run_checks(checks.SuiteConfig())}
    monkeypatch.setattr(module, name, value())
    results = checks.run_checks(checks.SuiteConfig())
    assert [r.check_id for r in results] == sorted(before)
    errors = {r.check_id: r for r in results if "error" in r.values}
    assert set(errors) == refusing
    for r in errors.values():
        assert r.status == "fail" and r.max_residual == 1.0
        assert r.values["error"].startswith(message)
    for r in results:
        if r.check_id not in refusing and r.check_id.split("/")[0] not in touched:
            assert r.status == before[r.check_id], r.check_id
    assert cli.main(["run"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and "Traceback" not in out
    lines = out.splitlines()
    assert sum(line.startswith("FAIL") for line in lines) >= len(refusing)
    # the text report gives each refusal's reason as one line under its check
    assert sum(line.startswith("          . error = ") for line in lines) == len(refusing)
    for check_id, r in errors.items():
        at = next(i for i, line in enumerate(lines) if line[10:].startswith(check_id + " "))
        assert "\n" not in r.values["error"]
        assert lines[at + 1] == "          . error = " + r.values["error"]


@pytest.mark.parametrize("field", ["tolerance", "theta1", "theta2", "thetac"])
def test_equal_configs_give_the_same_report_bytes(field):
    # -0.0 == 0.0: the two configs are equal, so their reports are one text
    a, b = (checks.SuiteConfig(n_magnitudes=1, n_directions=2, **{field: z}) for z in (-0.0, 0.0))
    assert a == b
    for render in (checks.render_text, checks.render_json):
        assert render(a, checks.run_checks(a)) == render(b, checks.run_checks(b))


def test_a_refusal_fails_a_reported_check_and_other_errors_propagate():
    def refuse(cfg, grid):
        raise ValueError("refused")

    check = checks._Check("linalg/refusing", "planted", None, refuse)
    r = checks._run(check, checks.SuiteConfig(), None)
    assert (r.status, r.max_residual, r.tol, r.values) == ("fail", 1.0, None, {"error": "refused"})

    def broken(cfg, grid):
        raise TypeError("a bug, not a refusal")

    with pytest.raises(TypeError):
        checks._run(check._replace(evaluate=broken), checks.SuiteConfig(), None)


# frozen tol per check id at tolerance 0, 1e-12 and 1e-3; None marks the
# reported checks, which judge nothing
_TOLS = {
    "fieldops/conjugation-parity": (0.0, 1e-12, 1e-3),
    "fieldops/dirac-embedding": (0.0, 1e-12, 1e-3),
    "fieldops/mode-structure": (0.0, 1e-12, 1e-3),
    "fieldops/quaternion-orbit": (0.0, 1e-12, 1e-3),
    "fieldops/ziino-split": (0.0, 1e-12, 1e-3),
    "fock/eigencombinations": (0.0, 1e-15, 1e-15),
    "fock/joint-eigen-certificate": (0.0, 1e-15, 1e-15),
    "fock/joint-eigen-existence": (None, None, None),
    "fock/operator-state-consistency": (0.0, 1e-15, 1e-15),
    "fock/squares-and-commutation": (0.0, 1e-15, 1e-15),
    "fock/state-tables": (0.0, 1e-15, 1e-15),
    "halfspin/biorthonormality-sign": (None, None, None),
    "halfspin/biorthonormality-structure": (4e-12, 4e-12, 1e-3),
    "halfspin/chiral-helicity-halves": (None, None, None),
    "halfspin/conjugation-eigenvalues": (0.0, 1e-12, 1e-3),
    "halfspin/dirac-connection": (0.0, 1e-12, 1e-3),
    "halfspin/dynamical-residuals": (0.0, 1e-12, 1e-3),
    "halfspin/eigenstructure-split": (0.0, 1e-12, 1e-3),
    "halfspin/exchange-quadruple": (0.0, 1e-12, 1e-3),
    "halfspin/gauge-orbit": (0.0, 1e-12, 1e-3),
    "halfspin/helicity-spinors": (0.0, 1e-12, 1e-3),
    "halfspin/massless-limit": (1e-4, 1e-4, 1e-4),
    "halfspin/second-order-tensors": (0.0, 1e-12, 1e-3),
    "linalg/antilinear-algebra": (1e-14, 1e-12, 1e-3),
    "linalg/kron-mixed-product": (1e-13, 1e-12, 1e-3),
    "spin1/chirality-flip": (0.0, 1e-15, 1e-15),
    "spin1/majorana-real-family": (0.0, 1e-12, 1e-3),
    "spin1/majorana-unitarity": (0.0, 1e-15, 1e-15),
    "spin1/on-shell-contraction": (0.0, 1e-12, 1e-3),
    "spin1/plain-unitary-diagnostic": (None, None, None),
    "spin1/reality-classes": (0.0, 1e-12, 1e-3),
    "spin1/selfconjugacy-dichotomy": (0.0, 1e-15, 1e-15),
    "spin1/transverse-reality": (0.0, 1e-12, 1e-3),
    "spin1/transverse-reality-offplane": (None, None, None),
    "spin1/wigner-theta": (0.0, 1e-12, 1e-3),
}


def test_tolerance_rules_are_frozen():
    reported = {}
    for k, tolerance in enumerate((0.0, 1e-12, 1e-3)):
        # tolerance rules do not depend on the grid, so the smallest one will do
        cfg = checks.SuiteConfig(n_magnitudes=1, n_directions=1, tolerance=tolerance)
        for r in checks.run_checks(cfg):
            reported.setdefault(r.check_id, [None, None, None])[k] = r.tol
    assert {i: tuple(t) for i, t in reported.items()} == _TOLS


# frozen number of judged residual entries per check id at the default
# config; a residual that drops out of a check's mapping, or is reduced over
# a row, helicity, member, slot, half or frequency axis, changes its count
_ENTRIES = {
    "fieldops/conjugation-parity": 128,
    "fieldops/dirac-embedding": 38,
    "fieldops/mode-structure": 72,
    "fieldops/quaternion-orbit": 32,
    "fieldops/ziino-split": 160,
    "fock/eigencombinations": 12,
    "fock/joint-eigen-certificate": 4,
    "fock/joint-eigen-existence": 6,
    "fock/operator-state-consistency": 24,
    "fock/squares-and-commutation": 9,
    "fock/state-tables": 39,
    "halfspin/biorthonormality-sign": 2,
    "halfspin/biorthonormality-structure": 72,
    "halfspin/chiral-helicity-halves": 8,
    "halfspin/conjugation-eigenvalues": 148,
    "halfspin/dirac-connection": 144,
    "halfspin/dynamical-residuals": 144,
    "halfspin/eigenstructure-split": 252,
    "halfspin/exchange-quadruple": 176,
    "halfspin/gauge-orbit": 40,
    "halfspin/helicity-spinors": 26,
    "halfspin/massless-limit": 0,
    "halfspin/second-order-tensors": 32,
    "linalg/antilinear-algebra": 18,
    "linalg/kron-mixed-product": 80,
    "spin1/chirality-flip": 6,
    "spin1/majorana-real-family": 21,
    "spin1/majorana-unitarity": 2,
    "spin1/on-shell-contraction": 54,
    "spin1/plain-unitary-diagnostic": 2,
    "spin1/reality-classes": 50,
    "spin1/selfconjugacy-dichotomy": 15,
    "spin1/transverse-reality": 90,
    "spin1/transverse-reality-offplane": 1,
    "spin1/wigner-theta": 20,
}


def _evaluations(cfg):
    """Each registered check's Evaluation at cfg, by id, on a grid of its own."""
    momenta = cfg.momenta()

    @functools.cache
    def grid(theta1=cfg.theta1, theta2=cfg.theta2):
        return halfspin.build_spinor_grid(momenta, PhaseConvention(theta1, theta2, norm=cfg.norm))

    chosen = [c for c in checks._REGISTRY if c.check_id.split("/")[0] in cfg.suites]
    return {c.check_id: c.evaluate(cfg, grid) for c in chosen}


def test_judged_entry_counts_are_frozen():
    counts = {}
    for check_id, ev in _evaluations(checks.SuiteConfig()).items():
        assert all(re.fullmatch(r"[a-z][a-z0-9_]*", name) for name in ev.residuals), check_id
        counts[check_id] = sum(np.size(r) for r in ev.residuals.values())
    assert counts == _ENTRIES
    assert sum(counts.values()) == 1927


# frozen calls a default run makes to (linalg.apply, linalg.norm,
# SpinorGrid.build) per check id, a build counted in the check that first
# asks for its grid or for a part the grid builds on first use; a loop over
# a fixed index set (members, relations, signs, halves, ops) that comes
# back raises them
_CALLS = {
    "fieldops/conjugation-parity": (2, 0, 0),
    "fieldops/dirac-embedding": (4, 6, 2),
    "fieldops/mode-structure": (1, 0, 0),
    "fieldops/quaternion-orbit": (2, 1, 0),
    "fieldops/ziino-split": (5, 0, 2),
    "fock/eigencombinations": (0, 2, 0),
    "fock/joint-eigen-certificate": (0, 0, 0),
    "fock/joint-eigen-existence": (0, 1, 0),
    "fock/operator-state-consistency": (0, 1, 0),
    "fock/squares-and-commutation": (0, 1, 0),
    "fock/state-tables": (0, 0, 0),
    "halfspin/biorthonormality-sign": (0, 0, 1),
    "halfspin/biorthonormality-structure": (0, 0, 1),
    "halfspin/chiral-helicity-halves": (1, 2, 0),
    "halfspin/conjugation-eigenvalues": (1, 1, 0),
    "halfspin/dirac-connection": (1, 0, 0),
    "halfspin/dynamical-residuals": (1, 1, 0),
    "halfspin/eigenstructure-split": (4, 3, 1),
    "halfspin/exchange-quadruple": (4, 2, 0),
    "halfspin/gauge-orbit": (2, 1, 0),
    "halfspin/helicity-spinors": (1, 2, 0),
    "halfspin/massless-limit": (0, 1, 1),
    "halfspin/second-order-tensors": (0, 0, 0),
    "linalg/antilinear-algebra": (3, 0, 0),
    "linalg/kron-mixed-product": (0, 0, 0),
    "spin1/chirality-flip": (2, 1, 0),
    "spin1/majorana-real-family": (0, 0, 0),
    "spin1/majorana-unitarity": (0, 0, 0),
    "spin1/on-shell-contraction": (1, 1, 0),
    "spin1/plain-unitary-diagnostic": (0, 0, 0),
    "spin1/reality-classes": (2, 0, 0),
    "spin1/selfconjugacy-dichotomy": (1, 1, 0),
    "spin1/transverse-reality": (1, 4, 0),
    "spin1/transverse-reality-offplane": (1, 4, 0),
    "spin1/wigner-theta": (1, 1, 0),
}


def test_call_counts_are_frozen(monkeypatch):
    counts, current = {}, [None]

    def counted(k, fn):
        def wrapper(*args, **kwargs):
            counts[current[0]][k] += 1
            return fn(*args, **kwargs)

        return wrapper

    for k, name in enumerate(("apply", "norm")):
        original = getattr(linalg, name)
        for module in (linalg, halfspin, spin1, fieldops, fock, checks):
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted(k, original))
    build = counted(2, halfspin.SpinorGrid.build.__func__)
    monkeypatch.setattr(halfspin.SpinorGrid, "build", classmethod(build))

    def attributed(check):
        def evaluate(cfg, grid):
            current[0] = check.check_id
            counts[check.check_id] = [0, 0, 0]
            return check.evaluate(cfg, grid)

        return check._replace(evaluate=evaluate)

    monkeypatch.setattr(checks, "_REGISTRY", [attributed(c) for c in checks._REGISTRY])
    checks.run_checks(checks.SuiteConfig())
    assert {k: tuple(v) for k, v in counts.items()} == _CALLS
    assert [sum(v[k] for v in _CALLS.values()) for k in range(3)] == [41, 37, 8]


def _oracle_worst(residuals: list, holds: bool) -> float:
    """The reduction of the unnamed residual list: every entry in one flat
    float array, the largest of them and of 0 (of 1 under a false predicate)."""
    flat = np.concatenate([np.ravel(np.asarray(v, dtype=float)) for v in residuals] or [[]])
    return float(np.max(flat, initial=0.0 if holds else 1.0))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


_configs = st.builds(
    checks.SuiteConfig,
    masses=st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=2),
    n_magnitudes=st.integers(1, 4),
    n_directions=st.integers(1, 8),
    theta1=st.floats(-10.0, 10.0),
    theta2=st.floats(-10.0, 10.0),
    thetac=st.floats(-10.0, 10.0),
    norm=st.none() | st.floats(0.25, 4.0),
    suites=st.lists(st.sampled_from(checks.KNOWN_SUITES), min_size=1, max_size=5, unique=True),
)


@settings(database=None, deadline=None, max_examples=12)
@given(_configs)
def test_max_residual_is_the_flat_reduction(cfg):
    evaluations = _evaluations(cfg)
    results = checks.run_checks(cfg)
    assert [r.check_id for r in results] == sorted(evaluations)
    for r in results:
        ev = evaluations[r.check_id]
        want = _oracle_worst(list(ev.residuals.values()), all(ev.predicates.values()))
        assert _bits(r.max_residual) == _bits(want), r.check_id


# the domain of perfbench's lib-sweep workload, with the norm added: 1-2
# masses in [0.25, 4], grids from 1x1 to 4x8 and rest phases in [0, 2 pi);
# a phase where a law's coefficient vanishes (theta_h = pi/4) is no FAIL
@settings(database=None, deadline=None, max_examples=40)
@given(
    masses=st.lists(st.floats(0.25, 4.0), min_size=1, max_size=2),
    n_magnitudes=st.integers(1, 4),
    n_directions=st.integers(1, 8),
    theta1=st.floats(0.0, 2 * math.pi, exclude_max=True),
    theta2=st.floats(0.0, 2 * math.pi, exclude_max=True),
    norm=st.none() | st.floats(0.1, 5.0),
)
@example([1.0], 1, 2, math.pi / 4, 0.0, None)
def test_no_check_fails_over_the_sweep_domain(
    masses, n_magnitudes, n_directions, theta1, theta2, norm
):
    cfg = checks.SuiteConfig(masses, n_magnitudes, n_directions, 1e-12, theta1, theta2, norm=norm)
    assert [r.check_id for r in checks.run_checks(cfg) if r.status == "fail"] == []


def _planted(residuals, holds=True):
    ev = checks.Evaluation(residuals, predicates={"planted": holds})
    check = checks._Check("linalg/planted", "planted", (0.0, math.inf), lambda cfg, grid: ev)
    return checks._run(check, checks.SuiteConfig(), None)


@pytest.mark.parametrize(
    "residuals, holds, status",
    [
        ({"rows": np.array([1e-16, math.nan, 2e-16]), "number": 0.5}, True, "fail"),
        ({}, True, "pass"),
        ({}, False, "fail"),
        ({"zero_d": np.array(2e-13)}, True, "pass"),
        ({"number": 3e-13}, True, "pass"),
        ({"zero_d": np.array(2e-13), "number": 3e-12, "rows": np.zeros((2, 3))}, True, "fail"),
    ],
)
def test_planted_residuals_reduce_like_the_flat_list(residuals, holds, status):
    r = _planted(residuals, holds)
    assert _bits(r.max_residual) == _bits(_oracle_worst(list(residuals.values()), holds))
    assert r.status == status and r.tol == 1e-12


def test_a_complex_residual_warns():
    with pytest.warns(np.exceptions.ComplexWarning):
        _planted({"complex": np.array([1e-16 + 1e-16j])})


def test_replace_and_make_validate():
    bad = (
        lambda: FourMomentum(1.0, 1.0)._replace(mass=-1.0),
        lambda: PhaseConvention()._replace(norm=0.0),
        lambda: linalg.AntilinearOp(np.eye(2))._replace(matrix=np.ones(3)),
        lambda: checks.SuiteConfig()._replace(tolerance=math.nan),
        lambda: FourMomentum._make([1.0, 1.0, 4.0, 0.0]),
        lambda: checks.SuiteConfig._make(checks.SuiteConfig()._replace(n_magnitudes=0)),
        lambda: fock.CHARGE._replace(matrix=2 * np.eye(12)),
    )
    for make in bad:
        with pytest.raises(ValueError):
            make()
    # a vanishing |p| forgets the direction, as in the constructor
    assert FourMomentum(1, 1, 0.5, 0.1)._replace(pmag=0.0) == FourMomentum(1, 0.0)
    p = FourMomentum(1.0, 2.0, 0.5, 7.0)
    assert FourMomentum._make(p) == p and type(FourMomentum._make(p)) is FourMomentum
    assert checks.SuiteConfig()._replace(tolerance=1e-3).convention == PhaseConvention()


def test_momentum_grid_size():
    cfg = checks.SuiteConfig()
    assert len(cfg.momenta()) == 18  # 1 mass x 3 magnitudes x 6 directions
    cfg2 = checks.SuiteConfig(masses=(1.0, 2.0), n_magnitudes=2, n_directions=8)
    assert len(cfg2.momenta()) == 32


def test_a_run_builds_each_grid_momentum_once(monkeypatch):
    # once, as the config's kinematic arrays: no FourMomentum per grid row
    new = FourMomentum.__new__
    built = []

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(FourMomentum, "__new__", staticmethod(counted))
    counts = []
    for n_directions in (3, 8):
        built.clear()
        cfg = checks.SuiteConfig(masses=(1.0, 2.0), n_magnitudes=2, n_directions=n_directions)
        # one record per (mass, |p|) pair validates the kinematic domain
        assert len(built) <= 2 * 2
        checks.run_checks(cfg)
        counts.append(len(built))
    # the run's records are a fixed number, whatever the grid
    assert counts[0] == counts[1]
    # momenta() builds the records on demand: a fresh list of the same momenta
    built.clear()
    assert len(cfg.momenta()) == len(built) == 2 * 2 * 8
    assert cfg.momenta() is not cfg.momenta()
    assert cfg.momenta() == cfg.momenta()


# numpy functions written in Python around a C entry point (an array
# method, a ufunc, concatenate, matmul); per-call code uses the entry
# point, so a default run calls none of them from the package
_WRAPPERS = ("max", "min", "all", "any", "ravel", "stack", "tensordot", "eye",
             "broadcast_arrays", "sum", "ndim", "iscomplexobj", "ones_like", "ones",
             "array_equal", "block", "cross")


def test_a_default_run_calls_no_python_level_numpy_wrappers(monkeypatch):
    calls = dict.fromkeys((*_WRAPPERS, "linalg.norm"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("selfconj"):
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in _WRAPPERS:
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    monkeypatch.setattr(np.linalg, "norm", counted("linalg.norm", np.linalg.norm))
    cfg = checks.SuiteConfig()
    results = checks.run_checks(cfg)
    checks.render_text(cfg, results)
    checks.render_json(cfg, results)
    # import-time constants (fock's SymmetryOp, spin1's frame blocks) may
    # use them; a run may not
    assert calls == dict.fromkeys((*_WRAPPERS, "linalg.norm"), 0)


# the seeded check's samples, drawn at import: (constant, seed, shape)
_SAMPLES = [(checks._ANTILINEAR_SAMPLES, 7, (16, 18))]


def test_seeded_samples_are_the_standard_stream_and_read_only():
    for got, seed, shape in _SAMPLES:
        rng = random.Random(seed)
        want = np.array([2 * rng.random() - 1 for _ in range(math.prod(shape))]).reshape(shape)
        assert got.shape == shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 0.0


# Two default runs in a fresh interpreter, after import: the random.Random
# instances they construct and the arrays each run freezes.  A fresh
# interpreter, so that no earlier test has run first and filled a cache.
_FRESH_RUNS = """
import json, random
from selfconj import checks, fieldops, fock, halfspin, linalg, spin1

made, frozen, original = [], [], linalg.frozen


class Counted(random.Random):
    def __init__(self, *args):
        made.append(args)
        super().__init__(*args)


def counted(value):
    frozen.append(1)
    return original(value)


random.Random = Counted
for module in (linalg, halfspin, spin1, fieldops, fock, checks):
    if vars(module).get("frozen") is original:
        module.frozen = counted
per_run = []
for _ in range(2):
    before = len(frozen)
    checks.run_checks(checks.SuiteConfig())
    per_run.append(len(frozen) - before)
print(json.dumps({"randoms": len(made), "frozen": per_run}))
"""


@pytest.fixture(scope="module")
def fresh_runs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(checks.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_RUNS], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_a_run_after_import_constructs_no_random_generator(fresh_runs):
    assert fresh_runs["randoms"] == 0


def test_consecutive_runs_freeze_the_same_number_of_arrays(fresh_runs):
    # nothing a run makes is kept for the next: the first run of a process
    # does the same work as the second
    first, second = fresh_runs["frozen"]
    assert first == second


def test_results_are_json_serializable():
    for r in checks.run_checks(checks.SuiteConfig(suites=("linalg",))):
        json.dumps(r.to_dict())


# values that copied a judged number or stated a judged fact as a literal
_RESTATED = {
    "unitarity",
    "five_residual",
    "eigenvector_residual",
    "max_residual",
    "parity_rest",
    "zero_at_quarter_turn",
    "includes_offplane_direction",
    "units_square",
    "square_residual",
    "phase_drift_across_grid",
    "family_residual",
    "family_imag_part",
}


@pytest.mark.parametrize(
    "kw", [{}, dict(theta1=0.3, theta2=0.4, thetac=0.7, masses=(0.5, 3.0))], ids=["default", "other"]
)
def test_judged_values_restate_no_verdict(kw):
    # a judged check states each fact once, in its residuals and predicates:
    # its values hold no true/false literal and no copy of a judged number
    for r in checks.run_checks(checks.SuiteConfig(**kw)):
        if r.status == "reported":
            continue
        keys, stack = set(), [r.to_dict()["values"]]
        while stack:
            x = stack.pop()
            if isinstance(x, dict):
                keys |= x.keys()
                stack += x.values()
            elif isinstance(x, list):
                stack += x
            else:
                assert not isinstance(x, bool), r.check_id
        assert not keys & _RESTATED, r.check_id
        if r.check_id == "fock/squares-and-commutation":
            # each pair's report keeps only the number the check does not judge
            assert r.values["commutator"].keys() == {"anticommutator"}
            assert r.values["anticommutator"].keys() == {"commutator"}


def test_text_rendering_summary_line():
    cfg = checks.SuiteConfig()
    text = checks.render_text(cfg, checks.run_checks(cfg))
    assert "35 checks: 30 pass, 0 fail, 5 reported" in text
    assert "halfspin/dirac-connection" in text


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_infinite_tolerance_is_refused():
    # an infinite tolerance would pass every finite residual
    for tolerance in (math.inf, -math.inf):
        with pytest.raises(ValueError):
            checks.SuiteConfig(tolerance=tolerance)


def test_nonfinite_numbers_render_as_strict_json():
    cfg = checks.SuiteConfig(suites=("linalg",))
    values = {"big": math.inf, "small": -math.inf, "z": complex(math.nan, 1.0)}
    row = checks.CheckResult("linalg/x", "anchor", "fail", math.nan, 1e-12, values)
    (doc,) = _strict_json(checks.render_json(cfg, [row]))["checks"]
    assert doc["max_residual"] == "NaN"
    assert doc["values"] == {"big": "Infinity", "small": "-Infinity", "z": {"re": "NaN", "im": 1.0}}


def test_overflowing_norm_report_is_strict_json():
    cfg = checks.SuiteConfig(norm=1.3e154)
    with np.errstate(all="ignore"):  # the overflow itself is a known finding
        text = checks.render_json(cfg, checks.run_checks(cfg))
    _strict_json(text)
    assert '"NaN"' in text and '"Infinity"' in text


def test_the_eigenstructure_laws_need_no_division_at_the_smallest_norm(monkeypatch):
    # members of size about 1e-162, whose <v, v> underflows: the laws are
    # judged as differences, so nothing divides by a vanishing norm
    cfg = checks.SuiteConfig(n_magnitudes=105, n_directions=6, norm=1.5e-154, suites=("halfspin",))
    split = [c for c in checks._REGISTRY if c.check_id == "halfspin/eigenstructure-split"]
    monkeypatch.setattr(checks, "_REGISTRY", split)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (result,) = checks.run_checks(cfg)
    assert math.isfinite(result.max_residual)


# ---------------------------------------------------------------------------
# the JSON writer against json.dumps of the plain-data copy


def _oracle_json(x) -> str:
    return json.dumps(checks._jsonable(x), sort_keys=True, indent=2, allow_nan=False)


def _written(x) -> str:
    out = []
    checks._write_json(x, out, "\n")
    return "".join(out)


def _oracle_report(cfg, results) -> str:
    doc = {
        "config": checks._jsonable(cfg.to_dict()),
        "checks": [r.to_dict() for r in results],
        "summary": checks._summary(results),
    }
    return _oracle_json(doc) + "\n"


class _Int(int):
    __repr__ = __str__ = lambda self: "an int subclass"


class _Float(float):
    __repr__ = __str__ = lambda self: "a float subclass"


class _Str(str):
    __repr__ = lambda self: "a str subclass"


_floats = st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310])
_json_leaves = (
    _floats
    | st.integers()
    | st.booleans()
    | st.none()
    | st.text()
    | st.complex_numbers()
    | hnp.arrays(
        st.sampled_from([np.float64, np.complex128, np.bool_]),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
    )
    | _floats.map(np.float64)
    | st.complex_numbers().map(np.complex128)
    | st.booleans().map(np.bool_)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.integers().map(_Int)
    | _floats.map(_Float)
    | st.text().map(_Str)
)
_json_trees = st.recursive(
    _json_leaves,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text() | st.integers(), inner, max_size=4)
    ),
    max_leaves=20,
)


@settings(database=None, deadline=None, max_examples=150)
@given(_json_trees)
@example({1: "the int key", "1": "the str key"})
@example([_Int(3), _Float(0.5), _Float(math.nan), _Str("\u00e9\n"), True, None])
def test_the_writer_equals_json_dumps_of_the_plain_copy(x):
    assert _written(x) == _oracle_json(x)


def _with_nan_row(monkeypatch):
    """Every grid of three rows or more gets a NaN in row 2 of its family."""
    build = halfspin.SpinorGrid.build.__func__

    def with_nan(cls, *rows):
        g = build(cls, *rows)
        if len(g.mass) < 3:
            return g
        family = g.family.copy()
        family[2, halfspin.FAMILY.index("lam_s_up"), 1] = math.nan
        return g._replace(family=family)

    monkeypatch.setattr(halfspin.SpinorGrid, "build", classmethod(with_nan))


def test_every_suite_subset_renders_as_the_oracle(monkeypatch):
    rng = random.Random(17)
    suites = checks.KNOWN_SUITES
    for k in range(1, 2 ** len(suites)):
        cfg = checks.SuiteConfig(
            n_magnitudes=2,
            n_directions=3,
            theta1=rng.uniform(0.0, 2 * math.pi),
            theta2=rng.uniform(0.0, 2 * math.pi),
            suites=[s for j, s in enumerate(suites) if k >> j & 1],
        )
        results = checks.run_checks(cfg)
        assert checks.render_json(cfg, results) == _oracle_report(cfg, results), cfg.suites
    _with_nan_row(monkeypatch)
    cfg = checks.SuiteConfig()
    results = checks.run_checks(cfg)
    assert any(math.isnan(r.max_residual) for r in results)
    assert checks.render_json(cfg, results) == _oracle_report(cfg, results)


def test_render_json_runs_no_json_module_code(monkeypatch):
    cfg = checks.SuiteConfig()
    results = checks.run_checks(cfg)
    want = _oracle_report(cfg, results)

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    files = set()

    def profile(frame, event, arg):
        if event == "call":
            files.add(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        got = checks.render_json(cfg, results)
    finally:
        sys.setprofile(None)
    assert got == want
    assert checks.__file__ in files
    json_dir = os.path.dirname(json.__file__)
    assert not [f for f in files if os.path.dirname(f) == json_dir]
