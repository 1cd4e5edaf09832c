"""The check registry: coverage, determinism, config validation."""

import json
import math

import pytest

from selfconj import checks, spin1

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
    ):
        with pytest.raises(ValueError):
            checks.SuiteConfig(**bad)
    assert max(checks.SuiteConfig(n_magnitudes=105).magnitudes()) == 2.0**52


def test_nan_residual_fails_the_check(monkeypatch):
    real = spin1.on_shell_residual
    calls = []

    def one_nan(p, h):
        calls.append(None)
        return math.nan if len(calls) == 2 else real(p, h)

    monkeypatch.setattr(spin1, "on_shell_residual", one_nan)
    res = checks.run_checks(checks.SuiteConfig(suites=("spin1",)))
    on_shell = next(r for r in res if r.check_id == "spin1/on-shell-contraction")
    assert on_shell.status == "fail"
    assert math.isnan(on_shell.max_residual)


# frozen tol per check id at tolerance 0, 1e-12 and 1e-3; None marks the
# reported checks, which judge nothing
_TOLS = {
    "fieldops/conjugation-parity": (0.0, 1e-12, 1e-3),
    "fieldops/dirac-embedding": (0.0, 1e-12, 1e-3),
    "fieldops/mode-structure": (0.0, 1e-12, 1e-3),
    "fieldops/quaternion-orbit": (0.0, 1e-12, 1e-3),
    "fieldops/ziino-split": (0.0, 1e-12, 1e-3),
    "fock/eigencombinations": (0.0, 1e-15, 1e-15),
    "fock/joint-eigen-certificate": (0.0, 1e-12, 1e-3),
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
    "spin1/selfconjugacy-dichotomy": (0.0, 1e-12, 1e-3),
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


def test_momentum_grid_size():
    cfg = checks.SuiteConfig()
    assert len(cfg.momenta()) == 18  # 1 mass x 3 magnitudes x 6 directions
    cfg2 = checks.SuiteConfig(masses=(1.0, 2.0), n_magnitudes=2, n_directions=8)
    assert len(cfg2.momenta()) == 32


def test_results_are_json_serializable():
    for r in checks.run_checks(checks.SuiteConfig(suites=("linalg",))):
        json.dumps(r.to_dict())


def test_text_rendering_summary_line():
    cfg = checks.SuiteConfig()
    text = checks.render_text(cfg, checks.run_checks(cfg))
    assert "35 checks: 30 pass, 0 fail, 5 reported" in text
    assert "halfspin/dirac-connection" in text
