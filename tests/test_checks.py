"""The check registry: coverage, determinism, config validation."""

import functools
import json
import math
import os
import random
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from selfconj import checks, fock, halfspin, linalg, spin1
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
    ):
        with pytest.raises(ValueError):
            checks.SuiteConfig(**bad)
    assert max(checks.SuiteConfig(n_magnitudes=105).magnitudes()) == 2.0**52


@pytest.mark.parametrize("field", ["theta1", "theta2"])
@pytest.mark.parametrize("phases", [(0.1, 0.2), [1, [2, 3]], [[0.1], 0.2]])
def test_phases_must_be_numbers_even_when_ragged(field, phases):
    with pytest.raises(ValueError, match="^theta1 and theta2 must be numbers, not one per row$"):
        checks.SuiteConfig(**{field: phases})


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
    assert fock.CHARGE != fock.SymmetryOp("charge", fock.CHARGE.matrix, reflects=False)
    for record, name in (
        (p, "theta"),
        (conv, "norm"),
        (cfg, "tolerance"),
        (cfg, "convention"),
        (result, "status"),
        (g, "family"),
        (g, "six"),
        (fock.CHARGE, "moving"),
        (halfspin.charge_conjugation_op(), "matrix"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


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


# frozen number of judged residual entries per check id at the default
# config; a residual that drops out of a check's mapping, or is reduced over
# a row, helicity, member, slot, half or frequency axis, changes its count
_ENTRIES = {
    "fieldops/conjugation-parity": 64,
    "fieldops/dirac-embedding": 144,
    "fieldops/mode-structure": 144,
    "fieldops/quaternion-orbit": 315,
    "fieldops/ziino-split": 218,
    "fock/eigencombinations": 8,
    "fock/joint-eigen-certificate": 0,
    "fock/joint-eigen-existence": 2,
    "fock/operator-state-consistency": 24,
    "fock/squares-and-commutation": 9,
    "fock/state-tables": 9,
    "halfspin/biorthonormality-sign": 2,
    "halfspin/biorthonormality-structure": 72,
    "halfspin/chiral-helicity-halves": 8,
    "halfspin/conjugation-eigenvalues": 148,
    "halfspin/dirac-connection": 144,
    "halfspin/dynamical-residuals": 144,
    "halfspin/eigenstructure-split": 72,
    "halfspin/exchange-quadruple": 280,
    "halfspin/gauge-orbit": 240,
    "halfspin/helicity-spinors": 26,
    "halfspin/massless-limit": 0,
    "halfspin/second-order-tensors": 44,
    "linalg/antilinear-algebra": 18,
    "linalg/kron-mixed-product": 8,
    "spin1/chirality-flip": 57,
    "spin1/majorana-real-family": 21,
    "spin1/majorana-unitarity": 3,
    "spin1/on-shell-contraction": 54,
    "spin1/plain-unitary-diagnostic": 2,
    "spin1/reality-classes": 86,
    "spin1/selfconjugacy-dichotomy": 12,
    "spin1/transverse-reality": 108,
    "spin1/transverse-reality-offplane": 1,
    "spin1/wigner-theta": 20,
}


def _evaluations(cfg):
    """Each registered check's Evaluation at cfg, by id, on a grid of its own."""
    momenta = cfg.momenta()
    grid = functools.cache(lambda conv: halfspin.build_spinor_grid(momenta, conv))
    chosen = [c for c in checks._REGISTRY if c.check_id.split("/")[0] in cfg.suites]
    return {c.check_id: c.evaluate(cfg, grid) for c in chosen}


def test_judged_entry_counts_are_frozen():
    counts = {}
    for check_id, ev in _evaluations(checks.SuiteConfig()).items():
        assert all(re.fullmatch(r"[a-z][a-z0-9_]*", name) for name in ev.residuals), check_id
        counts[check_id] = sum(np.size(r) for r in ev.residuals.values())
    assert counts == _ENTRIES
    assert sum(counts.values()) == 2507


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


def test_seeded_samples_are_drawn_once_and_read_only(monkeypatch):
    rng = random.Random(5)
    want = np.array([2 * rng.random() - 1 for _ in range(12)]).reshape(3, 4)
    first = checks._samples(5, 3, 4)
    assert first.tobytes() == want.tobytes()
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    drawn = []

    class Counted(random.Random):
        def random(self):
            drawn.append(1)
            return super().random()

    monkeypatch.setattr(random, "Random", Counted)
    assert checks._samples(5, 3, 4) is first
    assert not drawn
    # the patch counts draws: a shape not asked for yet draws its values
    checks._samples(5, 1, 3)
    assert len(drawn) == 3


def test_results_are_json_serializable():
    for r in checks.run_checks(checks.SuiteConfig(suites=("linalg",))):
        json.dumps(r.to_dict())


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
    with np.errstate(invalid="ignore"):
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
