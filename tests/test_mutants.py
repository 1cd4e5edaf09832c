"""The mutation table: every judged check FAILs at the default config under
at least one in-process mutant of the family, an operator or a fixed
matrix, and every judged residual and predicate moves under one or is
listed as not yet moved.  A second probe makes every spinor a run builds
seeded noise: every judged entry of a check that asks for a grid must move,
or be listed as blind to the grid.  A third builds every family from noisy
two-spinors through the lambda/rho layout: nothing outside that list may
stay in place, since the layout laws are judged on bases.  The mutants are
planted here with
monkeypatch; the package carries no mutation knob and no check builds a
mutant of its own."""

import functools

import numpy as np
import pytest
from test_fock import MATRIX_MUTANTS

from selfconj import checks, fieldops, fock, halfspin, linalg, spin1
from selfconj.halfspin import LAM_S, RHO_S

_MODULES = (linalg, halfspin, spin1, fieldops, fock, checks)


def _constant(module, name, value):
    """Plant `value` for a module constant under every name that binds it."""

    def plant(monkeypatch):
        original = getattr(module, name)
        for m in _MODULES:
            if vars(m).get(name) is original:
                monkeypatch.setattr(m, name, linalg.frozen(value(original)))

    return plant


def _family(change):
    """Every grid a run builds, with `change` applied to a copy of its family."""

    def plant(monkeypatch):
        build = halfspin.SpinorGrid.build.__func__

        def mutant(cls, *args):
            g = build(cls, *args)
            family = g.family.copy()
            change(family)
            return g._replace(family=family)

        monkeypatch.setattr(halfspin.SpinorGrid, "build", classmethod(mutant))

    return plant


def _energy_times(factor):
    """Every grid a run builds, with its energies multiplied by `factor`."""

    def plant(monkeypatch):
        build = halfspin.SpinorGrid.build.__func__

        def mutant(cls, mass, pmag, theta, phi, energy, conv):
            return build(cls, mass, pmag, theta, phi, energy * factor, conv)

        monkeypatch.setattr(halfspin.SpinorGrid, "build", classmethod(mutant))

    return plant


def _attribute(owner, name, value):
    return lambda monkeypatch: monkeypatch.setattr(owner, name, value)


def _together(*plants):
    """The mutant of all `plants` at once."""

    def plant(monkeypatch):
        for p in plants:
            p(monkeypatch)

    return plant


def _scale_lam_s_up(family):
    family[:, LAM_S.start] *= 1.5


def _negate_rho_s(family):
    family[:, RHO_S] *= -1


def _shift_lam_s_up_rest_phase(family):
    # lambda^S_up as built at theta1 + 0.5, every other member at theta1:
    # (i Theta conj(phi_L), phi_L) takes exp(-0.5 i) on top, exp(0.5 i) below
    family[:, LAM_S.start, :2] *= np.exp(-0.5j)
    family[:, LAM_S.start, 2:] *= np.exp(0.5j)


def _without_conjugate(op, v):
    return linalg.apply(op.matrix, np.asarray(v, dtype=complex))


_CONJUGATE_EXPANSION = fieldops.charge_conjugate_expansion


def _negated_creator_slot(x, conv=halfspin.PhaseConvention()):
    # the conjugate with its creator slot negated: then C^2 = -1, since the
    # second application negates the other slot
    return _CONJUGATE_EXPANSION(x, conv) * np.array([1.0, -1.0])[:, None, None]


def _polar_reflection(g):
    # theta -> pi - theta with the azimuth kept, not turned by pi: each row
    # reflects into its own half-plane, not the opposite one
    return type(g).build(g.mass, g.pmag, np.pi - g.theta, g.phi, g.energy, g.convention)


# the spin-1 conjugation with the sign of its lower block flipped: it squares
# to +1, like the twisted one
_SYMMETRIC_SPIN1_CONJUGATION = linalg.AntilinearOp(
    linalg.frozen(np.block([[spin1.Z3, spin1.THETA3], [spin1.THETA3, spin1.Z3]]))
)


def _phase_only_gauge(alpha):
    # exp(-i alpha) with no gamma^5: the rho map then no longer mirrors it
    return linalg.rowscale(np.exp(-1j * np.asarray(alpha))) * halfspin.ID4


def _symmetric_i_theta(i_theta):
    # +-i sigma_x in place of +-i Theta in the lambda/rho layout: the halves
    # +-i sigma_x conj(phi) are no longer the S^c partners of phi
    return np.array([1j, -1j])[:, None, None] * halfspin.SIGMA[0]


def _same_sign_i_theta(i_theta):
    # +i Theta for both families: lambda^A = lambda^S and rho^S = rho^A, so
    # half the members sit at the wrong S^c sign and the Gram layout breaks
    return np.array([1j, 1j])[:, None, None] * halfspin.THETA


def _one_phase_xi_factor(phi_p):
    # diag(e^{i phi}, e^{i phi}, e^{i phi}, e^{i phi}): on the meridian grid,
    # where e^{i phi} is +-1, it is the true factor
    e = np.exp(1j * np.asarray(phi_p))
    return linalg.diagonal(e, e, e, e)


# S^c with a linear conjugation breaks every statement about the
# conjugation but the massless scan's
_CONJUGATION_CHECKS = {
    "fieldops/conjugation-parity",
    "fieldops/mode-structure",
    "fieldops/quaternion-orbit",
    "fieldops/ziino-split",
    "halfspin/conjugation-eigenvalues",
    "halfspin/exchange-quadruple",
    "halfspin/gauge-orbit",
    "linalg/antilinear-algebra",
    "spin1/selfconjugacy-dichotomy",
}

# the checks of the phase maps' conjugation status
_ORBIT_CHECKS = {
    "fieldops/quaternion-orbit",
    "halfspin/exchange-quadruple",
    "halfspin/gauge-orbit",
}

# name: (how to plant the mutant, the checks that FAIL under it, those that
# FAIL because a library function refuses it)
MUTANTS = {
    "antilinear-op-without-conjugate": (
        _attribute(linalg.AntilinearOp, "__call__", _without_conjugate),
        _CONJUGATION_CHECKS,
        set(),
    ),
    # a doubled S^c still intertwines with every phase map, so the three
    # orbit checks, which judge S^c M = s M S^c, do not see it
    "doubled-conjugation-block": (
        _constant(halfspin, "_CONJUGATION_BLOCK", lambda m: 2 * m),
        (_CONJUGATION_CHECKS - _ORBIT_CHECKS - {"spin1/selfconjugacy-dichotomy"})
        | {"spin1/reality-classes"},
        {"linalg/antilinear-algebra"},
    ),
    "negated-creator-slot": (
        _attribute(fieldops, "charge_conjugate_expansion", _negated_creator_slot),
        {"fieldops/conjugation-parity", "fieldops/mode-structure", "fieldops/ziino-split"},
        set(),
    ),
    "unit-rest-scale": (
        _attribute(halfspin.PhaseConvention, "rest_scale", lambda conv, mass: np.ones_like(mass)),
        {"halfspin/massless-limit"},
        set(),
    ),
    "scaled-lambda-s-up": (
        _family(_scale_lam_s_up),
        {
            "fieldops/dirac-embedding",
            "halfspin/biorthonormality-structure",
            "halfspin/dirac-connection",
            "halfspin/dynamical-residuals",
            "halfspin/eigenstructure-split",
            "halfspin/exchange-quadruple",
        },
        set(),
    ),
    # the Dirac images (1 +- slash/m) lambda read no rho member, so the
    # embedding's Gram law does not see it
    "negated-rho-s": (
        _family(_negate_rho_s),
        {"halfspin/dynamical-residuals", "halfspin/eigenstructure-split"},
        set(),
    ),
    "shifted-lambda-s-up-rest-phase": (
        _family(_shift_lam_s_up_rest_phase),
        {
            "fieldops/dirac-embedding",
            "halfspin/biorthonormality-structure",
            "halfspin/dirac-connection",
            "halfspin/dynamical-residuals",
            "halfspin/eigenstructure-split",
            "halfspin/exchange-quadruple",
        },
        set(),
    ),
    # the layout itself: the basis checks build their families through it
    "symmetric-theta-layout": (
        _constant(halfspin, "_I_THETA", _symmetric_i_theta),
        {
            "fieldops/dirac-embedding",
            "fieldops/mode-structure",
            "fieldops/ziino-split",
            "halfspin/biorthonormality-structure",
            "halfspin/conjugation-eigenvalues",
            "halfspin/dirac-connection",
            "halfspin/dynamical-residuals",
            "halfspin/eigenstructure-split",
        },
        set(),
    ),
    "same-sign-theta-layout": (
        _constant(halfspin, "_I_THETA", _same_sign_i_theta),
        {
            "fieldops/dirac-embedding",
            "fieldops/mode-structure",
            "fieldops/ziino-split",
            "halfspin/biorthonormality-structure",
            "halfspin/conjugation-eigenvalues",
            "halfspin/dirac-connection",
            "halfspin/eigenstructure-split",
            "halfspin/exchange-quadruple",
        },
        set(),
    ),
    "polar-only-reflection": (
        _attribute(halfspin.SpinorGrid, "reflected", property(_polar_reflection)),
        {"halfspin/eigenstructure-split"},
        set(),
    ),
    # no grid row can see it, since every one has e^{i phi} = +-1: only the
    # exchange maps judged at phi = pi/2 do
    "one-phase-xi-factor": (
        _attribute(halfspin, "xi_factor", _one_phase_xi_factor),
        {"halfspin/exchange-quadruple"},
        set(),
    ),
    "phase-only-gauge-lambda": (
        _attribute(halfspin, "gauge_lambda", _phase_only_gauge),
        {"halfspin/gauge-orbit"},
        set(),
    ),
    "negated-sigma": (
        _constant(halfspin, "SIGMA", lambda m: -m),
        {
            "halfspin/eigenstructure-split",
            "halfspin/helicity-spinors",
            "halfspin/second-order-tensors",
            "linalg/kron-mixed-product",
        },
        set(),
    ),
    "tilde-pair-as-sigma": (
        _constant(halfspin, "FGM_TILDE", lambda m: halfspin.FGM_SIGMA),
        {"halfspin/second-order-tensors"},
        set(),
    ),
    # E off shell by one part in 2**20: p.p - m^2 is then about 2**-19 E^2;
    # the reflected grid is built from the grid's energies, so its E is off
    # twice over, and the parity law sees the two grids disagree
    "off-shell-energy": (
        _energy_times(1 + 2**-20),
        {
            "fieldops/dirac-embedding",
            "halfspin/dynamical-residuals",
            "halfspin/eigenstructure-split",
            "spin1/on-shell-contraction",
        },
        set(),
    ),
    "negated-mr-five": (
        _constant(spin1, "MR_FIVE", lambda m: -m),
        {"spin1/chirality-flip", "spin1/majorana-real-family"},
        set(),
    ),
    "conjugated-majorana-u": (
        _constant(spin1, "MAJORANA_U", np.conjugate),
        {"spin1/majorana-unitarity"},
        set(),
    ),
    "negated-j2": (
        _constant(spin1, "J2", lambda m: -m),
        {"spin1/on-shell-contraction", "spin1/wigner-theta"},
        set(),
    ),
    "symmetric-spin1-conjugation": (
        _attribute(spin1, "CONJUGATION", _SYMMETRIC_SPIN1_CONJUGATION),
        {"spin1/selfconjugacy-dichotomy"},
        set(),
    ),
    # the plain conjugation in place of the twisted one
    "untwisted-conjugation": (
        _attribute(spin1, "TWISTED_CONJUGATION", spin1.CONJUGATION),
        {"spin1/reality-classes", "spin1/selfconjugacy-dichotomy"},
        set(),
    ),
    "negated-theta3": (
        _constant(spin1, "THETA3", lambda m: -m),
        {"spin1/transverse-reality"},
        set(),
    ),
    "scaled-majorana-frames": (
        _together(
            _constant(spin1, "HALF_MAJORANA_FRAME", lambda m: 2 * m),
            _constant(spin1, "CHIRAL_TO_MAJORANA", lambda m: 2 * m),
        ),
        # to_majorana_rep reads the spin-1 frame too
        {"spin1/majorana-real-family", "spin1/reality-classes"},
        set(),
    ),
}


def statuses():
    return {r.check_id: r for r in checks.run_checks(checks.SuiteConfig())}


@pytest.mark.parametrize("name", MUTANTS)
def test_a_mutant_fails_its_checks(monkeypatch, name):
    plant, fails, refusals = MUTANTS[name]
    assert "fail" not in {r.status for r in statuses().values()}
    plant(monkeypatch)
    results = statuses()
    assert {i for i, r in results.items() if r.status == "fail"} == fails
    assert {i for i, r in results.items() if "error" in r.values} == refusals


def test_every_judged_check_has_a_mutant():
    judged = {i for i, r in statuses().items() if r.tol is not None}
    covered = set.union(*(fails for _, fails, _ in MUTANTS.values()))
    # the fock checks have their matrix mutants in tests/test_fock.py
    rest = {i for i in judged if i.startswith("fock/")}
    assert covered == judged - rest


# The judged residuals and predicates, as "<check id>:<name>", that no
# mutant here or in test_fock.MATRIX_MUTANTS moves by more than 1e-9 at the
# default config.  A check that a mutant makes refuse moves none of its
# residuals: the refusal, not the residual, fails it.  Each name is open
# debt: a mutant that moves it, or its deletion with a proof that it
# restates its own construction, takes it off the list.
UNMOVED = {
    "fieldops/quaternion-orbit:orbit_group_law",
    "fieldops/ziino-split:displayed_oracle",
    "fock/squares-and-commutation:charge_flip_square",
    "fock/squares-and-commutation:inversion_square",
    "fock/state-tables:unitary",
    "halfspin/exchange-quadruple:squares +1, -1, -1, -1",
    "halfspin/helicity-spinors:along_x",
    "halfspin/helicity-spinors:unit_norm",
    "halfspin/massless-limit:ratio at the smallest mass within the bound",
    "halfspin/massless-limit:ratio falls with the mass",
    "linalg/antilinear-algebra:conjugation_square",
    "linalg/antilinear-algebra:rotation_square",
    "spin1/majorana-real-family:family_imag_parts",
    "spin1/majorana-unitarity:u_udagger",
    "spin1/wigner-theta:conjugates_j",
    "spin1/wigner-theta:involution",
}


def judged_entries(grid_users: set | None = None) -> dict:
    """Every judged residual and predicate of a default run that evaluated,
    by "<check id>:<name>": a float array, a predicate 1.0 or 0.0.  The ids
    of the checks that ask for a grid are added to `grid_users`."""
    evaluations = {}
    users = set() if grid_users is None else grid_users

    def recording(check):
        def evaluate(cfg, grid):
            def asked(*phases):
                users.add(check.check_id)
                return grid(*phases)

            evaluations[check.check_id] = ev = check.evaluate(cfg, asked)
            return ev

        return check._replace(evaluate=evaluate)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "_REGISTRY", [recording(c) for c in checks._REGISTRY])
        results = checks.run_checks(checks.SuiteConfig())
    out = {}
    for r in results:
        if r.tol is None or r.check_id not in evaluations:
            continue
        ev = evaluations[r.check_id]
        for name, value in (ev.residuals | ev.predicates).items():
            out[f"{r.check_id}:{name}"] = np.asarray(value, dtype=float)
    return out


def _moved(clean: np.ndarray, mutant: np.ndarray) -> bool:
    if clean.shape != mutant.shape:
        return True
    with np.errstate(invalid="ignore"):  # inf - inf is NaN: equal, not moved
        far = np.abs(mutant - clean) > 1e-9
    return bool((far | (np.isnan(mutant) != np.isnan(clean))).any())


def test_every_judged_residual_moves_under_a_mutant_or_is_listed():
    clean = judged_entries()
    plants = [plant for plant, _, _ in MUTANTS.values()]
    plants += [
        lambda mp, attr=attr, mutant=mutant: mp.setattr(fock, attr, mutant())
        for attr, mutant, _, _ in MATRIX_MUTANTS.values()
    ]
    unmoved = set(clean)
    for plant in plants:
        with pytest.MonkeyPatch.context() as mp:
            plant(mp)
            got = judged_entries()
        unmoved -= {k for k in unmoved if k in got and _moved(clean[k], got[k])}
    assert unmoved == UNMOVED


def test_a_shifted_rest_phase_breaks_the_gram_law(monkeypatch):
    # lambda^S_up at theta1 + 0.5 has the image of that phase, so the
    # positive images' Gram matrix reads cos(S + 0.5) where the law reads
    # cos S = 1: a miss of 1 - cos 0.5 on each off-diagonal entry
    plant, _, _ = MUTANTS["shifted-lambda-s-up-rest-phase"]
    plant(monkeypatch)
    cfg = checks.SuiteConfig()
    gram = fieldops.dirac_from_majorana(halfspin.build_spinor_grid(cfg.momenta()))["gram_residual"]
    want = np.sqrt(2) * (1 - np.cos(0.5))
    assert gram[:, 0] == pytest.approx(np.full(len(gram), want), rel=1e-12)
    assert gram[:, 1].max() < 1e-14  # lambda^A and rho^S are untouched


def test_negated_rho_s_misses_the_third_relation_by_2m_rho(monkeypatch):
    cfg = checks.SuiteConfig()
    g = halfspin.build_spinor_grid(cfg.momenta(), cfg.convention)
    want = 2 * g.mass[0] * np.linalg.norm(g.family[0, RHO_S], axis=-1)
    plant, _, _ = MUTANTS["negated-rho-s"]
    plant(monkeypatch)
    assert statuses()["halfspin/dynamical-residuals"].status == "fail"
    # with rho^S negated, r3 measures slash(p) lambda^A + m rho^S, helicity
    # by helicity
    mutant = halfspin.build_spinor_grid(cfg.momenta(), cfg.convention)
    r3 = halfspin.dynamical_residuals(mutant)["r3"][0]
    assert r3 == pytest.approx(want, rel=1e-12)
    assert r3.max() == pytest.approx(3.5978148798957346, rel=1e-12)


def _random_spinors(monkeypatch, layout=False):
    """Every grid's left and right and every six-spinor replaced by seeded
    random complex arrays of their shapes, and every grid's family too, or
    with `layout` rebuilt from the random left and right through
    halfspin.family_of; the kinematics stay."""
    rng = np.random.default_rng(20261020)

    def noise(a):
        return rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)

    build = halfspin.SpinorGrid.build.__func__

    def mutant(cls, *args):
        g = build(cls, *args)
        left, right = noise(g.left), noise(g.right)
        family = halfspin.family_of(np.stack([left, right], axis=1)) if layout else noise(g.family)
        return g._replace(family=family, left=left, right=right)

    monkeypatch.setattr(halfspin.SpinorGrid, "build", classmethod(mutant))
    six = spin1.weinberg_u
    monkeypatch.setattr(spin1, "weinberg_u", lambda p: noise(six(p)))


# The judged residuals and predicates of the checks that ask for a grid
# which no grid can move: each stays within 1e-9 when every grid's spinors
# and every six-spinor are seeded random arrays.  A new one fails the suite
# until it is listed here under its reason.  There is no open-debt group: a
# law that no spinor can move is judged once, on a basis or on fixed
# matrices, or deleted with its proof.
GRID_BLIND = {
    # fixed matrices, judged beside the grid
    "halfspin/exchange-quadruple:image_sign",
    "halfspin/exchange-quadruple:squares +1, -1, -1, -1",
    "halfspin/helicity-spinors:along_x",
    "spin1/wigner-theta:conjugates_j",
    "spin1/wigner-theta:involution",
    # layout laws judged on a basis beside the grid: the Gram laws on the
    # unit phi_L and their pairwise sums, the split on the unit phi_L
    "fieldops/ziino-split:split",
    "halfspin/biorthonormality-structure:antisymmetry",
    "halfspin/biorthonormality-structure:diagonal",
    "halfspin/biorthonormality-structure:rho_mirrors_lambda",
    # the grid's directions alone
    "halfspin/helicity-spinors:eigen",
    "halfspin/helicity-spinors:unit_norm",
    "spin1/wigner-theta:triad",
}


def _blind(plant) -> set:
    """The judged names of the checks that ask for a grid that stay within
    1e-9 under `plant`."""
    users = set()
    clean = judged_entries(users)
    with pytest.MonkeyPatch.context() as mp:
        plant(mp)
        got = judged_entries()
    return {
        k
        for k in clean
        if k.split(":")[0] in users and not (k in got and _moved(clean[k], got[k]))
    }


def test_every_grid_residual_sees_the_spinors_or_is_listed():
    assert _blind(_random_spinors) == GRID_BLIND


def test_every_grid_residual_sees_the_two_spinors_or_is_listed():
    # every grid's left and right are seeded random arrays and its family is
    # rebuilt from them through halfspin.family_of, so the lambda/rho layout
    # still holds: a name that stays put restates the layout rather than
    # judging the grid, and none may outside GRID_BLIND, since the layout
    # laws are judged once on bases
    blind = _blind(functools.partial(_random_spinors, layout=True))
    assert blind - GRID_BLIND == set()


def test_the_layout_checks_ask_for_no_grid_and_no_check_draws_samples():
    # judged on the unit two-spinors, the unit vectors of C^4 and the frames
    users = set()
    judged_entries(users)
    basis = {
        "fieldops/mode-structure",
        "halfspin/conjugation-eigenvalues",
        "linalg/antilinear-algebra",
        "spin1/reality-classes",
    }
    assert not users & basis
    assert "random" not in vars(checks)
