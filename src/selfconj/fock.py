"""Single-particle Fock sector and the discrete symmetries acting on it.

States are finite complex combinations of labels (momentum tag, helicity,
branch); the momentum tag is an opaque integer whose negation is the
reflected momentum (tag 0 is its own reflection, the rest sector).  Branch
+1 is the particle tower, -1 the antiparticle tower.

Three unitaries act by permuting labels with unit phases: space inversion,
and two inequivalent charge-type conjugations (helicity preserving and
helicity flipping).  The same physics also appears as ladder-operator
rules; operator_state_consistency ties the two presentations together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

HEL = ("up", "dn")


@dataclass(frozen=True, order=True)
class ModeLabel:
    ptag: int
    helicity: str
    branch: int

    def __post_init__(self):
        if self.helicity not in HEL:
            raise ValueError("helicity must be 'up' or 'dn'")
        if self.branch not in (+1, -1):
            raise ValueError("branch must be +1 or -1")


def _flip(h: str) -> str:
    return "dn" if h == "up" else "up"


class FockVector:
    """Immutable finite combination of mode labels.

    Zero amplitudes are pruned on construction so equality and support are
    well defined.
    """

    __slots__ = ("_amps",)

    def __init__(self, amps: dict | None = None):
        clean = {}
        for label, amp in (amps or {}).items():
            if not isinstance(label, ModeLabel):
                raise TypeError("keys must be ModeLabel")
            a = complex(amp)
            if a != 0:
                clean[label] = a
        self._amps = clean

    @classmethod
    def basis(cls, label: ModeLabel) -> "FockVector":
        return cls({label: 1.0})

    def items(self):
        return sorted(self._amps.items())

    def amplitude(self, label: ModeLabel) -> complex:
        return self._amps.get(label, 0.0)

    @property
    def support(self):
        return frozenset(self._amps)

    def scale(self, c: complex) -> "FockVector":
        return FockVector({l: c * a for l, a in self._amps.items()})

    def add(self, other: "FockVector") -> "FockVector":
        out = dict(self._amps)
        for l, a in other._amps.items():
            out[l] = out.get(l, 0.0) + a
        return FockVector(out)

    def sub(self, other: "FockVector") -> "FockVector":
        return self.add(other.scale(-1.0))

    def inner(self, other: "FockVector") -> complex:
        return sum(
            np.conjugate(a) * other._amps.get(l, 0.0) for l, a in self._amps.items()
        )

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for a in self._amps.values())))

    def __eq__(self, other):
        return isinstance(other, FockVector) and self._amps == other._amps

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self):
        terms = ", ".join(f"{l}: {a}" for l, a in self.items())
        return f"FockVector({{{terms}}})"


@dataclass(frozen=True)
class SymmetryOp:
    """Unitary acting on labels: label -> (label', unit phase)."""

    name: str
    rule: Callable[[ModeLabel], tuple[ModeLabel, complex]]

    def apply(self, vec: FockVector) -> FockVector:
        out: dict = {}
        for label, amp in vec.items():
            tgt, phase = self.rule(label)
            if abs(abs(phase) - 1.0) > 1e-12:
                raise ValueError(f"{self.name}: non-unit phase on {label}")
            out[tgt] = out.get(tgt, 0.0) + phase * amp
        return FockVector(out)

    def matrix_on(self, labels) -> np.ndarray:
        """Matrix in the given ordered basis; errors if the image leaks out."""
        labels = list(labels)
        index = {l: i for i, l in enumerate(labels)}
        m = np.zeros((len(labels), len(labels)), dtype=complex)
        for j, l in enumerate(labels):
            tgt, phase = self.rule(l)
            if tgt not in index:
                raise KeyError(f"{self.name} maps {l} outside the basis")
            m[index[tgt], j] = phase
        return m

    def compose(self, other: "SymmetryOp") -> "SymmetryOp":
        def rule(label):
            mid, ph1 = other.rule(label)
            end, ph2 = self.rule(mid)
            return end, ph1 * ph2

        return SymmetryOp(f"{self.name}.{other.name}", rule)


def space_inversion() -> SymmetryOp:
    """p -> -p, helicity flips, branch kept; phases +i on up, -i on dn."""

    def rule(l: ModeLabel):
        return (
            ModeLabel(-l.ptag, _flip(l.helicity), l.branch),
            1j if l.helicity == "up" else -1j,
        )

    return SymmetryOp("inversion", rule)


def charge_conjugation_v1() -> SymmetryOp:
    """Branch swap keeping helicity: +1 out of particles, -1 back."""

    def rule(l: ModeLabel):
        return ModeLabel(l.ptag, l.helicity, -l.branch), (1.0 if l.branch == +1 else -1.0)

    return SymmetryOp("charge", rule)


def charge_conjugation_v2() -> SymmetryOp:
    """Branch swap with helicity flip: -1 out of particles, +1 back."""

    def rule(l: ModeLabel):
        return (
            ModeLabel(l.ptag, _flip(l.helicity), -l.branch),
            -1.0 if l.branch == +1 else 1.0,
        )

    return SymmetryOp("charge_flip", rule)


def both_branch_labels(ptag: int):
    tags = (ptag,) if ptag == 0 else (ptag, -ptag)
    return [ModeLabel(t, h, b) for b in (+1, -1) for t in tags for h in HEL]


def single_branch_labels(ptag: int):
    if ptag == 0:
        raise ValueError("the single-branch certificate needs a moving momentum")
    return [ModeLabel(t, h, +1) for t in (ptag, -ptag) for h in HEL]


def squares_report(ops, labels) -> dict:
    """Phase of op^2 on each label; errors unless op^2 is that scalar."""
    out = {}
    for op in ops:
        sq = op.compose(op)
        phases = set()
        for l in labels:
            tgt, ph = sq.rule(l)
            if tgt != l:
                raise ValueError(f"{op.name}^2 moves {l}")
            phases.add(complex(np.round(ph, 12)))
        if len(phases) != 1:
            raise ValueError(f"{op.name}^2 is not a scalar: {phases}")
        out[op.name] = phases.pop()
    return out


def commutator_report(a: SymmetryOp, b: SymmetryOp, labels) -> dict:
    ma, mb = a.matrix_on(labels), b.matrix_on(labels)
    return {
        "commutator": float(np.max(np.abs(ma @ mb - mb @ ma))),
        "anticommutator": float(np.max(np.abs(ma @ mb + mb @ ma))),
    }


# ---------------------------------------------------------------------------
# ladder-operator presentation


@dataclass(frozen=True)
class LadderSymbol:
    kind: str  # 'a' particle, 'b' antiparticle
    helicity: str
    dagger: bool
    ptag: int

    def __post_init__(self):
        if self.kind not in ("a", "b"):
            raise ValueError("kind must be 'a' or 'b'")
        if self.helicity not in HEL:
            raise ValueError("helicity must be 'up' or 'dn'")


# (kind, helicity, dagger) -> (kind', helicity', dagger', negate ptag, phase)
_OPERATOR_RULES = {
    "inversion": {
        ("a", "up", False): ("a", "dn", False, True, -1j),
        ("a", "dn", False): ("a", "up", False, True, +1j),
        ("a", "up", True): ("a", "dn", True, True, +1j),
        ("a", "dn", True): ("a", "up", True, True, -1j),
        ("b", "up", False): ("b", "dn", False, True, -1j),
        ("b", "dn", False): ("b", "up", False, True, +1j),
        # the spin-down creation rule is taken in creation form; see
        # operator_state_consistency for the annihilation-form reading
        ("b", "up", True): ("b", "dn", True, True, +1j),
        ("b", "dn", True): ("b", "up", True, True, -1j),
    },
    "charge": {
        ("a", "up", False): ("b", "up", False, False, 1.0),
        ("a", "dn", False): ("b", "dn", False, False, 1.0),
        ("a", "up", True): ("b", "up", True, False, 1.0),
        ("a", "dn", True): ("b", "dn", True, False, 1.0),
        ("b", "up", False): ("a", "up", False, False, -1.0),
        ("b", "dn", False): ("a", "dn", False, False, -1.0),
        ("b", "up", True): ("a", "up", True, False, -1.0),
        ("b", "dn", True): ("a", "dn", True, False, -1.0),
    },
    "charge_flip": {
        ("a", "up", False): ("b", "dn", False, False, -1.0),
        ("a", "dn", False): ("b", "up", False, False, -1.0),
        ("a", "up", True): ("b", "dn", True, False, -1.0),
        ("a", "dn", True): ("b", "up", True, False, -1.0),
        ("b", "up", False): ("a", "dn", False, False, 1.0),
        ("b", "dn", False): ("a", "up", False, False, 1.0),
        ("b", "up", True): ("a", "dn", True, False, 1.0),
        ("b", "dn", True): ("a", "up", True, False, 1.0),
    },
}


def operator_rule(name: str) -> Callable[[LadderSymbol], tuple[LadderSymbol, complex]]:
    """U X U^{-1} for ladder symbols, as (new symbol, phase)."""
    table = _OPERATOR_RULES[name]

    def rule(sym: LadderSymbol):
        k, h, d, neg, phase = table[(sym.kind, sym.helicity, sym.dagger)]
        return LadderSymbol(k, h, d, -sym.ptag if neg else sym.ptag), phase

    return rule


_STATE_OPS = {
    "inversion": space_inversion,
    "charge": charge_conjugation_v1,
    "charge_flip": charge_conjugation_v2,
}


def operator_state_consistency(ptag: int = 1) -> dict:
    """U |mode> computed through U c^dag U^{-1} |0> vs the label action.

    The vacuum is invariant with phase +1, so the two routes must agree
    term by term.  Also reports the one displayed inversion rule whose
    right-hand side, read with an annihilation symbol, would kill the
    vacuum instead of reproducing the state action.
    """
    gaps = []
    for name, mk in _STATE_OPS.items():
        op = mk()
        rule = operator_rule(name)
        for h in HEL:
            for branch, kind in ((+1, "a"), (-1, "b")):
                sym = LadderSymbol(kind, h, True, ptag)
                new, phase = rule(sym)
                if not new.dagger:
                    raise AssertionError("creation rule lost its dagger")
                via_ops = FockVector(
                    {
                        ModeLabel(
                            new.ptag, new.helicity, +1 if new.kind == "a" else -1
                        ): phase
                    }
                )
                direct = op.apply(FockVector.basis(ModeLabel(ptag, h, branch)))
                gaps.append(via_ops.sub(direct).norm())
    return {
        "max_residual": float(np.max(gaps)),
        "annihilation_form_note": (
            "the spin-down antiparticle inversion rule is used in creation "
            "form; the annihilation form maps the state to zero"
        ),
    }


# ---------------------------------------------------------------------------
# eigencombinations and the (non)existence certificate


def parity_eigencombos(ptag: int) -> dict:
    """|p,up>^+ +- i |p,dn>^+ under inversion.

    At ptag 0 these are honest +-1 eigenvectors; at moving tags the same
    combinations come back reflected with the same signs.
    """
    inv = space_inversion()
    out = {}
    for sign, tag in ((+1, "plus"), (-1, "minus")):
        vec = FockVector(
            {
                ModeLabel(ptag, "up", +1): 1.0,
                ModeLabel(ptag, "dn", +1): sign * 1j,
            }
        )
        reflected = FockVector(
            {
                ModeLabel(-ptag, "up", +1): 1.0,
                ModeLabel(-ptag, "dn", +1): sign * 1j,
            }
        )
        out[tag] = {
            "eigenvalue": sign,
            "residual": inv.apply(vec).sub(reflected.scale(sign)).norm(),
        }
    return out


def charge_eigencombos(ptag: int) -> dict:
    """|p,h>^+ +- i |p,h>^- are eigenvectors of the branch swap with
    eigenvalues -+i."""
    ch = charge_conjugation_v1()
    out = {}
    for h in HEL:
        for sign, tag in ((+1, "plus"), (-1, "minus")):
            vec = FockVector(
                {
                    ModeLabel(ptag, h, +1): 1.0,
                    ModeLabel(ptag, h, -1): sign * 1j,
                }
            )
            lam = -sign * 1j
            out[f"{h}_{tag}"] = {
                "eigenvalue": lam,
                "residual": ch.apply(vec).sub(vec.scale(lam)).norm(),
            }
    return out


def simultaneous_eigen_certificate(ptag: int = 1, grid: int = 100) -> dict:
    """Margin against a joint inversion/branch-swap eigenvector in the
    single-branch sector.

    For v in span{|+-p, h>^+}: the branch swap sends every term out of the
    sector with unit amplitude, so the stacked conditions
    [inversion - ls; swap off-branch block; -lc] have smallest singular
    value sqrt(1 + |lc|^2) = sqrt(2) for every pair of unit eigenvalue
    phases; scanned on a grid x grid phase lattice.
    """
    labels = single_branch_labels(ptag)
    inv4 = space_inversion().matrix_on(labels)
    eye = np.eye(len(labels))
    phases = np.exp(2j * np.pi * np.arange(grid) / grid)
    best = np.inf
    for ls in phases:
        top = inv4 - ls * eye
        for lc in phases:
            stack = np.vstack([top, eye, -lc * eye])
            s = np.linalg.svd(stack, compute_uv=False)[-1]
            best = min(best, float(s))
    return {"min_singular_value": best, "grid": grid * grid}


def both_branch_joint_eigenvector() -> dict:
    """On the rest sector with both branches the two unitaries commute and
    a joint eigenvector exists explicitly; its residuals are returned so
    the single-branch nonexistence is not mistaken for a global statement."""
    v = FockVector(
        {
            ModeLabel(0, "up", +1): 1.0,
            ModeLabel(0, "dn", +1): 1j,
            ModeLabel(0, "up", -1): -1j,
            ModeLabel(0, "dn", -1): 1.0,
        }
    )
    inv = space_inversion()
    ch = charge_conjugation_v1()
    return {
        "inversion_residual": inv.apply(v).sub(v).norm(),
        "charge_residual": ch.apply(v).sub(v.scale(1j)).norm(),
        "charge_eigenvalue": 1j,
    }


def anticommuting_pair_margin(ptag: int = 1, grid: int = 40) -> dict:
    """Joint-eigenvector margin for the anticommuting pair (helicity
    flipping swap, inversion) on the full both-branch sector.

    Anticommutation forces ||(A - la)v|| + ||(B - lb)v|| >= 1 for unit
    vectors, so the stacked smallest singular value stays above
    1/sqrt(2) ~ 0.707 whatever the phases."""
    labels = both_branch_labels(ptag)
    a = charge_conjugation_v2().matrix_on(labels)
    b = space_inversion().matrix_on(labels)
    eye = np.eye(len(labels))
    phases = np.exp(2j * np.pi * np.arange(grid) / grid)
    best = np.inf
    for la in phases:
        top = a - la * eye
        for lb in phases:
            stack = np.vstack([top, b - lb * eye])
            s = np.linalg.svd(stack, compute_uv=False)[-1]
            best = min(best, float(s))
    return {"min_singular_value": best, "grid": grid * grid}
