"""Single-particle Fock sector and the discrete symmetries acting on it.

States are finite complex combinations of labels (momentum tag, helicity,
branch); the momentum tag is an opaque integer whose negation is the
reflected momentum (tag 0 is its own reflection, the rest sector).  Branch
+1 is the particle tower, -1 the antiparticle tower.

Three unitaries act by permuting labels with unit phases: space inversion
(INVERSION), and two inequivalent charge-type conjugations, helicity
preserving (CHARGE) and helicity flipping (CHARGE_FLIP).  Each is one
constant SymmetryOp: a 4x4 unit-phase permutation of the (branch, helicity)
pairs plus a flag saying whether the momentum tag is negated.  Composition
is the matrix product with the flags xored, so squares and commutators are
matrix identities; matrix_on gives the 8x8 signed permutation on a moving
both-branch sector.  The same physics also appears as ladder-operator
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


# rows and columns of a SymmetryOp matrix: the (branch, helicity) pairs
_PAIRS = [(b, h) for b in (+1, -1) for h in HEL]
_INDEX = {pair: i for i, pair in enumerate(_PAIRS)}


@dataclass(frozen=True, eq=False)
class SymmetryOp:
    """Unitary acting on labels as one fixed matrix plus a reflection flag.

    `matrix` is a 4x4 unit-phase permutation of the (branch, helicity)
    pairs ordered as _PAIRS: column j holds the image of pair j and its
    phase.  `reflects` says whether the momentum tag is negated.
    """

    name: str
    matrix: np.ndarray
    reflects: bool

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        # four nonzeros and unitary: one unit phase in each row and column
        if m.shape != (4, 4) or np.count_nonzero(m) != 4:
            raise ValueError(f"{self.name}: not a permutation of the (branch, helicity) pairs")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"{self.name}: phases must be finite")
        if not np.max(np.abs(np.conjugate(m.T) @ m - np.eye(4))) <= 1e-12:
            raise ValueError(f"{self.name}: not a unit-phase permutation")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def _image(self, label: ModeLabel) -> tuple[tuple[int, str, int], complex]:
        """The (ptag, helicity, branch) fields of the image label, and its phase."""
        j = _INDEX[(label.branch, label.helicity)]
        i = int(np.flatnonzero(self.matrix[:, j])[0])
        branch, helicity = _PAIRS[i]
        ptag = -label.ptag if self.reflects else label.ptag
        return (ptag, helicity, branch), complex(self.matrix[i, j])

    def rule(self, label: ModeLabel) -> tuple[ModeLabel, complex]:
        fields, phase = self._image(label)
        return ModeLabel(*fields), phase

    def apply(self, vec: FockVector) -> FockVector:
        out: dict = {}
        for label, amp in vec.items():
            tgt, phase = self.rule(label)
            out[tgt] = out.get(tgt, 0.0) + phase * amp
        return FockVector(out)

    def matrix_on(self, labels) -> np.ndarray:
        """Matrix in the given ordered basis; errors if the image leaks out."""
        labels = list(labels)
        index = {(l.ptag, l.helicity, l.branch): i for i, l in enumerate(labels)}
        m = np.zeros((len(labels), len(labels)), dtype=complex)
        for j, l in enumerate(labels):
            fields, phase = self._image(l)
            if fields not in index:
                raise KeyError(f"{self.name} maps {l} outside the basis")
            m[index[fields], j] = phase
        return m

    def compose(self, other: "SymmetryOp") -> "SymmetryOp":
        """self after other."""
        return SymmetryOp(
            f"{self.name}.{other.name}", self.matrix @ other.matrix, self.reflects != other.reflects
        )


# p -> -p, helicity flips, branch kept; phases +i on up, -i on dn
INVERSION = SymmetryOp(
    "inversion", [[0, -1j, 0, 0], [1j, 0, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]], reflects=True
)
# branch swap keeping helicity: +1 out of particles, -1 back
CHARGE = SymmetryOp(
    "charge", [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], reflects=False
)
# branch swap with helicity flip: -1 out of particles, +1 back
CHARGE_FLIP = SymmetryOp(
    "charge_flip", [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]], reflects=False
)


def both_branch_labels(ptag: int):
    tags = (ptag,) if ptag == 0 else (ptag, -ptag)
    return [ModeLabel(t, h, b) for b in (+1, -1) for t in tags for h in HEL]


def single_branch_labels(ptag: int):
    if ptag == 0:
        raise ValueError("the single-branch certificate needs a moving momentum")
    return [ModeLabel(t, h, +1) for t in (ptag, -ptag) for h in HEL]


def squares_report(ops) -> dict:
    """The scalar c of op^2 = c * identity for each op; errors unless op^2
    is that scalar (a square never reflects, so its matrix decides)."""
    out = {}
    for op in ops:
        sq = op.matrix @ op.matrix
        c = complex(np.round(sq[0, 0], 12))
        if np.max(np.abs(sq - c * np.eye(4))) > 1e-12:
            raise ValueError(f"{op.name}^2 is not a scalar: {sq}")
        out[op.name] = c
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


def operator_state_consistency() -> dict:
    """U |mode> computed through U c^dag U^{-1} |0> vs the label action.

    The vacuum is invariant with phase +1, so the two routes must agree
    term by term.  Also reports the one displayed inversion rule whose
    right-hand side, read with an annihilation symbol, would kill the
    vacuum instead of reproducing the state action.
    """
    gaps = []
    for op in (INVERSION, CHARGE, CHARGE_FLIP):
        rule = operator_rule(op.name)
        for h in HEL:
            for branch, kind in ((+1, "a"), (-1, "b")):
                sym = LadderSymbol(kind, h, True, 1)
                new, phase = rule(sym)
                if not new.dagger:
                    raise AssertionError("creation rule lost its dagger")
                created = ModeLabel(new.ptag, new.helicity, +1 if new.kind == "a" else -1)
                via_ops = FockVector({created: phase})
                direct = op.apply(FockVector.basis(ModeLabel(1, h, branch)))
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
    out = {}
    for sign, tag in ((+1, "plus"), (-1, "minus")):
        vec = FockVector({ModeLabel(ptag, "up", +1): 1.0, ModeLabel(ptag, "dn", +1): sign * 1j})
        reflected = FockVector(
            {ModeLabel(-ptag, "up", +1): 1.0, ModeLabel(-ptag, "dn", +1): sign * 1j}
        )
        out[tag] = {
            "eigenvalue": sign,
            "residual": INVERSION.apply(vec).sub(reflected.scale(sign)).norm(),
        }
    return out


def charge_eigencombos() -> dict:
    """|p,h>^+ +- i |p,h>^- are eigenvectors of the branch swap with
    eigenvalues -+i."""
    out = {}
    for h in HEL:
        for sign, tag in ((+1, "plus"), (-1, "minus")):
            vec = FockVector({ModeLabel(1, h, +1): 1.0, ModeLabel(1, h, -1): sign * 1j})
            lam = -sign * 1j
            out[f"{h}_{tag}"] = {
                "eigenvalue": lam,
                "residual": CHARGE.apply(vec).sub(vec.scale(lam)).norm(),
            }
    return out


def _joint_margin(a: SymmetryOp, b: SymmetryOp, labels, columns) -> dict:
    """Smallest singular value of [(A - la) S; (B - lb) S] over all unit
    phases (la, lb), S selecting the `columns` of `labels`, and the pair
    `at` where it is reached.

    It bounds min ||(A - la)v||^2 + ||(B - lb)v||^2 over unit v in the span
    of the columns: a joint eigenvector there would make it 0.  A and B are
    unitary with scalar squares c_A and c_B, so its square is the smallest
    eigenvalue of S^H (4 - conj(la) A - la A^H - conj(lb) B - lb B^H) S.  For
    the two pairs certified here that is a closed form whose minimum over
    the torus lies at the eigenvalue pairs (+-sqrt(c_A), +-sqrt(c_B))
    (proved in tests/test_fock.py), so one batched SVD at those four pairs
    gives it.  `at` is the first minimizing pair, principal roots first.
    """
    sel = np.eye(len(labels))[:, [labels.index(c) for c in columns]]
    a_sel, b_sel = a.matrix_on(labels) @ sel, b.matrix_on(labels) @ sel
    squares = squares_report([a, b])
    ra, rb = (complex(np.sqrt(squares[op.name])) for op in (a, b))
    pairs = [(la, lb) for la in (ra, -ra) for lb in (rb, -rb)]
    la, lb = np.array(pairs).T[..., None, None]  # each of shape (4, 1, 1)
    stack = np.concatenate([a_sel - la * sel, b_sel - lb * sel], axis=1)
    s = np.linalg.svd(stack, compute_uv=False)[:, -1]
    k = int(np.argmin(s))
    return {"min_singular_value": float(s[k]), "at": pairs[k]}


def simultaneous_eigen_certificate() -> dict:
    """Margin against a joint inversion/branch-swap eigenvector in the
    single-branch sector span{|+-p, h>^+}.

    The branch swap sends every term out of the sector with unit
    amplitude, so ||(swap - lc)v||^2 = 1 + |lc|^2 = 2, and inversion keeps
    the sector: at the inversion phase exp(ix) the squared margin is
    4 - 2|cos x|, whose minimum 2 is reached at the inversion eigenvalues
    +-1, whatever lc is."""
    return _joint_margin(INVERSION, CHARGE, both_branch_labels(1), single_branch_labels(1))


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
    return {
        "inversion_residual": INVERSION.apply(v).sub(v).norm(),
        "charge_residual": CHARGE.apply(v).sub(v.scale(1j)).norm(),
        "charge_eigenvalue": 1j,
    }


def anticommuting_pair_margin() -> dict:
    """Joint-eigenvector margin for the anticommuting pair (helicity
    flipping swap, inversion) on the full both-branch sector.

    The Hermitian parts of the two terms anticommute and square to
    4 sin^2 x and 4 cos^2 y at (la, lb) = (exp(ix), exp(iy)), so the squared
    margin is 4 - 2 sqrt(sin^2 x + cos^2 y).  Its minimum, 4 - 2 sqrt(2),
    is reached only at the eigenvalue pairs la = +-i, lb = +-1; the margin
    there is sqrt(4 - 2 sqrt(2)) ~ 1.082."""
    labels = both_branch_labels(1)
    return _joint_margin(CHARGE_FLIP, INVERSION, labels, labels)
