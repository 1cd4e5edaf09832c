"""Single-particle Fock sector and the discrete symmetries acting on it.

The sector is one fixed basis.  A mode is (momentum tag, helicity, branch):
tag +1 is the momentum p, -1 the reflected momentum -p and 0 the rest
sector; branch +1 is the particle tower, -1 the antiparticle tower.  MODES
orders the twelve modes by branch, then tag (+p, -p, rest), then helicity.
A state is a FockVector: one read-only array of 12 amplitudes on MODES.

Three unitaries act by permuting modes with unit phases: space inversion
(INVERSION) and two inequivalent charge-type conjugations, helicity
preserving (CHARGE) and helicity flipping (CHARGE_FLIP).  Each is one
constant SymmetryOp: one read-only 12x12 matrix on MODES, built from a 4x4
unit-phase permutation of the (branch, helicity) pairs and a tag map that
swaps or keeps +-p and fixes rest.  Composition is the matrix product, so
squares and commutators are matrix identities.  The ladder-operator rules
of _OPERATOR_RULES present the same physics; operator_state_consistency
ties the two together.
"""

from __future__ import annotations

import numpy as np

from .linalg import EYE, ByIdentity, frozen, max_abs, norm, record

HEL = ("up", "dn")

# the fixed basis, as (ptag, helicity, branch) modes
MODES = tuple((t, h, b) for b in (+1, -1) for t in (+1, -1, 0) for h in HEL)


class FockVector(ByIdentity, record("FockVector", "amps")):
    """One state: its 12 read-only amplitudes on MODES."""

    __slots__ = ()

    def __new__(cls, amps):
        amps = np.array(amps, dtype=complex)
        if amps.shape != (len(MODES),):
            raise ValueError("a state has 12 amplitudes, one per mode")
        return super().__new__(cls, frozen(amps))

    @classmethod
    def basis(cls, ptag: int, helicity: str, branch: int) -> "FockVector":
        if (ptag, helicity, branch) not in MODES:
            raise ValueError(
                "a mode is ptag +1 (p), -1 (-p) or 0 (rest), helicity 'up' or 'dn' "
                "and branch +1 or -1"
            )
        return cls(EYE[len(MODES)][MODES.index((ptag, helicity, branch))])


class SymmetryOp(ByIdentity, record("SymmetryOp", "name matrix")):
    """Unitary acting on modes as one read-only 12x12 matrix on MODES:
    column j holds the image of mode j and its phase.  Every way of making
    one, _replace included, checks that the matrix is a unit-phase
    permutation."""

    __slots__ = ()

    def __new__(cls, name: str, matrix):
        m = np.array(matrix, dtype=complex)
        if not np.isfinite(m).all():
            raise ValueError(f"{name}: phases must be finite")
        # twelve nonzeros and unitary: one unit phase in each row and column
        if m.shape != (12, 12) or np.count_nonzero(m) != 12:
            raise ValueError(f"{name}: not a permutation of the (branch, helicity) pairs")
        if not max_abs(np.conjugate(m.T) @ m - EYE[12]) <= 1e-12:
            raise ValueError(f"{name}: not a unit-phase permutation")
        return super().__new__(cls, name, frozen(m))

    @classmethod
    def build(cls, name: str, pairs, reflects: bool) -> "SymmetryOp":
        """The op from `pairs`, a 4x4 unit-phase permutation of the
        (branch, helicity) pairs (column j the image of pair j), and whether
        it negates the momentum tag."""
        m = np.asarray(pairs)
        if m.shape != (4, 4):
            raise ValueError(f"{name}: not a permutation of the (branch, helicity) pairs")
        # the tag map on (+p, -p, rest): swap or keep +-p, rest fixed
        tags = EYE[3][[1, 0, 2]] if reflects else EYE[3]
        return cls(name, np.einsum("ahck,st->ashctk", m.reshape(2, 2, 2, 2), tags).reshape(12, 12))

    def apply(self, vec: FockVector) -> FockVector:
        return FockVector(self.matrix @ vec.amps)


# p -> -p, helicity flips, branch kept; phases +i on up, -i on dn
INVERSION = SymmetryOp.build(
    "inversion", [[0, -1j, 0, 0], [1j, 0, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]], reflects=True
)
# branch swap keeping helicity: +1 out of particles, -1 back
CHARGE = SymmetryOp.build(
    "charge", [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], reflects=False
)
# branch swap with helicity flip: -1 out of particles, +1 back
CHARGE_FLIP = SymmetryOp.build(
    "charge_flip", [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]], reflects=False
)


def squares_report(ops) -> dict:
    """The scalar c of op^2 = c * identity for each op; errors unless op^2
    is that scalar."""
    ops = tuple(ops)
    sq = np.array([op.matrix for op in ops])
    sq = sq @ sq
    # sq[k, 0, 0].round(12) as numpy rounds: rint(x * 1e12) / 1e12 per part
    c = (np.rint(np.ascontiguousarray(sq[:, 0, 0]).view(float) * 1e12) / 1e12).view(complex)
    gap = np.abs(sq - c[:, None, None] * EYE[len(MODES)]).max(axis=(1, 2))
    if (gap > 1e-12).any():
        k = int((gap > 1e-12).argmax())
        raise ValueError(f"{ops[k].name}^2 is not a scalar: off c * identity by {gap[k]:.3g}")
    return dict(zip((op.name for op in ops), c.tolist()))


def commutator_report(a: SymmetryOp, b: SymmetryOp) -> dict:
    ma, mb = a.matrix, b.matrix
    return {
        "commutator": float(np.abs(ma @ mb - mb @ ma).max()),
        "anticommutator": float(np.abs(ma @ mb + mb @ ma).max()),
    }


# ---------------------------------------------------------------------------
# ladder-operator presentation

# the branch of each ladder kind: 'a' particle, 'b' antiparticle
_BRANCH = {"a": +1, "b": -1}

# (kind, helicity, dagger) -> (kind', helicity', dagger', negate ptag, phase)
_OPERATOR_RULES = {
    "inversion": {
        ("a", "up", False): ("a", "dn", False, True, -1j),
        ("a", "dn", False): ("a", "up", False, True, +1j),
        ("a", "up", True): ("a", "dn", True, True, +1j),
        ("a", "dn", True): ("a", "up", True, True, -1j),
        ("b", "up", False): ("b", "dn", False, True, -1j),
        ("b", "dn", False): ("b", "up", False, True, +1j),
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


def operator_state_consistency() -> dict:
    """U |mode> computed through U c^dag U^{-1} |0> vs the state action,
    and each annihilation rule vs the adjoint of its creation rule.

    The vacuum is invariant with phase +1, so a creation row must agree
    with the state action term by term.  U c U^{-1} is the adjoint of
    U c^dag U^{-1}: an annihilation row has the kind, helicity and tag
    negation of its creation row and the conjugate phase.  `gaps` holds the
    norm of each row's miss, (creation, annihilation) x the 12 rows.
    """
    ops = (INVERSION, CHARGE, CHARGE_FLIP)
    # the rule rows in (dagger, op, helicity, kind) order, and the modes
    # they name at tag +1; a rule row gives its phase on its image mode
    rows = [
        _OPERATOR_RULES[op.name][(kind, h, dagger)]
        for dagger in (True, False) for op in ops for h in HEL for kind in _BRANCH
    ]
    if [row[2] for row in rows] != [True] * 12 + [False] * 12:
        raise ValueError("a ladder rule changed the dagger")
    images = np.zeros((2, 12, len(MODES)), dtype=complex)
    at = [MODES.index((-1 if neg else +1, h, _BRANCH[k])) for k, h, _, neg, _ in rows]
    images.reshape(24, -1)[np.arange(24), at] = [row[4] for row in rows]
    created, annihilated = images
    # the state action on |p, h>: its column of the op's matrix
    columns = [MODES.index((1, h, branch)) for h in HEL for branch in _BRANCH.values()]
    direct = np.array([op.matrix for op in ops])[:, :, columns].swapaxes(1, 2).reshape(12, -1)
    gaps = norm(np.array([created - direct, annihilated - np.conjugate(created)]))
    return {"max_residual": float(gaps.max()), "gaps": gaps}


# ---------------------------------------------------------------------------
# eigencombinations and the (non)existence certificate


def parity_eigencombos(blocks) -> list:
    """|p,up> +- i |p,dn> under inversion, one report per (ptag, branch)
    block of `blocks`, all blocks in one stacked evaluation.

    At ptag 0 these are honest +-1 eigenvectors; at moving tags the same
    combinations come back reflected with the same signs.  `residual` is
    the miss ||P v - s w|| against the reflected combination w (v itself at
    rest) and its sign s, `eigenvalue` the fitted <w, P v> / <w, w>.
    """
    # MODES index rows (mode or its reflection, up then dn, block, 1): the
    # kets are (block, 1, mode) and the combinations (block, plus/minus, mode)
    at = [[[[MODES.index((s * t, h, b))] for t, b in blocks] for h in HEL] for s in (1, -1)]
    (up, dn), (up_r, dn_r) = EYE[len(MODES)][at]
    sign = np.array([[+1], [-1]])
    image = np.matvec(INVERSION.matrix, up + sign * 1j * dn)
    reflected = up_r + sign * 1j * dn_r
    fitted = (np.vecdot(reflected, image) / np.vecdot(reflected, reflected)).tolist()
    gaps = norm(image - sign * reflected).tolist()
    return [
        {tag: {"eigenvalue": e, "residual": r} for tag, e, r in zip(("plus", "minus"), *block)}
        for block in zip(fitted, gaps)
    ]


def charge_eigencombos() -> dict:
    """|p,h>^+ +- i |p,h>^- are eigenvectors of the branch swap with
    eigenvalues -+i."""
    # MODES index rows (branch, helicity, 1): the kets are (helicity, 1,
    # mode) and the combinations (helicity, plus/minus, mode)
    at = [[[MODES.index((1, h, b))] for h in HEL] for b in (+1, -1)]
    particle, antiparticle = EYE[len(MODES)][at]
    sign = np.array([[+1], [-1]])
    vec = particle + sign * 1j * antiparticle
    lam = -sign * 1j
    gaps = norm(np.matvec(CHARGE.matrix, vec) - lam * vec).ravel().tolist()
    rows = zip([f"{h}_{t}" for h in HEL for t in ("plus", "minus")], lam.ravel().tolist() * 2, gaps)
    return {k: {"eigenvalue": e, "residual": r} for k, e, r in rows}


def _joint_margin(a: SymmetryOp, b: SymmetryOp, columns) -> dict:
    """Smallest singular value of [(A - la) S; (B - lb) S] over all unit
    phases (la, lb), S selecting the `columns` of MODES, the pair `at`
    where it is reached and `law`, the miss of the law it rests on at each
    eigenvalue pair.

    It bounds min ||(A - la)v||^2 + ||(B - lb)v||^2 over unit v in the span
    of the columns: a joint eigenvector there would make it 0.  Its square
    is the smallest eigenvalue of the Gram matrix S^H [(A - la)^H (A - la)
    + (B - lb)^H (B - lb)] S.  For the two pairs certified here the minimum
    over the torus lies at the eigenvalue pairs (+-sqrt(c_A), +-sqrt(c_B))
    of the ops' scalar squares c_A and c_B (proved in tests/test_fock.py),
    and at each of them H = 4 - Gram has trace 0 and H^2 = c * 1: H has the
    eigenvalues +-sqrt(c) in equal numbers, and the margin is
    sqrt(4 - sqrt(c)) with c = tr(H^2) / n.  `law` is max(|tr H|,
    max |H^2 - c|) per pair, and `at` the first pair of the smallest margin,
    principal roots first.
    """
    sel = EYE[len(MODES)][:, columns]
    squares = squares_report([a, b])
    ra, rb = (complex(np.sqrt(squares[op.name])) for op in (a, b))
    pairs = [(la, lb) for la in (ra, -ra) for lb in (rb, -rb)]
    # (op, pair, mode, column): A - la and B - lb on the selected columns
    ops = np.array([a.matrix, b.matrix])[:, None]
    shifted = ops @ sel - np.array(pairs).T[..., None, None] * sel
    eye = EYE[len(columns)]
    h = 4 * eye - (np.conjugate(shifted.swapaxes(-1, -2)) @ shifted).sum(axis=0)
    square = h @ h
    c = square.trace(axis1=-2, axis2=-1).real / len(columns)
    law = np.maximum(
        np.abs(h.trace(axis1=-2, axis2=-1)), max_abs(square - c[:, None, None] * eye, (-2, -1))
    )
    margin = np.sqrt(4 - np.sqrt(c))
    k = int(margin.argmin())
    return {"min_singular_value": float(margin[k]), "at": pairs[k], "law": law}


def simultaneous_eigen_certificate() -> dict:
    """Margin against a joint inversion/branch-swap eigenvector in the
    single-branch sector span{|+-p, h>^+}.

    The branch swap sends every term out of the sector with unit
    amplitude, so ||(swap - lc)v||^2 = 1 + |lc|^2 = 2, and inversion keeps
    the sector: at the inversion phase exp(ix) the squared margin is
    4 - 2|cos x|, whose minimum 2 is reached at the inversion eigenvalues
    +-1, whatever lc is."""
    particles = [i for i, (tag, _, branch) in enumerate(MODES) if tag and branch == +1]
    return _joint_margin(INVERSION, CHARGE, particles)


# on MODES, nonzero at the rest modes up+, dn+, up-, dn-
_BOTH_BRANCH_EIGENVECTOR = frozen(np.array([0, 0, 0, 0, 1.0, 1j, 0, 0, 0, 0, -1j, 1.0]))


def both_branch_joint_eigenvector() -> dict:
    """On the rest sector with both branches the two unitaries commute and
    a joint eigenvector exists explicitly; its residuals are returned so
    the single-branch nonexistence is not mistaken for a global statement."""
    v = _BOTH_BRANCH_EIGENVECTOR
    # (inversion, charge) with eigenvalues (1, i)
    ops = np.array([INVERSION.matrix, CHARGE.matrix])
    inversion, charge = norm(np.matvec(ops, v) - np.array([[1], [1j]]) * v).tolist()
    return {"inversion_residual": inversion, "charge_residual": charge, "charge_eigenvalue": 1j}


def anticommuting_pair_margin() -> dict:
    """Joint-eigenvector margin for the anticommuting pair (helicity
    flipping swap, inversion) on the moving sector with both branches.

    The Hermitian parts of the two terms anticommute and square to
    4 sin^2 x and 4 cos^2 y at (la, lb) = (exp(ix), exp(iy)), so the squared
    margin is 4 - 2 sqrt(sin^2 x + cos^2 y).  Its minimum, 4 - 2 sqrt(2),
    is reached only at the eigenvalue pairs la = +-i, lb = +-1; the margin
    there is sqrt(4 - 2 sqrt(2)) ~ 1.082."""
    moving = [i for i, (tag, _, _) in enumerate(MODES) if tag]
    return _joint_margin(CHARGE_FLIP, INVERSION, moving)
