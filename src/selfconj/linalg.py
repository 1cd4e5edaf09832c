"""Small dense complex linear algebra shared by every module.

Vectors and matrices are plain numpy arrays with dtype complex128; nothing
here wraps numpy beyond one structure, AntilinearOp, which represents maps
of the form v -> M v or v -> M conj(v).  Charge conjugation is antilinear,
and the sign of the *square* of an antilinear operator is what decides
whether self-conjugate spinors exist at all, so the conjugation flag has to
be carried explicitly through compositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

TOL = 1e-12


def cmat(rows) -> np.ndarray:
    """Complex matrix (or vector) from nested lists."""
    return np.array(rows, dtype=complex)


def frozen(value):
    """Read-only in place, so modules can share it: arrays lose their write
    flag, tuples freeze member by member, a dict becomes a read-only mapping."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value
    if isinstance(value, tuple):
        return tuple(frozen(v) for v in value)
    if isinstance(value, dict):
        return MappingProxyType({k: frozen(v) for k, v in value.items()})
    raise TypeError(f"cannot freeze a {type(value).__name__}")


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conjugate(np.asarray(m)).T


def max_abs(a) -> float:
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def approx_eq(a, b):
    """Entrywise comparison of two arrays to within TOL.

    Returns (equal, max_abs_residual).  Shapes must match exactly; a
    mismatch is an error, not a False result.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    resid = max_abs(a - b)
    return resid <= TOL, resid


def unit_phase_align(target: np.ndarray, got: np.ndarray):
    """Best unit phase c minimizing ||got - c*target||, with the residual.

    Used for 'equal up to an overall phase' claims.  Falls back to c = 1
    when the overlap vanishes (then no phase helps).
    """
    target = np.asarray(target, dtype=complex)
    got = np.asarray(got, dtype=complex)
    ov = np.vdot(target, got)
    c = ov / abs(ov) if abs(ov) > 0 else 1.0 + 0j
    return c, max_abs(got - c * target)


def eigen_residual(matrix: np.ndarray, v: np.ndarray):
    """Least-squares eigenvalue fit c = <v, Mv>/<v, v> and ||Mv - c v||.

    The residual is 0 exactly when v is an eigenvector; for the
    non-eigenspinor claims the point is that it stays O(||v||).
    """
    v = np.asarray(v, dtype=complex)
    mv = np.asarray(matrix, dtype=complex) @ v
    n2 = np.vdot(v, v)
    if abs(n2) == 0:
        raise ValueError("zero vector")
    c = np.vdot(v, mv) / n2
    return c, float(np.linalg.norm(mv - c * v))


@dataclass(frozen=True)
class AntilinearOp:
    """Operator v -> matrix @ v, or v -> matrix @ conj(v) when conjugates.

    compose(a, b) means "a after b"; the matrix of the composite picks up a
    conjugate on b's matrix whenever a conjugates its argument, and the
    conjugation flags xor.  Squaring an antilinear operator therefore gives
    a plain linear matrix M @ conj(M), which is the object whose sign
    (+1 or -1 times the identity) appears throughout.
    """

    matrix: np.ndarray
    conjugates: bool = True

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if v.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: op {self.dim}, vector {v.shape}")
        return self.matrix @ (np.conjugate(v) if self.conjugates else v)

    def compose(self, other: "AntilinearOp") -> "AntilinearOp":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        om = np.conjugate(other.matrix) if self.conjugates else other.matrix
        return AntilinearOp(self.matrix @ om, self.conjugates ^ other.conjugates)

    def squared(self) -> "AntilinearOp":
        # always linear; for conjugating ops this is matrix @ conj(matrix)
        return self.compose(self)

    def square_sign(self) -> int:
        """+1 or -1 when op^2 = (+-1) * identity, else ValueError."""
        sq = self.squared()
        if sq.conjugates:
            raise ValueError("square of a linear op is linear; got conjugating")
        eye = np.eye(self.dim)
        for sign in (+1, -1):
            ok, _ = approx_eq(sq.matrix, sign * eye)
            if ok:
                return sign
        raise ValueError("square is not +-identity")


def realify(op: AntilinearOp) -> np.ndarray:
    """Real 2n x 2n matrix of an antilinear op on (Re v, Im v) stacks.

    With matrix = X + iY, the action M conj(v) on v = a + ib reads
    (Xa + Yb) + i(Ya - Xb), i.e. the block matrix [[X, Y], [Y, -X]].
    For a linear op (no conjugation) it is the usual [[X, -Y], [Y, X]].
    """
    x = np.real(op.matrix)
    y = np.imag(op.matrix)
    if op.conjugates:
        return np.block([[x, y], [y, -x]])
    return np.block([[x, -y], [y, x]])


def involution_eigenvectors(t: np.ndarray, sign: int):
    """Orthonormal basis of the (+-1)-eigenspace of a real involution t.

    Deterministic: the eigenspace is the column space of the projector
    (1 + sign*t)/2, extracted with one SVD (singular values of a projector
    are 0 or 1).  No iterative solver, no randomness.
    """
    t = np.asarray(t, dtype=float)
    n = t.shape[0]
    if not np.all(np.isfinite(t)):
        raise ValueError("matrix must be finite")
    if not max_abs(t @ t - np.eye(n)) <= 1e-9:
        raise ValueError("matrix is not an involution")
    proj = 0.5 * (np.eye(n) + sign * t)
    u, s, _ = np.linalg.svd(proj)
    cols = [u[:, i] for i in range(n) if s[i] > 0.5]
    return np.array(cols).T if cols else np.zeros((n, 0))
