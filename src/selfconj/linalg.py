"""Small dense complex linear algebra shared by every module.

Vectors and matrices are plain numpy arrays with dtype complex128, none
larger than 12x12; the vector helpers work on the last axis and keep any
leading (row) axes, so one call covers a whole momentum grid.  Nothing
here wraps numpy beyond one structure, AntilinearOp, which represents maps
of the form v -> M v or v -> M conj(v).  Charge conjugation is antilinear,
and the sign of the *square* of an antilinear operator is what decides
whether self-conjugate spinors exist at all, so the conjugation flag has to
be carried explicitly through compositions.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

TOL = 1e-12


def cmat(rows) -> np.ndarray:
    """Complex matrix (or vector) from nested lists."""
    return np.array(rows, dtype=complex)


def frozen(value):
    """Read-only in place, so modules can share it: arrays lose their write
    flag, tuples freeze member by member."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value
    if isinstance(value, tuple):
        return tuple(frozen(v) for v in value)
    raise TypeError(f"cannot freeze a {type(value).__name__}")


# read-only float identities by size, EYE[n] = np.eye(n), for the per-call code
EYE = frozen(tuple(np.eye(n) for n in range(13)))


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conjugate(np.asarray(m)).T


def max_abs(a, axis=None):
    """Largest |entry|: a float over all of a, or an array over `axis`.
    NaN propagates."""
    a = np.asarray(a)
    if axis is None:
        return 0.0 if a.size == 0 else float(np.abs(a).max())
    return np.abs(a).max(axis=axis)


def rowscale(x) -> np.ndarray:
    """x, a number or one per row, shaped to multiply (rows of) matrices."""
    return np.asarray(x)[..., None, None]


def diagonal(*entries) -> np.ndarray:
    """Diagonal matrices from equal-shaped entries, one per leading row."""
    stacked = np.concatenate([np.asarray(x)[..., None] for x in entries], axis=-1)
    return stacked[..., None] * EYE[len(entries)]


# The vector helpers below use numpy's matvec/vecdot, which do the same
# arithmetic on each row as `m @ v`, `np.vdot` and `np.linalg.norm` do on
# one vector, so a grid row equals its one-momentum result bit for bit.


def apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v over the last axis of v; m is one matrix or one per leading
    row of v, so (N, n, n) against (N, k, n) gives (N, k, n)."""
    m = np.asarray(m)
    if m.ndim > 2:
        m = m.reshape(m.shape[:-2] + (1,) * (np.ndim(v) - m.ndim + 1) + m.shape[-2:])
    return np.matvec(m, v)


def norm(x) -> np.ndarray:
    """Euclidean norm over the last axis."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))
    x = np.ascontiguousarray(x)
    return np.sqrt(np.vecdot(x, x))


def unit_phase_align(target: np.ndarray, got: np.ndarray):
    """Best unit phase c minimizing ||got - c*target||, with the residual
    max |got - c*target|, both over the last axis.

    Used for 'equal up to an overall phase' claims.  Falls back to c = 1
    when the overlap vanishes (then no phase helps).
    """
    target = np.asarray(target, dtype=complex)
    got = np.asarray(got, dtype=complex)
    ov = np.vecdot(target, got)
    size = np.abs(ov)
    c = np.where(size > 0, ov / np.where(size > 0, size, 1.0), 1.0 + 0j)
    return c, max_abs(got - c[..., None] * target, axis=-1)


def eigen_residual(matrix: np.ndarray, v: np.ndarray):
    """Least-squares eigenvalue fit c = <v, Mv>/<v, v> and ||Mv - c v||,
    over the last axis of v; matrix is one matrix or one per leading row.

    The residual is 0 exactly when v is an eigenvector; for the
    non-eigenspinor claims the point is that it stays O(||v||).  Each v is
    fitted at the scale 2**-e of its largest entry and the residual scaled
    back: a power of two changes no bit, and <v, v> can neither underflow
    nor overflow.
    """
    v = np.asarray(v, dtype=complex)
    big = max_abs(v, axis=-1)
    if (big == 0).any():
        raise ValueError("zero vector")
    e = np.frexp(big)[1]
    v = np.ldexp(v.real, -e[..., None]) + 1j * np.ldexp(v.imag, -e[..., None])
    mv = apply(np.asarray(matrix, dtype=complex), v)
    c = np.vecdot(v, mv) / np.vecdot(v, v)
    return c, np.ldexp(norm(mv - c[..., None] * v), e)


class AntilinearOp(namedtuple("AntilinearOp", "matrix conjugates")):
    """Operator v -> matrix @ v, or v -> matrix @ conj(v) when conjugates.

    compose(a, b) means "a after b"; the matrix of the composite picks up a
    conjugate on b's matrix whenever a conjugates its argument, and the
    conjugation flags xor.  Squaring an antilinear operator therefore gives
    a plain linear matrix M @ conj(M), which is the object whose sign
    (+1 or -1 times the identity) appears throughout.
    """

    __slots__ = ()

    def __new__(cls, matrix: np.ndarray, conjugates: bool = True):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        return super().__new__(cls, m, conjugates)

    # through the validating constructor, so that _replace validates too
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """The op on the last axis of v."""
        v = np.asarray(v, dtype=complex)
        if v.shape[-1:] != (self.dim,):
            raise ValueError(f"dimension mismatch: op {self.dim}, vector {v.shape}")
        return apply(self.matrix, np.conjugate(v) if self.conjugates else v)

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
        signs = np.array([+1, -1])
        ok = max_abs(sq.matrix - signs[:, None, None] * EYE[self.dim], axis=(-2, -1)) <= TOL
        if not ok.any():
            raise ValueError("square is not +-identity")
        return int(signs[ok.argmax()])


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
    if not np.isfinite(t).all():
        raise ValueError("matrix must be finite")
    if not max_abs(t @ t - EYE[n]) <= 1e-9:
        raise ValueError("matrix is not an involution")
    proj = 0.5 * (EYE[n] + sign * t)
    u, s, _ = np.linalg.svd(proj)
    return u[:, s > 0.5]
