"""Small dense complex linear algebra shared by every module.

Vectors and matrices are plain numpy arrays with dtype complex128, none
larger than 12x12; the vector helpers work on the last axis and keep any
leading (row) axes, so one call covers a whole momentum grid.  A linear
map is its matrix.  Nothing here wraps numpy beyond one structure,
AntilinearOp, the map v -> M conj(v): charge conjugation is antilinear,
and the sign of its *square*, the linear matrix M conj(M), is what decides
whether self-conjugate spinors exist at all.  `record` is the named-tuple
base of every record that validates in __new__, and `ByIdentity` the base
that makes a record of arrays equal only to itself.
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
        m = m.reshape(m.shape[:-2] + (1,) * (np.asarray(v).ndim - m.ndim + 1) + m.shape[-2:])
    return np.matvec(m, v)


def norm(x) -> np.ndarray:
    """Euclidean norm over the last axis."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
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
    """Least-squares fit of Mv against v over the last axis: the eigenvalue
    c = <v, Mv>/<v, v> and ||Mv - c v||; matrix is one matrix or one per
    leading row of v.

    The residual is 0 exactly when v is an eigenvector.  Each row is fitted
    at the scale 2**-e of v's largest entry and the residual scaled back: a
    power of two changes no bit, and <v, v> can neither underflow nor
    overflow.  A non-finite row gives NaN c and residual.
    """
    v = np.ascontiguousarray(v, dtype=complex)
    big = max_abs(v, axis=-1)
    if (big == 0).any():
        raise ValueError("zero vector")
    e = np.frexp(big)[1][..., None]
    # the real and imaginary parts, scaled as a float array
    v = np.ldexp(v.view(float), -e).view(complex)
    # a non-finite row's NaN is the finding, judged by the caller: its
    # products and quotient need not warn as well
    with np.errstate(invalid="ignore"):
        w = apply(np.asarray(matrix, dtype=complex), v)
        c = np.vecdot(v, w) / np.vecdot(v, v)
    return c, np.ldexp(norm(w - c[..., None] * v), e[..., 0])


def record(typename: str, fields: str):
    """The named-tuple base of a record that validates in __new__: its
    _make, and so _replace, goes through the subclass's constructor."""
    base = namedtuple(typename, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class ByIdentity:
    """The first base of a record of arrays: equal only to itself and hashed
    by identity, as arrays have no single truth value to compare by.  A value
    record (numbers and strings) compares and hashes by value instead."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class AntilinearOp(ByIdentity, record("AntilinearOp", "matrix")):
    """The antilinear operator v -> matrix @ conj(v).

    Its square v -> M conj(M conj(v)) is linear with the matrix
    M @ conj(M), which is the object whose sign (+1 or -1 times the
    identity) appears throughout.
    """

    __slots__ = ()

    def __new__(cls, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        return super().__new__(cls, m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """The op on the last axis of v."""
        v = np.asarray(v, dtype=complex)
        if v.shape[-1:] != (self.dim,):
            raise ValueError(f"dimension mismatch: op {self.dim}, vector {v.shape}")
        return apply(self.matrix, np.conjugate(v))

    def squared(self) -> np.ndarray:
        """The matrix M @ conj(M) of the (linear) square."""
        return self.matrix @ np.conjugate(self.matrix)

    def square_sign(self) -> int:
        """+1 or -1 when op^2 = (+-1) * identity, else ValueError."""
        signs = np.array([+1, -1])
        ok = max_abs(self.squared() - signs[:, None, None] * EYE[self.dim], axis=(-2, -1)) <= TOL
        if not ok.any():
            raise ValueError("square is not +-identity")
        return int(signs[ok.argmax()])


def realify(op: AntilinearOp) -> np.ndarray:
    """Real 2n x 2n matrix of an antilinear op on (Re v, Im v) stacks.

    With matrix = X + iY, the action M conj(v) on v = a + ib reads
    (Xa + Yb) + i(Ya - Xb), i.e. the block matrix [[X, Y], [Y, -X]].
    """
    x, y = op.matrix.real, op.matrix.imag
    return np.concatenate([np.concatenate([x, y], axis=1), np.concatenate([y, -x], axis=1)])

