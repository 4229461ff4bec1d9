"""Dense vectors and CSR sparse matrices with the kernels the recurrences need.

Vectors are one-dimensional float64 numpy arrays, frozen (read-only) at
construction. All kernels are pure functions and safe to call from
concurrent runs on shared, read-only operands.

The kernels raise NonFiniteError on overflow but do not silence numpy's
over/invalid warnings themselves: the public functions of
``lanswitch.solvers`` and ``run_switching`` enter one ``np.errstate`` (per
step, per init, per switching run, ...) around every kernel call they make.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "LinalgError",
    "DimensionError",
    "NonFiniteError",
    "SparseMatrix",
    "as_vector",
    "dot",
    "norm2",
    "matvec",
    "matvec_t",
]


class LinalgError(ValueError):
    """Base class for kernel-level errors."""


class DimensionError(LinalgError):
    """Operand shapes are incompatible."""


class NonFiniteError(LinalgError):
    """A value or result contains NaN or Inf."""


def as_vector(data) -> np.ndarray:
    """Validate and freeze ``data`` as a 1-D float64 vector.

    Rejects empty input and any non-finite entry. The returned array is
    marked read-only; callers that need a scratch copy must copy explicitly.
    """
    v = np.array(data, dtype=np.float64, copy=True)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got ndim={v.ndim}")
    if v.size == 0:
        raise DimensionError("vector must have positive length")
    if not np.all(np.isfinite(v)):
        raise NonFiniteError("vector contains NaN or Inf")
    v.flags.writeable = False
    return v


def _check_finite(out: np.ndarray, context: str) -> np.ndarray:
    # Overflow must surface as an error, never propagate silently.
    if not np.isfinite(out).all():
        raise NonFiniteError(f"non-finite result in {context}")
    return out


def dot(u: np.ndarray, v: np.ndarray) -> float:
    """Euclidean scalar product of two equal-length vectors.

    ``np.dot`` on 1-D float64 vectors calls the BLAS ``ddot`` kernel, whose
    summation order is fixed for a given length and kernel on one machine:
    identical inputs give bitwise identical results, and dot(u, v) ==
    dot(v, u) bitwise because the elementwise products commute and the
    order in which they are summed depends only on the length.
    """
    if u.shape != v.shape:
        raise DimensionError(f"dot: length mismatch {u.shape[0]} vs {v.shape[0]}")
    out = float(np.dot(u, v))
    if not math.isfinite(out):
        raise NonFiniteError("non-finite result in dot")
    return out


def norm2(v: np.ndarray) -> float:
    """Euclidean norm sqrt(dot(v, v))."""
    out = math.sqrt(np.dot(v, v))
    if not math.isfinite(out):
        raise NonFiniteError("non-finite result in norm2")
    return out


class SparseMatrix:
    """CSR matrix over float64, immutable after construction.

    Products with the transpose are computed by scattering along the stored
    rows, so no transposed copy is kept.
    """

    __slots__ = ("nrows", "ncols", "indptr", "indices", "data", "_rows_of_nnz")

    def __init__(self, nrows: int, ncols: int, indptr, indices, data):
        if nrows < 1 or ncols < 1:
            raise DimensionError("matrix dimensions must be positive")
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if indptr.shape != (nrows + 1,):
            raise DimensionError("indptr must have length nrows + 1")
        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise LinalgError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(indptr) < 0):
            raise LinalgError("indptr must be monotone non-decreasing")
        if indices.shape != data.shape:
            raise DimensionError("indices and data must have equal length")
        if indices.size and (indices.min() < 0 or indices.max() >= ncols):
            raise LinalgError("column index out of range")
        if not np.all(np.isfinite(data)):
            raise NonFiniteError("matrix values contain NaN or Inf")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        # Row index of every stored entry; drives bincount-based products.
        self._rows_of_nnz = np.repeat(
            np.arange(nrows, dtype=np.int64), np.diff(indptr)
        )
        for arr in (self.indptr, self.indices, self.data, self._rows_of_nnz):
            arr.flags.writeable = False

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coo(cls, nrows: int, ncols: int, rows, cols, vals) -> "SparseMatrix":
        """Build from coordinate triplets; duplicate entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise DimensionError("coordinate arrays must have equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= nrows):
            raise LinalgError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= ncols):
            raise LinalgError("column index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size:
            keep = np.ones(rows.size, dtype=bool)
            keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group = np.cumsum(keep) - 1
            summed = np.bincount(group, weights=vals)
            rows, cols, vals = rows[keep], cols[keep], summed
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        indptr = np.cumsum(indptr)
        return cls(nrows, ncols, indptr, cols, vals)

    @classmethod
    def from_dense(cls, dense) -> "SparseMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise DimensionError("expected a 2-D array")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    # -- properties ----------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def require_square(self) -> None:
        if not self.is_square:
            raise DimensionError(f"matrix must be square, got {self.nrows}x{self.ncols}")

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols))
        out[self._rows_of_nnz, self.indices] = self.data
        return out

    def norm_inf(self) -> float:
        """Max absolute row sum."""
        if self.nnz == 0:
            return 0.0
        sums = np.bincount(self._rows_of_nnz, weights=np.abs(self.data), minlength=self.nrows)
        return float(sums.max())

    # -- kernels --------------------------------------------------------

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Product A @ v."""
        if v.shape[0] != self.ncols:
            raise DimensionError(f"matvec: matrix has {self.ncols} columns, vector length {v.shape[0]}")
        out = np.bincount(self._rows_of_nnz, weights=self.data * v[self.indices],
                          minlength=self.nrows)
        return _check_finite(out, "matvec")

    def matvec_t(self, v: np.ndarray) -> np.ndarray:
        """Product A.T @ v, by scattering stored rows into the output."""
        if v.shape[0] != self.nrows:
            raise DimensionError(f"matvec_t: matrix has {self.nrows} rows, vector length {v.shape[0]}")
        out = np.bincount(self.indices, weights=self.data * v[self._rows_of_nnz],
                          minlength=self.ncols)
        return _check_finite(out, "matvec_t")

    def __repr__(self) -> str:
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def matvec(M: SparseMatrix, v: np.ndarray) -> np.ndarray:
    return M.matvec(v)


def matvec_t(M: SparseMatrix, v: np.ndarray) -> np.ndarray:
    return M.matvec_t(v)
