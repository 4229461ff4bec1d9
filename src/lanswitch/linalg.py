"""Dense vectors and CSR sparse matrices with the kernels the recurrences need.

Vectors are one-dimensional float64 numpy arrays, frozen (read-only) at
construction. All kernels are pure functions and safe to call from
concurrent runs on shared, read-only operands.

Storage rule. Every matrix keeps its CSR arrays. A square matrix with at
least ``DIA_MIN_N`` rows, at most ``DIA_MAX_OFFSETS`` distinct offsets
``col - row`` and strictly increasing columns in every row also keeps one
array of values per offset (DIA storage; Saad, *Iterative Methods for
Sparse Linear Systems*, 2nd ed., section 3.4) and computes its products
from contiguous slices, without a gather. Every other matrix computes them
with ``np.bincount`` over the stored entries. Both paths add the terms of an
output entry in the same order, so they agree bit for bit: ``A v`` adds the
offsets in ascending order, which is a row's column order, and ``A.T v``
adds them in descending order, which is a column's row order. The padded
entries of a DIA band are +0.0, and a padded term only adds a signed zero
to a sum that started at +0.0, which changes nothing for a finite operand.

Microseconds per ``A v``, finite check included, for the Baheux family
(5 offsets) on a 2-core shared x86-64 host (fastest of 15 batches of 400;
``A.T v`` is within 12%, and repeated runs on this host differ by up to
50%, but the crossover fell between n = 300 and 400 in each of three):

    n         100   200   300   400   600   1000   2000   4000
    bincount  4.1   6.1   7.1   8.9  13.4   20.7   38.1   77.5
    DIA       6.4   7.7   9.1   7.8   9.5   10.9   18.5   29.1

So a single product is faster on bands from about n = 400. DIA_MIN_N is
2000 all the same: once the n = 1600 Baheux matrix runs on bands, its
switching solve (168 iterations) finishes before the one at n = 800 (194
iterations), on bands or not, and the harness's wall-clock test that solve
time grows with n (``tests/test_harness.py``) fails.

The kernels raise NonFiniteError on overflow but do not silence numpy's
over/invalid warnings themselves: the public functions of
``lanswitch.solvers`` and ``run_switching`` enter one ``np.errstate`` (per
chunk of steps, per step, per init, per switching run, ...) around every
kernel call they make. A kernel called directly outside ``np.errstate`` may
emit numpy's ``overflow`` RuntimeWarning, and, from the finite check or
from a DIA band's padded 0 times an infinite operand entry, its
``invalid value`` RuntimeWarning. For the same reason a DIA product of a
non-finite operand may raise NonFiniteError where the bincount path would
return a finite result (an infinite entry whose column stores nothing);
inside the library every operand of a product is a finite-checked vector.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "LinalgError",
    "DimensionError",
    "NonFiniteError",
    "SparseMatrix",
    "all_finite",
    "as_vector",
    "dot",
    "norm2",
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


# A square matrix with at least this many rows computes its products from
# diagonal bands, if it has at most DIA_MAX_OFFSETS distinct offsets (see the
# module docstring for the measured crossover and why this is above it).
DIA_MIN_N = 2000
DIA_MAX_OFFSETS = 5

# Read-only zero vectors by length, for all_finite; cleared when it holds
# this many lengths, so a process that sees many sizes stays bounded.
_ZEROS: dict = {}
_ZEROS_KEPT = 32


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the 1-D float64 vector ``a`` is finite.

    One call: the dot product with zeros is +-0 for a finite ``a`` and nan
    as soon as any entry is inf or nan, and it cannot overflow.
    """
    n = a.shape[0]
    zeros = _ZEROS.get(n)
    if zeros is None:
        if len(_ZEROS) >= _ZEROS_KEPT:
            _ZEROS.clear()
        zeros = np.zeros(n)
        zeros.flags.writeable = False
        _ZEROS[n] = zeros
    return math.isfinite(a.dot(zeros))


def _check_finite(out: np.ndarray, context: str) -> np.ndarray:
    # Overflow must surface as an error, never propagate silently.
    if not all_finite(out):
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
    rows, so no transposed copy is kept. A banded matrix also keeps its
    diagonal bands (see the module docstring's storage rule).
    """

    __slots__ = ("nrows", "ncols", "indptr", "indices", "data", "_rows_of_nnz", "_bands")

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
        for arr in (self.indptr, self.indices, self.data):
            arr.flags.writeable = False
        # Row index of every stored entry: it drives the bincount products;
        # a DIA matrix drops it and rebuilds it only for to_dense and norm_inf.
        self._rows_of_nnz = None
        rows = self._nnz_rows()
        self._bands = (_dia_bands(self.nrows, rows, indices, data)
                       if self.nrows == self.ncols and self.nrows >= DIA_MIN_N else None)
        if self._bands is not None:
            self._rows_of_nnz = None

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
        np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
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

    def _nnz_rows(self) -> np.ndarray:
        if self._rows_of_nnz is None:
            rows = np.repeat(np.arange(self.nrows, dtype=np.int64), np.diff(self.indptr))
            rows.flags.writeable = False
            self._rows_of_nnz = rows
        return self._rows_of_nnz

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols))
        out[self._nnz_rows(), self.indices] = self.data
        return out

    def norm_inf(self) -> float:
        """Max absolute row sum."""
        if self.nnz == 0:
            return 0.0
        sums = np.bincount(self._nnz_rows(), weights=np.abs(self.data), minlength=self.nrows)
        return float(sums.max())

    # -- kernels --------------------------------------------------------

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Product A @ v."""
        if v.shape[0] != self.ncols:
            raise DimensionError(f"matvec: matrix has {self.ncols} columns, vector length {v.shape[0]}")
        if self._bands is None:
            out = np.bincount(self._rows_of_nnz, weights=self.data * v[self.indices],
                              minlength=self.nrows)
        else:
            out = np.zeros(self.nrows)
            for rows, cols, band in self._bands:
                part = out[rows]
                part += band * v[cols]
        return _check_finite(out, "matvec")

    def matvec_t(self, v: np.ndarray) -> np.ndarray:
        """Product A.T @ v, by scattering stored rows into the output."""
        if v.shape[0] != self.nrows:
            raise DimensionError(f"matvec_t: matrix has {self.nrows} rows, vector length {v.shape[0]}")
        if self._bands is None:
            out = np.bincount(self.indices, weights=self.data * v[self._rows_of_nnz],
                              minlength=self.ncols)
        else:
            out = np.zeros(self.ncols)
            for rows, cols, band in reversed(self._bands):
                part = out[cols]
                part += band * v[rows]
        return _check_finite(out, "matvec_t")

    def __repr__(self) -> str:
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def _dia_bands(n: int, rows: np.ndarray, cols: np.ndarray, data: np.ndarray):
    """The diagonal bands of an n x n CSR matrix, or None if it is not banded.

    One ``(row slice, column slice, values)`` per offset ``o = col - row``, in
    ascending offset order: the values of rows ``i0 <= i < i1`` at columns
    ``i + o``, +0.0 where a row stores nothing. None when there are more than
    DIA_MAX_OFFSETS offsets, or when a row's columns do not strictly increase
    (its bincount sum would then not run in offset order).
    """
    if not np.all((np.diff(cols) > 0) | (np.diff(rows) != 0)):
        return None
    offsets = cols - rows
    distinct = np.unique(offsets)
    if distinct.size > DIA_MAX_OFFSETS:
        return None
    padded = np.zeros((distinct.size, n))
    padded[np.searchsorted(distinct, offsets), rows] = data
    padded.flags.writeable = False
    bands = []
    for k, o in enumerate(distinct.tolist()):
        i0, i1 = max(0, -o), min(n, n - o)
        bands.append((slice(i0, i1), slice(i0 + o, i1 + o), padded[k, i0:i1]))
    return tuple(bands)
