"""Dense vectors and CSR sparse matrices with the kernels the recurrences need.

Vectors are one-dimensional float64 numpy arrays; ``as_vector`` validates
one and freezes it (read-only), while the solvers' iterates are ordinary
arrays that no code writes into in place. All kernels are pure functions
and safe to call from concurrent runs on shared, read-only operands.

Storage rule. Every matrix keeps its CSR arrays. A square matrix with at
least ``DIA_MIN_N`` rows, at most ``DIA_MAX_OFFSETS`` distinct offsets
``col - row`` and strictly increasing columns in every row also keeps its
diagonals (DIA storage; Saad, *Iterative Methods for Sparse Linear
Systems*, 2nd ed., section 3.4) in one padded table, and computes its
products from contiguous slices, without a gather. The table has a row for
each offset o of A or of A.T, that is, for the union of A's offsets and
their negatives, in ascending order: A's band at offset o (entry i is
A[i, i + o]), then a gap of 2g zeros, where g is the largest offset, then
A.T's band at offset o (entry j is A[j + o, j]). ``matvec`` and
``matvec_t`` read their own halves of the rows. ``products(v, w)``
multiplies each whole row with one slice of [0^g v 0^2g w 0^g], so each
multiply and add adds a term to both products. Every other matrix computes
its products with ``np.bincount`` over the stored entries, and its
``products`` runs the two bincounts of ``matvec`` and ``matvec_t``.

Both paths add the terms of an output entry in the same order, so they
agree bit for bit: ``A v`` adds A's offsets in ascending order, which is a
row's column order, and ``A.T v`` adds them in descending order, which is a
column's row order and the ascending order of A.T's offsets. The padded
entries of a band are +0.0, and a padded term only adds a signed zero to a
sum that started at +0.0, which changes nothing for a finite operand. So
the halves of ``products(v, w)`` equal ``matvec(v)`` and ``matvec_t(w)``
byte for byte, and neither half reads the other operand. ``products``
checks neither half: the caller checks each with ``check_finite`` where it
needs it, and ``matvec`` and ``matvec_t`` check their results themselves.

The constructor builds the table in O(nnz + n), without a sort: marking
``offset + n - 1`` in a boolean array finds the offsets, a lookup table from
offset to row places every entry in A's halves, and A.T's band at offset
-o is A's band at offset o, copied shifted by o.

The kernels other than ``products`` raise NonFiniteError on overflow. None
of them silences numpy's over/invalid warnings: the public functions of
``lanswitch.solvers`` and ``run_switching`` enter one ``np.errstate`` (per
chunk of steps, per step, per init, per switching run, ...) around every
kernel call they make. A kernel called directly outside ``np.errstate`` may
emit numpy's ``overflow`` RuntimeWarning, and, from the finite check or
from a DIA band's padded 0 times an infinite operand entry, its
``invalid value`` RuntimeWarning. For the same reason a DIA product of a
non-finite operand may raise NonFiniteError where the bincount path would
return a finite result (an infinite entry whose column stores nothing).
Inside the library every operand of a product is a finite-checked vector,
except the shadow vectors that A12's start multiplies before it checks
them; the A.T halves they yield are used only after those checks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "LinalgError",
    "DimensionError",
    "NonFiniteError",
    "SparseMatrix",
    "all_finite",
    "check_finite",
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
# diagonal bands, if it has at most DIA_MAX_OFFSETS distinct offsets: the
# measured crossover (see "Sparse storage" in the README).
DIA_MIN_N = 400
DIA_MAX_OFFSETS = 5

# Read-only zero vectors by length, for all_finite and the bands' padding;
# cleared when it holds this many lengths, so a process that sees many sizes
# stays bounded.
_ZEROS: dict = {}
_ZEROS_KEPT = 32


def _zeros(n: int) -> np.ndarray:
    """A read-only vector of n zeros, shared through _ZEROS."""
    zeros = _ZEROS.get(n)
    if zeros is None:
        if len(_ZEROS) >= _ZEROS_KEPT:
            _ZEROS.clear()
        zeros = np.zeros(n)
        zeros.flags.writeable = False
        _ZEROS[n] = zeros
    return zeros


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the 1-D float64 vector ``a`` is finite.

    One call: the dot product with zeros is +-0 for a finite ``a`` and nan
    as soon as any entry is inf or nan, and it cannot overflow.
    """
    return math.isfinite(a.dot(_zeros(a.shape[0])))


def check_finite(out: np.ndarray, context: str) -> np.ndarray:
    """``out``, or NonFiniteError naming ``context`` if an entry is not finite.

    Overflow must surface as an error, never propagate silently: every
    product checks its result with this, and a caller of
    ``SparseMatrix.products`` checks each half with it.
    """
    if not all_finite(out):
        raise NonFiniteError(f"non-finite result in {context}")
    return out


def dot(u: np.ndarray, v: np.ndarray) -> float:
    """Euclidean scalar product of two equal-length vectors.

    ``u.dot(v)`` on 1-D float64 vectors calls the BLAS ``ddot`` kernel, whose
    summation order is fixed for a given length and kernel on one machine:
    identical inputs give bitwise identical results, and dot(u, v) ==
    dot(v, u) bitwise because the elementwise products commute and the
    order in which they are summed depends only on the length.
    """
    if u.shape != v.shape:
        raise DimensionError(f"dot: length mismatch {u.shape[0]} vs {v.shape[0]}")
    # The method, not np.dot: the same ddot, without the __array_function__
    # dispatch that costs about a quarter of a call at the paper's sizes.
    out = float(u.dot(v))
    if not math.isfinite(out):
        raise NonFiniteError("non-finite result in dot")
    return out


def norm2(v: np.ndarray) -> float:
    """Euclidean norm sqrt(dot(v, v))."""
    out = math.sqrt(v.dot(v))
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
        if (indptr[1:] - indptr[:-1]).min() < 0:
            raise LinalgError("indptr must be monotone non-decreasing")
        if indices.shape != data.shape:
            raise DimensionError("indices and data must have equal length")
        if indices.size and (indices.min() < 0 or indices.max() >= ncols):
            raise LinalgError("column index out of range")
        if not np.isfinite(data).all():
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
        self._bands = (_dia_bands(self.nrows, indptr, rows, indices, data)
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
            rows = np.repeat(np.arange(self.nrows, dtype=np.int64),
                             self.indptr[1:] - self.indptr[:-1])
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
            out = self._bincount_matvec(v)
        else:
            bands = self._bands
            out = _band_sum(bands.own, np.concatenate((bands.pad, v, bands.pad)), self.nrows)
        return check_finite(out, "matvec")

    def matvec_t(self, v: np.ndarray) -> np.ndarray:
        """Product A.T @ v, by scattering stored rows into the output."""
        if v.shape[0] != self.nrows:
            raise DimensionError(f"matvec_t: matrix has {self.nrows} rows, vector length {v.shape[0]}")
        if self._bands is None:
            out = self._bincount_matvec_t(v)
        else:
            bands = self._bands
            out = _band_sum(bands.transposed, np.concatenate((bands.pad, v, bands.pad)),
                            self.nrows)
        return check_finite(out, "matvec_t")

    def products(self, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A @ v, A.T @ w) of a square matrix in one pass, neither half checked.

        Each half equals ``matvec(v)`` or ``matvec_t(w)`` byte for byte when
        that product is finite, and neither half reads the other operand.
        Unlike those, ``products`` raises no NonFiniteError: the caller checks
        each half with ``check_finite`` where it needs it.
        """
        n = self.nrows
        if self.ncols != n or v.shape[0] != n or w.shape[0] != n:
            self.require_square()
            raise DimensionError(f"products: matrix has order {n}, vector lengths "
                                 f"{v.shape[0]} and {w.shape[0]}")
        bands = self._bands
        if bands is None:
            return self._bincount_matvec(v), self._bincount_matvec_t(w)
        g, pad = bands.gap, bands.pad
        both = _band_sum(bands.pair, np.concatenate((pad, v, pad, pad, w, pad)), 2 * (n + g))
        return both[:n], both[n + 2 * g:]

    def _bincount_matvec(self, v):
        return np.bincount(self._rows_of_nnz, weights=self.data * v[self.indices],
                           minlength=self.nrows)

    def _bincount_matvec_t(self, v):
        return np.bincount(self.indices, weights=self.data * v[self._rows_of_nnz],
                           minlength=self.ncols)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


class _Bands(NamedTuple):
    """The diagonals of an n x n banded matrix in one padded table.

    ``gap`` is the largest offset (0 without bands) and ``pad`` holds that
    many read-only zeros. For each offset o of A or of A.T, in ascending
    order, a row of ``table`` (width 2n + 2 gap, read-only) holds A's band
    at offset o in columns [0, n) (entry i is A[i, i + o]), zeros in the
    gap, and A.T's band at offset o in columns [n + 2 gap, 2n + 2 gap)
    (entry j is A[j + o, j]); +0.0 wherever the matrix stores nothing, so
    the half of an offset that only the other matrix stores is all zeros.
    The terms are ``(band, gap + o)`` with read-only views of the table:
    ``own`` holds A's half of every row, ``transposed`` A.T's half, and
    ``pair`` the whole rows.
    """

    table: np.ndarray
    gap: int
    pad: np.ndarray
    own: tuple
    transposed: tuple
    pair: tuple


def _band_sum(terms: tuple, z: np.ndarray, length: int) -> np.ndarray:
    # Entry i adds band[i] * z[start + i] for every term, in the terms'
    # ascending offset order, to a sum that starts at +0.0.
    out = np.zeros(length)
    for band, start in terms:
        out += band * z[start:start + length]
    return out


def _dia_bands(n: int, indptr: np.ndarray, rows: np.ndarray, cols: np.ndarray,
               data: np.ndarray):
    """The _Bands of an n x n CSR matrix, or None if it is not banded.

    None when there are more than DIA_MAX_OFFSETS offsets, or when a row's
    columns do not strictly increase (its bincount sum would then not run in
    offset order). Sort-free and O(nnz + n), as the module docstring
    describes.
    """
    # Neighbouring entries must increase in column unless a row starts between
    # them; ok[k] judges the pair (k - 1, k), and indptr marks the row starts.
    ok = np.empty(cols.shape[0] + 1, dtype=bool)
    np.greater(cols[1:], cols[:-1], out=ok[1:-1])
    ok[indptr] = True
    if not ok.all():
        return None
    key = cols - rows
    key += n - 1
    seen = np.zeros(2 * n - 1, dtype=bool)
    seen[key] = True
    used = np.flatnonzero(seen)
    if used.size > DIA_MAX_OFFSETS:
        return None
    stored = (used - (n - 1)).tolist()
    offsets = sorted({*stored, *[-o for o in stored]})
    gap = offsets[-1] if offsets else 0
    width = 2 * (n + gap)
    at_t = n + 2 * gap  # where A.T's half of a row starts
    row = {o: k * width for k, o in enumerate(offsets)}  # flat start of o's row
    slot = np.empty(2 * n - 1, dtype=np.int64)
    slot[used] = [row[o] for o in stored]
    table = np.zeros((len(offsets), width))
    flat = table.ravel()
    flat[slot[key] + rows] = data
    # A.T's band at offset -o is A's band at offset o, shifted by o.
    for o in stored:
        j0, j1 = max(0, o), min(n, n + o)
        to, fro = row[-o] + at_t, row[o] - o
        flat[to + j0:to + j1] = flat[fro + j0:fro + j1]
    table.flags.writeable = False
    starts = [gap + o for o in offsets]
    return _Bands(table, gap, _zeros(gap), tuple(zip(table[:, :n], starts)),
                  tuple(zip(table[:, at_t:], starts)), tuple(zip(table, starts)))
