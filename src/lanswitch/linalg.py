"""Dense vectors and CSR sparse matrices with the kernels the recurrences need.

Vectors are one-dimensional float64 numpy arrays. The problem builders
freeze theirs (read-only), and no code writes into the solvers' iterates in
place. All kernels are pure functions and safe to call from concurrent runs
on shared, read-only operands.

Storage rule. Every matrix is square, of order ``nrows``: the recurrences
solve square systems. It keeps its CSR arrays, and the input alone picks
one of three ways to compute its products:

- A matrix with fewer than ``DIA_MIN_N`` rows keeps a pair index:
  2 nnz terms, each a weight, a position in [v w] and a position in
  [A v, A.T w]. The first nnz terms are A's entries in CSR order, read from
  v and added to their rows; the last nnz are the same entries read from w
  and added to n + their columns. ``products(v, w)`` is one gather, one
  multiply and one ``np.bincount`` over the terms; ``matvec`` and
  ``matvec_t`` are one bincount each over the stored entries, whose row
  index is the first half of the output positions.
- A matrix with at least ``DIA_MIN_N`` rows, at most
  ``DIA_MAX_OFFSETS`` distinct offsets ``col - row`` and strictly
  increasing columns in every row keeps its diagonals (DIA storage; Saad,
  *Iterative Methods for Sparse Linear Systems*, 2nd ed., section 3.4) in
  one padded table, and computes its products from contiguous slices,
  without a gather. The table has a row for each offset o of A or of A.T,
  that is, for the union of A's offsets and their negatives, in ascending
  order: A's band at offset o (entry i is A[i, i + o]), then a gap of 2g
  zeros, where g is the largest offset, then A.T's band at offset o (entry
  j is A[j + o, j]). ``matvec`` and ``matvec_t`` read their own halves of
  the rows. ``products(v, w)`` multiplies each whole row with one slice of
  [0^g v 0^2g w 0^g], so each multiply and add adds a term to both products.
- Every other matrix computes each product with one ``np.bincount`` over
  the stored entries, and its ``products`` runs the two of ``matvec`` and
  ``matvec_t``.

All paths add the terms of an output entry in the same order, from +0.0,
so they agree bit for bit. ``np.bincount`` adds its weights in the order
it is given them, to sums that start at +0.0: a row's in CSR order, a
column's in ascending row order, also when one call adds the terms of both
products. On bands ``A v`` adds A's offsets in ascending order, which is a
row's column order, and ``A.T v`` adds them in descending order, which is a
column's row order and the ascending order of A.T's offsets. The padded
entries of a band are +0.0, and a padded term only adds a signed zero to a
sum that started at +0.0, which changes nothing for a finite operand. So
the halves of ``products(v, w)`` equal ``matvec(v)`` and ``matvec_t(w)``
byte for byte, and neither half reads the other operand. Every product
checks its own result. ``products`` checks a pair from one pass with one
``all_finite`` over the whole output, and only if that fails each half,
``A v`` first; it raises NonFiniteError naming the half that is not
finite, as ``matvec`` or ``matvec_t`` would.

The constructor builds the pair index with two concatenations of the CSR
arrays. It builds the band table in O(nnz + n), without a sort: marking
``offset + n - 1`` in a boolean array finds the offsets, a lookup table from
offset to row places every entry in A's halves, and A.T's band at offset
-o is A's band at offset o, copied shifted by o.

The kernels raise NonFiniteError on overflow. None of them silences
numpy's over/invalid warnings: the public functions of
``lanswitch.solvers`` and ``run_switching`` enter one ``np.errstate`` (per
chunk of steps, per step, per init, per switching run, ...) around every
kernel call they make. A kernel called directly outside ``np.errstate`` may
emit numpy's ``overflow`` RuntimeWarning, and, from the finite check or
from a DIA band's padded 0 times an infinite operand entry, its
``invalid value`` RuntimeWarning. For the same reason a DIA product of a
non-finite operand may raise NonFiniteError where the other paths return
a finite result (an infinite entry whose column stores nothing): the pair
index and the plain bincount have no padding, so no term reads an operand
entry that no stored entry multiplies.
Inside the library every operand of a product is a checked vector, except
A5/B10's direction p_k, whose overflow its product reports.
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
    "dot",
    "norm2",
]


class LinalgError(ValueError):
    """Base class for kernel-level errors."""


class DimensionError(LinalgError):
    """Operand shapes are incompatible."""


class NonFiniteError(LinalgError):
    """A value or result contains NaN or Inf."""


# A matrix with at least this many rows computes its products from
# diagonal bands, if it has at most DIA_MAX_OFFSETS distinct offsets, and
# one with fewer from its pair index: the measured crossover (see "Sparse
# storage" in the README).
DIA_MIN_N = 400
DIA_MAX_OFFSETS = 5

_ZEROS_KEPT = 32


class _ZeroVectors(dict):
    """Read-only zero vectors by length, each made at its first lookup.

    For all_finite, the solver states' finite checks and the bands' padding;
    cleared when it holds _ZEROS_KEPT lengths, so a process that sees many
    sizes stays bounded.
    """

    def __missing__(self, n: int) -> np.ndarray:
        if len(self) >= _ZEROS_KEPT:
            self.clear()
        zeros = self[n] = np.zeros(n)
        zeros.flags.writeable = False
        return zeros


_ZEROS = _ZeroVectors()


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the 1-D float64 vector ``a`` is finite.

    One call: the dot product with zeros is +-0 for a finite ``a`` and nan
    as soon as any entry is inf or nan, and it cannot overflow.
    """
    return math.isfinite(a.dot(_ZEROS[a.shape[0]]))


def check_finite(out: np.ndarray, context: str) -> np.ndarray:
    """``out``, or NonFiniteError naming ``context`` if an entry is not finite.

    Overflow must surface as an error, never propagate silently: every
    product checks its result with this, ``SparseMatrix.products`` each of
    its halves (after one failed ``all_finite`` over a one-pass pair).
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
    """n x n CSR matrix over float64, immutable after construction.

    The module docstring's storage rule picks how its products run.
    """

    __slots__ = ("nrows", "indptr", "indices", "data", "_rows_of_nnz", "_pair", "_bands")

    def __init__(self, n: int, indptr, indices, data):
        if n < 1:
            raise DimensionError("matrix order must be positive")
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if indptr.shape != (n + 1,):
            raise DimensionError("indptr must have length n + 1")
        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise LinalgError("indptr must start at 0 and end at nnz")
        # Row index of every stored entry: the bincount products read it, and
        # the pair index and the band table are built from it. np.repeat
        # rejects a negative row length, so it also checks indptr's order.
        try:
            rows = np.repeat(np.arange(n, dtype=np.int64), indptr[1:] - indptr[:-1])
        except ValueError:
            raise LinalgError("indptr must be monotone non-decreasing") from None
        if indices.shape != data.shape:
            raise DimensionError("indices and data must have equal length")
        # One comparison: a negative index reads as a huge unsigned one.
        if np.count_nonzero(indices.view(np.uint64) >= n):
            raise LinalgError("column index out of range")
        if not np.isfinite(data).all():
            raise NonFiniteError("matrix values contain NaN or Inf")
        self.nrows = n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        for arr in (self.indptr, self.indices, self.data):
            arr.flags.writeable = False
        self._pair = self._bands = None
        if n < DIA_MIN_N:
            self._pair = _pair_terms(n, rows, indices, data)
            rows = self._pair.out[:indices.shape[0]]
        else:
            rows.flags.writeable = False
            self._bands = _dia_bands(n, indptr, rows, indices, data)
        self._rows_of_nnz = rows if self._bands is None else None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coo(cls, n: int, rows, cols, vals) -> "SparseMatrix":
        """Build the n x n matrix of coordinate triplets; duplicates are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise DimensionError("coordinate arrays must have equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise LinalgError("row index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size:
            keep = np.ones(rows.size, dtype=bool)
            keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group = np.cumsum(keep) - 1
            summed = np.bincount(group, weights=vals)
            rows, cols, vals = rows[keep], cols[keep], summed
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(n, indptr, cols, vals)

    # -- properties ----------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    # -- kernels --------------------------------------------------------

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Product A @ v."""
        if v.shape[0] != self.nrows:
            raise DimensionError(f"matvec: matrix has order {self.nrows}, vector length {v.shape[0]}")
        if self._bands is None:
            out = np.bincount(self._rows_of_nnz, weights=self.data * v[self.indices],
                              minlength=self.nrows)
        else:
            bands = self._bands
            out = _band_sum(bands.own, np.concatenate((bands.pad, v, bands.pad)), self.nrows)
        return check_finite(out, "matvec")

    def matvec_t(self, v: np.ndarray) -> np.ndarray:
        """Product A.T @ v."""
        if v.shape[0] != self.nrows:
            raise DimensionError(f"matvec_t: matrix has order {self.nrows}, vector length {v.shape[0]}")
        if self._bands is None:
            out = np.bincount(self.indices, weights=self.data * v[self._rows_of_nnz],
                              minlength=self.nrows)
        else:
            bands = self._bands
            out = _band_sum(bands.transposed, np.concatenate((bands.pad, v, bands.pad)),
                            self.nrows)
        return check_finite(out, "matvec_t")

    def products(self, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A @ v, A.T @ w) in one pass.

        Each half equals ``matvec(v)`` or ``matvec_t(w)`` byte for byte, and
        neither half reads the other operand. It raises exactly when
        ``matvec(v)`` or ``matvec_t(w)`` would, ``A v`` first: a
        NonFiniteError names ``matvec`` or ``matvec_t``.
        """
        n = self.nrows
        if v.shape[0] != n or w.shape[0] != n:
            raise DimensionError(f"products: matrix has order {n}, vector lengths "
                                 f"{v.shape[0]} and {w.shape[0]}")
        if self._pair is not None:
            out, gather, weights = self._pair
            terms = np.concatenate((v, w))[gather]
            terms *= weights
            both = np.bincount(out, weights=terms, minlength=2 * n)
            Av, ATw = both[:n], both[n:]
        elif self._bands is not None:
            g, pad = self._bands.gap, self._bands.pad
            both = _band_sum(self._bands.pair, np.concatenate((pad, v, pad, pad, w, pad)),
                             2 * (n + g))
            Av, ATw = both[:n], both[n + 2 * g:]
        else:
            return self.matvec(v), self.matvec_t(w)
        # One check for the pair. Only a failed one looks at the halves, so the
        # error names the half, and a non-finite entry in the gap between the
        # band halves raises nothing.
        if not all_finite(both):
            check_finite(Av, "matvec")
            check_finite(ATw, "matvec_t")
        return Av, ATw

    def __repr__(self) -> str:
        return f"SparseMatrix({self.nrows}x{self.nrows}, nnz={self.nnz})"


class _Pair(NamedTuple):
    """The terms of (A v, A.T w) for one bincount over [v w], read-only.

    Term t adds ``weights[t] * [v w][gather[t]]`` to entry ``out[t]`` of
    [A v, A.T w]; ``out[:nnz]`` is the row index of the stored entries.
    """

    out: np.ndarray
    gather: np.ndarray
    weights: np.ndarray


def _pair_terms(n: int, rows: np.ndarray, cols: np.ndarray, data: np.ndarray) -> _Pair:
    """The _Pair of a CSR matrix: two concatenations of its arrays."""
    nnz = cols.shape[0]
    index = np.concatenate((rows, cols, cols, rows))
    index.reshape(4, nnz)[1::2] += n
    weights = np.concatenate((data, data))
    index.flags.writeable = False
    weights.flags.writeable = False
    return _Pair(index[:2 * nnz], index[2 * nnz:], weights)


class _Bands(NamedTuple):
    """The diagonals of a banded matrix, as read-only views of its band table.

    ``gap`` is the largest offset (0 without bands) and ``pad`` holds that
    many read-only zeros. The terms are ``(band, gap + o)``, one per row of
    the table, in ascending offset o: ``own`` holds A's half of every row,
    ``transposed`` A.T's half, and ``pair`` the whole rows. A band holds
    +0.0 wherever the matrix stores nothing, so the half of an offset that
    only the other matrix stores is all zeros.
    """

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
    """The _Bands of a CSR matrix, or None if it is not banded.

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
    return _Bands(gap, _ZEROS[gap], tuple(zip(table[:, :n], starts)),
                  tuple(zip(table[:, at_t:], starts)), tuple(zip(table, starts)))
