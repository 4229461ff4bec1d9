"""Test-only helpers: SparseMatrix builders from dense arrays, dense views of a
SparseMatrix and a dense direct solver.

The builders go through the public constructors; the views read only a
matrix's public CSR arrays (``indptr``, ``indices``, ``data``). None of them
shares code with the kernels or the iterative solvers.
"""

import numpy as np

from lanswitch.linalg import DimensionError, SparseMatrix

DENSE_SOLVE_LIMIT = 2000


class SingularMatrixError(ValueError):
    """Elimination hit an exactly singular pivot."""


def from_dense(dense) -> SparseMatrix:
    """The SparseMatrix storing the nonzero entries of a square 2-D array."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise DimensionError(f"expected a square 2-D array, got shape {dense.shape}")
    rows, cols = np.nonzero(dense)
    return SparseMatrix.from_coo(dense.shape[0], rows, cols, dense[rows, cols])


def identity(n: int) -> SparseMatrix:
    """The n x n identity."""
    idx = np.arange(n, dtype=np.int64)
    return SparseMatrix(n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))


def _nnz_rows(A: SparseMatrix) -> np.ndarray:
    """The row index of every stored entry of ``A``."""
    return np.repeat(np.arange(A.nrows, dtype=np.int64), A.indptr[1:] - A.indptr[:-1])


def to_dense(A: SparseMatrix) -> np.ndarray:
    out = np.zeros((A.nrows, A.nrows))
    out[_nnz_rows(A), A.indices] = A.data
    return out


def norm_inf(A: SparseMatrix) -> float:
    """Max absolute row sum."""
    if A.nnz == 0:
        return 0.0
    sums = np.bincount(_nnz_rows(A), weights=np.abs(A.data), minlength=A.nrows)
    return float(sums.max())


def direct_solve_oracle(A: SparseMatrix, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by dense Gaussian elimination with partial pivoting.

    Intentionally independent of the iterative solvers: the matrix is
    densified and eliminated in place. Refuses systems larger than the
    densification bound (2000).
    """
    n = A.nrows
    if n > DENSE_SOLVE_LIMIT:
        raise DimensionError(f"oracle limited to n <= {DENSE_SOLVE_LIMIT}, got {n}")
    if b.shape[0] != n:
        raise DimensionError("right-hand side length must match matrix dimension")

    M = to_dense(A)
    y = np.array(b, dtype=np.float64, copy=True)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(M[col:, col])))
        if abs(M[piv, col]) < 1e-300:
            raise SingularMatrixError(f"singular pivot at column {col}")
        if piv != col:
            M[[col, piv], col:] = M[[piv, col], col:]
            y[[col, piv]] = y[[piv, col]]
        factors = M[col + 1 :, col] / M[col, col]
        M[col + 1 :, col:] -= np.outer(factors, M[col, col:])
        y[col + 1 :] -= factors * y[col]

    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (y[row] - M[row, row + 1 :] @ x[row + 1 :]) / M[row, row]
    return x
