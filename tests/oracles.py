"""Test-only helpers: a checked read-only vector, SparseMatrix builders from
dense arrays, dense views of a SparseMatrix, a dense direct solver and the
exact Lanczos iterate.

The builders go through the public constructors; the views read only a
matrix's public CSR arrays (``indptr``, ``indices``, ``data``). None of them
shares code with the kernels or the iterative solvers.
"""

from fractions import Fraction

import numpy as np

from lanswitch.linalg import DimensionError, NonFiniteError, SparseMatrix

DENSE_SOLVE_LIMIT = 2000


class SingularMatrixError(ValueError):
    """Elimination hit an exactly singular pivot."""


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


def lanczos_iterate(A, b, y, k: int) -> np.ndarray:
    """The k-th Lanczos (Petrov-Galerkin) iterate of A x = b from x0 = 0,
    computed in exact rational arithmetic and rounded once.

    x_k lies in K_k(A, b), and b - A x_k is orthogonal to K_k(A.T, y). With
    x_k = sum_j c_j A^j b, the k conditions read H c = m, where
    H[i][j] = (y, A^(i+j+1) b) and m[i] = (y, A^i b), i, j < k: a Hankel
    system in the moments (y, A^p b), solved by exact elimination. ``A`` is
    a dense square array; every entry must be an integer or a float.
    Raises SingularMatrixError when H is singular, a true breakdown at k.
    """
    M = [[Fraction(a) for a in row] for row in np.asarray(A).tolist()]
    w = [Fraction(a) for a in np.asarray(y).tolist()]
    krylov = [[Fraction(a) for a in np.asarray(b).tolist()]]  # A^p b, p < 2k
    for _ in range(2 * k - 1):
        krylov.append([sum(a * v for a, v in zip(row, krylov[-1])) for row in M])
    moments = [sum(a * v for a, v in zip(w, u)) for u in krylov]
    rows = [[moments[i + j + 1] for j in range(k)] + [moments[i]] for i in range(k)]
    for col in range(k):
        piv = next((i for i in range(col, k) if rows[i][col] != 0), None)
        if piv is None:
            raise SingularMatrixError(f"the Lanczos moments are singular at k = {k}")
        rows[col], rows[piv] = rows[piv], rows[col]
        for i in range(k):
            if i != col and rows[i][col] != 0:
                f = rows[i][col] / rows[col][col]
                rows[i] = [a - f * p for a, p in zip(rows[i], rows[col])]
    c = [rows[j][k] / rows[j][j] for j in range(k)]
    return np.array([float(sum(c[j] * krylov[j][i] for j in range(k)))
                     for i in range(len(M))])
