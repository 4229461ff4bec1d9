"""Block-tridiagonal test systems, MatrixMarket ingestion, and a dense direct-solve oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError, SparseMatrix, as_vector

__all__ = [
    "BLOCK_SIZE",
    "BaheuxSpec",
    "ProblemInstance",
    "MatrixMarketError",
    "SingularMatrixError",
    "gen_baheux",
    "read_matrix_market",
    "write_matrix_market",
    "direct_solve_oracle",
]

BLOCK_SIZE = 10

DENSE_SOLVE_LIMIT = 2000


class MatrixMarketError(ValueError):
    """Malformed or unsupported MatrixMarket input."""


class SingularMatrixError(ValueError):
    """Elimination hit an exactly singular pivot."""


@dataclass(frozen=True)
class BaheuxSpec:
    """Parameters of the block-tridiagonal test family.

    ``n`` must be a multiple of the fixed block size 10; ``delta`` skews the
    inner blocks (superdiagonal -1+delta, subdiagonal -1-delta). delta=0
    gives a symmetric matrix.
    """

    n: int
    delta: float = 0.0

    def __post_init__(self):
        if self.n < BLOCK_SIZE or self.n % BLOCK_SIZE != 0:
            raise ValueError(f"n must be a positive multiple of {BLOCK_SIZE}, got {self.n}")


@dataclass(frozen=True)
class ProblemInstance:
    """A linear system with its known solution."""

    A: SparseMatrix
    b: np.ndarray
    x_true: np.ndarray
    label: str

    def __post_init__(self):
        if self.b.shape[0] != self.A.nrows:
            raise DimensionError("right-hand side length must match matrix rows")


def gen_baheux(spec: BaheuxSpec) -> ProblemInstance:
    """Generate the block-tridiagonal instance for ``spec``.

    The matrix has 10x10 blocks on the diagonal (4 on their diagonal,
    -1+delta above, -1-delta below) coupled by -I blocks, the right-hand
    side is chosen so the exact solution is the all-ones vector.
    """
    n, delta = spec.n, spec.delta
    i = np.arange(n, dtype=np.int64)
    t = i % BLOCK_SIZE
    # Row i's candidate entries in column order: the -I block to the left,
    # the inner subdiagonal, diagonal and superdiagonal, the -I block to the
    # right; ``stored`` says which of them lie inside the matrix and block.
    cols = i[:, None] + np.array([-BLOCK_SIZE, -1, 0, 1, BLOCK_SIZE])
    vals = np.array([-1.0, -1.0 - delta, 4.0, -1.0 + delta, -1.0])
    stored = np.empty((n, 5), dtype=bool)
    stored[:, 0] = i >= BLOCK_SIZE
    stored[:, 1] = t > 0
    stored[:, 2] = True
    stored[:, 3] = t < BLOCK_SIZE - 1
    stored[:, 4] = i < n - BLOCK_SIZE
    # Flat positions of the stored candidates, row by row; row i's entries
    # are those between positions 5 i and 5 (i + 1).
    kept = np.flatnonzero(stored)
    indptr = np.searchsorted(kept, np.arange(0, 5 * n + 1, 5))
    data = vals[kept % 5]
    A = SparseMatrix(n, n, indptr, cols.ravel()[kept], data)
    x_true = np.ones(n)
    x_true.flags.writeable = False
    # b = A x_true: row sums in stored order from +0.0, which is how
    # A.matvec(x_true) adds its terms data * 1.0, so the bits are the same.
    b = np.bincount(kept // 5, weights=data, minlength=n)
    b.flags.writeable = False
    return ProblemInstance(A=A, b=b, x_true=x_true, label=f"baheux(n={n},delta={delta:g})")


# ---------------------------------------------------------------------------
# MatrixMarket coordinate format (real, general or symmetric, 1-based)
# ---------------------------------------------------------------------------


def read_matrix_market(path: str) -> ProblemInstance:
    """Read a coordinate-format MatrixMarket file into a square problem.

    Symmetric files are expanded to full storage. The right-hand side is the
    matrix applied to the all-ones vector, so the exact solution is known.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        fields = header.strip().lower().split()
        if len(fields) != 5 or fields[0] != "%%matrixmarket" or fields[1] != "matrix":
            raise MatrixMarketError(f"bad MatrixMarket header: {header.strip()!r}")
        fmt, dtype, symmetry = fields[2], fields[3], fields[4]
        if fmt != "coordinate":
            raise MatrixMarketError(f"only coordinate format supported, got {fmt!r}")
        if dtype != "real":
            raise MatrixMarketError(f"only real matrices supported, got {dtype!r}")
        if symmetry not in ("general", "symmetric"):
            raise MatrixMarketError(f"only general/symmetric supported, got {symmetry!r}")

        size_line = _next_content_line(fh)
        if size_line is None:
            raise MatrixMarketError("missing size line")
        parts = size_line.split()
        if len(parts) != 3:
            raise MatrixMarketError(f"bad size line: {size_line!r}")
        nrows, ncols, nnz = (int(p) for p in parts)
        if nrows != ncols:
            raise MatrixMarketError(f"matrix must be square, got {nrows}x{ncols}")

        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int64)
        vals = np.empty(0, dtype=np.float64)
        entries = []
        for _ in range(nnz):
            line = _next_content_line(fh)
            if line is None:
                raise MatrixMarketError(f"expected {nnz} entries, file ended early")
            parts = line.split()
            if len(parts) != 3:
                raise MatrixMarketError(f"bad entry line: {line!r}")
            entries.append((int(parts[0]) - 1, int(parts[1]) - 1, float(parts[2])))

    if entries:
        rows = np.array([e[0] for e in entries], dtype=np.int64)
        cols = np.array([e[1] for e in entries], dtype=np.int64)
        vals = np.array([e[2] for e in entries], dtype=np.float64)
    if rows.size and (rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols):
        raise MatrixMarketError("entry index out of bounds")

    if symmetry == "symmetric":
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )

    A = SparseMatrix.from_coo(nrows, ncols, rows, cols, vals)

    x_true = as_vector(np.ones(nrows))
    b = A.matvec(x_true)
    b.flags.writeable = False
    return ProblemInstance(A=A, b=b, x_true=x_true, label=path)


def _next_content_line(fh):
    for line in fh:
        stripped = line.strip()
        if stripped and not stripped.startswith("%"):
            return stripped
    return None


def write_matrix_market(path: str, A: SparseMatrix, symmetric: bool = False) -> None:
    """Write ``A`` in coordinate format; with ``symmetric`` only the lower triangle is stored."""
    dense_rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
    cols = A.indices
    vals = A.data
    if symmetric:
        keep = dense_rows >= cols
        dense_rows, cols, vals = dense_rows[keep], cols[keep], vals[keep]
    kind = "symmetric" if symmetric else "general"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real {kind}\n")
        fh.write(f"{A.nrows} {A.ncols} {len(vals)}\n")
        for i, j, v in zip(dense_rows, cols, vals):
            fh.write(f"{i + 1} {j + 1} {float(v)!r}\n")


# ---------------------------------------------------------------------------
# Dense direct-solve oracle
# ---------------------------------------------------------------------------


def direct_solve_oracle(A: SparseMatrix, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by dense Gaussian elimination with partial pivoting.

    Intentionally independent of the iterative solvers: the matrix is
    densified and eliminated in place. Refuses systems larger than the
    densification bound (2000).
    """
    A.require_square()
    n = A.nrows
    if n > DENSE_SOLVE_LIMIT:
        raise DimensionError(f"oracle limited to n <= {DENSE_SOLVE_LIMIT}, got {n}")
    if b.shape[0] != n:
        raise DimensionError("right-hand side length must match matrix dimension")

    M = A.to_dense()
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
