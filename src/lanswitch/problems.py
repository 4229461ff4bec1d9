"""Block-tridiagonal test systems and MatrixMarket input and output."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError, SparseMatrix
from .solvers import _check_int

__all__ = [
    "BLOCK_SIZE",
    "BaheuxSpec",
    "ProblemInstance",
    "MatrixMarketError",
    "gen_baheux",
    "read_matrix_market",
    "write_matrix_market",
]

BLOCK_SIZE = 10
# Column offsets of a row's five stencil entries, in column order.
_STENCIL_OFFSETS = np.array([-BLOCK_SIZE, -1, 0, 1, BLOCK_SIZE])
_STENCIL_OFFSETS.flags.writeable = False


class MatrixMarketError(ValueError):
    """Malformed or unsupported MatrixMarket input."""


@dataclass(frozen=True)
class BaheuxSpec:
    """Parameters of the block-tridiagonal test family.

    ``n`` must be an integer multiple of the fixed block size 10; ``delta``
    skews the inner blocks (superdiagonal -1+delta, subdiagonal -1-delta).
    delta=0 gives a symmetric matrix.
    """

    n: int
    delta: float = 0.0

    def __post_init__(self):
        n = _check_int("n", self.n)
        if n < BLOCK_SIZE or n % BLOCK_SIZE != 0:
            raise ValueError(f"n must be a positive multiple of {BLOCK_SIZE}, got {self.n}")


@dataclass(frozen=True)
class ProblemInstance:
    """The linear system ``A x = b``.

    Both builders make ``b`` as ``A`` times the all-ones vector, so that
    vector is the exact solution, and freeze ``b`` (read-only).
    """

    A: SparseMatrix
    b: np.ndarray

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
    # Row i's five candidate entries in column order, at columns
    # i + _STENCIL_OFFSETS: the -I block to the left, the inner subdiagonal,
    # diagonal and superdiagonal, the -I block to the right; ``stored``
    # clears those outside the matrix or the inner block.
    vals = np.array([-1.0, -1.0 - delta, 4.0, -1.0 + delta, -1.0])
    stored = np.ones((n, 5), dtype=bool)
    stored[:BLOCK_SIZE, 0] = False
    stored[::BLOCK_SIZE, 1] = False
    stored[BLOCK_SIZE - 1::BLOCK_SIZE, 3] = False
    stored[n - BLOCK_SIZE:, 4] = False
    # Flat positions of the stored candidates, row by row; row i's entries
    # are those between positions 5 i and 5 (i + 1).
    kept = np.flatnonzero(stored)
    rows, slot = np.divmod(kept, 5)
    indptr = np.searchsorted(kept, np.arange(0, 5 * n + 1, 5))
    data = vals[slot]
    A = SparseMatrix(n, indptr, rows + _STENCIL_OFFSETS[slot], data)
    # A times ones: row sums in stored order from +0.0, which is how
    # A.matvec adds its terms data * 1.0, so the bits are the same.
    b = np.bincount(rows, weights=data, minlength=n)
    b.flags.writeable = False
    return ProblemInstance(A=A, b=b)


# ---------------------------------------------------------------------------
# MatrixMarket coordinate format (real, general or symmetric, 1-based)
# ---------------------------------------------------------------------------


def read_matrix_market(path: str) -> ProblemInstance:
    """Read a coordinate-format MatrixMarket file into a square problem.

    A symmetric file stores only its entries on and below the diagonal, and
    is expanded to full storage; an entry above the diagonal is an error.
    The right-hand side is the matrix applied to the all-ones vector, so
    the exact solution is known. The file must hold exactly the entry count
    its size line declares.
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
        try:
            nrows, ncols, nnz = (int(p) for p in size_line.split())
        except ValueError:
            raise MatrixMarketError(f"bad size line: {size_line!r}") from None
        if nrows != ncols:
            raise MatrixMarketError(f"matrix must be square, got {nrows}x{ncols}")
        if nnz < 0:
            raise MatrixMarketError(f"negative entry count {nnz}")

        entries = []
        for _ in range(nnz):
            line = _next_content_line(fh)
            if line is None:
                raise MatrixMarketError(f"expected {nnz} entries, file ended early")
            try:
                i, j, v = line.split()
                entries.append((int(i) - 1, int(j) - 1, float(v)))
            except ValueError:
                raise MatrixMarketError(f"bad entry line: {line!r}") from None
            if symmetry == "symmetric" and int(j) > int(i):
                raise MatrixMarketError(f"symmetric file, entry above the diagonal: {line!r}")
        if _next_content_line(fh) is not None:
            raise MatrixMarketError(f"more than the declared {nnz} entries")

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

    A = SparseMatrix.from_coo(nrows, rows, cols, vals)
    b = A.matvec(np.ones(nrows))
    b.flags.writeable = False
    return ProblemInstance(A=A, b=b)


def _next_content_line(fh):
    for line in fh:
        stripped = line.strip()
        if stripped and not stripped.startswith("%"):
            return stripped
    return None


def write_matrix_market(path: str, A: SparseMatrix) -> None:
    """Write ``A`` in general coordinate format, every stored entry."""
    rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{A.nrows} {A.nrows} {A.nnz}\n")
        for i, j, v in zip(rows, A.indices, A.data):
            fh.write(f"{i + 1} {j + 1} {float(v)!r}\n")
