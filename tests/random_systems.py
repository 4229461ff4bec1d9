"""Test systems: random small ones, shared by the property test and
tools/fingerprint.py, and the convection-diffusion family of criterion 9."""

import numpy as np

from lanswitch.linalg import SparseMatrix
from lanswitch.problems import BaheuxSpec, ProblemInstance, gen_baheux
from oracles import from_dense

KINDS = ("gaussian", "gaussian", "sparse", "ill", "baheux")


def random_system(kind, n, seed):
    """A Gaussian, a sparse diagonally shifted, an ill-conditioned or a Baheux system."""
    rng = np.random.default_rng(seed)
    if kind == "baheux":
        inst = gen_baheux(BaheuxSpec(n=10 * (1 + n % 2), delta=float(rng.choice([0.0, 5.0]))))
        return inst.A, inst.b
    if kind == "gaussian":
        dense = rng.standard_normal((n, n))
    elif kind == "sparse":
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3) + np.eye(n)
    else:
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        dense = (u * np.logspace(0, -12, n)) @ v.T
    return from_dense(dense), rng.standard_normal(n)


def convection_diffusion(m, beta, gamma):
    """The 5-point convection-diffusion operator of an m x m grid, b = A 1.

    Node (i, j) is unknown i m + j. Its row holds 4 on the diagonal,
    -1 - beta and -1 + beta for its left and right neighbours (j - 1 and
    j + 1), and -1 - gamma and -1 + gamma for those below and above (i - 1
    and i + 1); a neighbour outside the grid is dropped. Saad, *Iterative
    Methods for Sparse Linear Systems*, 2nd ed., ch. 2.
    """
    i, j = np.divmod(np.arange(m * m), m)
    rows, cols, vals = [], [], []
    for di, dj, value in ((0, 0, 4.0), (0, -1, -1.0 - beta), (0, 1, -1.0 + beta),
                          (-1, 0, -1.0 - gamma), (1, 0, -1.0 + gamma)):
        ni, nj = i + di, j + dj
        inside = (ni >= 0) & (ni < m) & (nj >= 0) & (nj < m)
        rows.append(np.flatnonzero(inside))
        cols.append((ni * m + nj)[inside])
        vals.append(np.full(rows[-1].size, value))
    A = SparseMatrix.from_coo(m * m, np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(vals))
    return ProblemInstance(A=A, b=A.matvec(np.ones(m * m)))
