"""Random small test systems, shared by the property test and
tools/fingerprint.py. The convection-diffusion family of criterion 9 is
built by tools/paper_report.py."""

import numpy as np

from lanswitch.problems import BaheuxSpec, gen_baheux
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

