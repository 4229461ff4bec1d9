"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the throughput of a core moves by up to 2x, in spells
that last from seconds to minutes, and a spell can cover a whole run. The
untraced run times this kernel between every few solves and divides each
solve by the kernel time measured around it, so that a time is a multiple
of the kernel's and a slow spell scales both alike. Reported times are
those multiples scaled by NOMINAL_S: what the solve would take on a host
that runs the kernel in NOMINAL_S.

The kernel is a few steps of textbook BiCG on two fixed random sparse
matrices (n = 150 and n = 1000), written in plain Python and numpy in the
style of the package: a product by gather and bincount, finiteness checks,
dots and axpys. It never calls lanswitch, so a change to the package moves
the solves and not the yardstick; its instruction mix is close to the
solves', so contention from other tenants slows both alike.
"""

from __future__ import annotations

import math
import time

import numpy as np

# What one call of the kernel counts as, the unit of every reported time.
# A constant: about the kernel's time on the baseline host (2-vCPU Intel
# Xeon) in a quiet minute. Its median per run there ranges 0.86-1.51 ms,
# so reported times are of the order of wall times.
NOMINAL_S = 0.0011

_STEPS = ((150, 12), (1000, 6))  # (n, BiCG steps) per matrix


def _operator(n: int, seed: int):
    """A diagonally dominant matrix with 5 entries per row on average."""
    rng = np.random.default_rng(seed)
    off = 4 * n
    rows = np.concatenate([np.arange(n), rng.integers(0, n, off)])
    cols = np.concatenate([np.arange(n), rng.integers(0, n, off)])
    vals = np.concatenate([np.full(n, 6.0), rng.standard_normal(off)])
    return rows, cols, vals, rng.standard_normal(n)


_OPERATORS = [(_operator(n, seed), steps) for seed, (n, steps) in enumerate(_STEPS)]


def _product(out_idx, in_idx, vals, v, n):
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.bincount(out_idx, weights=vals * v[in_idx], minlength=n)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("yardstick product")
    return out


def _dot(u, v) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        out = float(np.dot(u, v))
    if not math.isfinite(out):
        raise FloatingPointError("yardstick dot")
    return out


def _bicg(op, steps: int) -> float:
    rows, cols, vals, b = op
    n = b.shape[0]
    x = np.zeros(n)
    r, rt = b.copy(), b.copy()
    p, pt = r.copy(), rt.copy()
    rho = _dot(rt, r)
    for _ in range(steps):
        q = _product(rows, cols, vals, p, n)
        qt = _product(cols, rows, vals, pt, n)
        alpha = rho / _dot(pt, q)
        x = x + alpha * p
        r = r - alpha * q
        rt = rt - alpha * qt
        rho_next = _dot(rt, r)
        beta, rho = rho_next / rho, rho_next
        p = r + beta * p
        pt = rt + beta * pt
    return math.sqrt(_dot(r, r))


def tick() -> float:
    """Seconds one call of the reference kernel takes now."""
    t0 = time.perf_counter()
    for op, steps in _OPERATORS:
        _bicg(op, steps)
    return time.perf_counter() - t0
