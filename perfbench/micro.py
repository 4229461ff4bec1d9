"""Microbenchmarks of single layer calls on one fixed operand per workload.

The operand is the Baheux instance at the workload's operand size with
delta = 5. Every figure is a median over repeated timed batches. Flops and
bytes of ``matvec`` are computed from the array sizes, not measured.
"""

from __future__ import annotations

import os
import statistics
import time
import timeit
from typing import Callable, Dict

import numpy as np

from lanswitch import linalg, problems, solvers
from lanswitch.solvers import AlgoId, SolverConfig
from tracer import BenchError

ALGOS = (AlgoId.A4, AlgoId.A12, AlgoId.A5B10, AlgoId.A8B10)
REPEATS = 7
# Steps timed per fresh state; every algorithm survives this many steps on
# the operand from x0 = 0, so each sample is a run of ordinary steps.
STEPS = 10
STEPS_BEFORE_REPORT = 3
OPERAND_DELTA = 5.0


def per_call_s(fn: Callable[[], object]) -> float:
    """Median seconds per call over REPEATS batches of at least 0.02 s each."""
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < 0.02:
        number *= 2
    return statistics.median(timer.repeat(REPEATS, number)) / number


def matvec_bytes(A: linalg.SparseMatrix) -> int:
    """Bytes the CSR product reads and writes, from array sizes: values,
    column indices and row indices of every stored entry, input and output."""
    return 8 * (3 * A.nnz + 2 * A.nrows)


def measure(n: int, seed: int, mm_dir: str) -> Dict[str, float]:
    spec = problems.BaheuxSpec(n=n, delta=OPERAND_DELTA)
    inst = problems.gen_baheux(spec)
    A, b = inst.A, inst.b
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    x0 = np.zeros(n)
    cfg = SolverConfig(max_iters=10 * STEPS)
    out: Dict[str, float] = {}

    matvec_s = per_call_s(lambda: A.matvec(v))
    out["linalg.matvec.flops_computed"] = 2 * A.nnz
    out["linalg.matvec.bytes_computed"] = matvec_bytes(A)
    out["linalg.matvec.gflops"] = 2 * A.nnz / matvec_s / 1e9
    out["linalg.dot.floor_us"] = per_call_s(lambda: np.dot(u, v)) * 1e6

    for algo in ALGOS:
        name = algo.value.lower()
        out[f"solvers.init.us.{name}"] = per_call_s(
            lambda: solvers.init(algo, A, b, x0, b, cfg)) * 1e6
        out[f"solvers.step.us.{name}"] = _step_s(algo, A, b, x0, cfg) * 1e6
        state = solvers.init(algo, A, b, x0, b, cfg)
        for _ in range(STEPS_BEFORE_REPORT):
            if state.step().is_terminal:
                raise BenchError(f"{algo} stopped before its denominator_report microbench")
        out[f"solvers.denominator_report.us.{name}"] = per_call_s(
            lambda: solvers.denominator_report(state)) * 1e6

    path = os.path.join(mm_dir, f"operand_n{n}.mtx")
    problems.write_matrix_market(path, A)
    out["problems.gen_baheux.s"] = _median_s(lambda: problems.gen_baheux(spec))
    out["problems.read_matrix_market.s"] = _median_s(lambda: problems.read_matrix_market(path))
    return out


def _step_s(algo, A, b, x0, cfg) -> float:
    samples = []
    for _ in range(REPEATS):
        state = solvers.init(algo, A, b, x0, b, cfg)
        t0 = time.perf_counter()
        for _ in range(STEPS):
            if state.step().is_terminal:
                raise BenchError(f"{algo} stopped within {STEPS} microbench steps")
        samples.append((time.perf_counter() - t0) / STEPS)
    return statistics.median(samples)


def _median_s(fn: Callable[[], object]) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)
