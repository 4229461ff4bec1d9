"""The benchmark's workloads: which cells each solves, how its instances are
built, and how every solve is timed and verified.

A cell is one (problem, strategy, pairing) solve. Every solve starts at
x0 = 0 with shadow vector y = b and tolerance 1e-13, like the harness and
the CLI. The CoinToss seed of a cell comes from SeedSequence(seed,
spawn_key=(cell,)) where ``cell`` is the pairing's position among the paper
pairings, which is how ``harness.run_experiment`` numbers the combos of one
problem; at pass 0 the benchmark therefore solves exactly what
``lanswitch --switch ... --seed <seed>`` solves. Later passes of a timed run
use spawn_key=(cell, pass), so a longer run averages over more switch
sequences instead of repeating one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from lanswitch import problems, switching
from lanswitch.harness import PAPER_COMBOS, SwitchTemplate, derive_seed
from lanswitch.solvers import AlgoId, SolverConfig
from lanswitch.switching import ST1, ST2, ST3, CoinToss, SelectionPolicy, SwitchPlan

DELTAS = (0.0, 0.2, 5.0, 8.0)
TOL = 1e-13
# A solve counts as verified only if its recomputed residual and its error
# against the known solution (the ones vector) are within these limits.
RESIDUAL_LIMIT = 1e-12
ERROR_LIMIT = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ns: Tuple[int, ...]
    strategies: Tuple[object, ...]
    budget_per_n: int
    from_files: bool  # instances are parsed from MatrixMarket files
    operand_n: int  # problem size of the microbench operands
    # Passes per repeat of a timed run: at least 110 samples, so that ten
    # lie beyond p90, and more where one pass's p90 moves with the seed.
    passes: int

    @property
    def monitors(self) -> bool:
        """Whether the workload runs ST3, the only caller of denominator_report."""
        return any(isinstance(s, ST3) for s in self.strategies)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("paper-st2",
             "the paper's 160-cell ST2 grid, n 20-1000: per-call overhead of the "
             "scalar kernels and the driver dominates",
             (20, 40, 60, 80, 100, 200, 400, 600, 800, 1000), (ST2(cycle_len=20),),
             100, False, 200, 2),
    Workload("large-st2",
             "ST2 at n 2000 and 4000 loaded from MatrixMarket files: sparse kernel "
             "work and the file parser dominate",
             (2000, 4000), (ST2(cycle_len=20),), 100, True, 4000, 4),
    Workload("event-switch",
             "ST1 and library-default ST3 at n 20-200: the only workload that "
             "calls denominator_report and hands off every few iterations",
             (20, 40, 60, 80, 100, 200), (ST1(), ST3()), 20, False, 200, 1),
    Workload("event-st1",
             "the ST1 half of event-switch: handoffs only after breakdowns, through "
             "the ST1 branch of the driver; iteration counts barely move with the seed",
             (20, 40, 60, 80, 100, 200), (ST1(),), 20, False, 200, 2),
)}


@dataclass(frozen=True)
class Cell:
    key: Tuple[int, float]  # (n, delta) of the instance
    strategy: object
    pairing: int  # position among PAPER_COMBOS, the CoinToss cell index
    pool: Tuple[AlgoId, ...]


def cells_of(wl: Workload) -> List[Cell]:
    return [Cell((n, delta), strategy, pairing, pool)
            for delta in DELTAS
            for n in wl.ns
            for strategy in wl.strategies
            for pairing, pool in enumerate(PAPER_COMBOS.values())]


def cell_seed(seed: int, cell: int, pass_no: int) -> int:
    """harness.derive_seed for pass 0; a fresh child stream per later pass."""
    if pass_no == 0:
        return derive_seed(seed, cell)
    ss = np.random.SeedSequence(seed, spawn_key=(cell, pass_no))
    return int(ss.generate_state(1, np.uint64)[0])


def plan_for(cell: Cell, seed: int, pass_no: int, budget: int) -> SwitchPlan:
    policy = SelectionPolicy(cell.pool, CoinToss(seed=cell_seed(seed, cell.pairing, pass_no)))
    return SwitchPlan(strategy=cell.strategy, policy=policy,
                      start=SwitchTemplate(cell.strategy, cell.pool).resolve_start(),
                      cfg=SolverConfig(tol=TOL, max_iters=budget), global_budget=budget)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def mm_path(mm_dir: str, key: Tuple[int, float]) -> str:
    n, delta = key
    return os.path.join(mm_dir, f"baheux_n{n}_d{delta:g}.mtx")


def write_files(wl: Workload, mm_dir: str) -> None:
    """Write the MatrixMarket files a file-backed workload parses (untimed)."""
    for delta in DELTAS:
        for n in wl.ns:
            A = problems.gen_baheux(problems.BaheuxSpec(n=n, delta=delta)).A
            problems.write_matrix_market(mm_path(mm_dir, (n, delta)), A)


def build(wl: Workload, mm_dir: Optional[str]) -> Dict[Tuple[int, float], problems.ProblemInstance]:
    """Every instance the workload solves, by generation or by parsing."""
    out = {}
    for delta in DELTAS:
        for n in wl.ns:
            if wl.from_files:
                out[(n, delta)] = problems.read_matrix_market(mm_path(mm_dir, (n, delta)))
            else:
                out[(n, delta)] = problems.gen_baheux(problems.BaheuxSpec(n=n, delta=delta))
    return out


# ---------------------------------------------------------------------------
# Solving and verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Solve:
    outcome: str
    iterations: int
    switches: int
    restarts: int
    seconds: float
    verified: bool  # converged and passed both recomputed checks
    wrong: bool  # claimed Converged but failed a recomputed check

    @property
    def counts(self) -> Tuple[str, int, int, int]:
        return (self.outcome, self.iterations, self.switches, self.restarts)


class Verifier:
    """Recomputes b - A x with plain numpy, independently of the package kernels."""

    def __init__(self):
        self._rows: Dict[int, np.ndarray] = {}

    def check(self, inst: problems.ProblemInstance, x: np.ndarray) -> bool:
        A = inst.A
        rows = self._rows.get(id(A))
        if rows is None:
            rows = self._rows[id(A)] = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
        Ax = np.zeros(A.nrows)
        np.add.at(Ax, rows, A.data * x[A.indices])
        residual = float(np.sqrt(np.sum((inst.b - Ax) ** 2)))
        error = float(np.max(np.abs(x - 1.0)))
        return residual <= RESIDUAL_LIMIT and error <= ERROR_LIMIT


def solve(inst: problems.ProblemInstance, plan: SwitchPlan, verifier: Verifier) -> Solve:
    n = inst.A.nrows
    x0 = np.zeros(n)
    t0 = time.perf_counter()
    try:
        # Looked up at call time so that a traced run times the wrapped name.
        record, _ = switching.run_switching(inst.A, inst.b, x0, inst.b, plan)
    except Exception as exc:  # a raised solve is a failed solve, never a crash
        seconds = time.perf_counter() - t0
        print(f"# solve raised {type(exc).__name__}: {exc}")
        return Solve("Raised", 0, 0, 0, seconds, False, False)
    seconds = time.perf_counter() - t0
    claimed = record.outcome == "Converged"
    ok = claimed and verifier.check(inst, record.x)
    return Solve(record.outcome, record.iterations, record.switches, record.restarts,
                 seconds, ok, claimed and not ok)


def run_pass(wl: Workload, cells: List[Cell], instances, seed: int, pass_no: int,
             verifier: Verifier) -> List[Solve]:
    return [solve(instances[c.key], plan_for(c, seed, pass_no, wl.budget_per_n * c.key[0]),
                  verifier)
            for c in cells]
