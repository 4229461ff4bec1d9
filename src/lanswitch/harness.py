"""Experiment harness: the paper grid, its runs and their timing.

A cell is one (problem, combo) pair. Solo cells run a single algorithm with
an iteration budget; switching cells run a plan. A run's switching combos
are numbered 0, 1, ... among themselves, in order, and cell i draws its
coin-toss seed from the run's seed through numpy's SeedSequence spawn key
(i,); solo cells draw none. So batches are reproducible, cells are
independent, a combo tosses the same coins on every problem, and adding
solo combos to a run changes no switching cell.

The paper grid is defined here once: its deltas, orders, pairings,
tolerance, budgets per n and seed. ``run_experiment`` runs combos on every
instance of a family, as the CLI, the acceptance criteria and the README's
result tables do. Records carry no problem parameters beyond the order n:
the CLI, which renders them, knows its one problem's delta.
"""

from __future__ import annotations

import itertools
import statistics
import time
from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .problems import BaheuxSpec, ProblemInstance, gen_baheux
from .solvers import AlgoId, SolverConfig, _check_count
from .switching import (
    ST1,
    CoinToss,
    RunRecord,
    SelectionPolicy,
    Strategy,
    SwitchPlan,
    _check_seed,
    run_solo,
    run_switching,
)

__all__ = [
    "DEFAULT_SEED",
    "PAPER_COMBOS",
    "PAPER_DELTAS",
    "PAPER_DIMS",
    "PAPER_TOL",
    "SOLO_BUDGET_PER_N",
    "SWITCH_BUDGET_PER_N",
    "SwitchTemplate",
    "run_experiment",
    "run_cell",
    "paper_instances",
    "derive_seed",
]

DEFAULT_SEED = 42

# The published pairings: combination number -> pool, all ST2 with cycle 20.
PAPER_COMBOS = {
    6: (AlgoId.A4, AlgoId.A12),
    7: (AlgoId.A4, AlgoId.A5B10),
    8: (AlgoId.A4, AlgoId.A8B10),
    9: (AlgoId.A5B10, AlgoId.A8B10),
}

# The paper's Baheux grid: 4 deltas x 10 orders, solved to PAPER_TOL with a
# budget of SOLO_BUDGET_PER_N * n iterations alone and SWITCH_BUDGET_PER_N * n
# switching.
PAPER_DELTAS = (0.0, 0.2, 5.0, 8.0)
PAPER_DIMS = (20, 40, 60, 80, 100, 200, 400, 600, 800, 1000)
PAPER_TOL = 1e-13
SOLO_BUDGET_PER_N = 5
SWITCH_BUDGET_PER_N = 100


@dataclass(frozen=True)
class SwitchTemplate:
    """A switching combo before seeding: strategy, pool, optional start."""

    strategy: Strategy
    pool: Tuple[AlgoId, ...]
    start: Optional[AlgoId] = None

    def __post_init__(self):
        # A bad pool or start fails here, before any cell is solved.
        self.plan(0, SolverConfig(), 1)

    def plan(self, seed: int, cfg: SolverConfig, budget: int) -> SwitchPlan:
        """The run plan under a coin toss seeded with ``seed``."""
        policy = SelectionPolicy(pool=self.pool, mode=CoinToss(seed=seed))
        return SwitchPlan(self.strategy, policy, self.resolve_start(), cfg, budget)

    def resolve_start(self) -> AlgoId:
        """``start`` if given; else A8/B10 for an ST1 pool that holds it; else
        the pool's first member.

        The ST1 rule saves iterations: on the paper grid, ST1 converges on
        every cell from either start, and both pools that hold A8/B10 take
        fewer iterations in all started with it than with their first
        member. The README's ST1-start table, which
        ``tools/paper_report.py`` prints, gives the totals.
        """
        if self.start is not None:
            return self.start
        if isinstance(self.strategy, ST1) and AlgoId.A8B10 in self.pool:
            return AlgoId.A8B10
        return self.pool[0]


Combo = Union[AlgoId, SwitchTemplate]


def derive_seed(seed: int, cell_index: int) -> int:
    """Per-cell child seed from the experiment seed (splittable stream)."""
    ss = np.random.SeedSequence(seed, spawn_key=(cell_index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _cell_seeds(combos: Sequence[Combo], seed: int) -> List[Optional[int]]:
    """Each combo's coin-toss seed: ``derive_seed(seed, i)`` for the i-th
    switching combo, counted from 0 among the switching combos alone, and
    None for a solo combo."""
    switching = itertools.count()
    return [None if isinstance(combo, AlgoId) else derive_seed(seed, next(switching))
            for combo in combos]


def run_cell(inst: ProblemInstance, combo: Combo, seed: Optional[int],
             tol: float = PAPER_TOL, budget: Optional[int] = None) -> Tuple[RunRecord, float]:
    """Run one cell once; returns the record and the wall seconds of the solve.

    ``seed`` is a switching cell's coin-toss seed; a solo cell takes None.
    ``budget`` defaults to the combo's budget per n times the order n.
    """
    n = inst.A.nrows
    solo = isinstance(combo, AlgoId)
    if budget is None:
        budget = (SOLO_BUDGET_PER_N if solo else SWITCH_BUDGET_PER_N) * n
    solver_cfg = SolverConfig(tol=tol, max_iters=budget)
    x0 = np.zeros(n)
    if solo:
        t0 = time.perf_counter()
        record = run_solo(inst.A, inst.b, x0, inst.b, combo, solver_cfg)
    else:
        plan = combo.plan(seed, solver_cfg, budget)
        t0 = time.perf_counter()
        record, _ = run_switching(inst.A, inst.b, x0, inst.b, plan)
    return record, time.perf_counter() - t0


def run_experiment(instances: Mapping[Hashable, ProblemInstance], combos: Sequence[Combo],
                   seed: int = DEFAULT_SEED, tol: float = PAPER_TOL,
                   budget: Optional[int] = None,
                   repeats: int = 1) -> Dict[Tuple[Hashable, int], RunRecord]:
    """Every combo on every instance; the records keyed (instance key, combo
    position).

    Each record is the last of ``repeats`` solves of its cell and carries the
    median of their wall seconds; building the problems is not timed.
    ``budget`` defaults to the combo's budget per n times the order n. A bad
    seed, tol, budget or repeats raises ValueError before any solve; a run
    that fails ends in its record's outcome and never aborts the batch.
    """
    _check_count("repeats", repeats)
    SolverConfig(tol=tol)  # ValueError unless tol > 0
    if budget is not None:
        _check_count("budget", budget)
    _check_seed(seed)
    seeds = _cell_seeds(combos, seed)
    records = {}
    for key, inst in instances.items():
        for position, combo in enumerate(combos):
            runs = [run_cell(inst, combo, seeds[position], tol, budget)
                    for _ in range(repeats)]
            records[key, position] = replace(
                runs[-1][0], seconds=statistics.median(s for _, s in runs))
    return records


def paper_instances() -> Dict[Tuple[float, int], ProblemInstance]:
    """The paper grid's 40 Baheux problems, keyed (delta, n)."""
    return {(delta, n): gen_baheux(BaheuxSpec(n=n, delta=delta))
            for delta in PAPER_DELTAS for n in PAPER_DIMS}

