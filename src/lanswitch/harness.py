"""Experiment harness: the paper grid, its runs, their timing and reports.

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
result tables do.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time
from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .problems import BaheuxSpec, ProblemInstance, gen_baheux
from .linalg import NonFiniteError
from .solvers import AlgoId, OutcomeKind, SolverConfig, _check_count, init, run
from .switching import (
    ST1,
    CoinToss,
    RunRecord,
    SelectionPolicy,
    Strategy,
    SwitchPlan,
    _check_seed,
    _residual_norm,
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
    "emit_table",
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


def _solo_record(inst: ProblemInstance, algo: AlgoId, cfg: SolverConfig) -> RunRecord:
    x = np.zeros(inst.A.nrows)
    iterations = 0
    try:
        state = init(algo, inst.A, inst.b, x, inst.b, cfg)
        if state.iters_used > cfg.max_iters:
            # The prologue alone overran the budget (A12's charges 3), so
            # the run ends at x0 = 0, as a switching handoff skips such a
            # member.
            outcome = OutcomeKind.ITER_LIMIT
        else:
            # The state stops itself once it has used cfg.max_iters
            # iterations: the step after the last one reports IterLimit.
            outcome = run(state, cfg.max_iters + 1)[0].kind
            x, iterations = state.x, state.iters_used
    except NonFiniteError:
        # b - A x0 or its norm overflowed: the run broke down.
        outcome = OutcomeKind.BREAKDOWN
    return RunRecord(
        n=inst.A.nrows,
        delta=math.nan,
        combo=f"{algo.value}/solo",
        outcome=outcome.value,
        # Recomputed outside the try, so an overflow reads inf, as a
        # switching run's does, and leaves the outcome as it is.
        residual=_residual_norm(inst.A, inst.b, x),
        iterations=iterations,
        switches=0,
        restarts=0,
        seconds=math.nan,
        x=x,
    )


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
    if solo:
        t0 = time.perf_counter()
        record = _solo_record(inst, combo, solver_cfg)
        return record, time.perf_counter() - t0

    plan = combo.plan(seed, solver_cfg, budget)
    x0 = np.zeros(n)
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
    median of their wall seconds; building the problems is not timed. A
    record's delta stays NaN. ``budget`` defaults to the combo's budget per n
    times the order n. A bad seed, tol, budget or repeats raises ValueError
    before any solve; a run that fails ends in its record's outcome and never
    aborts the batch.
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


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("n", "delta", "combo", "outcome", "residual",
               "iterations", "switches", "restarts", "seconds")


def _sci(value: float) -> str:
    return f"{value:.4e}"


def emit_table(records: Sequence[RunRecord], format: str = "csv") -> str:
    """Render records as CSV (one row per record) or a paper-shaped markdown table."""
    if not records:
        raise ValueError("no records to emit")
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for r in records:
            lines.append(",".join([
                str(r.n), _sci(r.delta), r.combo, r.outcome, _sci(r.residual),
                str(r.iterations), str(r.switches), str(r.restarts), _sci(r.seconds),
            ]))
        return "\n".join(lines) + "\n"
    if format == "md":
        return _emit_markdown(records)
    raise ValueError(f"unknown format {format!r} (expected csv or md)")


def _emit_markdown(records: Sequence[RunRecord]) -> str:
    out = []
    # NaN equals no NaN, and a dict key tells NaNs apart by identity, so
    # every NaN delta is keyed by the one math.nan: one external table.
    for delta in dict.fromkeys(math.nan if math.isnan(r.delta) else r.delta for r in records):
        subset = [r for r in records if r.delta == delta or
                  (math.isnan(delta) and math.isnan(r.delta))]
        combos = list(dict.fromkeys(r.combo for r in subset))
        dims = list(dict.fromkeys(r.n for r in subset))
        cell = {(r.n, r.combo): r for r in subset}
        out.append(f"### delta = {delta:g}" if not math.isnan(delta)
                   else "### external problem")
        header = ["n"]
        for combo in combos:
            header += [f"{combo} residual", f"{combo} T(s)"]
        out.append("| " + " | ".join(header) + " |")
        out.append("|" + "---|" * len(header))
        for n in dims:
            row = [str(n)]
            for combo in combos:
                r = cell.get((n, combo))
                if r is None:
                    row += ["-", "-"]
                else:
                    row += [_sci(r.residual), _sci(r.seconds)]
            out.append("| " + " | ".join(row) + " |")
        out.append("")
    return "\n".join(out)
