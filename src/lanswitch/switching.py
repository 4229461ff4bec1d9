"""Switching framework: run one Lanczos-type solver, hand its iterate to another.

One loop drives all three strategies, and a strategy is two values that
loop reads: a cycle cap ``cycle_len`` and a ``monitor(state) -> bool``,
each None when the strategy has no such rule. ST1 has neither, ST2 has the
cap, and ST3 has the monitor: it holds when an entry of
``denominator_report``, the next step's denominators, has a magnitude below
its threshold times the entry's scale, the one its guard uses.

Each pass computes b - A x once, at the current iterate. A norm within the
tolerance ends the run Converged, whatever the last chunk reported, also at
a spent budget or an iteration limit. Otherwise a spent global budget, an
iteration limit or an overflowed norm ends it Exhausted. Otherwise the pass
hands off with that residual and runs the installed algorithm for one
chunk, the remaining budget cut at the end of the cycle when there is a
cap, with the monitor as ``run``'s ``stop``, so the chunk also ends after
the first step at which the monitor holds. The chunk's result sets the next
handoff's cause, and the strategy is not asked again. A convergence claim,
which the next pass confirms or refutes, hands off with a CycleEnd: a
recurrence residual drifts from b - A x. A breakdown hands off with a
BreakdownSwitch. A live state whose chunk advanced fewer iterations than
it was given stopped because the monitor held, and hands off with a
MonitorSwitch; otherwise the cycle is full and hands off with a
ProperSwitch.

A handoff tries the drawn algorithm, then the rest of the pool in order. It
skips only members that broke down at the current iterate or whose prologue
would overrun the budget; an x-update, by a step or by a prologue, makes
every earlier breakdown stale. A switch rule's handoff (ProperSwitch or
MonitorSwitch) that installs the running algorithm again is a Restart, so
every transition from an algorithm to itself is a Restart or a CycleEnd.

A handoff re-initializes the incoming algorithm at the current iterate with
a freshly recomputed residual, so every cycle starts with an exact residual
identity. That residual also re-seeds the shadow vector, so each cycle is a
fresh invocation with the standard y = r0 choice; only the first cycle uses
the caller's y. Reusing that y at a handoff fails: a finished cycle leaves
its residual orthogonal to the old shadow Krylov space, which hands the
incoming algorithm a numerically degenerate moment sequence. A run whose
iterate grows until a norm overflows ends Exhausted with residual inf instead
of raising. ``run_switching`` and ``run_solo`` each enter one
``np.errstate`` that silences numpy's over/invalid warnings for the whole
run, residual norms included; no warning escapes a run.

``run_solo`` runs one algorithm alone, with no handoff, and reports it in
the same ``RunRecord``, so every run, solo or switching, becomes its record
in this module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Set, Tuple, Union

import numpy as np

from .linalg import NonFiniteError, SparseMatrix, norm2
from .solvers import (
    _STATE_CLASSES,
    _check_count,
    _check_int,
    _check_system,
    AlgoId,
    OutcomeKind,
    SolverConfig,
    SolverState,
    denominator_report,
    init,
    run,
)

__all__ = [
    "ST1",
    "ST2",
    "ST3",
    "Strategy",
    "CoinToss",
    "SelectionPolicy",
    "SwitchPlan",
    "EventKind",
    "SwitchEvent",
    "SwitchTrace",
    "RunRecord",
    "select_next",
    "run_switching",
    "run_solo",
]


@dataclass(frozen=True)
class ST1:
    """Switch only when the running algorithm breaks down."""

    cycle_len: ClassVar[None] = None
    monitor: ClassVar[None] = None


@dataclass(frozen=True)
class ST2:
    """Pre-emptive switching after every ``cycle_len`` iterations."""

    cycle_len: int = 20
    monitor: ClassVar[None] = None

    def __post_init__(self):
        _check_count("cycle_len", self.cycle_len)


@dataclass(frozen=True)
class ST3:
    """Switch when an upcoming denominator is small for its guard's scale.

    After every step, each denominator the next step will divide by is
    compared with ``monitor_threshold`` times the natural scale its guard
    uses (||u|| ||v|| for a scalar product (u, v), 1 for a C1 coefficient).
    A relative test does not fire merely because the residual, and with it
    every product (y, r), has become small.
    """

    cycle_len: ClassVar[None] = None
    monitor_threshold: float = 1e-8

    def __post_init__(self):
        if not (self.monitor_threshold > 0):
            raise ValueError("monitor_threshold must be positive")

    def monitor(self, state: SolverState) -> bool:
        # The report makes the next step's preparation, which that step
        # reuses.
        return any(abs(value) < self.monitor_threshold * scale
                   for _, value, scale in denominator_report(state))


Strategy = Union[ST1, ST2, ST3]


def _check_seed(seed) -> None:
    """ValueError unless ``seed`` is a non-negative integer (a numpy one too)."""
    if _check_int("seed", seed) < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


@dataclass(frozen=True)
class CoinToss:
    """Uniform random choice from the pool on a seeded PCG64 stream."""

    seed: int

    def __post_init__(self):
        _check_seed(self.seed)


@dataclass(frozen=True)
class SelectionPolicy:
    """The pool a coin toss draws from; a one-member pool always restarts."""

    pool: Tuple[AlgoId, ...]
    mode: CoinToss

    def __post_init__(self):
        pool = tuple(self.pool)
        object.__setattr__(self, "pool", pool)
        if not pool:
            raise ValueError("pool must be non-empty")
        if len(set(pool)) != len(pool):
            raise ValueError("pool entries must be distinct")
        if not isinstance(self.mode, CoinToss):
            raise ValueError(f"unknown selection mode {self.mode!r}")


@dataclass(frozen=True)
class SwitchPlan:
    """A full switching run description."""

    strategy: Strategy
    policy: SelectionPolicy
    start: AlgoId
    cfg: SolverConfig
    global_budget: int

    def __post_init__(self):
        if self.start not in self.policy.pool:
            raise ValueError("start algorithm must be a pool member")
        _check_count("global_budget", self.global_budget)


class EventKind(enum.Enum):
    CYCLE_END = "CycleEnd"
    BREAKDOWN_SWITCH = "BreakdownSwitch"
    MONITOR_SWITCH = "MonitorSwitch"
    RESTART = "Restart"
    PROPER_SWITCH = "ProperSwitch"
    CONVERGED = "Converged"
    EXHAUSTED = "Exhausted"


@dataclass(frozen=True)
class SwitchEvent:
    """One transition or the run's end, at ``at_iteration``.

    ``residual_norm`` is ||b - A x||, recomputed at that iterate (inf when it
    overflows), never a recurrence residual.
    """

    kind: EventKind
    at_iteration: int
    from_algo: AlgoId
    to_algo: AlgoId
    residual_norm: float


@dataclass
class SwitchTrace:
    """Ordered transition/termination events of one switching run."""

    events: List[SwitchEvent] = field(default_factory=list)

    def append(self, event: SwitchEvent) -> None:
        if self.events and event.at_iteration <= self.events[-1].at_iteration:
            raise ValueError("event iterations must strictly increase")
        self.events.append(event)


@dataclass
class RunRecord:
    """One run on one system of order ``n``; ``x`` is kept for verification,
    not for reports.

    ``residual`` is ||b - A x|| of that ``x``, recomputed (inf when it
    overflows), for every outcome, solo or switching. A solo run makes no
    switch or restart; ``seconds`` stays NaN until the harness times the run.
    A report takes any other problem parameter, such as delta, from the
    problem.
    """

    n: int
    combo: str
    outcome: str
    residual: float
    iterations: int
    switches: int = 0
    restarts: int = 0
    seconds: float = math.nan
    x: Optional[np.ndarray] = None


def _residual(A: SparseMatrix, b: np.ndarray,
              x: np.ndarray) -> Tuple[Optional[np.ndarray], float]:
    """(b - A x, ||b - A x||), the residual every record and event reports;
    (None, inf) when either overflows. Raises nothing; the caller holds the
    ``np.errstate`` that keeps numpy's warnings in."""
    try:
        r = b - A.matvec(x)
        return r, norm2(r)
    except NonFiniteError:
        return None, math.inf


def select_next(policy: SelectionPolicy, rng: np.random.Generator) -> AlgoId:
    """Pick the algorithm for the next cycle: a uniform draw from the pool.

    The draw advances ``rng``. The handoff classifies the event (Restart or
    ProperSwitch), since it may install another pool member.
    """
    return policy.pool[int(rng.integers(0, len(policy.pool)))]


def run_switching(A: SparseMatrix, b: np.ndarray, x0: np.ndarray, y: np.ndarray,
                  plan: SwitchPlan) -> Tuple[RunRecord, SwitchTrace]:
    """Drive solver cycles under the plan until convergence or exhaustion.

    Each pass recomputes b - A x once, at the current iterate, and ends the
    run Converged when its norm meets the tolerance, whatever the last chunk
    reported; otherwise a spent budget, an iteration limit or an overflow
    ends it Exhausted, and any other pass hands off and runs one chunk.
    Every handoff re-initializes the incoming algorithm at the last iterate
    of the outgoing one. The returned record carries the final iterate and
    its recomputed ||b - A x|| (inf when it overflows), the terminal event's
    residual; seconds is filled in by the harness. The record's
    combo is the pool and the strategy, e.g. ``A4+A12/ST2``. Invalid input
    raises ValueError, as ``init`` does.
    """
    strategy, policy, cfg, budget = plan.strategy, plan.policy, plan.cfg, plan.global_budget
    trace = SwitchTrace()
    # The coin toss: PCG64 over a SeedSequence of the policy's seed.
    rng = np.random.default_rng(policy.mode.seed)
    x = np.array(x0, dtype=np.float64, copy=True)
    current, iters = plan.start, 0
    # Pool members that broke down at the current iterate; a handoff skips
    # them, and ends the run Exhausted when it skips every member.
    barren: Set[AlgoId] = set()
    # What the next handoff's event is: None at the run's start (no event),
    # EXHAUSTED once the budget or the iteration limit is spent.
    cause: Optional[EventKind] = None
    with np.errstate(over="ignore", invalid="ignore"):
        _check_system(A, b, x0, y)
        while True:
            r, r_norm = _residual(A, b, x)
            # An overflow leaves the iterate finite, but it has grown until
            # no handoff can recover.
            if r_norm <= cfg.tol or cause is EventKind.EXHAUSTED or r_norm == math.inf:
                break
            # The handoff: the drawn member, then the rest of the pool. It
            # classifies the event, since it may install another member.
            first = plan.start if cause is None else select_next(policy, rng)
            for algo in [first] + [a for a in policy.pool if a != first]:
                if algo in barren or iters + _STATE_CLASSES[algo].PROLOGUE_CHARGES[-1] > budget:
                    continue
                # Only the first cycle pairs with the caller's y.
                state = init(algo, A, b, x, r if iters else y, cfg, residual=(r, r_norm))
                if state.outcome.kind is OutcomeKind.BREAKDOWN and state.k == 0:
                    barren.add(algo)
                    continue
                if cause is not None:
                    same = (cause in (EventKind.PROPER_SWITCH, EventKind.MONITOR_SWITCH)
                            and algo == current)
                    # The transition is stamped at the handoff iteration,
                    # before the incoming prologue consumes its charge.
                    trace.append(SwitchEvent(EventKind.RESTART if same else cause,
                                             iters, current, algo, r_norm))
                current = algo
                iters += state.iters_used
                break
            else:
                break
            chunk = budget - iters
            if strategy.cycle_len is not None:
                # An A12 prologue alone can fill a short cycle.
                chunk = min(chunk, strategy.cycle_len - state.iters_used)
            used = run(state, chunk, strategy.monitor)[1] if chunk > 0 else 0
            iters += used
            x = state.x
            if state.k > 0:
                # The iterate moved, so earlier failures are stale.
                barren.clear()
            kind = state.outcome.kind
            if kind is OutcomeKind.ITER_LIMIT or iters >= budget:
                cause = EventKind.EXHAUSTED
            elif kind is OutcomeKind.CONVERGED:
                # A claim the next pass's residual refutes starts a new cycle.
                cause = EventKind.CYCLE_END
            elif kind is OutcomeKind.BREAKDOWN:
                barren.add(current)
                cause = EventKind.BREAKDOWN_SWITCH
            elif used < chunk:
                # ``run`` ends a chunk early on a live state only when its
                # ``stop``, the monitor, holds.
                cause = EventKind.MONITOR_SWITCH
            else:
                cause = EventKind.PROPER_SWITCH
    # Whichever rule ended it, a run is Converged exactly when its residual
    # meets tol.
    end = EventKind.CONVERGED if r_norm <= cfg.tol else EventKind.EXHAUSTED
    trace.append(SwitchEvent(end, iters, current, current, r_norm))
    pool = "+".join(a.value for a in policy.pool)
    transitions = trace.events[:-1]
    record = RunRecord(
        n=A.nrows,
        combo=f"{pool}/{type(strategy).__name__}",
        outcome=end.value,
        residual=r_norm,
        iterations=iters,
        switches=sum(e.from_algo != e.to_algo for e in transitions),
        restarts=sum(e.from_algo == e.to_algo for e in transitions),
        x=x,
    )
    return record, trace


def run_solo(A: SparseMatrix, b: np.ndarray, x0: np.ndarray, y: np.ndarray,
             algo: AlgoId, cfg: SolverConfig) -> RunRecord:
    """Run ``algo`` alone from x0, with shadow vector y, for at most
    ``cfg.max_iters`` iterations.

    The record keeps the solver's own outcome, so a Converged is the
    recurrence's claim, which nothing verifies against b - A x; its residual
    is the recomputed ||b - A x|| of its iterate, as every record's is. A
    start whose prologue charges more than the budget (A12's charges 3)
    ends IterLimit at x0 with 0 iterations, as a switching handoff skips
    such a member; an overflow of b - A x0 is a Breakdown at x0. The
    record's combo is e.g. ``A4/solo``. Invalid input raises ValueError, as
    ``init`` does.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        _check_system(A, b, x0, y)
        r, r_norm = _residual(A, b, x)
        # A run that does not start ends at x0, with the residual it has.
        outcome = OutcomeKind.BREAKDOWN
        if r_norm < math.inf:
            state = init(algo, A, b, x, y, cfg, residual=(r, r_norm))
            outcome = OutcomeKind.ITER_LIMIT
            if state.iters_used <= cfg.max_iters:
                # The state stops itself once it has used cfg.max_iters
                # iterations: the step after the last one reports IterLimit.
                outcome = run(state, cfg.max_iters + 1)[0].kind
                x, iterations = state.x, state.iters_used
                r_norm = _residual(A, b, x)[1]
    return RunRecord(
        n=A.nrows,
        combo=f"{algo.value}/solo",
        outcome=outcome.value,
        residual=r_norm,
        iterations=iterations,
        x=x,
    )
