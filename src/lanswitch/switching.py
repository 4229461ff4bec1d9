"""Switching framework: run one Lanczos-type solver, hand its iterate to another.

One loop drives all three strategies, and a strategy is two values that
loop reads: a cycle cap ``cycle_len`` and a ``monitor(state) -> bool``,
each None when the strategy has no such rule. ST1 has neither, ST2 has the
cap, and ST3 has the monitor: it holds when an entry of
``denominator_report``, the next step's denominators, has a magnitude below
its threshold times the entry's scale, the one its guard uses. Each pass
runs the current algorithm for one chunk, the remaining budget cut at the
end of the cycle when there is a cap, with the monitor as ``run``'s
``stop``, so the chunk also ends after the first step at which the monitor
holds. A convergence claim ends the run only if the recomputed residual
b - A x meets the tolerance; otherwise a CycleEnd handoff restarts from
that residual. A breakdown hands off with a BreakdownSwitch. An iteration
limit or a spent global budget ends the run Exhausted. Otherwise a full
cycle hands off with a ProperSwitch, and a monitor that holds with a
MonitorSwitch.

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
of raising. ``run_switching`` enters one ``np.errstate`` that silences
numpy's over/invalid warnings for the whole run, handoff norms included; no
warning escapes a run.
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


@dataclass(frozen=True)
class CoinToss:
    """Uniform random choice from the pool on a seeded PCG64 stream."""

    seed: int


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
    """One experiment row; ``x`` is kept for verification, not for reports."""

    n: int
    delta: float
    combo: str
    outcome: str
    residual: float
    iterations: int
    switches: int
    restarts: int
    seconds: float
    x: Optional[np.ndarray] = None


def select_next(policy: SelectionPolicy, rng: np.random.Generator) -> AlgoId:
    """Pick the algorithm for the next cycle: a uniform draw from the pool.

    The draw advances ``rng``. The handoff classifies the event (Restart or
    ProperSwitch), since it may install another pool member.
    """
    return policy.pool[int(rng.integers(0, len(policy.pool)))]


class _Driver:
    """Mutable loop state of one switching run."""

    def __init__(self, A, b, x0, y, plan: SwitchPlan):
        self.A, self.b, self.y = A, b, y
        self.plan = plan
        self.trace = SwitchTrace()
        self.iters = 0
        # The coin toss: PCG64 over a SeedSequence of the policy's seed.
        self.rng = np.random.default_rng(plan.policy.mode.seed)
        self.current = plan.start
        self.x0 = np.array(x0, dtype=np.float64, copy=True)
        # Pool members that broke down at the current iterate; once every
        # member is in here no further handoff can make progress.
        self.barren: Set[AlgoId] = set()
        self.state: Optional[SolverState] = None

    @property
    def x(self) -> np.ndarray:
        return self.x0 if self.state is None else self.state.x

    def residual(self) -> Tuple[np.ndarray, float]:
        """(b - A x, ||b - A x||) at the current iterate; NonFiniteError on overflow."""
        r = self.b - self.A.matvec(self.x)
        return r, norm2(r)

    def finish(self, kind: EventKind, residual: float) -> str:
        self.trace.append(SwitchEvent(kind, self.iters, self.current,
                                      self.current, residual))
        return kind.value

    def exhausted(self, recomputed: float) -> str:
        """End the run Exhausted with the outgoing state's residual.

        That is its recurrence residual, unless there is no state yet or the
        state claims a convergence that ``b - A x`` refuted: then it is
        ``recomputed``, that ``||b - A x||`` (inf when it overflowed).
        """
        state = self.state
        if state is None or state.outcome.kind is OutcomeKind.CONVERGED:
            return self.finish(EventKind.EXHAUSTED, recomputed)
        return self.finish(EventKind.EXHAUSTED, state.r_norm)

    def handoff(self, first_choice: AlgoId, cause: Optional[EventKind],
                residual: Optional[Tuple[np.ndarray, float]] = None) -> Optional[str]:
        """Install the next algorithm at the current iterate.

        Tries ``first_choice`` first, under the module's skip rule. The
        installed state may already be terminal. ``cause`` labels the event
        (None: the run's start, no event). ``residual`` is ``self.residual()``
        if the caller already has it. Returns an outcome name or None.
        """
        at = self.iters
        previous = self.current
        r_fresh, r_norm = residual or self.residual()
        if r_norm <= self.plan.cfg.tol:
            # The iterate already solves the system; no cycle needed.
            return self.finish(EventKind.CONVERGED, r_norm)
        y_cycle = r_fresh if at > 0 else self.y
        pool = self.plan.policy.pool
        for algo in [first_choice] + [a for a in pool if a != first_choice]:
            charge = _STATE_CLASSES[algo].PROLOGUE_CHARGES[-1]
            if algo in self.barren or at + charge > self.plan.global_budget:
                continue
            state = init(algo, self.A, self.b, self.x, y_cycle, self.plan.cfg,
                         residual=(r_fresh, r_norm))
            if state.outcome.kind is OutcomeKind.BREAKDOWN and state.k == 0:
                self.barren.add(algo)
                continue
            if cause is not None:
                same = (cause in (EventKind.PROPER_SWITCH, EventKind.MONITOR_SWITCH)
                        and algo == previous)
                kind = EventKind.RESTART if same else cause
                # The transition is stamped at the handoff iteration, before
                # the incoming prologue consumes its charge, with the residual
                # of that iterate.
                self.trace.append(SwitchEvent(kind, at, previous, algo, r_norm))
            self.state = state
            self.current = algo
            self.iters += state.iters_used
            return None
        return self.exhausted(r_norm)

    def drive(self) -> str:
        """Run chunks and handoffs until the run terminates; returns the outcome name."""
        plan, strategy = self.plan, self.plan.strategy
        try:
            terminal = self.handoff(plan.start, None)
            while terminal is None:
                state = self.state
                chunk = plan.global_budget - self.iters
                if strategy.cycle_len is not None:
                    # An A12 prologue alone can fill a short cycle.
                    chunk = min(chunk, strategy.cycle_len - state.iters_used)
                if chunk > 0 and not state.outcome.is_terminal:
                    self.iters += run(state, chunk, strategy.monitor)[1]
                if state.k > 0:
                    # The iterate moved, so earlier failures are stale.
                    self.barren.clear()
                kind = state.outcome.kind
                cause = residual = None
                if kind is OutcomeKind.CONVERGED:
                    # Recurrence residuals drift from b - A x; a claim the
                    # recomputed residual does not confirm starts a new cycle
                    # from that residual.
                    residual = self.residual()
                    if residual[1] <= plan.cfg.tol:
                        return self.finish(EventKind.CONVERGED, state.r_norm)
                    cause = EventKind.CYCLE_END
                elif kind is OutcomeKind.BREAKDOWN:
                    self.barren.add(self.current)
                    cause = EventKind.BREAKDOWN_SWITCH
                if (kind is OutcomeKind.ITER_LIMIT or self.iters >= plan.global_budget
                        or self.barren.issuperset(plan.policy.pool)):
                    return self.exhausted(state.r_norm if residual is None else residual[1])
                if cause is None:
                    # The handoff relabels either rule's event Restart if the
                    # same algorithm takes over. The monitor is asked again,
                    # on the preparation its last answer made.
                    if strategy.cycle_len is not None and state.iters_used >= strategy.cycle_len:
                        cause = EventKind.PROPER_SWITCH
                    elif strategy.monitor is not None and strategy.monitor(state):
                        cause = EventKind.MONITOR_SWITCH
                if cause is not None:
                    terminal = self.handoff(select_next(plan.policy, self.rng), cause,
                                            residual)
            return terminal
        except NonFiniteError:
            # The iterate stays finite, but it has grown until a norm of it
            # or of its residual overflowed: no handoff can recover.
            return self.exhausted(math.inf)


def run_switching(A: SparseMatrix, b: np.ndarray, x0: np.ndarray, y: np.ndarray,
                  plan: SwitchPlan) -> Tuple[RunRecord, SwitchTrace]:
    """Drive solver cycles under the plan until convergence or exhaustion.

    Every handoff re-initializes the incoming algorithm at the last iterate
    of the outgoing one. The returned record carries the residual norm of the
    terminal event (the recurrence residual, or the recomputed ||b - A x||
    when a handoff finds the iterate already converged; inf if it
    overflowed) and the final iterate. An Exhausted record never carries a
    refuted residual: after a convergence claim that ||b - A x|| refuted, it
    reports that recomputed norm; delta and seconds are filled in by
    the harness. The record's combo is the pool and the strategy, e.g.
    ``A4+A12/ST2``. Invalid input raises ValueError, as ``init`` does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        _check_system(A, b, x0, y)
        drv = _Driver(A, b, x0, y, plan)
        outcome_name = drv.drive()
    pool = "+".join(a.value for a in plan.policy.pool)
    *transitions, terminal = drv.trace.events
    record = RunRecord(
        n=A.nrows,
        delta=math.nan,
        combo=f"{pool}/{type(plan.strategy).__name__}",
        outcome=outcome_name,
        residual=terminal.residual_norm,
        iterations=drv.iters,
        switches=sum(e.from_algo != e.to_algo for e in transitions),
        restarts=sum(e.from_algo == e.to_algo for e in transitions),
        seconds=math.nan,
        x=drv.x,
    )
    return record, drv.trace
