"""Four Lanczos-type solvers (A4, A12, A5/B10, A8/B10) as resumable state machines.

Each solver advances one recurrence iteration per ``SolverState.step`` call
and reports convergence, iteration exhaustion, or breakdown with the
offending denominator named. A state keeps one iteration count,
``iters_used``: its start charges its prologue from the class's
``PROLOGUE_CHARGES`` table, and each step adds one, also a step that breaks
down; switching, budgets and reports all read that count.

Every division is guarded before it happens: a denominator counts as
vanished when its magnitude is at most BREAKDOWN_EPS times the natural
scale of the expression that produced it (for a scalar product (u, v) that
scale is ||u|| ||v||), so cancellation down to noise is a breakdown while
legitimately small, well-determined products divide through. No non-finite
value is ever written into the iterate or the residual, and a state's
``r_norm`` is always ||r||. Numpy's over/invalid warnings are silenced once
per call of ``run`` (for its whole chunk of steps, and for the reports its
``stop`` takes between them), ``step``, ``init`` and ``denominator_report``;
the kernels raise NonFiniteError instead. ``run``'s ``stop`` is a predicate
on the state, asked after each step that leaves it live; the switching
driver passes its strategy's monitor there, so a monitored run checks after
every step without leaving the chunk.

Each iteration is a preparation and an update. The preparation computes
every product, scalar and guarded division of the next update without
changing the iterate; it is made once, and ``denominator_report`` and the
following ``step`` share it. Each guard, and each closing C1 guard whose
value the preparation already knows, enters its label, denominator and
scale in the state's ledger before it is checked (a C1 guard and an
overflow have scale 1). The report is a copy of that ledger, one
(label, value, scale) triple per guard: the guards up to and including
the offender, ending in ``<algo>.nonfinite`` with value nan when the
preparation overflows, so it never raises on a live state. Only an
overflow in the update itself is found by the step alone. Values a later
step needs again, such as A4's (y_{k-1}, r_{k-1}) and every ||r_k||, are
carried over in the state. A step by ``run``, a direct ``step`` and a step
after a report leave the state byte for byte the same.

Each main step makes its A v and its A.T w (the shadow chain's next vector)
in one ``SparseMatrix.products`` pass: A4 pairs A r_k with A.T y_k, A12
A r_{k-2} with A.T y_k, A5/B10 A p_k with A.T y_k, which the next step
uses, and A8/B10 A z_k with A.T y_k. A12's start makes three such
passes; A5/B10's start makes its A r_0 with ``matvec`` and, after its
update, the first step's A.T y_0 with ``matvec_t``. Each start computes
every value its first step reads, so a first step does the work of a
later one. Every product checks its own halves, so an overflow in either
half ends the preparation that made it, before its update: the step
breaks down with ``<algo>.nonfinite`` and leaves x, r and k as they were.

A coefficient enters a main step's vector products as one of the state's
0-d float64 slots: the step writes it there (``slot[()] = value``) and
multiplies by the slot. ``c * u`` with a 0-d array ``c`` gives the bits of
``c * u`` with the Python float, but skips numpy's scalar promotion, which
costs about a third of the product at the sizes the solvers run; an
``np.float64`` takes the slow path too. A slot is scratch that one
preparation or update writes and then reads: it is never carried from one
step to the next, and no two states share one, so concurrent runs stay
safe. Carried scalars are Python floats.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .linalg import _ZEROS, NonFiniteError, SparseMatrix, all_finite, dot, norm2

__all__ = [
    "AlgoId",
    "SolverConfig",
    "OutcomeKind",
    "StepOutcome",
    "SolverStateError",
    "SolverState",
    "init",
    "run",
    "denominator_report",
]


class AlgoId(enum.Enum):
    """The four recurrence variants."""

    A4 = "A4"
    A12 = "A12"
    A5B10 = "A5B10"
    A8B10 = "A8B10"

    @classmethod
    def parse(cls, text: str) -> "AlgoId":
        key = text.strip().upper().replace("/", "")
        try:
            return cls[key]
        except KeyError:
            raise ValueError(f"unknown algorithm {text!r}; expected one of "
                             f"{', '.join(a.value for a in cls)}") from None

    def __str__(self) -> str:
        return self.value


# A guarded denominator has vanished when its magnitude is at most this
# times its natural magnitude: the product has lost essentially all its
# significant digits to cancellation.
BREAKDOWN_EPS = 1e-12
# The guard of the 1/(B+E)-type normalization denominators, relative to the
# larger magnitude of the two terms. The cancellation there equals the
# roundoff amplification of the whole update, so losing three orders is
# treated as a (near-)non-existent polynomial. No guard compares with an
# absolute constant but the closing C1 guards, whose scale is 1.
NORMALIZATION_EPS = 1e-3


def _check_int(name: str, value) -> int:
    """``value`` as an int; ValueError unless it is an integer (a numpy one too)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_count(name: str, value) -> None:
    """ValueError unless ``value`` is an integer (a numpy one too) of at least 1."""
    if _check_int(name, value) < 1:
        raise ValueError(f"{name} must be at least 1")


@dataclass(frozen=True)
class SolverConfig:
    """Convergence tolerance and iteration budget shared by all solvers."""

    tol: float = 1e-13
    max_iters: int = 10_000

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        _check_count("max_iters", self.max_iters)


class OutcomeKind(enum.Enum):
    CONTINUE = "Continue"
    CONVERGED = "Converged"
    BREAKDOWN = "Breakdown"
    ITER_LIMIT = "IterLimit"


@dataclass(frozen=True)
class StepOutcome:
    """Result of one recurrence step (or of initialization)."""

    kind: OutcomeKind
    label: str = ""
    value: Optional[float] = None
    # Stored, not computed: every step and every chunk reads it.
    is_terminal: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_terminal", self.kind is not OutcomeKind.CONTINUE)


class SolverStateError(RuntimeError):
    """step() was called on a state whose outcome is already terminal."""


class _Breakdown(Exception):
    """Internal signal: a guarded denominator vanished."""

    def __init__(self, label: str, value: float):
        super().__init__(label)
        self.label = label
        self.value = value


# What ends a start, a preparation or an update in a Breakdown outcome.
_FAILURES = (_Breakdown, NonFiniteError)


def _check_system(A: SparseMatrix, b: np.ndarray, x0: np.ndarray, y: np.ndarray) -> None:
    """ValueError unless b, x0 and y have A's order, and y is nonzero and finite."""
    n = A.nrows
    if b.shape[0] != n or x0.shape[0] != n or y.shape[0] != n:
        raise ValueError("dimension mismatch between matrix and vectors")
    if not y.any():
        raise ValueError("shadow vector y must be nonzero")
    if not all_finite(y):
        raise ValueError("shadow vector y must be finite")


class SolverState:
    """Common state: system handles, iterate, residual, counters, outcome.

    The fields every algorithm shares mean the same in each:

    - ``x``: the current iterate, x_0 before any update;
    - ``r``: its residual b - A x, as the recurrence computes it;
    - ``r_norm``: ||r||, inf when that overflowed;
    - ``y``: on a live state, the shadow vector the next step pairs with
      the residual, the ``w`` of that step's ``SparseMatrix.products(v, w)``
      call. It is y_k = (A.T)^k y_0 of the y_0 handed in for A4, A5/B10 and
      A8/B10, and y_{k+1} for A12, whose start makes three products;
    - ``k``: the x-updates performed so far;
    - ``iters_used``: the one iteration count. The start sets it to
      ``PROLOGUE_CHARGES[k]`` for the k prologue updates it made, and every
      step that runs, one that breaks down included, adds 1;
    - ``outcome``: the last ``StepOutcome``, Continue while the state is live.

    No other field repeats one of these, and a state keeps no vector that
    no step reads. Every algorithm starts the same way: the common fields,
    then, unless r0 already meets tol, the algorithm's ``_start``, which runs
    its prologue and sets every value its first step reads. A breakdown or
    overflow in ``_start`` is the state's outcome.
    """

    algo: AlgoId
    # Iterations a start charges after k prologue updates; the switching
    # driver budgets each handoff with the last entry, a whole prologue.
    PROLOGUE_CHARGES = (0,)
    # How many coefficients a main step scales vectors by at once.
    SLOTS = 0

    def __init__(self, A: SparseMatrix, b: np.ndarray, x0: np.ndarray,
                 y: np.ndarray, cfg: SolverConfig, residual=None):
        _check_system(A, b, x0, y)
        self.A = A
        self.b = b
        self.y = np.array(y, copy=True)
        self.cfg = cfg
        # The updates' finite checks dot with these zeros, as all_finite does:
        # the result is +-0 for a finite vector and nan otherwise. A4 starts
        # from them as x_{-1} and r_{-1}.
        self._zeros = _ZEROS[A.nrows]
        self._slots = tuple(np.empty(()) for _ in range(self.SLOTS))
        self.k = 0
        self.x = np.array(x0, dtype=np.float64, copy=True)
        # ||r||: every update of r sets it, inf when it overflows. No code
        # writes into r in place, so a residual handed in may be shared.
        if residual is None:
            self.r = b - A.matvec(self.x)
            self.r_norm = norm2(self.r)
        else:
            self.r, self.r_norm = residual
        self.outcome = StepOutcome(OutcomeKind.CONVERGED if self.r_norm <= cfg.tol
                                   else OutcomeKind.CONTINUE)
        # The guards run so far, in order, as (label, denominator, scale); and
        # what _prepare returned for the next update or the breakdown outcome
        # it ended in, None until prepared and again once step() applied it.
        self._ledger: list[tuple[str, float, float]] = []
        self._preparation = None
        # True while run() holds the np.errstate of its chunk, so that step()
        # and a report that run's stop takes need not enter their own.
        self._quiet = False
        if not self.outcome.is_terminal:
            try:
                self._start()
            except _FAILURES as err:
                self.outcome = self._failure(err)
        self.iters_used = self.PROLOGUE_CHARGES[self.k]

    # Subclasses define _start, and split one main-loop iteration in two:
    # _prepare computes the next update's products, scalars and guarded
    # divisions without changing the state, raising _Breakdown for a vanished
    # denominator, and _update(*prepared) applies them, installing x and r
    # with _accept.

    def _accept(self, x_next, r_next, what="x/r update") -> bool:
        """Install a finite x/r update; True, and Converged, once ||r|| meets tol."""
        # (r, r) is finite only for a finite r, so one dot checks r and gives
        # ||r||. Only when it is not finite is r checked entry by entry: a
        # finite r whose (r, r) overflows is installed with r_norm inf, and
        # the update then fails as norm2 would.
        rr = r_next.dot(r_next)
        rr_finite = math.isfinite(rr)
        zeros = self._zeros
        if not (math.isfinite(x_next.dot(zeros))
                and (rr_finite or math.isfinite(r_next.dot(zeros)))):
            raise NonFiniteError(what)
        self.x, self.r = x_next, r_next
        self.k += 1
        self.r_norm = math.sqrt(rr)
        if not rr_finite:
            raise NonFiniteError("non-finite result in norm2")
        if self.r_norm <= self.cfg.tol:
            self.outcome = StepOutcome(OutcomeKind.CONVERGED)
            return True
        return False

    def _div(self, num: float, den: float, label: str, scale: float,
             eps: float = BREAKDOWN_EPS) -> float:
        """Divide with the vanishing guard; breakdown instead of blowup.

        ``scale`` is the natural magnitude of the denominator expression; a
        denominator at or below eps * scale has cancelled to noise, and a
        quotient that overflows is a breakdown too. The guard enters the
        ledger, with its scale, before it is checked.
        """
        self._ledger.append((label, den, scale))
        if not math.isfinite(den) or abs(den) <= eps * scale:
            raise _Breakdown(label, den)
        q = num / den
        if not math.isfinite(q):
            raise _Breakdown(label, den)
        return q

    def _failure(self, err: Exception) -> StepOutcome:
        """Breakdown outcome of ``err``; an overflow also enters the ledger."""
        if isinstance(err, _Breakdown):
            return StepOutcome(OutcomeKind.BREAKDOWN, err.label, err.value)
        outcome = StepOutcome(OutcomeKind.BREAKDOWN, f"{self.algo}.nonfinite: {err}",
                              math.nan)
        self._ledger.append((outcome.label, outcome.value, 1.0))
        return outcome

    def _prepared(self):
        """The next update's preparation, made at most once.

        A preparation that fails is kept as its Breakdown outcome;
        ``denominator_report`` and ``_advance`` take the preparation from
        here.
        """
        if self._preparation is None:
            self._ledger = []
            try:
                self._preparation = self._prepare()
            except _FAILURES as err:
                self._preparation = self._failure(err)
        return self._preparation

    def step(self) -> StepOutcome:
        if self.outcome.is_terminal:
            raise SolverStateError(f"step() after terminal outcome {self.outcome.kind.value}")
        if self.iters_used >= self.cfg.max_iters:
            self.outcome = StepOutcome(OutcomeKind.ITER_LIMIT)
            return self.outcome
        if self._quiet:
            self._advance()
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                self._advance()
        self.iters_used += 1
        return self.outcome

    def _advance(self) -> None:
        """Apply the next update, prepared here unless a report prepared it."""
        prepared = self._prepared()
        self._preparation = None
        if isinstance(prepared, StepOutcome):
            self.outcome = prepared
            return
        try:
            self._update(*prepared)
        except _FAILURES as err:
            self.outcome = self._failure(err)


def init(algo: AlgoId, A: SparseMatrix, b: np.ndarray, x0: np.ndarray,
         y: np.ndarray, cfg: SolverConfig, *,
         residual: Optional[tuple[np.ndarray, float]] = None) -> SolverState:
    """Initialize a solver at x0 with a fresh residual r0 = b - A x0.

    ``residual``, if given, is the pair (b - A x0, ||b - A x0||) a caller has
    already computed (a switching handoff does); the state keeps that array
    without copying, as it keeps ``b``.

    Raises ValueError when a vector's length is not the order of A (every
    ``SparseMatrix`` is square), or y is zero or not finite, and
    NonFiniteError when b - A x0 or its norm overflows. Otherwise the
    returned state carries its initialization outcome: Continue for a live
    state, Converged when r0 (or a prologue residual) already meets the
    tolerance, or Breakdown when the algorithm's start hits a vanished
    denominator or overflows. Breakdowns in the start are reported, never
    raised.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _STATE_CLASSES[algo](A, b, x0, y, cfg, residual)


def run(state: SolverState, budget: int,
        stop: Optional[Callable[[SolverState], bool]] = None) -> tuple[StepOutcome, int]:
    """Step up to ``budget`` times, until a terminal outcome, or until ``stop``.

    ``stop``, if given, is asked ``stop(state)`` after each step that leaves
    the state live, never before the first step nor after a terminal one;
    the chunk ends after the first step it answers True. It runs inside the
    chunk's one ``np.errstate``, so a stop that takes ``denominator_report``
    (ST3's monitor does) lets no warning escape either. Returns the last
    outcome and how far the chunk advanced ``state.iters_used``; a
    breakdown-terminated attempt counts as one iteration. A state whose
    outcome is already terminal is returned unchanged with count 0. A
    ``budget`` that is not an integer of at least 1 raises ValueError.
    """
    _check_count("budget", budget)
    if state.outcome.is_terminal:
        return state.outcome, 0
    start = state.iters_used
    step = state.step
    with np.errstate(over="ignore", invalid="ignore"):
        state._quiet = True
        try:
            for _ in range(budget):
                if step().is_terminal or (stop is not None and stop(state)):
                    break
        finally:
            state._quiet = False
    return state.outcome, state.iters_used - start


def denominator_report(state: SolverState) -> list[tuple[str, float, float]]:
    """(label, value, scale) of every denominator the NEXT step will divide by.

    ``scale`` is the natural magnitude the entry's guard compares the value
    with (||u|| ||v|| for a scalar product (u, v)); it is 1.0 for a closing
    C1 entry and for an overflow. The next step's preparation is made here
    if it was not yet, and the step then reuses it; ``x``, ``r``, ``k`` and
    the outcome are untouched. The entries run in the order the step checks
    them, up to and including the offender when one has vanished (an
    overflow is the ``<algo>.nonfinite`` entry with value nan); the report
    never raises on a live state.
    """
    if state.outcome.is_terminal:
        raise SolverStateError("denominator_report on a terminal state")
    if state._quiet:
        state._prepared()
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            state._prepared()
    return list(state._ledger)


# ---------------------------------------------------------------------------
# A4
# ---------------------------------------------------------------------------


class _A4State(SolverState):
    """Two-term recurrence A4; normalization A_{k+1} (B_{k+1}+E_{k+1}) = 1."""

    algo = AlgoId.A4
    SLOTS = 3

    def _start(self):
        # x_{-1} = r_{-1} = 0: the first step is the general one with E = 0.
        # The steps carry (y_{k-1}, r_{k-1}) and its guard scale
        # ||y_{k-1}|| ||r_{k-1}|| as yr_prev and yr_prev_scale, the previous
        # step's (y_k, r_k) and scale; the first step reads neither.
        self.x_prev = self.r_prev = self._zeros

    def _prepare(self):
        yr = dot(self.y, self.r)
        # At k = 0 there is no (y_{-1}, r_{-1}) to divide by, and no guard.
        if self.k == 0:
            E = 0.0
        else:
            E = -self._div(yr, self.yr_prev, "A4.E: (y_{k-1},r_{k-1})", self.yr_prev_scale)
        Ar, y_next = self.A.products(self.r, self.y)
        # The bracket must cancel the order-k moment of the combination, so
        # the E term enters with a plus sign (the recurrence terminates in n
        # exact steps only with this orientation).
        num_B = dot(self.y, Ar) + E * dot(self.y, self.r_prev)
        yr_scale = norm2(self.y) * self.r_norm
        B = -self._div(num_B, yr, "A4.B: (y_k,r_k)", yr_scale)
        A_next = self._div(1.0, B + E, "A4.A: B+E", max(abs(B), abs(E)),
                           eps=NORMALIZATION_EPS)
        return E, B, A_next, Ar, y_next, yr, yr_scale

    def _update(self, E, B, A_next, Ar, y_next, yr, yr_scale):
        e, b, a = self._slots
        e[()], b[()], a[()] = E, B, A_next
        x_next = a * (b * self.x + e * self.x_prev - self.r)
        r_next = a * (Ar + b * self.r + e * self.r_prev)
        self.x_prev, self.r_prev, self.y = self.x, self.r, y_next
        self.yr_prev, self.yr_prev_scale = yr, yr_scale
        self._accept(x_next, r_next)


# ---------------------------------------------------------------------------
# A12
# ---------------------------------------------------------------------------


class _A12State(SolverState):
    """Four-term recurrence A12 with its moment-based prologue."""

    algo = AlgoId.A12
    # Documented convention: the two-update prologue charges three iterations.
    PROLOGUE_CHARGES = (0, 1, 3)
    SLOTS = 5

    def _start(self):
        A, y = self.A, self.y
        r0, x0, r0_norm = self.r, self.x, self.r_norm
        p, y1 = A.products(r0, y)
        p1, y2 = A.products(p, y1)
        c0 = dot(y, r0)  # the first step's a13
        c1 = dot(y, p)
        c2 = dot(y, p1)
        p2, y3 = A.products(p1, y2)
        c3 = dot(y, p2)

        y_norm = norm2(y)
        step1 = self._div(c0, c1, "A12.c1", y_norm * norm2(p))
        r1 = r0 - step1 * p
        x1 = x0 + step1 * r0
        if self._accept(x1, r1, "prologue x/r update"):
            return
        r1_norm = self.r_norm

        delta = c1 * c3 - c2 * c2
        num_alpha = c0 * c3 - c1 * c2
        num_beta = c0 * c2 - c1 * c1
        alpha = self._div(num_alpha, delta, "A12.delta: c1*c3-c2^2", abs(c1 * c3) + c2 * c2)
        beta = self._div(num_beta, delta, "A12.delta: c1*c3-c2^2", abs(c1 * c3) + c2 * c2)
        r2 = r0 - alpha * p + beta * p1
        x2 = x0 + alpha * r0 - beta * p
        if self._accept(x2, r2, "prologue x/r update"):
            return

        # In the steps' indexing r, x and r_norm are r_{k-1}, x_{k-1} and
        # ||r_{k-1}||; rs holds (r_{k-2}, r_{k-3}), and xs and r_norms the
        # same two iterates and norms. y is y_k and ys (y_{k-2}, y_{k-1}).
        # Carried from each step into the next: A r_{k-3}, the a_ij entries
        # (a13, a23, a33, t) that pair y_{k-3}, ..., y_k with r_{k-3}, and
        # ||y_{k-3}||.
        self.rs = (r1, r0)
        self.xs = (x1, x0)
        self.r_norms = (r1_norm, r0_norm)
        self.ys, self.y = (y1, y2), y3
        self.Ar3 = p
        self.a_carry = (c0, dot(y1, r0), dot(y2, r0), dot(y3, r0))
        self.y3_norm = y_norm

    def _prepare(self):
        """The a_ij table, s, t, and the chained coefficients for the next step.

        Entries that pair a shadow vector with r_{k-3} equal entries of the
        previous step's table that paired it with that step's r_{k-2} (the
        start's, for the first step), so they come from ``a_carry``; so do
        ||y_{k-3}|| and ||r_{k-3}||.
        """
        r2, r3 = self.rs  # r_{k-2}, r_{k-3}
        ykm2, ykm1 = self.ys
        yk = self.y
        # y_{k+1}, and A r_{k-2}, which the update uses.
        q1, y_new = self.A.products(r2, yk)
        a11 = dot(ykm2, r2)
        a21 = dot(ykm1, r2)
        a31 = dot(yk, r2)
        s = dot(y_new, r2)
        a13, a23, a33, t = self.a_carry
        a22 = a11
        a32 = a21
        a13_scale = self.y3_norm * self.r_norms[1]
        F = -self._div(a11, a13, "A12.a13", a13_scale)
        b1 = -a21 - a23 * F
        b2 = -a31 - a33 * F
        b3 = -s - t * F
        minor = a22 * a33 - a32 * a23
        Delta = a11 * minor + a13 * (a21 * a32 - a31 * a22)
        delta_scale = (abs(a11) * (abs(a22 * a33) + abs(a32 * a23))
                       + abs(a13) * (abs(a21 * a32) + abs(a31 * a22)))
        num_B = b1 * minor + a13 * (b2 * a32 - b3 * a22)
        B = self._div(num_B, Delta, "A12.Delta_k", delta_scale)
        G = self._div(b1 - a11 * B, a13, "A12.a13", a13_scale)
        y2_norm = norm2(ykm2)
        C = self._div(b2 - a21 * B - a23 * G, a22, "A12.a22", y2_norm * self.r_norms[0])
        S = C + G
        Ak = self._div(1.0, S, "A12.Ak: C_k+G_k", max(abs(C), abs(G)),
                       eps=NORMALIZATION_EPS)
        return q1, y_new, F, B, G, C, Ak, (a11, a21, a31, s), y2_norm

    def _update(self, q1, y_new, F, B, G, C, Ak, a_carry, y2_norm):
        r2, r3 = self.rs
        x2, x3 = self.xs
        # The coefficient table solves the orthogonality of
        # (x^2 + B x + C) P_{k-2} + (F x + G) P_{k-3}, so the products feed
        # on r_{k-2} and r_{k-3}; with them the recurrence terminates in n
        # exact steps and the x update matches r = b - A x identically.
        # A r_{k-3} is the previous step's A r_{k-2}.
        q2 = self.A.matvec(q1)
        q3 = self.Ar3
        a, b, c, f, g = self._slots
        a[()], b[()], c[()], f[()], g[()] = Ak, B, C, F, G
        r_next = a * (q2 + b * q1 + c * r2 + f * q3 + g * r3)
        x_next = a * (c * x2 + g * x3 - (q1 + b * r2 + f * r3))
        self.rs, self.xs, self.r_norms = (self.r, r2), (self.x, x2), (self.r_norm, self.r_norms[0])
        self.ys, self.y = (self.ys[1], self.y), y_new
        self.Ar3, self.a_carry, self.y3_norm = q1, a_carry, y2_norm
        self._accept(x_next, r_next)


# ---------------------------------------------------------------------------
# A5/B10
# ---------------------------------------------------------------------------


class _A5B10State(SolverState):
    """Coupled recurrence A5/B10 with the monic scaling C1.

    The direction update uses the just-computed D (the pseudocode's index
    slip), while the C1 update divides by the coefficient from the previous
    iteration, per the published formula C1_k = C1_{k-1} / A_k: the
    prologue's A_1 is the first divisor. D and C1 only redistribute a common
    scale, so the iterates do not depend on that bookkeeping in exact
    arithmetic, but the division pattern decides which degenerate starts are
    detected as breakdowns.
    """

    algo = AlgoId.A5B10
    PROLOGUE_CHARGES = (0, 1)
    SLOTS = 1

    def _start(self):
        r0 = self.r
        Ar0 = self.A.matvec(r0)
        A1 = -self._div(dot(self.y, r0), dot(self.y, Ar0), "A5B10.A1: (y_0,Ar_0)",
                        norm2(self.y) * norm2(Ar0))
        r1 = r0 + A1 * Ar0
        x1 = self.x - A1 * r0
        self.p = r0
        self.C1 = 1.0
        self.A_prev = A1
        if self._accept(x1, r1, "prologue x/r update"):
            return
        # y_1 = A.T y_0, the first step's shadow vector; a main step computes
        # the next one with its A p.
        self.y = self.A.matvec_t(self.y)

    def _prepare(self):
        y_k = self.y
        num = dot(y_k, self.r)
        yp = dot(y_k, self.p)
        den_D = self.C1 * yp
        y_norm = norm2(y_k)
        D = -self._div(num, den_D, "A5B10.D: C1*(y_k,p_{k-1})",
                       abs(self.C1) * y_norm * norm2(self.p))
        dc, = self._slots
        dc[()] = D * self.C1
        p_k = self.r + dc * self.p
        Ap, y_next = self.A.products(p_k, y_k)
        A_next = -self._div(num, dot(y_k, Ap), "A5B10.A: (y_k,Ap_k)",
                            y_norm * norm2(Ap))
        # The update closes with the C1 guard on A_k.
        self._ledger.append(("A5B10.C1: A_k", self.A_prev, 1.0))
        return p_k, Ap, y_next, A_next

    def _update(self, p_k, Ap, y_next, A_next):
        a, = self._slots
        a[()] = A_next
        r_next = self.r + a * Ap
        x_next = self.x - a * p_k
        self.y, self.p = y_next, p_k
        if self._accept(x_next, r_next):
            return
        # Absolute, as A8/B10's C1 guard is: A_k carries the units of 1/A, so
        # this guard depends on the scale of A. It stays because most of
        # criterion 5's degenerate-shadow runs of A5/B10 break down here.
        self.C1 = self._div(self.C1, self.A_prev, "A5B10.C1: A_k", 1.0)
        self.A_prev = A_next


# ---------------------------------------------------------------------------
# A8/B10
# ---------------------------------------------------------------------------


class _A8B10State(SolverState):
    """Coupled recurrence A8/B10 driving the auxiliary direction z."""

    algo = AlgoId.A8B10
    SLOTS = 3

    def _start(self):
        self.z = self.r
        # (y_k, r_k): the previous step's (y_{k+1}, r_{k+1}).
        self.yr = dot(self.y, self.r)

    def _prepare(self):
        Az, y_next = self.A.products(self.z, self.y)
        num = self.yr
        den = dot(self.y, Az)
        den_scale = norm2(self.y) * norm2(Az)
        A_next = -self._div(num, den, "A8B10.A: (y_k,Az_k)", den_scale)
        # The update closes with the C1 guard on A_{k+1}.
        self._ledger.append(("A8B10.C1: A_{k+1}", A_next, 1.0))
        return Az, y_next, den, den_scale, A_next

    def _update(self, Az, y_next, den, den_scale, A_next):
        a, b1, c1 = self._slots
        a[()] = A_next
        r_next = self.r + a * Az
        x_next = self.x - a * self.z
        if self._accept(x_next, r_next):
            return
        C1 = self._div(1.0, A_next, "A8B10.C1: A_{k+1}", 1.0)
        yr_next = dot(y_next, r_next)
        B1 = -self._div(C1 * yr_next, den, "A8B10.B1: (y_k,Az_k)", den_scale)
        b1[()], c1[()] = B1, C1
        z_next = b1 * self.z + c1 * r_next
        if not math.isfinite(z_next.dot(self._zeros)):
            raise NonFiniteError("z update")
        self.y = y_next
        self.z = z_next
        self.yr = yr_next


_STATE_CLASSES = {cls.algo: cls for cls in (_A4State, _A12State, _A5B10State, _A8B10State)}

