"""Four Lanczos-type solvers (A4, A12, A5/B10, A8/B10) as resumable state machines.

Each solver advances one recurrence iteration per ``step`` call and reports
convergence, iteration exhaustion, or breakdown with the offending
denominator named. Every division is guarded before it happens: a
denominator counts as vanished when its magnitude is at most
breakdown_eps times the natural scale of the expression that produced it
(for a scalar product (u, v) that scale is ||u|| ||v||), so cancellation
down to noise is a breakdown while legitimately small, well-determined
products divide through. No non-finite value is ever written into the
iterate or the residual. Numpy's over/invalid warnings are silenced once per
call of ``step``, ``init``, ``denominator_report``, ``moment_sequence``
and a state's ``residual_norm`` and ``true_residual_norm``; the kernels
raise NonFiniteError instead.

Each step computes every product, scalar and norm once: values the next
step needs again (A4's (y_{k-1}, r_{k-1}) and guard scale, A12's
A r_{k-3}, half of its a_ij table and its guard norms, A8/B10's
(y_k, r_k), and every state's ||r_k||) are carried over in the state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .linalg import NonFiniteError, SparseMatrix, dot, norm2

__all__ = [
    "AlgoId",
    "SolverConfig",
    "OutcomeKind",
    "StepOutcome",
    "SolverStateError",
    "SolverState",
    "init",
    "step",
    "run",
    "denominator_report",
    "moment_sequence",
    "hankel_h1",
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


@dataclass(frozen=True)
class SolverConfig:
    """Convergence and safety thresholds shared by all solvers.

    ``breakdown_eps`` is relative to the natural magnitude of each guarded
    denominator; 1e-12 flags products that have lost essentially all their
    significant digits to cancellation. ``normalization_eps`` guards the
    1/(B+E)-type normalization denominators: the cancellation there equals
    the roundoff amplification of the whole update, so losing three orders
    is treated as a (near-)non-existent polynomial. ``coeff_limit`` bounds the
    magnitude of the multi-term update coefficients of A4 and A12 the same
    way (an exploding coefficient is the floating-point face of a vanishing
    Hankel determinant); the coupled two-term recurrences do not need it.
    """

    tol: float = 1e-13
    breakdown_eps: float = 1e-12
    normalization_eps: float = 1e-3
    coeff_limit: float = 1e5
    max_iters: int = 10_000

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if not (self.breakdown_eps > 0):
            raise ValueError("breakdown_eps must be positive")
        if not (self.normalization_eps > 0):
            raise ValueError("normalization_eps must be positive")
        if not (self.coeff_limit > 0):
            raise ValueError("coeff_limit must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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

    @property
    def is_terminal(self) -> bool:
        return self.kind is not OutcomeKind.CONTINUE

    @classmethod
    def cont(cls) -> "StepOutcome":
        return cls(OutcomeKind.CONTINUE)

    @classmethod
    def converged(cls) -> "StepOutcome":
        return cls(OutcomeKind.CONVERGED)

    @classmethod
    def breakdown(cls, label: str, value: float) -> "StepOutcome":
        return cls(OutcomeKind.BREAKDOWN, label=label, value=value)

    @classmethod
    def iter_limit(cls) -> "StepOutcome":
        return cls(OutcomeKind.ITER_LIMIT)


class SolverStateError(RuntimeError):
    """step() was called on a state whose outcome is already terminal."""


def _finite(*arrays: np.ndarray) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


class _Breakdown(Exception):
    """Internal signal: a guarded denominator vanished."""

    def __init__(self, label: str, value: float):
        super().__init__(label)
        self.label = label
        self.value = value


def _div(num: float, den: float, label: str, eps: float, scale: float,
         cap: Optional[float] = None) -> float:
    """Divide with the vanishing guard; breakdown instead of blowup.

    ``scale`` is the natural magnitude of the denominator expression; a
    denominator at or below eps * scale has cancelled to noise. ``cap``, if
    given, additionally rejects quotients whose magnitude would exceed it.
    """
    if not math.isfinite(den) or abs(den) <= eps * scale:
        raise _Breakdown(label, den)
    if cap is not None and abs(den) * cap <= abs(num):
        raise _Breakdown(label, den)
    q = num / den
    if not math.isfinite(q):
        raise _Breakdown(label, den)
    return q


class SolverState:
    """Common state: system handles, iterate, residual, counters, outcome.

    ``k`` counts x-updates performed so far; ``iters_used`` additionally
    charges a completed prologue at the class's ``PROLOGUE_CHARGE`` so that
    cycle accounting stays uniform across algorithms.
    """

    algo: AlgoId
    # Iterations a completed prologue charges; the switching driver budgets
    # each handoff with it before initializing the algorithm.
    PROLOGUE_CHARGE = 0

    def __init__(self, A: SparseMatrix, b: np.ndarray, x0: np.ndarray,
                 y: np.ndarray, cfg: SolverConfig):
        A.require_square()
        n = A.nrows
        if b.shape[0] != n or x0.shape[0] != n or y.shape[0] != n:
            raise ValueError("dimension mismatch between matrix and vectors")
        if norm2(y) == 0.0:
            raise ValueError("shadow vector y must be nonzero")
        self.A = A
        self.b = b
        self.y0 = y
        self.cfg = cfg
        self.n = n
        self.k = 0
        self.steps_taken = 0
        self.prologue_charge = 0
        self.x = np.array(x0, dtype=np.float64, copy=True)
        self.r = b - A.matvec(self.x)
        # ||r||: every update of r recomputes it for its convergence test.
        # It goes stale only when that norm overflows after r was replaced,
        # which ends the state in a nonfinite breakdown. So it is read only
        # while the state is live; residual_norm() recomputes ||r||.
        self.r_norm = norm2(self.r)
        self.outcome = StepOutcome.cont()

    # Subclasses fill in one main-loop iteration; they raise _Breakdown for
    # vanished denominators and return True when the residual test passed.
    def _advance(self) -> bool:
        raise NotImplementedError

    def _report(self) -> List[Tuple[str, float]]:
        raise NotImplementedError

    @property
    def iters_used(self) -> int:
        return self.prologue_charge + self.steps_taken

    def residual_norm(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return norm2(self.r)

    def true_residual_norm(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return norm2(self.b - self.A.matvec(self.x))

    def _terminal(self, outcome: StepOutcome) -> StepOutcome:
        self.outcome = outcome
        return outcome

    def step(self) -> StepOutcome:
        if self.outcome.is_terminal:
            raise SolverStateError(f"step() after terminal outcome {self.outcome.kind.value}")
        if self.iters_used >= self.cfg.max_iters:
            return self._terminal(StepOutcome.iter_limit())
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                converged = self._advance()
        except _Breakdown as br:
            self.steps_taken += 1
            return self._terminal(StepOutcome.breakdown(br.label, br.value))
        except NonFiniteError as err:
            self.steps_taken += 1
            return self._terminal(
                StepOutcome.breakdown(f"{self.algo}.nonfinite: {err}", math.nan))
        self.steps_taken += 1
        if converged:
            return self._terminal(StepOutcome.converged())
        return self.outcome


def init(algo: AlgoId, A: SparseMatrix, b: np.ndarray, x0: np.ndarray,
         y: np.ndarray, cfg: SolverConfig) -> SolverState:
    """Initialize a solver at x0 with a fresh residual r0 = b - A x0.

    The returned state always exists and carries its initialization outcome:
    Continue for a live state, Converged when r0 (or a prologue residual)
    already meets the tolerance, or Breakdown when the A12/A5B10 prologue
    hits a vanished denominator. Prologue breakdowns are reported, never
    raised.
    """
    cls = _STATE_CLASSES[algo]
    with np.errstate(over="ignore", invalid="ignore"):
        return cls(A, b, x0, y, cfg)


def step(state: SolverState) -> StepOutcome:
    """Advance exactly one iteration of the state's main loop."""
    return state.step()


def run(state: SolverState, budget: int) -> Tuple[StepOutcome, int]:
    """Step up to ``budget`` times or until a terminal outcome.

    Returns the last outcome and the number of iterations consumed; a
    breakdown-terminated attempt counts as one iteration. A state whose
    outcome is already terminal is returned unchanged with count 0.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if state.outcome.is_terminal:
        return state.outcome, 0
    used = 0
    outcome = state.outcome
    while used < budget:
        before = state.steps_taken
        outcome = state.step()
        used += state.steps_taken - before
        if outcome.is_terminal:
            break
    return outcome, used


def denominator_report(state: SolverState) -> List[Tuple[str, float]]:
    """Values of every denominator the NEXT step will divide by.

    Pure probe: no state is mutated. When an upstream denominator has
    already vanished the dependent entries are unavailable; the offender
    itself is always present.
    """
    if state.outcome.is_terminal:
        raise SolverStateError("denominator_report on a terminal state")
    with np.errstate(over="ignore", invalid="ignore"):
        return state._report()


# ---------------------------------------------------------------------------
# A4
# ---------------------------------------------------------------------------


class _A4State(SolverState):
    """Two-term recurrence A4; normalization A_{k+1} (B_{k+1}+E_{k+1}) = 1."""

    algo = AlgoId.A4

    def __init__(self, A, b, x0, y, cfg):
        super().__init__(A, b, x0, y, cfg)
        self.y = np.array(self.y0, copy=True)
        self.x_prev = None
        self.r_prev = None
        self.y_prev = None
        # (y_{k-1}, r_{k-1}) and its guard scale ||y_{k-1}|| ||r_{k-1}||:
        # the previous step's (y_k, r_k) and scale.
        self.yr_prev = math.nan
        self.yr_prev_scale = math.nan
        self.last_normalization = math.nan
        if self.r_norm <= cfg.tol:
            self.outcome = StepOutcome.converged()

    def _coefficients(self):
        eps = self.cfg.breakdown_eps
        yr = dot(self.y, self.r)
        if self.k == 0:
            E = 0.0
        else:
            E = -_div(yr, self.yr_prev, "A4.E: (y_{k-1},r_{k-1})", eps,
                      self.yr_prev_scale, cap=self.cfg.coeff_limit)
        Ar = self.A.matvec(self.r)
        # The bracket must cancel the order-k moment of the combination, so
        # the E term enters with a plus sign (the recurrence terminates in n
        # exact steps only with this orientation).
        num_B = dot(self.y, Ar) + (E * dot(self.y, self.r_prev) if self.k > 0 else 0.0)
        yr_scale = norm2(self.y) * self.r_norm
        B = -_div(num_B, yr, "A4.B: (y_k,r_k)", eps, yr_scale, cap=self.cfg.coeff_limit)
        S = B + E
        A_next = _div(1.0, S, "A4.A: B+E", self.cfg.normalization_eps,
                      max(1.0, abs(B), abs(E)))
        return E, B, S, A_next, Ar, yr, yr_scale

    def _advance(self) -> bool:
        E, B, S, A_next, Ar, yr, yr_scale = self._coefficients()
        if self.k == 0:
            x_next = A_next * (B * self.x - self.r)
            r_next = A_next * (Ar + B * self.r)
        else:
            x_next = A_next * (B * self.x + E * self.x_prev - self.r)
            r_next = A_next * (Ar + B * self.r + E * self.r_prev)
        if not _finite(x_next, r_next):
            raise NonFiniteError("x/r update")
        self.last_normalization = A_next * S
        self.x_prev, self.r_prev, self.y_prev = self.x, self.r, self.y
        self.yr_prev, self.yr_prev_scale = yr, yr_scale
        self.x, self.r = x_next, r_next
        self.k += 1
        self.r_norm = norm2(self.r)
        if self.r_norm <= self.cfg.tol:
            return True
        # Shadow chain advances every iteration; the pseudocode's IF around
        # it governs termination only.
        self.y = self.A.matvec_t(self.y_prev)
        return False

    def _report(self):
        out = []
        if self.k > 0:
            out.append(("A4.E: (y_{k-1},r_{k-1})", self.yr_prev))
        out.append(("A4.B: (y_k,r_k)", dot(self.y, self.r)))
        try:
            S = self._coefficients()[2]
        except _Breakdown:
            return out
        out.append(("A4.A: B+E", S))
        return out


# ---------------------------------------------------------------------------
# A12
# ---------------------------------------------------------------------------


class _A12State(SolverState):
    """Four-term recurrence A12 with its moment-based prologue."""

    algo = AlgoId.A12
    PROLOGUE_CHARGE = 3

    def __init__(self, A, b, x0, y, cfg):
        super().__init__(A, b, x0, y, cfg)
        # rs[0] = current residual, rs[1] = previous, rs[2] = the one before;
        # same layout for xs and for the norms in r_norms. ys holds the last
        # four shadow vectors.
        self.rs: List[np.ndarray] = []
        self.xs: List[np.ndarray] = []
        self.ys: List[np.ndarray] = []
        self.r_norms: List[float] = []
        # Carried from the previous step for the next one: A r_{k-3}, the
        # a_ij entries (a13, a23, a33, t) (None after the prologue) and
        # ||y_{k-3}||.
        self.Ar3: Optional[np.ndarray] = None
        self.a_carry: Optional[Tuple[float, float, float, float]] = None
        self.y3_norm = math.nan
        if self.r_norm <= cfg.tol:
            self.outcome = StepOutcome.converged()
            return
        try:
            self._prologue()
        except _Breakdown as br:
            self.outcome = StepOutcome.breakdown(br.label, br.value)
        except NonFiniteError as err:
            self.outcome = StepOutcome.breakdown(f"A12.nonfinite: {err}", math.nan)

    def _prologue(self):
        eps = self.cfg.breakdown_eps
        A, y, cfg = self.A, self.y0, self.cfg
        r0, x0, r0_norm = self.r, self.x, self.r_norm
        p = A.matvec(r0)
        p1 = A.matvec(p)
        c0 = dot(y, r0)
        c1 = dot(y, p)
        c2 = dot(y, p1)
        c3 = dot(y, A.matvec(p1))

        y_norm = norm2(y)
        step1 = _div(c0, c1, "A12.c1", eps, y_norm * norm2(p),
                     cap=cfg.coeff_limit)
        r1 = r0 - step1 * p
        x1 = x0 + step1 * r0
        if not _finite(x1, r1):
            raise NonFiniteError("prologue x/r update")
        self.x, self.r = x1, r1
        self.k = 1
        self.prologue_charge = 1
        r1_norm = self.r_norm = norm2(r1)
        if r1_norm <= cfg.tol:
            self.outcome = StepOutcome.converged()
            return

        delta = c1 * c3 - c2 * c2
        num_alpha = c0 * c3 - c1 * c2
        num_beta = c0 * c2 - c1 * c1
        alpha = _div(num_alpha, delta, "A12.delta: c1*c3-c2^2", eps,
                     abs(c1 * c3) + c2 * c2, cap=cfg.coeff_limit)
        beta = _div(num_beta, delta, "A12.delta: c1*c3-c2^2", eps,
                    abs(c1 * c3) + c2 * c2, cap=cfg.coeff_limit)
        r2 = r0 - alpha * p + beta * p1
        x2 = x0 + alpha * r0 - beta * p
        if not _finite(x2, r2):
            raise NonFiniteError("prologue x/r update")
        self.x, self.r = x2, r2
        self.k = 2
        # Documented convention: the prologue charges three iterations.
        self.prologue_charge = self.PROLOGUE_CHARGE
        self.r_norm = norm2(r2)
        if self.r_norm <= cfg.tol:
            self.outcome = StepOutcome.converged()
            return

        y1 = A.matvec_t(y)
        y2 = A.matvec_t(y1)
        y3 = A.matvec_t(y2)
        self.rs = [r2, r1, r0]
        self.xs = [x2, x1, x0]
        self.ys = [y, y1, y2, y3]
        self.r_norms = [self.r_norm, r1_norm, r0_norm]
        self.Ar3 = p
        self.y3_norm = y_norm

    def _scalars(self):
        """The a_ij table, s, t, and the chained coefficients for the next step.

        Entries that pair a shadow vector with r_{k-3} equal entries of the
        previous step's table that paired it with that step's r_{k-2}, so
        they come from ``a_carry``; so do ||y_{k-3}|| and ||r_{k-3}||.
        """
        eps = self.cfg.breakdown_eps
        r1, r2, r3 = self.rs  # r_{k-1}, r_{k-2}, r_{k-3}
        ykm3, ykm2, ykm1, yk = self.ys
        y_new = self.A.matvec_t(yk)  # y_{k+1}
        a11 = dot(ykm2, r2)
        a21 = dot(ykm1, r2)
        a31 = dot(yk, r2)
        s = dot(y_new, r2)
        if self.a_carry is None:
            a13, a23, a33, t = (dot(ykm3, r3), dot(ykm2, r3), dot(ykm1, r3),
                                dot(yk, r3))
        else:
            a13, a23, a33, t = self.a_carry
        a22 = a11
        a32 = a21
        a13_scale = self.y3_norm * self.r_norms[2]
        F = -_div(a11, a13, "A12.a13", eps, a13_scale, cap=self.cfg.coeff_limit)
        b1 = -a21 - a23 * F
        b2 = -a31 - a33 * F
        b3 = -s - t * F
        minor = a22 * a33 - a32 * a23
        Delta = a11 * minor + a13 * (a21 * a32 - a31 * a22)
        delta_scale = (abs(a11) * (abs(a22 * a33) + abs(a32 * a23))
                       + abs(a13) * (abs(a21 * a32) + abs(a31 * a22)))
        num_B = b1 * minor + a13 * (b2 * a32 - b3 * a22)
        B = _div(num_B, Delta, "A12.Delta_k", eps, delta_scale,
                 cap=self.cfg.coeff_limit)
        G = _div(b1 - a11 * B, a13, "A12.a13", eps, a13_scale,
                 cap=self.cfg.coeff_limit)
        y2_norm = norm2(ykm2)
        C = _div(b2 - a21 * B - a23 * G, a22, "A12.a22", eps,
                 y2_norm * self.r_norms[1], cap=self.cfg.coeff_limit)
        S = C + G
        Ak = _div(1.0, S, "A12.Ak: C_k+G_k", self.cfg.normalization_eps,
                  max(1.0, abs(C), abs(G)))
        return y_new, F, B, G, C, S, Ak, (a11, a21, a31, s), y2_norm

    def _advance(self) -> bool:
        y_new, F, B, G, C, S, Ak, a_carry, y2_norm = self._scalars()
        r1, r2, r3 = self.rs
        # The coefficient table solves the orthogonality of
        # (x^2 + B x + C) P_{k-2} + (F x + G) P_{k-3}, so the products feed
        # on r_{k-2} and r_{k-3}; with them the recurrence terminates in n
        # exact steps and the x update matches r = b - A x identically.
        # A r_{k-3} is the previous step's A r_{k-2}.
        q1 = self.A.matvec(r2)
        q2 = self.A.matvec(q1)
        q3 = self.Ar3
        r_next = Ak * (q2 + B * q1 + C * r2 + F * q3 + G * r3)
        x_next = Ak * (C * self.xs[1] + G * self.xs[2] - (q1 + B * r2 + F * r3))
        if not _finite(x_next, r_next):
            raise NonFiniteError("x/r update")
        self.rs = [r_next, r1, r2]
        self.xs = [x_next, self.xs[0], self.xs[1]]
        self.ys = [self.ys[1], self.ys[2], self.ys[3], y_new]
        self.Ar3, self.a_carry, self.y3_norm = q1, a_carry, y2_norm
        self.x, self.r = x_next, r_next
        self.k += 1
        self.r_norm = norm2(r_next)
        self.r_norms = [self.r_norm] + self.r_norms[:2]
        return self.r_norm <= self.cfg.tol

    def _report(self):
        r1, r2, r3 = self.rs
        ykm3, ykm2, _, _ = self.ys
        out = [("A12.a13", dot(ykm3, r3)), ("A12.a22", dot(ykm2, r2))]
        try:
            S = self._scalars()[5]
        except _Breakdown as br:
            if br.label not in (lbl for lbl, _ in out):
                out.append((br.label, br.value))
            return out
        out.append(("A12.Delta_k", self._delta_value()))
        out.append(("A12.Ak: C_k+G_k", S))
        return out

    def _delta_value(self) -> float:
        r1, r2, r3 = self.rs
        ykm3, ykm2, ykm1, yk = self.ys
        a11 = dot(ykm2, r2)
        a21 = dot(ykm1, r2)
        a23 = dot(ykm2, r3)
        a31 = dot(yk, r2)
        a33 = dot(ykm1, r3)
        a13 = dot(ykm3, r3)
        return a11 * (a11 * a33 - a21 * a23) + a13 * (a21 * a21 - a31 * a11)


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
    PROLOGUE_CHARGE = 1

    def __init__(self, A, b, x0, y, cfg):
        super().__init__(A, b, x0, y, cfg)
        self.y = np.array(self.y0, copy=True)
        self.p = None
        self.C1 = 1.0
        self.A_prev = math.nan
        if self.r_norm <= cfg.tol:
            self.outcome = StepOutcome.converged()
            return
        try:
            self._prologue()
        except _Breakdown as br:
            self.outcome = StepOutcome.breakdown(br.label, br.value)
        except NonFiniteError as err:
            self.outcome = StepOutcome.breakdown(f"A5B10.nonfinite: {err}", math.nan)

    def _prologue(self):
        r0 = self.r
        Ar0 = self.A.matvec(r0)
        A1 = -_div(dot(self.y, r0), dot(self.y, Ar0), "A5B10.A1: (y_0,Ar_0)",
                   self.cfg.breakdown_eps, norm2(self.y) * norm2(Ar0))
        r1 = r0 + A1 * Ar0
        x1 = self.x - A1 * r0
        if not _finite(x1, r1):
            raise NonFiniteError("prologue x/r update")
        self.p = r0
        self.x, self.r = x1, r1
        self.A_prev = A1
        self.k = 1
        self.prologue_charge = self.PROLOGUE_CHARGE
        self.r_norm = norm2(r1)
        if self.r_norm <= self.cfg.tol:
            self.outcome = StepOutcome.converged()

    def _advance(self) -> bool:
        eps = self.cfg.breakdown_eps
        y_k = self.A.matvec_t(self.y)
        num = dot(y_k, self.r)
        yp = dot(y_k, self.p)
        den_D = self.C1 * yp
        y_norm = norm2(y_k)
        D = -_div(num, den_D, "A5B10.D: C1*(y_k,p_{k-1})", eps,
                  abs(self.C1) * y_norm * norm2(self.p))
        p_k = self.r + (D * self.C1) * self.p
        Ap = self.A.matvec(p_k)
        A_next = -_div(num, dot(y_k, Ap), "A5B10.A: (y_k,Ap_k)", eps,
                       y_norm * norm2(Ap))
        r_next = self.r + A_next * Ap
        x_next = self.x - A_next * p_k
        if not _finite(x_next, r_next):
            raise NonFiniteError("x/r update")
        self.y = y_k
        self.p = p_k
        self.x, self.r = x_next, r_next
        self.k += 1
        self.r_norm = norm2(r_next)
        if self.r_norm <= self.cfg.tol:
            return True
        # A_k is an O(1) normalized coefficient, so its guard is absolute.
        self.C1 = _div(self.C1, self.A_prev, "A5B10.C1: A_k", eps, 1.0)
        self.A_prev = A_next
        return False

    def _report(self):
        eps = self.cfg.breakdown_eps
        y_k = self.A.matvec_t(self.y)
        den_D = self.C1 * dot(y_k, self.p)
        out = [("A5B10.D: C1*(y_k,p_{k-1})", den_D)]
        num = dot(y_k, self.r)
        try:
            D = -_div(num, den_D, "A5B10.D", eps,
                      abs(self.C1) * norm2(y_k) * norm2(self.p))
        except _Breakdown:
            return out
        p_k = self.r + (D * self.C1) * self.p
        out.append(("A5B10.A: (y_k,Ap_k)", dot(y_k, self.A.matvec(p_k))))
        out.append(("A5B10.C1: A_k", self.A_prev))
        return out


# ---------------------------------------------------------------------------
# A8/B10
# ---------------------------------------------------------------------------


class _A8B10State(SolverState):
    """Coupled recurrence A8/B10 driving the auxiliary direction z."""

    algo = AlgoId.A8B10

    def __init__(self, A, b, x0, y, cfg):
        super().__init__(A, b, x0, y, cfg)
        self.y = np.array(self.y0, copy=True)
        self.z = np.array(self.r, copy=True)
        # (y_k, r_k): the previous step's (y_{k+1}, r_{k+1}); None at the start.
        self.yr: Optional[float] = None
        if self.r_norm <= cfg.tol:
            self.outcome = StepOutcome.converged()

    def _advance(self) -> bool:
        eps = self.cfg.breakdown_eps
        Az = self.A.matvec(self.z)
        num = dot(self.y, self.r) if self.yr is None else self.yr
        den = dot(self.y, Az)
        den_scale = norm2(self.y) * norm2(Az)
        A_next = -_div(num, den, "A8B10.A: (y_k,Az_k)", eps, den_scale)
        r_next = self.r + A_next * Az
        x_next = self.x - A_next * self.z
        if not _finite(x_next, r_next):
            raise NonFiniteError("x/r update")
        self.x, self.r = x_next, r_next
        self.k += 1
        self.r_norm = norm2(r_next)
        if self.r_norm <= self.cfg.tol:
            return True
        y_next = self.A.matvec_t(self.y)
        C1 = _div(1.0, A_next, "A8B10.C1: A_{k+1}", eps, 1.0)
        yr_next = dot(y_next, r_next)
        B1 = -_div(C1 * yr_next, den, "A8B10.B1: (y_k,Az_k)", eps, den_scale)
        z_next = B1 * self.z + C1 * r_next
        if not _finite(z_next):
            raise NonFiniteError("z update")
        self.y = y_next
        self.z = z_next
        self.yr = yr_next
        return False

    def _report(self):
        Az = self.A.matvec(self.z)
        den = dot(self.y, Az)
        out = [("A8B10.A: (y_k,Az_k)", den)]
        num = dot(self.y, self.r) if self.yr is None else self.yr
        try:
            A_next = -_div(num, den, "A8B10.A", self.cfg.breakdown_eps,
                           norm2(self.y) * norm2(Az))
        except _Breakdown:
            return out
        out.append(("A8B10.C1: A_{k+1}", A_next))
        return out


_STATE_CLASSES = {
    AlgoId.A4: _A4State,
    AlgoId.A12: _A12State,
    AlgoId.A5B10: _A5B10State,
    AlgoId.A8B10: _A8B10State,
}


# ---------------------------------------------------------------------------
# Small-n diagnostics
# ---------------------------------------------------------------------------


def moment_sequence(A: SparseMatrix, y: np.ndarray, r0: np.ndarray, count: int) -> np.ndarray:
    """Moments (y, A^i r0) for i = 0..count-1."""
    out = np.empty(count)
    v = r0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(count):
            out[i] = dot(y, v)
            if i + 1 < count:
                v = A.matvec(v)
    return out


def hankel_h1(moments: np.ndarray, k: int) -> float:
    """Determinant of the k x k shifted moment matrix [c_{i+j+1}].

    Its vanishing is the exact-arithmetic breakdown condition; only
    meaningful for small k, offered as a diagnostic.
    """
    if k == 0:
        return 1.0
    need = 2 * k
    if len(moments) < need:
        raise ValueError(f"need {need} moments for k={k}")
    H = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            H[i, j] = moments[i + j + 1]
    return float(np.linalg.det(H))
