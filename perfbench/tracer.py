"""In-process call tracing of lanswitch's public names, from outside the package.

The tracer swaps each traced name for a wrapper that counts calls and
accumulates total and self time (total minus the time spent in traced calls
nested inside it), then restores the originals on exit. Nothing under
``src/`` is changed. A name that is missing raises at install time, so a
refactor that moves an import breaks the benchmark visibly instead of
reporting zeros.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from lanswitch import linalg, solvers, switching
from lanswitch.solvers import OutcomeKind


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


@dataclass
class SiteStats:
    """Counters of one wrapped binding."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    breakdowns: int = 0


def _init_broke_down(state) -> bool:
    # A prologue breakdown before any iterate moved: the handoff was wasted.
    return state.outcome.kind is OutcomeKind.BREAKDOWN and state.k == 0


def _step_broke_down(outcome) -> bool:
    return outcome.kind is OutcomeKind.BREAKDOWN


# (site, owner, attribute, layer metric name, breakdown observer). Each site
# is one binding the solve path looks up at call time; two sites may feed
# the same layer name (norm2 is bound in both solvers and switching).
SITES: Tuple[Tuple[str, object, str, str, Optional[Callable]], ...] = (
    ("SparseMatrix.matvec", linalg.SparseMatrix, "matvec", "linalg.matvec", None),
    ("SparseMatrix.matvec_t", linalg.SparseMatrix, "matvec_t", "linalg.matvec_t", None),
    ("solvers.dot", solvers, "dot", "linalg.dot", None),
    ("solvers.norm2", solvers, "norm2", "linalg.norm2", None),
    ("switching.norm2", switching, "norm2", "linalg.norm2", None),
    ("SolverState.step", solvers.SolverState, "step", "solvers.step", _step_broke_down),
    ("switching.init", switching, "init", "solvers.init", _init_broke_down),
    ("switching.denominator_report", switching, "denominator_report",
     "solvers.denominator_report", None),
    ("switching.select_next", switching, "select_next", "switching.select_next", None),
    ("switching.run_switching", switching, "run_switching", "switching.run_switching", None),
)


class Tracer:
    """Context manager that wraps every site in SITES while active."""

    def __init__(self):
        self.sites: Dict[str, SiteStats] = {site[0]: SiteStats() for site in SITES}
        self._saved: List[Tuple[object, str, object]] = []
        # One accumulator per open traced call: the time its traced children took.
        self._child_time: List[float] = [0.0]

    def __enter__(self) -> "Tracer":
        for site, owner, attr, _, observe in SITES:
            original = getattr(owner, attr, None)
            if original is None:
                self.__exit__()
                raise BenchError(f"traced name {site} is missing; update perfbench/tracer.py")
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, self.sites[site], self._child_time, observe))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer(self, name: str) -> SiteStats:
        """Counters summed over every site that feeds the layer name."""
        out = SiteStats()
        for site, _, _, layer_name, _ in SITES:
            if layer_name == name:
                s = self.sites[site]
                out.calls += s.calls
                out.total_s += s.total_s
                out.self_s += s.self_s
                out.breakdowns += s.breakdowns
        return out


def _wrap(fn, stats: SiteStats, child_time: List[float], observe):
    clock = time.perf_counter

    def traced(*args, **kwargs):
        child_time.append(0.0)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            nested = child_time.pop()
            child_time[-1] += dt
            stats.calls += 1
            stats.total_s += dt
            stats.self_s += dt - nested
        if observe is not None and observe(result):
            stats.breakdowns += 1
        return result

    return traced


def check_fired(tracer: Tracer, expect_monitor: bool) -> None:
    """Fail loudly when a wrapped site did not fire where it must.

    Every site fires on every workload, except denominator_report, which
    only ST3 calls: it must fire when the workload runs ST3 and stay silent
    otherwise.
    """
    for site, _, _, _, _ in SITES:
        calls = tracer.sites[site].calls
        if site == "switching.denominator_report":
            if expect_monitor and calls == 0:
                raise BenchError(f"{site} never fired on an ST3 workload")
            if not expect_monitor and calls != 0:
                raise BenchError(f"{site} fired {calls} times on a workload without ST3")
        elif calls == 0:
            raise BenchError(f"traced site {site} never fired; the solve path no longer "
                             f"looks it up where the tracer wraps it")
