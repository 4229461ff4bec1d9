"""Property tests: run_switching on random small systems under random plans,
and ST3's switch rule on live solver states."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lanswitch.linalg import dot, norm2
from lanswitch.problems import BaheuxSpec, gen_baheux
from lanswitch.solvers import AlgoId, OutcomeKind, SolverConfig, denominator_report, init
from lanswitch.switching import (
    ST1,
    ST2,
    ST3,
    CoinToss,
    EventKind,
    SelectionPolicy,
    SwitchPlan,
    run_switching,
)
from paper_grid import PAPER_DELTAS
from random_systems import KINDS, random_system


@st.composite
def cases(draw):
    A, b = random_system(draw(st.sampled_from(KINDS)), draw(st.integers(2, 24)),
                         draw(st.integers(0, 2**32 - 1)))
    n = A.nrows
    pool = tuple(draw(st.permutations(list(AlgoId)))[:draw(st.integers(1, 4))])
    mode = draw(st.builds(CoinToss, st.integers(0, 2**31)))
    strategy = draw(st.one_of(
        st.just(ST1()),
        st.builds(ST2, st.integers(1, 30)),
        st.builds(ST3, st.sampled_from([1e-8, 1e-3, 1e9])),
    ))
    budget = draw(st.integers(1, 1000))
    plan = SwitchPlan(
        strategy=strategy,
        policy=SelectionPolicy(pool, mode),
        start=draw(st.sampled_from(pool)),
        cfg=SolverConfig(tol=draw(st.sampled_from([1e-13, 1e-8])),
                         max_iters=draw(st.integers(1, budget))),
        global_budget=budget,
    )
    y = b if draw(st.booleans()) else np.random.default_rng(n).standard_normal(n)
    return A, b, y, plan


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(cases())
def test_run_switching_invariants(case):
    A, b, y, plan = case
    x0 = np.zeros(A.nrows)
    rec, trace = run_switching(A, b, x0, y, plan)
    assert np.all(np.isfinite(rec.x))
    assert rec.iterations <= plan.global_budget
    iters = [e.at_iteration for e in trace.events]
    assert all(a < b for a, b in zip(iters, iters[1:]))
    assert trace.events[-1].kind.value == rec.outcome
    assert repr(rec.residual) == repr(trace.events[-1].residual_norm)
    if rec.outcome == "Converged":
        assert rec.residual <= plan.cfg.tol
    for e in trace.events[:-1]:
        same = e.from_algo == e.to_algo
        assert not same or e.kind in (EventKind.RESTART, EventKind.CYCLE_END)
        assert same or e.kind is not EventKind.RESTART
    rec2, trace2 = run_switching(A, b, x0, y, plan)
    assert trace2.events == trace.events
    assert rec2.x.tobytes() == rec.x.tobytes()
    assert (rec2.outcome, rec2.iterations, rec2.switches, rec2.restarts) == \
        (rec.outcome, rec.iterations, rec.switches, rec.restarts)
    assert repr(rec2.residual) == repr(rec.residual)


MONITOR_THRESHOLDS = (1e-3, 1e-8, 1e9)


def guard_scales(state, previous_yr_scale):
    """The scale of each scalar-product guard of the next step, by label,
    recomputed from the state (lazily: a product may overflow)."""
    A = state.A
    if state.algo is AlgoId.A4:
        return {"A4.B: (y_k,r_k)": lambda: norm2(state.y) * state.r_norm,
                "A4.E: (y_{k-1},r_{k-1})": lambda: previous_yr_scale}
    if state.algo is AlgoId.A12:
        return {"A12.a13": lambda: norm2(state.ys[0]) * state.r_norms[2],
                "A12.a22": lambda: norm2(state.ys[1]) * state.r_norms[1]}
    if state.algo is AlgoId.A8B10:
        return {"A8B10.A: (y_k,Az_k)": lambda: norm2(state.y) * norm2(A.matvec(state.z))}

    def a5b10_a():
        y_k = state.y_next
        D = -(dot(y_k, state.r) / (state.C1 * dot(y_k, state.p)))
        return norm2(y_k) * norm2(A.matvec(state.r + (D * state.C1) * state.p))

    return {"A5B10.D: C1*(y_k,p_{k-1})":
            lambda: abs(state.C1) * norm2(state.y_next) * norm2(state.p),
            "A5B10.A: (y_k,Ap_k)": a5b10_a}


@st.composite
def live_walks(draw):
    kind = draw(st.sampled_from(("paper",) + KINDS))
    if kind == "paper":
        inst = gen_baheux(BaheuxSpec(n=draw(st.sampled_from((20, 40, 60))),
                                     delta=draw(st.sampled_from(PAPER_DELTAS))))
        A, b = inst.A, inst.b
    else:
        A, b = random_system(kind, draw(st.integers(2, 24)), draw(st.integers(0, 2**32 - 1)))
    # A shadow vector near 1e150 makes the shadow chain overflow a few
    # steps in, so the report ends in its nonfinite entry.
    y = b * draw(st.sampled_from((1.0, 1e150)))
    return draw(st.sampled_from(list(AlgoId))), A, b, y


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(live_walks())
def test_st3_fires_exactly_when_an_entry_is_small_for_its_scale(walk):
    # Along a solver's walk, at every live state: each report entry carries
    # its guard's scale, and ST3(t) switches exactly when some entry has
    # |value| < t * scale.
    algo, A, b, y = walk
    state = init(algo, A, b, np.zeros(A.nrows), y, SolverConfig(tol=1e-13, max_iters=60))
    previous_yr_scale = None
    while state.outcome.kind is OutcomeKind.CONTINUE:
        report = denominator_report(state)
        expected = guard_scales(state, previous_yr_scale)
        for label, value, scale in report:
            if label in expected:
                with np.errstate(over="ignore", invalid="ignore"):
                    assert scale == expected[label](), label
            elif label.startswith((f"{algo}.C1", f"{algo}.nonfinite")):
                assert scale == 1.0, label
            elif label in ("A4.A: B+E", "A12.Ak: C_k+G_k"):
                assert scale >= 1.0, label
            else:
                assert label == "A12.Delta_k" and scale >= 0.0, label
        for t in MONITOR_THRESHOLDS:
            small = any(abs(value) < t * scale for _, value, scale in report)
            assert ST3(t).monitor(state) is small
        if algo is AlgoId.A4:
            previous_yr_scale = {label: scale for label, _, scale in report}.get(
                "A4.B: (y_k,r_k)")
        state.step()
