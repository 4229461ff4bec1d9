"""Property test: run_switching on random small systems under random plans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lanswitch.solvers import AlgoId, SolverConfig
from lanswitch.switching import (
    ST1,
    ST2,
    ST3,
    CoinToss,
    Fixed,
    RoundRobin,
    SelectionPolicy,
    SwitchPlan,
    run_switching,
)
from random_systems import KINDS, random_system


@st.composite
def cases(draw):
    A, b = random_system(draw(st.sampled_from(KINDS)), draw(st.integers(2, 24)),
                         draw(st.integers(0, 2**32 - 1)))
    n = A.nrows
    pool = tuple(draw(st.permutations(list(AlgoId)))[:draw(st.integers(1, 4))])
    mode = draw(st.one_of(
        st.builds(CoinToss, st.integers(0, 2**31)),
        st.just(RoundRobin()),
        st.sampled_from(pool).map(Fixed),
    ))
    strategy = draw(st.one_of(
        st.just(ST1()),
        st.builds(ST2, st.integers(1, 30)),
        st.builds(ST3, st.sampled_from([1e-8, 1e-3, 1e9]), st.integers(1, 4)),
    ))
    budget = draw(st.integers(1, 1000))
    plan = SwitchPlan(
        strategy=strategy,
        policy=SelectionPolicy(pool, mode),
        start=draw(st.sampled_from(pool)),
        cfg=SolverConfig(tol=draw(st.sampled_from([1e-13, 1e-8])),
                         max_iters=draw(st.integers(1, budget))),
        global_budget=budget,
        shadow_restart=draw(st.sampled_from(["residual", "initial"])),
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
    rec2, trace2 = run_switching(A, b, x0, y, plan)
    assert trace2.events == trace.events
    assert rec2.x.tobytes() == rec.x.tobytes()
    assert (rec2.outcome, rec2.iterations, rec2.switches, rec2.restarts) == \
        (rec.outcome, rec.iterations, rec.switches, rec.restarts)
    assert repr(rec2.residual) == repr(rec.residual)
