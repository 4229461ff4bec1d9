"""Property test: run_switching on random small systems under random plans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lanswitch.linalg import SparseMatrix
from lanswitch.problems import BaheuxSpec, gen_baheux
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


def _system(kind, n, seed):
    """A Gaussian, a sparse diagonally shifted, an ill-conditioned or a Baheux system."""
    rng = np.random.default_rng(seed)
    if kind == "baheux":
        inst = gen_baheux(BaheuxSpec(n=10 * (1 + n % 2), delta=float(rng.choice([0.0, 5.0]))))
        return inst.A, inst.b
    if kind == "gaussian":
        dense = rng.standard_normal((n, n))
    elif kind == "sparse":
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3) + np.eye(n)
    else:
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        dense = (u * np.logspace(0, -12, n)) @ v.T
    return SparseMatrix.from_dense(dense), rng.standard_normal(n)


@st.composite
def cases(draw):
    A, b = _system(draw(st.sampled_from(["gaussian", "gaussian", "sparse", "ill", "baheux"])),
                   draw(st.integers(2, 24)), draw(st.integers(0, 2**32 - 1)))
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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
    rec2, trace2 = run_switching(A, b, x0, y, plan)
    assert trace2.events == trace.events
    assert rec2.x.tobytes() == rec.x.tobytes()
    assert (rec2.outcome, rec2.iterations, rec2.switches, rec2.restarts) == \
        (rec.outcome, rec.iterations, rec.switches, rec.restarts)
    assert repr(rec2.residual) == repr(rec.residual)
