"""Property tests: run_switching on random small systems under random plans,
and ST3's switch rule on live solver states."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lanswitch.harness import PAPER_DELTAS
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
from oracles import record_residual
from random_systems import KINDS, random_system


@st.composite
def plans(draw):
    """A random plan: pool, coin toss, strategy, budgets, start and tolerance."""
    pool = tuple(draw(st.permutations(list(AlgoId)))[:draw(st.integers(1, 4))])
    mode = draw(st.builds(CoinToss, st.integers(0, 2**31)))
    strategy = draw(st.one_of(
        st.just(ST1()),
        st.builds(ST2, st.integers(1, 30)),
        st.builds(ST3, st.sampled_from([1e-8, 1e-3, 1e9])),
    ))
    budget = draw(st.integers(1, 1000))
    return SwitchPlan(
        strategy=strategy,
        policy=SelectionPolicy(pool, mode),
        start=draw(st.sampled_from(pool)),
        cfg=SolverConfig(tol=draw(st.sampled_from([1e-13, 1e-8])),
                         max_iters=draw(st.integers(1, budget))),
        global_budget=budget,
    )


@st.composite
def shadows(draw, b):
    """b itself, or a fixed Gaussian vector of its length."""
    n = b.shape[0]
    return b if draw(st.booleans()) else np.random.default_rng(n).standard_normal(n)


@st.composite
def cases(draw):
    A, b = random_system(draw(st.sampled_from(KINDS)), draw(st.integers(2, 24)),
                         draw(st.integers(0, 2**32 - 1)))
    plan = draw(plans())
    return A, b, draw(shadows(b)), plan


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
    # Every outcome reports ||b - A x|| of its iterate, never a recurrence
    # residual.
    assert repr(rec.residual) == repr(trace.events[-1].residual_norm) == \
        repr(record_residual(A, b, rec.x))
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


def guard_scales(state, previous_yr_scale, y_oldest):
    """The scale of each guard of the next step but A12's Delta_k, by label,
    recomputed from the state (lazily: a product may overflow). A
    normalization guard's scale is the larger magnitude of its two terms.

    The walk keeps what the state no longer holds: ``previous_yr_scale``,
    A4's (y_k, r_k) scale of the step before, and ``y_oldest``, A12's
    y_{k-3}."""
    A = state.A
    if state.algo is AlgoId.A4:
        def a4_a():
            yr = dot(state.y, state.r)
            E = 0.0 if state.k == 0 else -(yr / state.yr_prev)
            B = -((dot(state.y, A.matvec(state.r)) + E * dot(state.y, state.r_prev)) / yr)
            return max(abs(B), abs(E))

        return {"A4.B: (y_k,r_k)": lambda: norm2(state.y) * state.r_norm,
                "A4.E: (y_{k-1},r_{k-1})": lambda: previous_yr_scale,
                "A4.A: B+E": a4_a}
    if state.algo is AlgoId.A12:
        def a12_ak():
            # The a_ij table with a22 = a11 and a32 = a21 substituted.
            r2 = state.rs[0]
            a11, a21, a31 = (dot(v, r2) for v in (*state.ys, state.y))
            s = dot(A.matvec_t(state.y), r2)
            a13, a23, a33, t = state.a_carry
            F = -(a11 / a13)
            b1, b2, b3 = -a21 - a23 * F, -a31 - a33 * F, -s - t * F
            minor = a11 * a33 - a21 * a23
            Delta = a11 * minor + a13 * (a21 * a21 - a31 * a11)
            B = (b1 * minor + a13 * (b2 * a21 - b3 * a11)) / Delta
            G = (b1 - a11 * B) / a13
            C = (b2 - a21 * B - a23 * G) / a11
            return max(abs(C), abs(G))

        return {"A12.a13": lambda: norm2(y_oldest) * state.r_norms[1],
                "A12.a22": lambda: norm2(state.ys[0]) * state.r_norms[0],
                "A12.Ak: C_k+G_k": a12_ak}
    if state.algo is AlgoId.A8B10:
        return {"A8B10.A: (y_k,Az_k)": lambda: norm2(state.y) * norm2(A.matvec(state.z))}

    def a5b10_a():
        y_k = state.y
        D = -(dot(y_k, state.r) / (state.C1 * dot(y_k, state.p)))
        return norm2(y_k) * norm2(A.matvec(state.r + (D * state.C1) * state.p))

    return {"A5B10.D: C1*(y_k,p_{k-1})":
            lambda: abs(state.C1) * norm2(state.y) * norm2(state.p),
            "A5B10.A: (y_k,Ap_k)": a5b10_a}


@st.composite
def systems(draw):
    """A paper cell at n = 20, 40 or 60, or a random system of order <= 24."""
    kind = draw(st.sampled_from(("paper",) + KINDS))
    if kind == "paper":
        inst = gen_baheux(BaheuxSpec(n=draw(st.sampled_from((20, 40, 60))),
                                     delta=draw(st.sampled_from(PAPER_DELTAS))))
        return inst.A, inst.b
    return random_system(kind, draw(st.integers(2, 24)), draw(st.integers(0, 2**32 - 1)))


@st.composite
def live_walks(draw):
    A, b = draw(systems())
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
    # A12's y_{k-3} at its first step is y_0.
    previous_yr_scale, y_oldest = None, y
    while state.outcome.kind is OutcomeKind.CONTINUE:
        report = denominator_report(state)
        expected = guard_scales(state, previous_yr_scale, y_oldest)
        for label, value, scale in report:
            if label in expected:
                with np.errstate(over="ignore", invalid="ignore"):
                    assert scale == expected[label](), label
            elif label.startswith((f"{algo}.C1", f"{algo}.nonfinite")):
                assert scale == 1.0, label
            else:
                assert label == "A12.Delta_k" and scale >= 0.0, label
        for t in MONITOR_THRESHOLDS:
            small = any(abs(value) < t * scale for _, value, scale in report)
            assert ST3(t).monitor(state) is small
        if algo is AlgoId.A4:
            previous_yr_scale = {label: scale for label, _, scale in report}.get(
                "A4.B: (y_k,r_k)")
        elif algo is AlgoId.A12:
            y_oldest = state.ys[0]
        state.step()


SHADOW_EXPONENTS = (-200, -40, -1, 1, 40, 200)


@st.composite
def shadow_cases(draw):
    """A system, a shadow vector, a plan, and an exponent t of +-1, +-40 or
    +-200 (the scaled shadow chains of these runs stay finite)."""
    A, b = draw(systems())
    return A, b, draw(shadows(b)), draw(plans()), draw(st.sampled_from(SHADOW_EXPONENTS))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(shadow_cases())
def test_the_shadow_vectors_scale_changes_nothing(case):
    # Every quantity the solvers form from y_0 = 2^t y is 2^t times the one
    # formed from y, exactly, and every guard that reads one compares it with
    # a scale that carries the same 2^t: the run is the same, bit for bit.
    A, b, y, plan, t = case
    x0 = np.zeros(A.nrows)
    rec, trace = run_switching(A, b, x0, y, plan)
    rec2, trace2 = run_switching(A, b, x0, y * 2.0 ** t, plan)
    assert trace2.events == trace.events
    assert rec2.iterations == rec.iterations
    assert rec2.x.tobytes() == rec.x.tobytes()
