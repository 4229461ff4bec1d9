import numpy as np
import pytest
from numpy.testing import assert_allclose

from lanswitch.harness import derive_seed
from lanswitch.linalg import SparseMatrix, as_vector, matvec, norm2
from lanswitch.problems import BaheuxSpec, gen_baheux
from lanswitch.solvers import AlgoId, OutcomeKind, SolverConfig, init, run, step
from lanswitch.switching import (
    ST1,
    ST2,
    ST3,
    CoinToss,
    EventKind,
    Fixed,
    RoundRobin,
    SelectionPolicy,
    SwitchPlan,
    make_rng,
    run_switching,
    select_next,
)

A4, A12, A5B10, A8B10 = AlgoId.A4, AlgoId.A12, AlgoId.A5B10, AlgoId.A8B10


def st2_plan(pool, seed=42, cycle=20, tol=1e-13, budget=2000, start=None, **kw):
    return SwitchPlan(
        strategy=ST2(cycle_len=cycle),
        policy=SelectionPolicy(tuple(pool), CoinToss(seed)),
        start=start or pool[0],
        cfg=SolverConfig(tol=tol, max_iters=budget),
        global_budget=budget,
        **kw,
    )


class TestPlanValidation:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            SelectionPolicy((), RoundRobin())

    def test_duplicate_pool_rejected(self):
        with pytest.raises(ValueError):
            SelectionPolicy((A4, A4), RoundRobin())

    def test_fixed_algo_must_be_pooled(self):
        with pytest.raises(ValueError):
            SelectionPolicy((A4,), Fixed(A12))

    def test_start_must_be_pooled(self):
        with pytest.raises(ValueError):
            SwitchPlan(ST2(), SelectionPolicy((A4,), RoundRobin()), A12,
                       SolverConfig(), 100)

    def test_bad_cycle_and_thresholds(self):
        with pytest.raises(ValueError):
            ST2(cycle_len=0)
        with pytest.raises(ValueError):
            ST3(monitor_threshold=0.0)
        with pytest.raises(ValueError):
            ST3(check_every=0)

    def test_bad_shadow_restart(self):
        with pytest.raises(ValueError):
            SwitchPlan(ST2(), SelectionPolicy((A4,), RoundRobin()), A4,
                       SolverConfig(), 100, shadow_restart="sometimes")


class TestSelectNext:
    def test_fixed_is_restart(self):
        pol = SelectionPolicy((A4,), Fixed(A4))
        assert select_next(pol, A4, None) == (A4, EventKind.RESTART)

    def test_round_robin_proper_switch(self):
        pol = SelectionPolicy((A4, A12), RoundRobin())
        assert select_next(pol, A4, None) == (A12, EventKind.PROPER_SWITCH)
        assert select_next(pol, A12, None) == (A4, EventKind.PROPER_SWITCH)

    def test_round_robin_singleton_restarts(self):
        pol = SelectionPolicy((A4,), RoundRobin())
        assert select_next(pol, A4, None) == (A4, EventKind.RESTART)

    def test_current_must_be_pooled(self):
        pol = SelectionPolicy((A4,), RoundRobin())
        with pytest.raises(ValueError):
            select_next(pol, A12, None)

    def test_coin_toss_needs_rng(self):
        pol = SelectionPolicy((A4, A12), CoinToss(1))
        with pytest.raises(ValueError):
            select_next(pol, A4, None)

    def test_coin_toss_seed42_regression(self):
        # Frozen from the PCG64(SeedSequence(42)) stream.
        pol = SelectionPolicy((A4, A12), CoinToss(42))
        rng = make_rng(42)
        cur = A4
        seen = []
        for _ in range(5):
            cur, kind = select_next(pol, cur, rng)
            seen.append((cur, kind))
        assert seen == [
            (A4, EventKind.RESTART),
            (A12, EventKind.PROPER_SWITCH),
            (A12, EventKind.RESTART),
            (A4, EventKind.PROPER_SWITCH),
            (A4, EventKind.RESTART),
        ]

    def test_coin_toss_reproducible_over_100_draws(self):
        pol = SelectionPolicy((A4, A12), CoinToss(7))
        rng_a, rng_b = make_rng(7), make_rng(7)
        draws_a = [select_next(pol, A4, rng_a)[0] for _ in range(100)]
        draws_b = [select_next(pol, A4, rng_b)[0] for _ in range(100)]
        assert draws_a == draws_b


class TestHandoff:
    def test_exact_iterate_converges(self):
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.2))
        st = init(A4, inst.A, inst.b, np.ones(20), inst.b,
                  SolverConfig(tol=1e-13))
        assert st.outcome.kind is OutcomeKind.CONVERGED

    def test_residual_recomputed_fresh(self):
        inst = gen_baheux(BaheuxSpec(n=60, delta=5.0))
        cfg = SolverConfig(tol=1e-13, max_iters=1000)
        st = init(A8B10, inst.A, inst.b, np.zeros(60), inst.b, cfg)
        run(st, 7)
        st2 = init(A5B10, inst.A, inst.b, st.x, inst.b, cfg)
        expected = inst.b - matvec(inst.A, st.x)
        assert_allclose(st2.r, expected, rtol=0, atol=0)

    def test_prologue_breakdown_reported_not_raised(self):
        # Equal-moment construction: the incoming A12 prologue must fail.
        A = SparseMatrix.from_dense(np.diag([1.0, 2.0]))
        b = as_vector([1.0, 5.0])
        y = as_vector([1.0, 0.0])
        st = init(A12, A, b, np.zeros(2), y, SolverConfig(tol=1e-13))
        assert st.outcome.kind is OutcomeKind.BREAKDOWN
        assert st.outcome.label.startswith("A12.delta")

    def test_identity_on_first_steps_after_handoff(self):
        # Spec-scale case: Baheux(200, delta=5).
        inst = gen_baheux(BaheuxSpec(n=200, delta=5.0))
        cfg = SolverConfig(tol=1e-13, max_iters=20000)
        st = init(A4, inst.A, inst.b, np.zeros(200), inst.b, cfg)
        run(st, 20)
        r_fresh = inst.b - matvec(inst.A, st.x)
        st2 = init(A12, inst.A, inst.b, st.x, r_fresh, cfg)
        for _ in range(5):
            if st2.outcome.is_terminal:
                break
            step(st2)
            gap = norm2(st2.r - (inst.b - matvec(inst.A, st2.x)))
            bound = 1e-10 * (norm2(inst.b) + inst.A.norm_inf() * norm2(st2.x))
            assert gap <= bound


class TestRunSwitching:
    def test_exact_start_single_converged_event(self):
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.2))
        rec, trace = run_switching(inst.A, inst.b, np.ones(20), inst.b,
                                   st2_plan([A4, A12]))
        assert rec.outcome == "Converged"
        assert rec.iterations == 0
        assert [e.kind for e in trace.events] == [EventKind.CONVERGED]
        assert trace.events[0].at_iteration == 0

    def test_zero_shadow_rejected(self):
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.2))
        with pytest.raises(ValueError):
            run_switching(inst.A, inst.b, np.zeros(20), np.zeros(20),
                          st2_plan([A4, A12]))

    def test_paper_anchor_n100_delta02(self):
        # Table 2, n=100: the A4+A12 pairing converges below 1e-13.
        inst = gen_baheux(BaheuxSpec(n=100, delta=0.2))
        rec, trace = run_switching(inst.A, inst.b, np.zeros(100), inst.b,
                                   st2_plan([A4, A12], budget=10000))
        assert rec.outcome == "Converged"
        assert rec.residual <= 1e-13
        assert norm2(inst.b - matvec(inst.A, rec.x)) <= 1e-12

    def test_pure_restarting_converges(self):
        # Degenerate pool: every selection is a restart of A4.
        inst = gen_baheux(BaheuxSpec(n=60, delta=0.2))
        plan = SwitchPlan(
            strategy=ST2(20),
            policy=SelectionPolicy((A4,), Fixed(A4)),
            start=A4,
            cfg=SolverConfig(tol=1e-13, max_iters=6000),
            global_budget=6000,
        )
        rec, trace = run_switching(inst.A, inst.b, np.zeros(60), inst.b, plan)
        assert rec.outcome == "Converged"
        assert rec.switches == 0
        assert rec.restarts >= 1
        transition_kinds = {e.kind for e in trace.events[:-1]}
        assert transition_kinds <= {EventKind.RESTART, EventKind.BREAKDOWN_SWITCH,
                                    EventKind.CYCLE_END}

    def test_st2_cycle_discipline(self):
        inst = gen_baheux(BaheuxSpec(n=100, delta=0.2))
        rec, trace = run_switching(inst.A, inst.b, np.zeros(100), inst.b,
                                   st2_plan([A4, A12], budget=10000))
        scheduled = [e for e in trace.events
                     if e.kind in (EventKind.RESTART, EventKind.PROPER_SWITCH)]
        # Between consecutive scheduled boundaries with nothing in between,
        # exactly one cycle elapses.
        by_iter = {e.at_iteration: e for e in trace.events}
        for first, second in zip(scheduled, scheduled[1:]):
            between = [e for e in trace.events
                       if first.at_iteration < e.at_iteration < second.at_iteration]
            if not between:
                assert second.at_iteration - first.at_iteration == 20

    def test_trace_monotone_and_budget(self):
        inst = gen_baheux(BaheuxSpec(n=100, delta=5.0))
        plan = st2_plan([A5B10, A8B10], budget=10000)
        rec, trace = run_switching(inst.A, inst.b, np.zeros(100), inst.b, plan)
        iters = [e.at_iteration for e in trace.events]
        assert iters == sorted(iters)
        assert len(set(iters)) == len(iters)
        assert rec.iterations <= plan.global_budget
        assert trace.events[-1].kind in (EventKind.CONVERGED, EventKind.EXHAUSTED)

    def test_handoff_continuity(self):
        # The residual norm on every transition event equals the recomputed
        # ||b - A x|| at the handoff iterate by construction; spot-check by
        # rerunning and comparing against the previous event's state budget.
        inst = gen_baheux(BaheuxSpec(n=200, delta=5.0))
        rec, trace = run_switching(inst.A, inst.b, np.zeros(200), inst.b,
                                   st2_plan([A4, A5B10], budget=20000))
        assert rec.outcome == "Converged"
        transitions = [e for e in trace.events
                       if e.kind in (EventKind.RESTART, EventKind.PROPER_SWITCH,
                                     EventKind.BREAKDOWN_SWITCH, EventKind.CYCLE_END)]
        assert transitions, "expected at least one handoff"

    def test_restart_iff_same_algorithm(self):
        inst = gen_baheux(BaheuxSpec(n=100, delta=0.0))
        rec, trace = run_switching(inst.A, inst.b, np.zeros(100), inst.b,
                                   st2_plan([A4, A12], budget=10000))
        for e in trace.events:
            if e.kind is EventKind.RESTART:
                assert e.from_algo == e.to_algo
            if e.kind is EventKind.PROPER_SWITCH:
                assert e.from_algo != e.to_algo
        n_restart = sum(e.kind is EventKind.RESTART for e in trace.events)
        n_proper = sum(e.kind is EventKind.PROPER_SWITCH for e in trace.events)
        assert rec.restarts >= n_restart
        assert rec.switches >= n_proper

    def test_seeded_determinism_bitwise(self):
        inst = gen_baheux(BaheuxSpec(n=100, delta=8.0))
        plan = st2_plan([A4, A8B10], seed=1234, budget=10000)
        rec1, trace1 = run_switching(inst.A, inst.b, np.zeros(100), inst.b, plan)
        rec2, trace2 = run_switching(inst.A, inst.b, np.zeros(100), inst.b, plan)
        assert trace1.events == trace2.events
        assert np.array_equal(rec1.x, rec2.x)
        assert rec1.residual == rec2.residual
        assert rec1.iterations == rec2.iterations

    def test_different_seed_may_differ_but_converges(self):
        inst = gen_baheux(BaheuxSpec(n=100, delta=0.2))
        for seed in (1, 2, 3):
            rec, _ = run_switching(inst.A, inst.b, np.zeros(100), inst.b,
                                   st2_plan([A4, A12], seed=seed, budget=10000))
            assert rec.outcome == "Converged"

    def test_pool_exhaustion_reported(self):
        # y orthogonal to r0 with the initial-shadow policy: A4 breaks at its
        # first step, A8B10 at its first C1 update, at the same iterate.
        A = SparseMatrix.from_dense(np.diag([1.0, 2.0]))
        b = as_vector([3.0, 0.0])
        y = as_vector([0.0, 1.0])
        plan = SwitchPlan(
            strategy=ST2(5),
            policy=SelectionPolicy((A4, A8B10), RoundRobin()),
            start=A4,
            cfg=SolverConfig(tol=1e-13, max_iters=100),
            global_budget=100,
            shadow_restart="initial",
        )
        rec, trace = run_switching(A, b, np.zeros(2), y, plan)
        assert rec.outcome == "Exhausted"
        assert trace.events[-1].kind is EventKind.EXHAUSTED

    def test_budget_exhaustion(self):
        inst = gen_baheux(BaheuxSpec(n=100, delta=5.0))
        plan = st2_plan([A4, A12], budget=30)
        rec, trace = run_switching(inst.A, inst.b, np.zeros(100), inst.b, plan)
        assert rec.outcome == "Exhausted"
        assert rec.iterations <= 30

    def test_init_breakdown_with_progress_hands_off(self):
        # A12's prologue on the equal-moment system produces x1 and then dies
        # on delta; the driver hands the iterate to A4. At x1 the prologue has
        # enforced (y, r1) = 0, so A4 dies there too and the pool is exhausted
        # at a common iterate.
        A = SparseMatrix.from_dense(np.diag([1.0, 2.0]))
        b = as_vector([1.0, 5.0])
        y = as_vector([1.0, 0.0])
        plan = SwitchPlan(
            strategy=ST2(10),
            policy=SelectionPolicy((A12, A4), RoundRobin()),
            start=A12,
            cfg=SolverConfig(tol=1e-13, max_iters=100),
            global_budget=100,
            shadow_restart="initial",
        )
        rec, trace = run_switching(A, b, np.zeros(2), y, plan)
        kinds = [e.kind for e in trace.events]
        assert kinds == [EventKind.BREAKDOWN_SWITCH, EventKind.EXHAUSTED]
        assert trace.events[0].from_algo is A12
        assert trace.events[0].to_algo is A4
        assert rec.outcome == "Exhausted"

    def test_init_breakdown_without_progress_retries_silently(self):
        # c0 = (y, b) is healthy while c1 = (y, A b) cancels to the guard
        # level: A5B10's prologue dies before producing an iterate, so the
        # driver tries A4 at the same point without a trace event.
        A = SparseMatrix.from_dense(np.array([
            [1.0, 1.0, -1.0 + 1e-13 - 1e-11],
            [0.0, 2.0, 0.0],
            [0.0, 0.0, 2.0],
        ]))
        b = as_vector([1e-11, 1.0, 1.0])
        y = as_vector([1.0, 0.0, 0.0])
        cfg = SolverConfig(tol=1e-13, max_iters=100)
        solo = init(A5B10, A, b, np.zeros(3), y, cfg)
        assert solo.outcome.kind is OutcomeKind.BREAKDOWN
        assert solo.k == 0
        plan = SwitchPlan(
            strategy=ST2(10),
            policy=SelectionPolicy((A5B10, A4), RoundRobin()),
            start=A5B10,
            cfg=cfg,
            global_budget=100,
            shadow_restart="initial",
        )
        rec, trace = run_switching(A, b, np.zeros(3), y, plan)
        assert rec.outcome == "Converged"
        assert trace.events[0].from_algo is A4  # proof that A4 took over

    def test_st1_runs_until_breakdown_then_switches(self):
        inst = gen_baheux(BaheuxSpec(n=100, delta=0.2))
        plan = SwitchPlan(
            strategy=ST1(),
            policy=SelectionPolicy((A4, A12), CoinToss(42)),
            start=A4,
            cfg=SolverConfig(tol=1e-13, max_iters=10000),
            global_budget=10000,
        )
        rec, trace = run_switching(inst.A, inst.b, np.zeros(100), inst.b, plan)
        assert rec.outcome in ("Converged", "Exhausted")
        non_terminal = trace.events[:-1]
        assert all(e.kind in (EventKind.BREAKDOWN_SWITCH, EventKind.CYCLE_END)
                   for e in non_terminal)

    def test_st3_monitor_triggers_on_high_threshold(self):
        inst = gen_baheux(BaheuxSpec(n=60, delta=0.2))
        plan = SwitchPlan(
            strategy=ST3(monitor_threshold=1e9, check_every=2),
            policy=SelectionPolicy((A8B10, A5B10), RoundRobin()),
            start=A8B10,
            cfg=SolverConfig(tol=1e-13, max_iters=200),
            global_budget=200,
        )
        rec, trace = run_switching(inst.A, inst.b, np.zeros(60), inst.b, plan)
        assert any(e.kind is EventKind.MONITOR_SWITCH for e in trace.events)

    def test_st3_with_default_threshold_converges(self):
        inst = gen_baheux(BaheuxSpec(n=60, delta=0.2))
        plan = SwitchPlan(
            strategy=ST3(),
            policy=SelectionPolicy((A8B10, A4), CoinToss(5)),
            start=A8B10,
            cfg=SolverConfig(tol=1e-13, max_iters=6000),
            global_budget=6000,
        )
        rec, _ = run_switching(inst.A, inst.b, np.zeros(60), inst.b, plan)
        assert rec.outcome == "Converged"
        assert norm2(inst.b - matvec(inst.A, rec.x)) <= 1e-12

    @pytest.mark.parametrize("pool", [
        (A4, A12), (A4, A5B10), (A4, A8B10), (A5B10, A8B10),
    ])
    def test_all_paper_pairings_converge_on_skewed_problem(self, pool):
        inst = gen_baheux(BaheuxSpec(n=200, delta=8.0))
        rec, _ = run_switching(inst.A, inst.b, np.zeros(200), inst.b,
                               st2_plan(list(pool), budget=20000))
        assert rec.outcome == "Converged"
        assert rec.residual <= 1e-13

    def test_shadow_restart_initial_still_supported(self):
        # The alternative handoff policy runs and terminates; it is kept for
        # comparison, not for convergence claims.
        inst = gen_baheux(BaheuxSpec(n=60, delta=0.2))
        plan = st2_plan([A4, A12], budget=6000, shadow_restart="initial")
        rec, trace = run_switching(inst.A, inst.b, np.zeros(60), inst.b, plan)
        assert rec.outcome in ("Converged", "Exhausted")
        assert trace.events[-1].kind in (EventKind.CONVERGED, EventKind.EXHAUSTED)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_iterate_ends_exhausted(self):
        # A diverging ST2 run on a random Gaussian system: the iterate stays
        # finite, but the norm of its recomputed residual overflows at a
        # handoff. The run must end Exhausted instead of raising.
        rng = np.random.default_rng(1480)
        A = SparseMatrix.from_dense(rng.standard_normal((24, 24)))
        b = rng.standard_normal(24)
        plan = SwitchPlan(
            strategy=ST2(cycle_len=5),
            policy=SelectionPolicy((A4, A12), RoundRobin()),
            start=A4,
            cfg=SolverConfig(tol=1e-13, max_iters=1000),
            global_budget=1000,
        )
        rec, trace = run_switching(A, b, np.zeros(24), b, plan)
        assert rec.outcome == "Exhausted"
        assert trace.events[-1].kind is EventKind.EXHAUSTED
        assert rec.residual == trace.events[-1].residual_norm == np.inf
        assert np.all(np.isfinite(rec.x))

    def test_converged_record_residual_is_the_terminal_event_residual(self):
        # A handoff finds the recomputed ||b - A x|| within tol while the
        # outgoing state's recurrence residual is above it; the record must
        # report the residual that ended the run.
        inst = gen_baheux(BaheuxSpec(n=60, delta=5.0))
        plan = SwitchPlan(
            strategy=ST3(1e-3, 2),
            policy=SelectionPolicy((A4, A5B10), CoinToss(derive_seed(42, 173))),
            start=A4,
            cfg=SolverConfig(tol=1e-13, max_iters=1200),
            global_budget=1200,
        )
        rec, trace = run_switching(inst.A, inst.b, np.zeros(60), inst.b, plan)
        assert rec.outcome == "Converged"
        assert rec.residual == trace.events[-1].residual_norm
        assert rec.residual <= plan.cfg.tol
        assert rec.residual == norm2(inst.b - matvec(inst.A, rec.x))
