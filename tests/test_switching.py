import numpy as np
import pytest
from numpy.testing import assert_allclose

from lanswitch import solvers, switching
from lanswitch.harness import derive_seed
from lanswitch.linalg import NonFiniteError, SparseMatrix, as_vector, norm2
from lanswitch.problems import BaheuxSpec, gen_baheux
from lanswitch.solvers import _STATE_CLASSES, AlgoId, OutcomeKind, SolverConfig, init, run
from lanswitch.switching import (
    ST1,
    ST2,
    ST3,
    CoinToss,
    EventKind,
    SelectionPolicy,
    SwitchPlan,
    make_rng,
    run_switching,
    select_next,
)
from random_systems import random_system

A4, A12, A5B10, A8B10 = AlgoId.A4, AlgoId.A12, AlgoId.A5B10, AlgoId.A8B10


def st2_plan(pool, seed=42, cycle=20, tol=1e-13, budget=2000, start=None):
    return SwitchPlan(
        strategy=ST2(cycle_len=cycle),
        policy=SelectionPolicy(tuple(pool), CoinToss(seed)),
        start=start or pool[0],
        cfg=SolverConfig(tol=tol, max_iters=budget),
        global_budget=budget,
    )


class TestPlanValidation:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            SelectionPolicy((), CoinToss(0))

    def test_duplicate_pool_rejected(self):
        with pytest.raises(ValueError):
            SelectionPolicy((A4, A4), CoinToss(0))

    def test_selection_mode_must_be_coin_toss(self):
        with pytest.raises(ValueError, match="selection mode"):
            SelectionPolicy((A4, A12), "round-robin")

    def test_start_must_be_pooled(self):
        with pytest.raises(ValueError):
            SwitchPlan(ST2(), SelectionPolicy((A4,), CoinToss(0)), A12,
                       SolverConfig(), 100)

    def test_global_budget_at_least_one(self):
        with pytest.raises(ValueError, match="global_budget"):
            SwitchPlan(ST2(), SelectionPolicy((A4,), CoinToss(0)), A4,
                       SolverConfig(), 0)

    def test_bad_cycle_and_thresholds(self):
        with pytest.raises(ValueError):
            ST2(cycle_len=0)
        with pytest.raises(ValueError):
            ST3(monitor_threshold=0.0)
        with pytest.raises(ValueError):
            ST3(check_every=0)


class TestSelectNext:
    def test_coin_toss_seed42_regression(self):
        # Frozen from the PCG64(SeedSequence(42)) stream.
        pol = SelectionPolicy((A4, A12), CoinToss(42))
        rng = make_rng(42)
        seen = [select_next(pol, rng) for _ in range(5)]
        assert seen == [A4, A12, A12, A4, A4]

    def test_coin_toss_reproducible_over_100_draws(self):
        pol = SelectionPolicy((A4, A12), CoinToss(7))
        rng_a, rng_b = make_rng(7), make_rng(7)
        draws_a = [select_next(pol, rng_a) for _ in range(100)]
        draws_b = [select_next(pol, rng_b) for _ in range(100)]
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
        expected = inst.b - inst.A.matvec(st.x)
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
        r_fresh = inst.b - inst.A.matvec(st.x)
        st2 = init(A12, inst.A, inst.b, st.x, r_fresh, cfg)
        for _ in range(5):
            if st2.outcome.is_terminal:
                break
            st2.step()
            gap = norm2(st2.r - (inst.b - inst.A.matvec(st2.x)))
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

    @pytest.mark.filterwarnings("error")
    def test_shadow_whose_norm_overflows_is_accepted(self):
        # y = b = A 1 is finite, but ||y|| overflows: the run must end
        # Exhausted with residual inf instead of raising.
        A = SparseMatrix.from_dense(np.diag([1e155, 2e155, 3e155]))
        b = A.matvec(np.ones(3))
        rec, trace = run_switching(A, b, np.zeros(3), b, st2_plan([A4, A8B10]))
        assert rec.outcome == "Exhausted"
        assert rec.residual == trace.events[-1].residual_norm == np.inf

    def test_shadow_whose_norm_underflows_is_accepted(self):
        # ||y||^2 of y = 1e-200 * 1 underflows to 0, but y is not zero.
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.2))
        rec, _ = run_switching(inst.A, inst.b, np.zeros(20), np.full(20, 1e-200),
                               st2_plan([A4, A12]))
        assert rec.outcome == "Converged"

    def test_paper_anchor_n100_delta02(self):
        # Table 2, n=100: the A4+A12 pairing converges below 1e-13.
        inst = gen_baheux(BaheuxSpec(n=100, delta=0.2))
        rec, trace = run_switching(inst.A, inst.b, np.zeros(100), inst.b,
                                   st2_plan([A4, A12], budget=10000))
        assert rec.outcome == "Converged"
        assert rec.residual <= 1e-13
        assert norm2(inst.b - inst.A.matvec(rec.x)) <= 1e-12

    def test_pure_restarting_converges(self):
        # Degenerate pool: every selection is a restart of A4.
        inst = gen_baheux(BaheuxSpec(n=60, delta=0.2))
        plan = SwitchPlan(
            strategy=ST2(20),
            policy=SelectionPolicy((A4,), CoinToss(0)),
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

    def test_handoff_continuity(self, monkeypatch):
        # Every handoff after the start seeds the incoming algorithm's shadow
        # with the recomputed b - A x at the handoff iterate, and its event
        # records the norm of that residual, not the residual left after the
        # incoming prologue (A5B10 takes a step in init).
        calls = []

        def recording_init(algo, A, b, x, y, cfg, **kwargs):
            calls.append((np.array(x, copy=True), y))
            return init(algo, A, b, x, y, cfg, **kwargs)

        monkeypatch.setattr(switching, "init", recording_init)
        inst = gen_baheux(BaheuxSpec(n=200, delta=5.0))
        rec, trace = run_switching(inst.A, inst.b, np.zeros(200), inst.b,
                                   st2_plan([A4, A5B10], budget=20000))
        assert rec.outcome == "Converged"
        *transitions, _ = trace.events
        assert transitions, "expected at least one handoff"
        # Retries within one handoff reuse its shadow; one shadow per handoff.
        shadows = []
        for x, y in calls[1:]:
            assert np.array_equal(y, inst.b - inst.A.matvec(x))
            if not any(y is s for s in shadows):
                shadows.append(y)
        assert len(shadows) == len(transitions)
        for event, y in zip(transitions, shadows):
            assert event.residual_norm == norm2(y)

    @pytest.mark.parametrize("algo", list(AlgoId))
    def test_handoff_computes_the_residual_once(self, monkeypatch, algo):
        # The incoming state takes the handoff's b - A x and its norm instead
        # of recomputing them, so a handoff makes the kernel calls of a plain
        # init at that iterate and no more (it used to make one matvec and
        # one norm2 more).
        inst = gen_baheux(BaheuxSpec(n=60, delta=0.2))
        A, b = inst.A, inst.b
        x = np.linspace(0.0, 1.0, 60)
        y = b - A.matvec(x)
        plan = st2_plan([algo])
        calls = {"matvec": 0, "norm2": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(SparseMatrix, "matvec", counted("matvec", SparseMatrix.matvec))
        for module in (switching, solvers):
            monkeypatch.setattr(module, "norm2", counted("norm2", module.norm2))

        plain = init(algo, A, b, x, y, plan.cfg)
        init_calls = dict(calls)
        calls.update(matvec=0, norm2=0)
        drv = switching._Driver(A, b, x, y, plan)
        assert drv.handoff(algo, None) is None
        assert calls == init_calls
        st = drv.state
        assert st.algo is algo and st.k == plain.k
        assert st.r.tobytes() == plain.r.tobytes() and st.r_norm == plain.r_norm
        assert st.x.tobytes() == plain.x.tobytes()
        # init itself takes a precomputed residual and starts the same state.
        r = b - A.matvec(x)
        given = init(algo, A, b, x, y, plan.cfg, residual=(r, norm2(r)))
        # Without a prologue the state keeps the array it was handed.
        assert (given.r is r) == (given.k == 0)
        for name in ("x", "r", "y"):
            assert getattr(given, name).tobytes() == getattr(plain, name).tobytes()
        assert (given.k, given.r_norm, given.iters_used, given.outcome) == (
            plain.k, plain.r_norm, plain.iters_used, plain.outcome)

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
        # A skew-symmetric A makes (v, A v) vanish for every v. The shadow is
        # the current residual (y = b = r0 at the start, then the re-seeded
        # one), so A4 and A8B10 both break down at their first step, at the
        # same iterate.
        A = SparseMatrix.from_dense(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        b = as_vector([1.0, 2.0])
        plan = SwitchPlan(
            strategy=ST2(5),
            policy=SelectionPolicy((A4, A8B10), CoinToss(0)),
            start=A4,
            cfg=SolverConfig(tol=1e-13, max_iters=100),
            global_budget=100,
        )
        rec, trace = run_switching(A, b, np.zeros(2), b, plan)
        assert rec.outcome == "Exhausted"
        assert [(e.kind, e.at_iteration, e.from_algo, e.to_algo)
                for e in trace.events] == [
            (EventKind.BREAKDOWN_SWITCH, 1, A4, A8B10),
            (EventKind.EXHAUSTED, 2, A8B10, A8B10),
        ]

    def test_handoff_skips_only_members_stale_at_this_iterate(self, monkeypatch):
        # In a one-iteration ST2 cycle an A12 or A5B10 prologue fills the
        # cycle, so the next handoff follows without a step; the prologue
        # still moved the iterate. A handoff may skip a member only if it
        # broke down at this very iterate or its prologue overruns the budget.
        A, b = random_system("gaussian", 9, 2186898810)
        pool = (A5B10, A8B10, A12)
        plan = SwitchPlan(ST2(1), SelectionPolicy(pool, CoinToss(214879220)), A12,
                          SolverConfig(tol=1e-8, max_iters=2916), 3926)
        broke = set()  # (algo, iterate bytes) of every breakdown
        # Per handoff: iteration, iterate, first choice, members tried, member
        # installed.
        handoffs = [[0, np.zeros(9), A12, [], None]]
        live = {"iters": 0, "state": None}

        def recording_init(algo, *args, **kwargs):
            handoffs[-1][3].append(algo)
            state = init(algo, *args, **kwargs)
            if state.outcome.kind is OutcomeKind.BREAKDOWN:
                broke.add((algo, state.x.tobytes()))
                if state.k == 0:
                    return state
            handoffs[-1][4] = algo
            live["state"] = state
            live["iters"] += state.iters_used
            return state

        def recording_run(state, budget):
            outcome, used = run(state, budget)
            live["iters"] += used
            if outcome.kind is OutcomeKind.BREAKDOWN:
                broke.add((state.algo, state.x.tobytes()))
            return outcome, used

        def recording_select(policy, rng):
            choice = select_next(policy, rng)
            handoffs.append([live["iters"], live["state"].x, choice, [], None])
            return choice

        def reaches_pool(x):
            # A handoff whose residual meets tol or overflows ends the run
            # before it considers any member.
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    return norm2(b - A.matvec(x)) > plan.cfg.tol
            except NonFiniteError:
                return False

        monkeypatch.setattr(switching, "init", recording_init)
        monkeypatch.setattr(switching, "run", recording_run)
        monkeypatch.setattr(switching, "select_next", recording_select)
        rec, _ = run_switching(A, b, np.zeros(9), b, plan)
        assert rec.iterations == live["iters"]
        skips = []
        for at, x, first, tried, installed in handoffs:
            if not reaches_pool(x):
                continue
            order = [first] + [a for a in pool if a != first]
            if installed is not None:
                order = order[:order.index(installed)]
            skips += [(at, x.tobytes(), a) for a in order if a not in tried]
        assert skips
        illegitimate = [(at, a) for at, x, a in skips
                        if (a, x) not in broke
                        and at + _STATE_CLASSES[a].PROLOGUE_CHARGE <= plan.global_budget]
        assert not illegitimate

    def test_budget_exhaustion(self):
        inst = gen_baheux(BaheuxSpec(n=100, delta=5.0))
        plan = st2_plan([A4, A12], budget=30)
        rec, trace = run_switching(inst.A, inst.b, np.zeros(100), inst.b, plan)
        assert rec.outcome == "Exhausted"
        assert rec.iterations <= 30

    def test_init_breakdown_with_progress_hands_off(self):
        # A12's prologue on the equal-moment system produces x1 and then dies
        # on delta; the driver hands the iterate to A4, whose shadow is the
        # recomputed residual at x1, and A4 solves the 2x2 system.
        A = SparseMatrix.from_dense(np.diag([1.0, 2.0]))
        b = as_vector([1.0, 5.0])
        y = as_vector([1.0, 0.0])
        plan = SwitchPlan(
            strategy=ST2(10),
            policy=SelectionPolicy((A12, A4), CoinToss(0)),
            start=A12,
            cfg=SolverConfig(tol=1e-13, max_iters=100),
            global_budget=100,
        )
        rec, trace = run_switching(A, b, np.zeros(2), y, plan)
        assert [(e.kind, e.at_iteration, e.from_algo, e.to_algo)
                for e in trace.events] == [
            (EventKind.BREAKDOWN_SWITCH, 1, A12, A4),
            (EventKind.CONVERGED, 2, A4, A4),
        ]
        assert rec.outcome == "Converged"

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
            policy=SelectionPolicy((A5B10, A4), CoinToss(0)),
            start=A5B10,
            cfg=cfg,
            global_budget=100,
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
            policy=SelectionPolicy((A8B10, A5B10), CoinToss(0)),
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
        assert norm2(inst.b - inst.A.matvec(rec.x)) <= 1e-12

    @pytest.mark.parametrize("pool", [
        (A4, A12), (A4, A5B10), (A4, A8B10), (A5B10, A8B10),
    ])
    def test_all_paper_pairings_converge_on_skewed_problem(self, pool):
        inst = gen_baheux(BaheuxSpec(n=200, delta=8.0))
        rec, _ = run_switching(inst.A, inst.b, np.zeros(200), inst.b,
                               st2_plan(list(pool), budget=20000))
        assert rec.outcome == "Converged"
        assert rec.residual <= 1e-13

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
            policy=SelectionPolicy((A4, A12), CoinToss(0)),
            start=A4,
            cfg=SolverConfig(tol=1e-13, max_iters=2000),
            global_budget=2000,
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
        assert rec.residual == norm2(inst.b - inst.A.matvec(rec.x))
