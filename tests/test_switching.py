from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lanswitch import solvers, switching
from lanswitch.harness import derive_seed
from lanswitch.linalg import NonFiniteError, SparseMatrix, norm2
from lanswitch.problems import BaheuxSpec, gen_baheux
from lanswitch.solvers import (
    _STATE_CLASSES,
    AlgoId,
    OutcomeKind,
    SolverConfig,
    StepOutcome,
    denominator_report,
    init,
    run,
)
from lanswitch.switching import (
    ST1,
    ST2,
    ST3,
    CoinToss,
    EventKind,
    SelectionPolicy,
    SwitchPlan,
    run_solo,
    run_switching,
    SwitchEvent,
    SwitchTrace,
    select_next,
)
from oracles import as_vector, from_dense, norm_inf
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


class TestSelectNext:
    def test_coin_toss_seed42_regression(self):
        # Frozen from the PCG64(SeedSequence(42)) stream, which
        # np.random.default_rng(42) draws from, as the switching driver does.
        pol = SelectionPolicy((A4, A12), CoinToss(42))
        rng = np.random.default_rng(42)
        seen = [select_next(pol, rng) for _ in range(5)]
        assert seen == [A4, A12, A12, A4, A4]

    def test_coin_toss_reproducible_over_100_draws(self):
        pol = SelectionPolicy((A4, A12), CoinToss(7))
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
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
        A = from_dense(np.diag([1.0, 2.0]))
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
            bound = 1e-10 * (norm2(inst.b) + norm_inf(inst.A) * norm2(st2.x))
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

    @pytest.mark.parametrize("strategy", [ST1(), ST2(20), ST3()], ids=["ST1", "ST2", "ST3"])
    def test_non_finite_shadow_rejected(self, strategy):
        # A NaN in the first cycle's y is an invalid argument, checked as
        # init checks it, before any cycle runs.
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.0))
        y = np.array(inst.b)
        y[3] = np.nan
        plan = SwitchPlan(strategy, SelectionPolicy((A4, A12), CoinToss(42)), A4,
                          SolverConfig(tol=1e-13, max_iters=2000), 2000)
        with pytest.raises(ValueError, match="shadow vector y must be finite"):
            run_switching(inst.A, inst.b, np.zeros(20), y, plan)

    def test_dimension_mismatch_rejected(self):
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.2))
        for b, x0, y in ((inst.b[:10], np.zeros(20), inst.b),
                         (inst.b, np.zeros(10), inst.b),
                         (inst.b, np.zeros(20), inst.b[:10])):
            with pytest.raises(ValueError, match="dimension mismatch"):
                run_switching(inst.A, b, x0, y, st2_plan([A4, A12]))

    @pytest.mark.filterwarnings("error")
    def test_shadow_whose_norm_overflows_is_accepted(self):
        # y = b = A 1 is finite, but ||y|| overflows: the run must end
        # Exhausted with residual inf instead of raising.
        A = from_dense(np.diag([1e155, 2e155, 3e155]))
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

    @pytest.mark.parametrize("at", [5, 4])
    def test_trace_rejects_an_event_that_is_not_later(self, at):
        trace = SwitchTrace()
        trace.append(SwitchEvent(EventKind.RESTART, 5, AlgoId.A4, AlgoId.A4, 1.0))
        with pytest.raises(ValueError, match="^event iterations must strictly increase$"):
            trace.append(SwitchEvent(EventKind.CONVERGED, at, AlgoId.A4, AlgoId.A4, 0.0))
        assert len(trace.events) == 1

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

    def test_cycle_end_computes_the_residual_once(self, monkeypatch):
        # At tol 1e-15 a recurrence residual claims convergence that b - A x
        # does not confirm. The check's b - A x is the CycleEnd handoff's:
        # from the claiming chunk to the next init, the driver makes one
        # matvec and one norm2.
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.0))
        calls = {"matvec": 0, "norm2": 0}
        between = []
        claimed = [False]

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def run_chunk(state, budget, stop=None):
            out = run(state, budget, stop)
            calls.update(matvec=0, norm2=0)
            claimed[0] = out[0].kind is OutcomeKind.CONVERGED
            return out

        def init_state(*args, **kwargs):
            if claimed[0]:
                between.append(dict(calls))
                claimed[0] = False
            return init(*args, **kwargs)

        monkeypatch.setattr(SparseMatrix, "matvec", counted("matvec", SparseMatrix.matvec))
        for module in (switching, solvers):
            monkeypatch.setattr(module, "norm2", counted("norm2", module.norm2))
        monkeypatch.setattr(switching, "run", run_chunk)
        monkeypatch.setattr(switching, "init", init_state)
        rec, trace = run_switching(inst.A, inst.b, np.zeros(20), inst.b,
                                   st2_plan([A4, A8B10], seed=0, tol=1e-15))
        cycle_ends = [e for e in trace.events if e.kind is EventKind.CYCLE_END]
        assert cycle_ends and len(between) == len(cycle_ends)
        assert between == [{"matvec": 1, "norm2": 1}] * len(cycle_ends)

    @pytest.mark.parametrize("algo", list(AlgoId))
    def test_handoff_computes_the_residual_once(self, monkeypatch, algo):
        # Each pass computes b - A x once, and a handoff hands it to init, so
        # a handoff's init makes the kernel calls of a plain init at that
        # iterate less that residual's matvec and norm2, and starts the same
        # state. Switching calls its own norm2 only for that residual: once
        # per pass, one pass per install and one that ends the run.
        inst = gen_baheux(BaheuxSpec(n=60, delta=0.2))
        A, b = inst.A, inst.b
        x0 = np.linspace(0.0, 1.0, 60)
        y = b - A.matvec(x0)
        plan = st2_plan([algo], cycle=7, tol=1e-10)
        calls = {"matvec": 0, "norm2": 0, "residual norm2": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(SparseMatrix, "matvec", counted("matvec", SparseMatrix.matvec))
        monkeypatch.setattr(solvers, "norm2", counted("norm2", solvers.norm2))
        monkeypatch.setattr(switching, "norm2", counted("residual norm2", switching.norm2))
        handoffs = []

        def recording_init(*args, **kwargs):
            before = dict(calls)
            state = init(*args, **kwargs)
            used = {k: calls[k] - before[k] for k in calls}
            # The run steps the state on, so its start is kept now.
            start = ([getattr(state, name).tobytes() for name in ("x", "r", "y")],
                     state.k, state.r_norm, state.iters_used, state.outcome)
            handoffs.append((args, used, start, state.r is kwargs["residual"][0]))
            return state

        monkeypatch.setattr(switching, "init", recording_init)
        _, trace = run_switching(A, b, x0, y, plan)
        passes = len(trace.events) + 1
        assert len(handoffs) == passes - 1 > 2
        assert calls["residual norm2"] == passes
        for args, used, start, kept in handoffs:
            calls.update(matvec=0, norm2=0)
            plain = init(*args)
            assert used == {"matvec": calls["matvec"] - 1, "norm2": calls["norm2"] - 1,
                            "residual norm2": 0}
            assert plain.algo is algo
            assert start == ([getattr(plain, name).tobytes() for name in ("x", "r", "y")],
                             plain.k, plain.r_norm, plain.iters_used, plain.outcome)
            # Without a prologue the state keeps the array it was handed.
            assert kept == (plain.k == 0)

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

    @pytest.mark.parametrize("strategy", [ST2(20), ST3(), ST3(1e-3)], ids=repr)
    def test_same_algorithm_transitions_are_restarts_or_cycle_ends(self, strategy):
        # A switch rule's handoff that installs the running algorithm again
        # is a Restart, under ST3 as under ST2; only a refuted convergence
        # claim (CycleEnd) may hand an algorithm to itself otherwise.
        inst = gen_baheux(BaheuxSpec(n=60, delta=5.0))
        plan = SwitchPlan(
            strategy=strategy,
            policy=SelectionPolicy((A4, A12), CoinToss(42)),
            start=A4,
            cfg=SolverConfig(tol=1e-13, max_iters=6000),
            global_budget=6000,
        )
        rec, trace = run_switching(inst.A, inst.b, np.zeros(60), inst.b, plan)
        transitions = trace.events[:-1]
        same = [e for e in transitions if e.from_algo == e.to_algo]
        assert all(e.kind in (EventKind.RESTART, EventKind.CYCLE_END) for e in same)
        assert all(e.from_algo == e.to_algo for e in transitions
                   if e.kind is EventKind.RESTART)
        assert any(e.kind is EventKind.RESTART for e in same)
        assert rec.restarts == len(same)

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
        A = from_dense(np.array([[0.0, 1.0], [-1.0, 0.0]]))
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

        def recording_run(state, budget, stop=None):
            outcome, used = run(state, budget, stop)
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
                        and at + _STATE_CLASSES[a].PROLOGUE_CHARGES[-1] <= plan.global_budget]
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
        A = from_dense(np.diag([1.0, 2.0]))
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
        A = from_dense(np.array([
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
            strategy=ST3(1e9),
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

    def test_st3_calls_run_once_per_cycle(self, monkeypatch):
        # ST3's monitor is run's stop, so a cycle is one run call, one more
        # than the transitions; it was one call per iteration when ST3's
        # chunk was a single step.
        inst = gen_baheux(BaheuxSpec(n=60, delta=0.2))
        plan = SwitchPlan(ST3(), SelectionPolicy((A8B10, A4), CoinToss(5)), A8B10,
                          SolverConfig(tol=1e-13, max_iters=6000), 6000)
        chunks = []

        def counted_run(state, budget, stop=None):
            chunks.append(budget)
            return run(state, budget, stop)

        monkeypatch.setattr(switching, "run", counted_run)
        rec, trace = run_switching(inst.A, inst.b, np.zeros(60), inst.b, plan)
        transitions = trace.events[:-1]
        assert rec.outcome == "Converged" and rec.iterations == 65
        assert sum(e.kind is EventKind.MONITOR_SWITCH for e in transitions) == 3
        assert len(chunks) == len(transitions) + 1 == 5

    def test_st3_asks_the_monitor_once_per_preparation(self, monkeypatch):
        # The handoff's cause comes from run's count, so no report is taken
        # twice on one preparation: the driver does not ask the monitor
        # again after run's stop has held.
        inst = gen_baheux(BaheuxSpec(n=60, delta=0.2))
        plan = SwitchPlan(ST3(), SelectionPolicy((A8B10, A4), CoinToss(5)), A8B10,
                          SolverConfig(tol=1e-13, max_iters=6000), 6000)
        asked = []

        def recorded_report(state):
            # Holding the state keeps its id from being reused.
            asked.append((state, state.iters_used))
            return denominator_report(state)

        monkeypatch.setattr(switching, "denominator_report", recorded_report)
        rec, trace = run_switching(inst.A, inst.b, np.zeros(60), inst.b, plan)
        assert rec.outcome == "Converged"
        assert sum(e.kind is EventKind.MONITOR_SWITCH for e in trace.events) == 3
        keys = [(id(state), iters) for state, iters in asked]
        assert keys and len(set(keys)) == len(keys)

    def test_cap_and_monitor_strategy_hands_off_by_either_rule(self, monkeypatch):
        # A strategy with both a cycle cap and a monitor: a full cycle hands
        # off with a ProperSwitch, a chunk the monitor ended early with a
        # MonitorSwitch (either may be relabeled Restart in the trace).
        inst = gen_baheux(BaheuxSpec(n=60, delta=0.2))
        threshold = 1e-8
        strategy = SimpleNamespace(cycle_len=15, monitor=ST3(threshold).monitor)
        plan = SwitchPlan(strategy, SelectionPolicy((A8B10, A4), CoinToss(5)), A8B10,
                          SolverConfig(tol=1e-13, max_iters=6000), 6000)
        chunks = []

        def recorded_run(state, budget, stop=None):
            outcome, used = run(state, budget, stop)
            small = not outcome.is_terminal and any(
                abs(value) < threshold * scale for _, value, scale in denominator_report(state))
            chunks.append((outcome.kind, state.iters_used, small))
            return outcome, used

        monkeypatch.setattr(switching, "run", recorded_run)
        rec, trace = run_switching(inst.A, inst.b, np.zeros(60), inst.b, plan)
        assert rec.outcome == "Converged" and rec.iterations == 72
        # Every chunk but the last is followed by one transition.
        transitions = trace.events[:-1]
        assert len(chunks) == len(transitions) + 1
        kinds = {e.kind for e in transitions}
        assert {EventKind.PROPER_SWITCH, EventKind.MONITOR_SWITCH} <= kinds
        for (outcome, iters, small), event in zip(chunks, transitions):
            if outcome is not OutcomeKind.CONTINUE:
                continue
            assert event.kind in (EventKind.PROPER_SWITCH, EventKind.MONITOR_SWITCH,
                                  EventKind.RESTART)
            if iters == strategy.cycle_len:
                assert event.kind is not EventKind.MONITOR_SWITCH
            else:
                assert small and iters < strategy.cycle_len
                assert event.kind is not EventKind.PROPER_SWITCH

    @pytest.mark.parametrize("limit", ["budget", "max_iters"])
    def test_residual_within_tol_at_the_limit_ends_converged(self, limit):
        # The recurrence has not claimed convergence when the budget or the
        # iteration limit is spent, but the recomputed ||b - A x|| already
        # meets tol: the run ends Converged, not Exhausted.
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.0))
        A, b = inst.A, inst.b
        solo = init(A12, A, b, np.zeros(20), b, SolverConfig(tol=1e-300, max_iters=1000))
        lowest = solo.r_norm
        while True:
            assert solo.step().kind is OutcomeKind.CONTINUE
            true = norm2(b - A.matvec(solo.x))
            if true < solo.r_norm and true < lowest:
                break
            lowest = min(lowest, solo.r_norm)
        k = solo.iters_used
        # No recurrence norm up to step k meets this tol, b - A x at k does.
        tol = true
        budget, max_iters = (k, 10 * k) if limit == "budget" else (10 * k, k)
        plan = SwitchPlan(ST1(), SelectionPolicy((A12,), CoinToss(0)), A12,
                          SolverConfig(tol=tol, max_iters=max_iters), budget)
        rec, trace = run_switching(A, b, np.zeros(20), b, plan)
        assert [(e.kind, e.at_iteration) for e in trace.events] == [(EventKind.CONVERGED, k)]
        assert (rec.outcome, rec.iterations, rec.residual) == ("Converged", k, true)
        assert rec.x.tobytes() == solo.x.tobytes()

    def test_one_member_pool_ends_at_a_breakdown_after_progress(self):
        # The breakdown leaves the only member barren at this iterate, so
        # the handoff skips it and ends the run Exhausted at the breakdown's
        # iteration with ||b - A x|| of the breakdown state's iterate.
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.2))
        cfg = SolverConfig(tol=1e-13, max_iters=2000)
        solo = init(A4, inst.A, inst.b, np.zeros(20), inst.b, cfg)
        run(solo, 2000)
        assert solo.outcome.kind is OutcomeKind.BREAKDOWN and solo.k == 18
        plan = SwitchPlan(ST1(), SelectionPolicy((A4,), CoinToss(0)), A4, cfg, 2000)
        rec, trace = run_switching(inst.A, inst.b, np.zeros(20), inst.b, plan)
        assert [(e.kind, e.at_iteration) for e in trace.events] == [
            (EventKind.EXHAUSTED, solo.iters_used)]
        assert rec.residual == norm2(inst.b - inst.A.matvec(solo.x))
        np.testing.assert_array_equal(rec.x, solo.x)

    @pytest.mark.parametrize("strategy", [ST1(), ST2(), ST2(cycle_len=5), ST3()])
    def test_only_st3_takes_denominator_reports(self, monkeypatch, strategy):
        # ST1 and ST2 have no monitor, so they never prepare a report; ST3
        # takes its reports through switching's own binding.
        inst = gen_baheux(BaheuxSpec(n=100, delta=5.0))
        reports = []

        def counted_report(state):
            reports.append(state.iters_used)
            return denominator_report(state)

        monkeypatch.setattr(switching, "denominator_report", counted_report)
        plan = SwitchPlan(strategy, SelectionPolicy((A4, A12), CoinToss(42)), A4,
                          SolverConfig(tol=1e-13, max_iters=10000), 10000)
        rec, trace = run_switching(inst.A, inst.b, np.zeros(100), inst.b, plan)
        assert rec.outcome == "Converged" and len(trace.events) > 1
        assert bool(reports) is isinstance(strategy, ST3)

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
        A = from_dense(rng.standard_normal((24, 24)))
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
        # report the residual that ended the run. Here a MonitorSwitch at
        # iteration 227 leaves A5/B10 at a recurrence residual of 1.0116e-13,
        # and b - A x is 9.938e-14. The transition before it, at iteration
        # 214, is a MonitorSwitch whose draw installed A5/B10 again: a
        # Restart.
        inst = gen_baheux(BaheuxSpec(n=40, delta=5.0))
        plan = SwitchPlan(
            strategy=ST3(1e-3),
            policy=SelectionPolicy((A5B10, A8B10), CoinToss(derive_seed(42, 3))),
            start=A5B10,
            cfg=SolverConfig(tol=1e-13, max_iters=800),
            global_budget=800,
        )
        rec, trace = run_switching(inst.A, inst.b, np.zeros(40), inst.b, plan)
        restart = trace.events[-2]
        assert (restart.kind, restart.at_iteration, restart.from_algo, restart.to_algo) == (
            EventKind.RESTART, 214, A5B10, A5B10)
        assert rec.outcome == "Converged"
        assert rec.residual == trace.events[-1].residual_norm
        assert rec.residual <= plan.cfg.tol
        assert rec.residual == norm2(inst.b - inst.A.matvec(rec.x))

    # An ill-conditioned 2 x 2 system on which every convergence claim of an
    # ST2(3) run over all four algorithms is refuted by b - A x.
    REFUTED_A = [[0.08517081042935613, 0.03681965837903331],
                 [-0.9139400819383104, -0.39509969935986067]]
    REFUTED_B = [-0.8262193431618032, -2.0859976977356904]
    REFUTED_Y = [0.7811855330426222, -0.5941795835730395]

    def refuted_run(self, global_budget):
        A = from_dense(self.REFUTED_A)
        b = as_vector(self.REFUTED_B)
        plan = SwitchPlan(
            strategy=ST2(3),
            policy=SelectionPolicy((A4, A8B10, A5B10, A12), CoinToss(2017765391)),
            start=A8B10,
            cfg=SolverConfig(tol=1e-8, max_iters=2176),
            global_budget=global_budget,
        )
        rec, trace = run_switching(A, b, np.zeros(2), as_vector(self.REFUTED_Y), plan)
        return rec, trace, norm2(b - A.matvec(rec.x))

    def test_budget_exit_after_a_refuted_claim_reports_b_minus_ax(self):
        # The last chunk ends in a convergence claim that b - A x refutes, and
        # the budget is spent: the record must not carry the refuted
        # recurrence residual, which is below tol.
        rec, trace, true_norm = self.refuted_run(2573)
        assert rec.outcome == "Exhausted" and rec.iterations == 2573
        assert rec.residual == trace.events[-1].residual_norm == true_norm
        assert true_norm > 1e-8

    def test_handoff_exit_after_a_refuted_claim_reports_b_minus_ax(self, monkeypatch):
        # Once the installed state claims convergence, every member breaks
        # down at the iterate without an update, so the CycleEnd handoff
        # after the first refuted claim skips the whole pool.
        made = []

        def barren_after_a_claim(algo, *args, **kwargs):
            if made and made[-1].outcome.kind is OutcomeKind.CONVERGED:
                return SimpleNamespace(k=0, outcome=StepOutcome(OutcomeKind.BREAKDOWN,
                                                                "double", 0.0))
            made.append(init(algo, *args, **kwargs))
            return made[-1]

        monkeypatch.setattr(switching, "init", barren_after_a_claim)
        rec, trace, true_norm = self.refuted_run(5000)
        assert rec.outcome == "Exhausted" and rec.iterations < 5000
        assert made[-1].r_norm <= 1e-8
        assert rec.residual == trace.events[-1].residual_norm == true_norm
        assert true_norm > 1e-8


class TestRunSolo:
    def test_converged_is_the_recurrences_unverified_claim(self):
        # A4 claims convergence at 13 iterations; b - A x, which the record
        # reports, lies above the tolerance. A switching run would check the
        # claim and go on.
        A, b = random_system("gaussian", 7, 5)
        rec = run_solo(A, b, np.zeros(7), b, A4, SolverConfig(tol=1e-13, max_iters=350))
        assert (rec.combo, rec.outcome, rec.iterations) == ("A4/solo", "Converged", 13)
        assert rec.residual == norm2(b - A.matvec(rec.x)) > 1e-13
        assert (rec.switches, rec.restarts) == (0, 0)

    def test_starts_from_x0_and_leaves_it_as_it_was(self):
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.0))
        x0 = np.linspace(-1.0, 1.0, 20)
        kept = x0.copy()
        cfg = SolverConfig(max_iters=100)
        solved = run_solo(inst.A, inst.b, x0, inst.b, A4, cfg)
        state = init(A4, inst.A, inst.b, x0, inst.b, cfg)
        run(state, cfg.max_iters + 1)
        # The record is the solver's own run from x0.
        assert (solved.outcome, solved.iterations) == (state.outcome.kind.value,
                                                       state.iters_used)
        assert solved.iterations > 0 and solved.x.tobytes() == state.x.tobytes()
        # A12's prologue charges 3, more than the budget: the record is x0,
        # unsolved, in an array of its own.
        unstarted = run_solo(inst.A, inst.b, x0, inst.b, A12, SolverConfig(max_iters=2))
        assert (unstarted.outcome, unstarted.iterations) == ("IterLimit", 0)
        assert unstarted.x is not x0
        assert unstarted.x.tobytes() == x0.tobytes() == kept.tobytes()

    def test_an_overflowing_start_is_a_breakdown_at_x0(self):
        A = from_dense(np.diag([1e155, 2e155, 3e155]))
        b = A.matvec(np.ones(3))
        rec = run_solo(A, b, np.zeros(3), b, A4, SolverConfig())
        assert (rec.outcome, rec.iterations, rec.residual) == ("Breakdown", 0, np.inf)
        assert not rec.x.any()
