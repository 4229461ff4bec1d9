import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lanswitch.linalg import NonFiniteError, norm2
from lanswitch.problems import BaheuxSpec, gen_baheux
from lanswitch.solvers import (
    AlgoId,
    OutcomeKind,
    SolverConfig,
    SolverStateError,
    StepOutcome,
    denominator_report,
    init,
    run,
)
from oracles import as_vector, direct_solve_oracle, from_dense, identity, norm_inf
from paper_grid import PAPER_DELTAS
from random_systems import random_system

ALL_ALGOS = list(AlgoId)
CFG = SolverConfig(tol=1e-13, max_iters=1000)


def diag_dominant(rng, n, spread=3.0):
    dense = rng.standard_normal((n, n))
    dense += np.diag(np.sign(np.diag(dense)) * (np.abs(dense).sum(axis=1) + spread))
    return from_dense(dense)


def a4_normalization(state):
    """A_{k+1} (B_{k+1} + E_{k+1}) of the next A4 step, read from the
    preparation that step will apply; nan when that preparation breaks down."""
    with np.errstate(over="ignore", invalid="ignore"):
        prepared = state._prepared()
    if isinstance(prepared, StepOutcome):
        return math.nan
    E, B, A_next = prepared[:3]
    return A_next * (B + E)


def residual_identity_holds(state):
    gap = norm2(state.r - (state.b - state.A.matvec(state.x)))
    bound = 1e-10 * (norm2(state.b) + norm_inf(state.A) * norm2(state.x))
    return gap <= bound


class TestConfig:
    @pytest.mark.parametrize("tol", [0.0, math.nan])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=tol)

    def test_max_iters_at_least_one(self):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=0)


class TestInit:
    def test_a4_initial_residual(self):
        A = from_dense(np.diag([2.0, 3.0]))
        b = as_vector([2.0, 3.0])
        st = init(AlgoId.A4, A, b, np.zeros(2), b, CFG)
        assert st.outcome.kind is OutcomeKind.CONTINUE
        assert_allclose(st.r, [2.0, 3.0])
        assert st.k == 0

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_exact_start_converges_immediately(self, algo):
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.2))
        st = init(algo, inst.A, inst.b, np.ones(20), inst.b, CFG)
        assert st.outcome.kind is OutcomeKind.CONVERGED
        assert st.iters_used == 0

    def test_a12_equal_moments_breaks_on_delta(self):
        # diag(1, 2) with y = e1 and r0 = (1, 5): every moment equals 1, so
        # c1*c3 - c2^2 = 0 while r1 = (0, -5) is far from converged.
        A = from_dense(np.diag([1.0, 2.0]))
        b = as_vector([1.0, 5.0])
        y = as_vector([1.0, 0.0])
        st = init(AlgoId.A12, A, b, np.zeros(2), y, CFG)
        assert st.outcome.kind is OutcomeKind.BREAKDOWN
        assert st.outcome.label.startswith("A12.delta")
        assert st.outcome.value == 0.0

    def test_zero_shadow_vector_rejected(self):
        A = identity(2)
        with pytest.raises(ValueError):
            init(AlgoId.A4, A, as_vector([1.0, 1.0]), np.zeros(2), np.zeros(2), CFG)

    @pytest.mark.parametrize("algo", list(AlgoId))
    def test_non_finite_shadow_vector_rejected(self, algo):
        # A NaN in y is an invalid argument, not a breakdown of the solver.
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.0))
        y = np.array(inst.b)
        for bad in (np.nan, np.inf):
            y[3] = bad
            with pytest.raises(ValueError, match="shadow vector y must be finite"):
                init(algo, inst.A, inst.b, np.zeros(20), y, CFG)

    @pytest.mark.parametrize("scale", [1e155, 1e-200])
    def test_shadow_whose_norm_overflows_or_underflows_is_accepted(self, scale):
        # A nonzero finite y is accepted, also when ||y|| is not representable.
        A = identity(3)
        st = init(AlgoId.A4, A, as_vector([1.0, 1.0, 1.0]), np.zeros(3),
                  scale * np.array([1.0, 2.0, 3.0]), CFG)
        assert st.outcome.kind is OutcomeKind.CONTINUE

    def test_dimension_mismatch_rejected(self):
        A = identity(3)
        with pytest.raises(ValueError):
            init(AlgoId.A4, A, as_vector([1.0, 1.0]), np.zeros(3), np.ones(3), CFG)

    def test_a5b10_prologue_state(self):
        # init already performs the first update: r1 = r0 + A_1 A r0 with
        # A_1 = -(y0,r0)/(y0,Ar0), direction p = r0 and scaling C1 = 1.
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.2))
        st = init(AlgoId.A5B10, inst.A, inst.b, np.zeros(20), inst.b, CFG)
        assert st.k == 1
        assert st.iters_used == st.PROLOGUE_CHARGES[-1] == 1
        assert st.C1 == 1.0
        r0 = inst.b
        Ar0 = inst.A.matvec(r0)
        A1 = -np.dot(inst.b, r0) / np.dot(inst.b, Ar0)
        assert_allclose(st.r, r0 + A1 * Ar0, rtol=1e-15)
        assert_allclose(st.x, -A1 * r0, rtol=1e-15)
        assert_allclose(st.p, r0, rtol=0, atol=0)

    def test_a12_prologue_counts_three(self):
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.2))
        st = init(AlgoId.A12, inst.A, inst.b, np.zeros(20), inst.b, CFG)
        assert st.k == 2  # x1 and x2 computed
        # Charged per the cycle-accounting rule the driver budgets with.
        assert st.iters_used == st.PROLOGUE_CHARGES[-1] == 3

    @pytest.mark.parametrize("A, b, y, outcome, k, charge", [
        # (y, r0) = 0 at A12's first division: Breakdown at c1 before x1.
        (np.diag([1.0, 2.0, 3.0]), [1.0, 1.0, 0.0], [1.0, -0.5, 0.0],
         (OutcomeKind.BREAKDOWN, "A12.c1"), 0, 0),
        # A = 2 I: x1 is the solution, so the start ends after one update.
        (2.0 * np.eye(3), [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], (OutcomeKind.CONVERGED, ""),
         1, 1),
        # Two distinct eigenvalues in r0: x2 is the solution.
        (np.diag([1.0, 2.0, 3.0]), [1.0, 1.0, 0.0], [1.0, 1.0, 0.0],
         (OutcomeKind.CONVERGED, ""), 2, 3),
    ], ids=["k0", "k1", "k2"])
    def test_a12_start_charges_its_table_entry(self, A, b, y, outcome, k, charge):
        st = init(AlgoId.A12, from_dense(A), as_vector(b), np.zeros(3),
                  as_vector(y), CFG)
        assert (st.outcome.kind, st.outcome.label) == outcome and st.k == k
        assert st.iters_used == st.PROLOGUE_CHARGES[k] == charge


class TestStep:
    def test_a4_first_step_exact_fractions(self):
        # Worked by hand: E_1 = 0, B_1 = -35/13, A_1 = -13/35.
        A = from_dense(np.diag([2.0, 3.0]))
        b = as_vector([2.0, 3.0])
        st = init(AlgoId.A4, A, b, np.zeros(2), b, CFG)
        out = st.step()
        assert out.kind is OutcomeKind.CONTINUE
        assert_allclose(st.x, [26.0 / 35.0, 39.0 / 35.0], rtol=1e-15)
        assert_allclose(st.r, [18.0 / 35.0, -12.0 / 35.0], rtol=1e-15)
        assert_allclose(st.r, b - A.matvec(st.x), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_identity_converges_first_check(self, algo):
        A = identity(4)
        b = as_vector([1.0, 2.0, 3.0, 4.0])
        st = init(algo, A, b, np.zeros(4), b, CFG)
        if not st.outcome.is_terminal:
            out, _ = run(st, 5)
            assert out.kind is OutcomeKind.CONVERGED
        assert st.outcome.kind is OutcomeKind.CONVERGED
        assert_allclose(st.x, b, rtol=0, atol=1e-15)

    def test_a4_orthogonal_shadow_breaks_first_step(self):
        A = from_dense(np.diag([1.0, 2.0]))
        b = as_vector([3.0, 0.0])
        y = as_vector([0.0, 1.0])  # (y, r0) = 0
        st = init(AlgoId.A4, A, b, np.zeros(2), y, CFG)
        out = st.step()
        assert out.kind is OutcomeKind.BREAKDOWN
        assert "(y_k,r_k)" in out.label

    def test_step_after_terminal_raises(self):
        A = identity(2)
        b = as_vector([1.0, 1.0])
        st = init(AlgoId.A8B10, A, b, np.ones(2), b, CFG)
        assert st.outcome.is_terminal
        with pytest.raises(SolverStateError):
            st.step()

    def test_iter_limit(self):
        inst = gen_baheux(BaheuxSpec(n=30, delta=5.0))
        cfg = SolverConfig(tol=1e-13, max_iters=3)
        st = init(AlgoId.A4, inst.A, inst.b, np.zeros(30), inst.b, cfg)
        out, used = run(st, 50)
        assert out.kind is OutcomeKind.ITER_LIMIT
        assert used == 3


class TestRun:
    def test_zero_budget_rejected(self):
        inst = gen_baheux(BaheuxSpec(n=10, delta=0.0))
        st = init(AlgoId.A4, inst.A, inst.b, np.zeros(10), inst.b, CFG)
        with pytest.raises(ValueError):
            run(st, 0)

    def test_terminal_state_returned_unchanged(self):
        A = identity(2)
        b = as_vector([1.0, 1.0])
        st = init(AlgoId.A4, A, b, np.ones(2), b, CFG)
        out, used = run(st, 10)
        assert out.kind is OutcomeKind.CONVERGED
        assert used == 0

    def test_resumable_after_partial_budget(self):
        inst = gen_baheux(BaheuxSpec(n=40, delta=0.2))
        st = init(AlgoId.A8B10, inst.A, inst.b, np.zeros(40), inst.b, CFG)
        out, used = run(st, 5)
        assert out.kind is OutcomeKind.CONTINUE
        assert used == 5
        out2, used2 = run(st, 5)
        assert used2 >= 1  # picks up where it stopped

    def test_a12_solo_baheux40_fixture(self):
        # Recorded from this implementation: terminates in Breakdown.
        inst = gen_baheux(BaheuxSpec(n=40, delta=0.2))
        cfg = SolverConfig(tol=1e-13, max_iters=200)
        st = init(AlgoId.A12, inst.A, inst.b, np.zeros(40), inst.b, cfg)
        out, _ = run(st, 200)
        assert out.kind is OutcomeKind.BREAKDOWN
        assert out.label == "A12.a22"


class TestRecurrenceProperties:
    @pytest.mark.parametrize("algo_index,algo", list(enumerate(ALL_ALGOS)))
    def test_residual_identity_on_random_instances(self, algo_index, algo):
        # Seeded instances stepped from fresh inits, each followed by a
        # handoff to the next algorithm whose first steps are checked too.
        # The identity holds while the solver is healthy; wandering at the
        # attainable-accuracy floor is terminated by the guards, not tested.
        rng = np.random.default_rng(17 + algo_index)
        next_algo = ALL_ALGOS[(algo_index + 1) % len(ALL_ALGOS)]
        checked = 0
        for trial in range(13):
            n = int(rng.choice([10, 20, 30]))
            A = diag_dominant(rng, n)
            b = rng.standard_normal(n)
            x0 = rng.standard_normal(n)
            y = (b - A.matvec(x0)).copy()
            st = init(algo, A, b, x0, y, SolverConfig(tol=1e-13, max_iters=100))
            for _ in range(12):
                if st.outcome.is_terminal:
                    break
                out = st.step()
                if out.kind in (OutcomeKind.CONTINUE, OutcomeKind.CONVERGED):
                    assert residual_identity_holds(st), (algo, trial, st.k)
                    checked += 1
            r_fresh = b - A.matvec(st.x)
            if norm2(r_fresh) <= 1e-13:
                continue
            st2 = init(next_algo, A, b, st.x, r_fresh, SolverConfig(max_iters=100))
            for _ in range(3):
                if st2.outcome.is_terminal:
                    break
                out = st2.step()
                if out.kind in (OutcomeKind.CONTINUE, OutcomeKind.CONVERGED):
                    assert residual_identity_holds(st2), (algo, trial, "handoff", st2.k)
                    checked += 1
        assert checked >= 50

    def test_a4_normalization_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.choice([10, 20, 30]))
            A = diag_dominant(rng, n)
            b = rng.standard_normal(n)
            st = init(AlgoId.A4, A, b, np.zeros(n), b,
                      SolverConfig(tol=1e-13, max_iters=40))
            while not st.outcome.is_terminal:
                normalization = a4_normalization(st)
                out = st.step()
                if out.kind in (OutcomeKind.CONTINUE, OutcomeKind.CONVERGED):
                    assert abs(normalization - 1.0) <= 1e-14

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    @pytest.mark.parametrize("delta", PAPER_DELTAS)
    def test_oracle_equivalence_when_solo_converges(self, algo, delta):
        for n in (10, 20, 30, 40):
            inst = gen_baheux(BaheuxSpec(n=n, delta=delta))
            cfg = SolverConfig(tol=1e-13, max_iters=5 * n)
            st = init(algo, inst.A, inst.b, np.zeros(n), inst.b, cfg)
            if not st.outcome.is_terminal:
                run(st, 5 * n)
            if st.outcome.kind is OutcomeKind.CONVERGED:
                x_oracle = direct_solve_oracle(inst.A, inst.b)
                rel = norm2(st.x - x_oracle) / norm2(x_oracle)
                assert rel <= 1e-8, (algo, n, delta)

    def test_small_n_soft_termination(self):
        # Exact arithmetic would finish in at most n steps; in floats a
        # well-conditioned small system still converges in a few n.
        rng = np.random.default_rng(5)
        n = 8
        A = diag_dominant(rng, n)
        b = rng.standard_normal(n)
        st = init(AlgoId.A8B10, A, b, np.zeros(n), b,
                  SolverConfig(tol=1e-10, max_iters=4 * n))
        out, _ = run(st, 4 * n)
        assert out.kind is OutcomeKind.CONVERGED

    def test_a8b10_rerun_bitwise_identical(self):
        inst = gen_baheux(BaheuxSpec(n=30, delta=0.0))

        def norms():
            st = init(AlgoId.A8B10, inst.A, inst.b, np.zeros(30), inst.b,
                      SolverConfig(tol=1e-13, max_iters=25))
            seq = []
            while not st.outcome.is_terminal:
                st.step()
                seq.append(st.r_norm)
            return seq

        first, second = norms(), norms()
        assert first == second  # bitwise, not approximately


class TestDenominatorReport:
    def test_a4_fresh_then_stepped(self):
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.2))
        st = init(AlgoId.A4, inst.A, inst.b, np.zeros(20), inst.b, CFG)
        fresh = denominator_report(st)
        labels = [lbl for lbl, _, _ in fresh]
        assert "A4.B: (y_k,r_k)" in labels
        assert "A4.A: B+E" in labels
        assert all(math.isfinite(v) and s > 0 for _, v, s in fresh)
        st.step()
        after = denominator_report(st)
        assert after[0][0] == "A4.E: (y_{k-1},r_{k-1})"
        assert len(after) == 3

    def test_a8b10_contains_core_denominator(self):
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.2))
        st = init(AlgoId.A8B10, inst.A, inst.b, np.zeros(20), inst.b, CFG)
        labels = [lbl for lbl, _, _ in denominator_report(st)]
        assert any("(y_k,Az_k)" in lbl for lbl in labels)

    def test_reports_forced_zero(self):
        A = from_dense(np.diag([1.0, 2.0]))
        b = as_vector([3.0, 0.0])
        y = as_vector([0.0, 1.0])  # (y, r0) = 0
        st = init(AlgoId.A4, A, b, np.zeros(2), y, CFG)
        values = {lbl: v for lbl, v, _ in denominator_report(st)}
        assert values["A4.B: (y_k,r_k)"] == 0.0

    def test_probe_does_not_mutate(self):
        inst = gen_baheux(BaheuxSpec(n=20, delta=5.0))
        st1 = init(AlgoId.A12, inst.A, inst.b, np.zeros(20), inst.b, CFG)
        st2 = init(AlgoId.A12, inst.A, inst.b, np.zeros(20), inst.b, CFG)
        for _ in range(3):
            denominator_report(st1)
        for _ in range(5):
            o1, o2 = st1.step(), st2.step()
            assert o1 == o2
            assert np.array_equal(st1.x, st2.x)
            assert np.array_equal(st1.r, st2.r)

    def test_terminal_state_rejected(self):
        A = identity(2)
        b = as_vector([1.0, 1.0])
        st = init(AlgoId.A4, A, b, np.ones(2), b, CFG)
        with pytest.raises(SolverStateError):
            denominator_report(st)


class TestBreakdownHonesty:
    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_orthogonal_shadow_always_breaks(self, algo):
        rng = np.random.default_rng(29)
        for trial in range(10):
            n = int(rng.choice([10, 20, 30]))
            A = diag_dominant(rng, n)
            b = rng.standard_normal(n)
            r0 = b.copy()
            y = rng.standard_normal(n)
            y -= (np.dot(y, r0) / np.dot(r0, r0)) * r0  # exactly-ish orthogonal
            y -= (np.dot(y, r0) / np.dot(r0, r0)) * r0
            st = init(algo, A, b, np.zeros(n), y, SolverConfig(tol=1e-13, max_iters=200))
            out = st.outcome
            while not out.is_terminal:
                out = st.step()
                assert np.all(np.isfinite(st.x)) and np.all(np.isfinite(st.r))
            assert out.kind is OutcomeKind.BREAKDOWN, (algo, trial, out)
            assert out.label

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_near_degenerate_shadow_never_produces_nonfinite(self, algo):
        rng = np.random.default_rng(31)
        for trial in range(10):
            n = 20
            A = diag_dominant(rng, n)
            b = rng.standard_normal(n)
            r0 = b.copy()
            y = rng.standard_normal(n)
            y -= (np.dot(y, r0) / np.dot(r0, r0)) * r0
            y += 1e-15 * norm2(y) * r0 / norm2(r0)  # nearly orthogonal
            st = init(algo, A, b, np.zeros(n), y, SolverConfig(tol=1e-13, max_iters=200))
            out = st.outcome
            while not out.is_terminal:
                out = st.step()
                assert np.all(np.isfinite(st.x)) and np.all(np.isfinite(st.r))
            assert out.kind in (OutcomeKind.BREAKDOWN, OutcomeKind.CONVERGED)


class TestDiagnostics:
    def test_run_enters_one_errstate_per_chunk(self, monkeypatch):
        # run() silences numpy's warnings once for its whole chunk and its
        # steps run inside that; a step called directly enters its own.
        entered = []
        errstate = np.errstate

        def counting_errstate(**kw):
            entered.append(kw)
            return errstate(**kw)

        inst = gen_baheux(BaheuxSpec(n=60, delta=0.2))
        st = init(AlgoId.A4, inst.A, inst.b, np.zeros(60), inst.b, SolverConfig(max_iters=100))
        monkeypatch.setattr(np, "errstate", counting_errstate)
        assert run(st, 10) == (st.outcome, 10)
        assert entered == [dict(over="ignore", invalid="ignore")]
        st.step()
        assert len(entered) == 2

    def test_run_asks_stop_after_each_live_step(self):
        # stop is asked once after every step that leaves the state live,
        # never before the first step, and the chunk ends right after its
        # first True.
        inst = gen_baheux(BaheuxSpec(n=60, delta=0.2))
        st = init(AlgoId.A4, inst.A, inst.b, np.zeros(60), inst.b, SolverConfig(max_iters=100))
        start = st.iters_used
        asked = []

        def stop(state):
            assert state is st and not state.outcome.is_terminal
            asked.append(state.iters_used)
            return len(asked) == 4

        assert run(st, 10, stop) == (st.outcome, 4)
        assert asked == [start + 1, start + 2, start + 3, start + 4]
        # A chunk that its budget ends asks after its last step too.
        assert run(st, 2, stop) == (st.outcome, 2)
        assert asked[4:] == [start + 5, start + 6]

    def test_run_never_asks_stop_after_a_terminal_step(self):
        inst = gen_baheux(BaheuxSpec(n=60, delta=0.2))
        st = init(AlgoId.A4, inst.A, inst.b, np.zeros(60), inst.b, SolverConfig(max_iters=1000))
        asked = []
        outcome, used = run(st, 1000, lambda state: asked.append(state.outcome.kind) or False)
        assert outcome.kind in (OutcomeKind.CONVERGED, OutcomeKind.BREAKDOWN)
        assert asked == [OutcomeKind.CONTINUE] * (used - 1)
        assert run(st, 5, lambda state: pytest.fail("asked")) == (outcome, 0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algo", [AlgoId.A4, AlgoId.A5B10, AlgoId.A8B10])
    def test_run_and_step_let_no_warning_escape(self, algo):
        # A shadow of norm about 1e151 overflows the shadow chain a few steps
        # in: run() and step() both end in a labeled breakdown, silently.
        A, b = random_system("gaussian", 24, 1243153968)
        for advance in (lambda st: run(st, 50)[0], lambda st: st.step()):
            st = init(algo, A, b, np.zeros(24), 1e150 * b, SolverConfig(max_iters=50))
            out = st.outcome
            while not out.is_terminal:
                out = advance(st)
            assert out.kind is OutcomeKind.BREAKDOWN and "nonfinite" in out.label

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_without_warning(self):
        # init silences numpy's overflow warning and reports an overflowing
        # b - A x0, or an overflowing norm of it, as NonFiniteError.
        A = from_dense(np.diag([1e200, 1e200]))
        b = as_vector([1.0, 1.0])
        huge = as_vector([1e200, 1e200])
        cfg = SolverConfig(tol=1e-13, max_iters=10)
        for algo in AlgoId:
            with pytest.raises(NonFiniteError, match="non-finite result in matvec$"):
                init(algo, A, b, huge, b, cfg)
            with pytest.raises(NonFiniteError, match="non-finite result in norm2$"):
                init(algo, A, huge, np.zeros(2), b, cfg)
