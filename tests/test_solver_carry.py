"""Values a solver step carries into the next one, and the work each step does.

After every step the carried values must equal a fresh recomputation
bitwise, and a main-loop step must call each kernel the stated number of
times, also when ``denominator_report`` prepared it. The report must end
with the offender of the breakdown the next step returns, and must not
raise when the preparation overflows. Advancing a state by ``run``, by
direct steps, or by steps with reports in between must leave it the same,
byte for byte.
"""

import copy
import math

import numpy as np
import pytest

from lanswitch import solvers
from lanswitch.linalg import NonFiniteError, SparseMatrix, dot, norm2
from lanswitch.problems import BaheuxSpec, gen_baheux
from lanswitch.solvers import AlgoId, OutcomeKind, SolverConfig, denominator_report, init
from oracles import from_dense
from random_systems import random_system

CFG = SolverConfig(tol=1e-13, max_iters=1000)
STEPS = 80


def systems():
    for delta in (0.0, 5.0):
        inst = gen_baheux(BaheuxSpec(n=60, delta=delta))
        yield f"baheux-{delta:g}", inst.A, inst.b
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n = 30
        dense = rng.standard_normal((n, n))
        if seed % 2 == 0:
            dense += np.diag(np.sign(np.diag(dense)) * (np.abs(dense).sum(axis=1) + 3.0))
        yield f"random-{seed}", from_dense(dense), rng.standard_normal(n)


SYSTEMS = list(systems())


def assert_carry_coherent(st, y_prev):
    # y_prev: the shadow vector of the state's previous step.
    A = st.A
    assert st.r_norm == norm2(st.r)
    if st.algo is AlgoId.A4 and st.k > 0:
        assert st.yr_prev == dot(y_prev, st.r_prev)
        assert st.yr_prev_scale == norm2(y_prev) * norm2(st.r_prev)
    elif st.algo is AlgoId.A12:
        r1, r2, r3 = st.rs
        ykm3, ykm2, ykm1, yk = st.ys
        assert st.Ar3.tobytes() == A.matvec(r3).tobytes()
        assert st.r_norms == [norm2(r1), norm2(r2), norm2(r3)]
        assert st.y3_norm == norm2(ykm3)
        assert st.a_carry == (dot(ykm3, r3), dot(ykm2, r3), dot(ykm1, r3), dot(yk, r3))
    elif st.algo is AlgoId.A5B10:
        # The look-ahead the next step's y_k comes from.
        assert st.y_next.tobytes() == A.matvec_t(st.y).tobytes()
    elif st.algo is AlgoId.A8B10:
        assert st.yr == dot(st.y, st.r)


@pytest.mark.parametrize("algo", list(AlgoId))
@pytest.mark.parametrize("name, A, b", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_carried_values_match_recomputation(algo, name, A, b):
    st = init(algo, A, b, np.zeros(A.nrows), b, CFG)
    live = 0
    y_prev = None
    while st.outcome.kind is OutcomeKind.CONTINUE and live < STEPS:
        assert_carry_coherent(st, y_prev)
        y_prev = st.y
        st.step()
        live += 1
    if st.outcome.kind is OutcomeKind.CONTINUE:
        assert_carry_coherent(st, y_prev)
    assert live > 0


# Kernel calls of one main-loop step that continues, (matvec, matvec_t,
# products, dot, norm2): for a later step, and for the first step of a
# state. Every start computes the values its first step reads, so only A4,
# whose first step is the recurrence's base case (no previous iterate),
# does different work first. Every step pairs its A v with its A.T w in one
# products call. ||r|| comes from the update's own finiteness test, not
# from norm2.
STEP_WORK = {
    AlgoId.A4: ((0, 0, 1, 3, 1), (0, 0, 1, 2, 1)),
    AlgoId.A12: ((1, 0, 1, 4, 1), (1, 0, 1, 4, 1)),
    AlgoId.A5B10: ((0, 0, 1, 3, 3), (0, 0, 1, 3, 3)),
    AlgoId.A8B10: ((0, 0, 1, 2, 2), (0, 0, 1, 2, 2)),
}


class _Counter:
    def __init__(self, monkeypatch):
        self.calls = {"matvec": 0, "matvec_t": 0, "products": 0, "dot": 0, "norm2": 0}
        for owner, name in ((SparseMatrix, "matvec"), (SparseMatrix, "matvec_t"),
                            (SparseMatrix, "products"), (solvers, "dot"),
                            (solvers, "norm2")):
            monkeypatch.setattr(owner, name, self._wrap(name, getattr(owner, name)))

    def _wrap(self, name, fn):
        def counted(*args):
            self.calls[name] += 1
            return fn(*args)
        return counted

    def take(self):
        out = tuple(self.calls.values())
        self.calls = dict.fromkeys(self.calls, 0)
        return out


@pytest.mark.parametrize("algo", list(AlgoId))
@pytest.mark.parametrize("name, A, b", SYSTEMS[:3], ids=[s[0] for s in SYSTEMS[:3]])
def test_kernel_calls_per_step(monkeypatch, algo, name, A, b):
    st = init(algo, A, b, np.zeros(A.nrows), b, CFG)
    counter = _Counter(monkeypatch)
    steady, first = STEP_WORK[algo]
    counted = 0
    while st.outcome.kind is OutcomeKind.CONTINUE and counted < STEPS:
        is_first = st.iters_used == st.PROLOGUE_CHARGES[-1]
        counter.take()
        if st.step().kind is OutcomeKind.CONTINUE:
            assert counter.take() == (first if is_first else steady)
            counted += 1
    assert counted >= 5


@pytest.mark.parametrize("algo", list(AlgoId))
@pytest.mark.parametrize("name, A, b", SYSTEMS[:3], ids=[s[0] for s in SYSTEMS[:3]])
def test_report_then_step_does_the_work_of_step(monkeypatch, algo, name, A, b):
    st = init(algo, A, b, np.zeros(A.nrows), b, CFG)
    counter = _Counter(monkeypatch)
    steady, first = STEP_WORK[algo]
    counted = 0
    while st.outcome.kind is OutcomeKind.CONTINUE and counted < STEPS:
        is_first = st.iters_used == st.PROLOGUE_CHARGES[-1]
        counter.take()
        report = denominator_report(st)
        prepared = counter.take()
        assert denominator_report(st) == report
        assert counter.take() == (0, 0, 0, 0, 0)
        if st.step().kind is OutcomeKind.CONTINUE:
            done = counter.take()
            work = tuple(p + d for p, d in zip(prepared, done))
            assert work == (first if is_first else steady)
            counted += 1
    assert counted >= 5


# Chunk lengths that sum to STEPS, and a second config whose iteration
# limit ends every state within them.
CHUNKS = (1, 2, 3, 5, 8, 13, 21, 27)
SHORT_CFG = SolverConfig(tol=1e-13, max_iters=12)


def _snapshot(st):
    # A live state's report is taken on a copy, so that the path under test
    # makes no report of its own.
    outcome = st.outcome
    report = [] if outcome.is_terminal else denominator_report(copy.deepcopy(st))
    return (st.x.tobytes(), st.r.tobytes(), repr(st.r_norm), st.k, st.iters_used,
            outcome.kind, outcome.label, repr(outcome.value),
            [(label, repr(value)) for label, value in report])


def _by_run(st, count):
    solvers.run(st, count)


def _by_step(st, count):
    for _ in range(count):
        if st.outcome.is_terminal:
            return
        st.step()


def _by_report_and_step(st, count):
    # Two reports, one or none before a step, by its iteration count mod 3.
    for _ in range(count):
        if st.outcome.is_terminal:
            return
        for _ in range((2, 1, 0)[st.iters_used % 3]):
            denominator_report(st)
        st.step()


@pytest.mark.parametrize("cfg", [CFG, SHORT_CFG], ids=["long", "short"])
@pytest.mark.parametrize("algo", list(AlgoId))
@pytest.mark.parametrize("name, A, b", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_step_paths_agree_bytewise(algo, name, A, b, cfg):
    # run(st, k), k direct steps, and steps with reports in between must
    # leave the same state and the same next report after every chunk.
    histories = []
    for advance in (_by_run, _by_step, _by_report_and_step):
        st = init(algo, A, b, np.zeros(A.nrows), b, cfg)
        history = [_snapshot(st)]
        for count in CHUNKS:
            advance(st, count)
            history.append(_snapshot(st))
        histories.append(history)
    assert histories[1] == histories[0]
    assert histories[2] == histories[0]


def _same_entry(entry, label, value):
    return entry[0] == label and (entry[1] == value
                                  or (math.isnan(entry[1]) and math.isnan(value)))


@pytest.mark.parametrize("algo", list(AlgoId))
@pytest.mark.parametrize("name, A, b", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_report_ends_with_the_offender(algo, name, A, b):
    st = init(algo, A, b, np.zeros(A.nrows), b, CFG)
    while st.outcome.kind is OutcomeKind.CONTINUE:
        report = denominator_report(st)
        outcome = st.step()
    assert outcome.kind is OutcomeKind.BREAKDOWN
    assert _same_entry(report[-1], outcome.label, outcome.value)


def test_report_ends_with_the_closing_c1_guard():
    # (y, r0) = 1e-13 makes the prologue's A_1 about 1e-13: the first main
    # step passes its own guards, updates, and breaks at C1 / A_1.
    A = from_dense(np.diag([1.0, 2.0, 3.0]))
    b = np.ones(3)
    st = init(AlgoId.A5B10, A, b, np.zeros(3), np.array([1.0, -1.0, 1e-13]), CFG)
    report = denominator_report(st)
    outcome = st.step()
    assert outcome.label == "A5B10.C1: A_k"
    assert report[-1] == (outcome.label, outcome.value)


# A shadow vector of norm about 1e151 on a 24x24 Gaussian system: the shadow
# chain's norm overflows a few steps in. The step after the overflowing
# preparation breaks down with the report's last entry, at the step count a
# run without reports reaches.
OVERFLOW_STEPS = {AlgoId.A4: 7, AlgoId.A5B10: 6, AlgoId.A8B10: 7}


@pytest.mark.parametrize("algo", list(OVERFLOW_STEPS))
def test_report_never_raises_on_overflow(algo):
    A, b = random_system("gaussian", 24, 1243153968)
    st = init(algo, A, b, np.zeros(A.nrows), 1e150 * b, CFG)
    label = f"{algo}.nonfinite: non-finite result in norm2"
    while st.outcome.kind is OutcomeKind.CONTINUE:
        report = denominator_report(st)
        if report[-1][0] == label:
            break
        st.step()
    assert math.isnan(report[-1][1])
    outcome = st.step()
    assert outcome.kind is OutcomeKind.BREAKDOWN
    assert outcome.label == label and math.isnan(outcome.value)
    assert st.iters_used - st.PROLOGUE_CHARGES[-1] == OVERFLOW_STEPS[algo]


def test_a5b10_start_overflow_ends_in_the_start(monkeypatch):
    # A5/B10's start makes the first step's A.T y_0 after its update: an
    # overflow there ends the start with the update installed and charged.
    def overflow(self, v):
        raise NonFiniteError("non-finite result in matvec_t")

    monkeypatch.setattr(SparseMatrix, "matvec_t", overflow)
    inst = gen_baheux(BaheuxSpec(n=20, delta=0.2))
    st = init(AlgoId.A5B10, inst.A, inst.b, np.zeros(20), inst.b, CFG)
    assert st.outcome.kind is OutcomeKind.BREAKDOWN
    assert st.outcome.label == "A5B10.nonfinite: non-finite result in matvec_t"
    assert st.k == 1 and st.iters_used == 1


@pytest.mark.parametrize("algo", [AlgoId.A4, AlgoId.A8B10])
def test_shadow_overflow_ends_before_the_update(algo):
    # Column 2 holds two entries near the largest double, and r_0 = b is 0
    # in row 2: A r_0 and the first update would be finite, but A.T y_0
    # overflows in entry 2. The paired product checks that half itself, so
    # the first step's preparation breaks down, as its report already says,
    # and x and r stay x_0 and r_0.
    A = from_dense([[1.0, 0.0, 1e308], [0.0, 2.0, 1e308], [0.0, 0.0, 3.0]])
    b = np.array([1.0, 1.0, 0.0])
    st = init(algo, A, b, np.zeros(3), b, CFG)
    label = f"{algo}.nonfinite: non-finite result in matvec_t"
    assert denominator_report(st)[-1][0] == label
    outcome = st.step()
    assert outcome.kind is OutcomeKind.BREAKDOWN
    assert outcome.label == label and math.isnan(outcome.value)
    assert st.k == 0 and st.iters_used == 1
    assert st.x.tobytes() == np.zeros(3).tobytes()
    assert st.r.tobytes() == b.tobytes() and st.r_norm == norm2(b)


def test_r_norm_reads_inf_after_an_overflowing_update():
    # A4's first update here is x_1 = (1, 0) and r_1 = (0, -1e170): both
    # finite, but (r_1, r_1) overflows. The update is installed, and r_norm
    # reads inf, not the ||r_0|| it held before, as the step breaks down.
    A = from_dense([[1.0, 0.0], [1e170, 1.0]])
    b = np.array([1.0, 0.0])
    st = init(AlgoId.A4, A, b, np.zeros(2), b, CFG)
    outcome = st.step()
    assert outcome.kind is OutcomeKind.BREAKDOWN
    assert outcome.label == "A4.nonfinite: non-finite result in norm2"
    assert st.k == 1
    assert np.array_equal(st.x, [1.0, 0.0]) and np.array_equal(st.r, [0.0, -1e170])
    assert st.r_norm == math.inf


def test_update_check_reuses_the_residual_dot():
    # One (r, r) both checks r and gives ||r||. A non-finite x or r still
    # fails the update before anything is installed; a finite r whose (r, r)
    # overflows is installed with r_norm inf, and the update then fails as
    # norm2.
    A, b = SYSTEMS[0][1], SYSTEMS[0][2]
    st = init(AlgoId.A4, A, b, np.zeros(A.nrows), b, CFG)
    x, r, k = st.x, st.r, st.k
    finite = np.ones(A.nrows)
    for bad in (np.inf, -np.inf, np.nan):
        broken = finite.copy()
        broken[3] = bad
        for x_next, r_next in ((broken, finite), (finite, broken)):
            with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as err:
                st._accept(x_next, r_next)
            assert str(err.value) == "x/r update"
            assert st.x is x and st.r is r and st.k == k
    huge = np.full(A.nrows, 1e200)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as err:
        st._accept(finite, huge)
    assert str(err.value) == "non-finite result in norm2"
    assert st.x is finite and st.r is huge and st.k == k + 1
    assert st.r_norm == math.inf
