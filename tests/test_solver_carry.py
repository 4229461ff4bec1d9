"""Values a solver step carries into the next one, and the work each step does.

After every step the carried values must equal a fresh recomputation
bitwise, and a main-loop step must call each kernel the stated number of
times, also when ``denominator_report`` prepared it. The report must end
with the offender of the breakdown the next step returns, and must not
raise when the preparation overflows.
"""

import math

import numpy as np
import pytest

from lanswitch import solvers
from lanswitch.linalg import SparseMatrix, dot, norm2
from lanswitch.problems import BaheuxSpec, gen_baheux
from lanswitch.solvers import AlgoId, OutcomeKind, SolverConfig, denominator_report, init
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
        yield f"random-{seed}", SparseMatrix.from_dense(dense), rng.standard_normal(n)


SYSTEMS = list(systems())


def assert_carry_coherent(st):
    A = st.A
    assert st.r_norm == st.residual_norm() == norm2(st.r)
    if st.algo is AlgoId.A4 and st.k > 0:
        assert st.yr_prev == dot(st.y_prev, st.r_prev)
        assert st.yr_prev_scale == norm2(st.y_prev) * norm2(st.r_prev)
    elif st.algo is AlgoId.A12:
        r1, r2, r3 = st.rs
        ykm3, ykm2, ykm1, yk = st.ys
        assert st.Ar3.tobytes() == A.matvec(r3).tobytes()
        assert st.r_norms == [norm2(r1), norm2(r2), norm2(r3)]
        assert st.y3_norm == norm2(ykm3)
        if st.a_carry is not None:
            assert st.a_carry == (dot(ykm3, r3), dot(ykm2, r3), dot(ykm1, r3), dot(yk, r3))
    elif st.algo is AlgoId.A8B10 and st.yr is not None:
        assert st.yr == dot(st.y, st.r)


@pytest.mark.parametrize("algo", list(AlgoId))
@pytest.mark.parametrize("name, A, b", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_carried_values_match_recomputation(algo, name, A, b):
    st = init(algo, A, b, np.zeros(A.nrows), b, CFG)
    live = 0
    while st.outcome.kind is OutcomeKind.CONTINUE and live < STEPS:
        assert_carry_coherent(st)
        st.step()
        live += 1
    if st.outcome.kind is OutcomeKind.CONTINUE:
        assert_carry_coherent(st)
    assert live > 0


# Kernel calls of one main-loop step that continues, (matvec, matvec_t, dot,
# norm2): for a step with carried scalars, and for the first step of a
# state, which has none yet.
STEP_WORK = {
    AlgoId.A4: ((1, 1, 3, 2), (1, 1, 2, 2)),
    AlgoId.A12: ((2, 1, 4, 2), (2, 1, 8, 2)),
    AlgoId.A5B10: ((1, 1, 3, 4), (1, 1, 3, 4)),
    AlgoId.A8B10: ((1, 1, 2, 3), (1, 1, 3, 3)),
}


class _Counter:
    def __init__(self, monkeypatch):
        self.calls = {"matvec": 0, "matvec_t": 0, "dot": 0, "norm2": 0}
        for owner, name in ((SparseMatrix, "matvec"), (SparseMatrix, "matvec_t"),
                            (solvers, "dot"), (solvers, "norm2")):
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
        is_first = st.steps_taken == 0
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
        is_first = st.steps_taken == 0
        counter.take()
        report = denominator_report(st)
        prepared = counter.take()
        assert denominator_report(st) == report
        assert counter.take() == (0, 0, 0, 0)
        if st.step().kind is OutcomeKind.CONTINUE:
            done = counter.take()
            work = tuple(p + d for p, d in zip(prepared, done))
            assert work == (first if is_first else steady)
            counted += 1
    assert counted >= 5


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
    A = SparseMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
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
    assert st.steps_taken == OVERFLOW_STEPS[algo]
