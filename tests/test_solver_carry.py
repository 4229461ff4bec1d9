"""Values a solver step carries into the next one, and the work each step does.

After every step the carried values must equal a fresh recomputation
bitwise, and a main-loop step must call each kernel the stated number of
times.
"""

import numpy as np
import pytest

from lanswitch import solvers
from lanswitch.linalg import SparseMatrix, dot, norm2
from lanswitch.problems import BaheuxSpec, gen_baheux
from lanswitch.solvers import AlgoId, OutcomeKind, SolverConfig, init

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
