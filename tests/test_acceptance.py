"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import numpy as np
import pytest

import paper_report as report
from lanswitch.harness import (
    DEFAULT_SEED,
    PAPER_COMBOS,
    PAPER_DELTAS,
    PAPER_TOL,
    paper_instances,
    run_experiment,
)
from lanswitch.linalg import SparseMatrix, norm2
from lanswitch.problems import BaheuxSpec, ProblemInstance, gen_baheux
from lanswitch.solvers import AlgoId, OutcomeKind, SolverConfig, init, run
from lanswitch.switching import (ST1, ST2, ST3, CoinToss, SelectionPolicy, SwitchPlan,
                                 run_switching)
from oracles import (SingularMatrixError, direct_solve_oracle, from_dense, lanczos_iterate,
                     norm_inf)
from test_solvers import a4_normalization

# Criterion 9's second family is the report's convection-diffusion problems.
FAMILIES = {
    "baheux": paper_instances,
    "convection-diffusion": report.second_family_instances,
}

# The grid rows the criteria and the README's tables read: (family, row) ->
# the combos run on every instance of the family, with the harness's
# tolerance, budgets and seed. A strategy's row holds the four paper
# pairings (positions 0-3) and, where restarting is compared, each
# algorithm restarted alone (positions 4-7).
ROWS = {
    ("baheux", "solo"): report.SOLO,
    ("baheux", "ST1"): report.pairings(ST1()),
    ("baheux", "ST1, first member"): report.pairings(ST1(), first_member=True),
    ("baheux", "ST3"): report.pairings(ST3()),
    **{("baheux", f"ST2({c})"): report.versus_restarting(ST2(c)) for c in (10, 20, 40)},
    ("convection-diffusion", "solo"): report.SOLO,
    ("convection-diffusion", "ST2(20)"): report.versus_restarting(ST2(20)),
}
PAIRINGS = range(len(PAPER_COMBOS))


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"[ACCEPTANCE] {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def instances():
    return {family: build() for family, build in FAMILIES.items()}


@pytest.fixture(scope="module")
def grid(instances):
    """grid(family, row): the records of one row of ROWS, keyed (instance
    key, combo position); each row runs once per module."""
    done = {}

    def get(family, row):
        if (family, row) not in done:
            done[family, row] = run_experiment(instances[family], ROWS[family, row])
        return done[family, row]

    return get


def _converged(records, position):
    return sum(rec.outcome == "Converged"
               for (_, pos), rec in records.items() if pos == position)


def _assert_pairings_converge(name, row, grid, instances):
    """Every pairing cell of the Baheux row ends Converged with recomputed
    residual <= 1e-12."""
    violations, cells = [], 0
    for (key, position), rec in grid("baheux", row).items():
        if position not in PAIRINGS:
            continue
        inst = instances["baheux"][key]
        true_res = norm2(inst.b - inst.A.matvec(rec.x))
        cells += 1
        if rec.outcome != "Converged" or rec.residual > PAPER_TOL or true_res > 1e-12:
            violations.append((key, position, rec.outcome, true_res))
    _report(name, not violations,
            f"{cells - len(violations)}/{cells} cells converged "
            f"with recomputed residual <= 1e-12")
    assert not violations, violations[:10]


def test_criterion_1_switching_convergence(grid, instances):
    """Every pairing converges under ST2 on the full grid with true residual <= 1e-12."""
    _assert_pairings_converge("criterion 1 (switching convergence)", "ST2(20)", grid,
                              instances)


def test_criterion_1_st1_switching_convergence(grid, instances):
    """The same bar under ST1, which switches only after a breakdown."""
    _assert_pairings_converge("criterion 1, ST1 (switching convergence)", "ST1", grid,
                              instances)


def test_criterion_1_st3_switching_convergence(grid, instances):
    """The same bar under ST3 at its default threshold, which switches when
    a denominator the next step divides by is small for its guard's scale."""
    _assert_pairings_converge("criterion 1, ST3 (switching convergence)", "ST3", grid,
                              instances)


# Scaling A, b and tol by 2^s is exact in binary floating point, and every
# guard but the closing C1 guards compares its denominator with the scale
# of its own expression. ST3 is held to this at |s| <= 20 only: its monitor
# reads the C1 entries at the absolute scale 1, where A_k, in the units of
# 1/A, looks small at 2^30, and three of the 48 cells end Exhausted there.
SCALED_STRATEGIES = ([(ST1(), s) for s in (-30, -20, 20, 30)]
                     + [(ST2(20), s) for s in (-30, -20, 20, 30)]
                     + [(ST3(), s) for s in (-20, 20)])


@pytest.mark.parametrize("strategy, s", SCALED_STRATEGIES,
                         ids=[f"{type(strategy).__name__}-2^{s}"
                              for strategy, s in SCALED_STRATEGIES])
def test_criterion_1_holds_at_every_binary_scale(strategy, s):
    """Every pairing converges on the paper grid's n = 20, 40 and 60 cells
    with A, b and tol scaled by 2^s, at the harness's budgets and seeds."""
    factor = 2.0 ** s
    scaled = {}
    for delta in PAPER_DELTAS:
        for n in (20, 40, 60):
            inst = gen_baheux(BaheuxSpec(n=n, delta=delta))
            A = inst.A
            scaled[delta, n] = ProblemInstance(
                SparseMatrix(n, A.indptr, A.indices, A.data * factor), inst.b * factor)
    records = run_experiment(scaled, report.pairings(strategy), tol=PAPER_TOL * factor)
    failed = [(key, position, rec.outcome) for (key, position), rec in records.items()
              if rec.outcome != "Converged"]
    assert not failed, failed


def test_criterion_2_solo_fragility(grid, instances):
    """Each solo algorithm fails somewhere on the grid at n >= 60, budget 5n."""
    records = grid("baheux", "solo")
    cells = len(instances["baheux"])
    failures = {}
    for ((delta, n), position), rec in records.items():
        if n >= 60 and rec.outcome in ("Breakdown", "IterLimit"):
            failures.setdefault(report.SOLO[position], (n, delta, rec.outcome))
    ok = set(failures) == set(AlgoId)
    _report("criterion 2 (solo fragility)", ok,
            "; ".join(f"{a.value} fails at n={v[0]}, delta={v[1]} ({v[2]})"
                      for a, v in sorted(failures.items(), key=lambda t: t[0].value))
            + "; converged " + ", ".join(f"{a.value} {_converged(records, i)}/{cells}"
                                         for i, a in enumerate(report.SOLO)))
    assert ok, f"missing solo failures for {set(AlgoId) - set(failures)}"


def test_criterion_3_oracle_equivalence(grid, instances):
    """Converged switching runs with n <= 400 match the dense oracle and the
    ones vector. Converged solo runs (n <= 40) are held to the same bounds by
    test_solvers.py::TestRecurrenceProperties::test_oracle_equivalence_when_solo_converges."""
    oracles = {}
    checked = 0
    violations = []
    for ((delta, n), position), rec in grid("baheux", "ST2(20)").items():
        if n > 400 or position not in PAIRINGS or rec.outcome != "Converged":
            continue
        key = (n, delta)
        if key not in oracles:
            inst = instances["baheux"][delta, n]
            oracles[key] = direct_solve_oracle(inst.A, inst.b)
        x_oracle = oracles[key]
        rel = (np.max(np.abs(rec.x - x_oracle))
               / np.max(np.abs(x_oracle)))
        ones_err = np.max(np.abs(rec.x - 1.0))
        checked += 1
        if rel > 1e-8 or ones_err > 1e-8:
            violations.append((delta, n, position, rel, ones_err))
    _report("criterion 3 (oracle equivalence)", not violations,
            f"{checked} converged runs within 1e-8 of the dense solve and of ones")
    assert not violations, violations[:10]


def _diag_dominant(rng, n, spread=3.0):
    dense = rng.standard_normal((n, n))
    dense += np.diag(np.sign(np.diag(dense)) * (np.abs(dense).sum(axis=1) + spread))
    return from_dense(dense)


def test_criterion_4_residual_identity_and_7_normalization():
    """Identity at every step of a 200+-step seeded suite, handoffs included;
    A4's normalization stays at 1 to 1e-14 throughout."""
    algos = list(AlgoId)
    checked = 0
    identity_violations = []
    normalization_violations = []

    def step_and_check(state, *where):
        """Step ``state`` once and check it if the step updated the iterate."""
        nonlocal checked
        # A4's normalization comes from the preparation the step applies.
        normalization = a4_normalization(state) if state.algo is AlgoId.A4 else 1.0
        if state.step().kind not in (OutcomeKind.CONTINUE, OutcomeKind.CONVERGED):
            return
        where = (*where, state.k)
        gap = norm2(state.r - (state.b - state.A.matvec(state.x)))
        bound = 1e-10 * (norm2(state.b) + norm_inf(state.A) * norm2(state.x))
        checked += 1
        if gap > bound:
            identity_violations.append((where, gap, bound))
        if abs(normalization - 1.0) > 1e-14:
            normalization_violations.append((where, normalization))

    for algo_i, algo in enumerate(algos):
        rng = np.random.default_rng(17 + algo_i)
        next_algo = algos[(algo_i + 1) % len(algos)]
        for trial in range(13):
            n = int(rng.choice([10, 20, 30]))
            A = _diag_dominant(rng, n)
            b = rng.standard_normal(n)
            x0 = rng.standard_normal(n)
            y = (b - A.matvec(x0)).copy()
            st = init(algo, A, b, x0, y, SolverConfig(tol=PAPER_TOL, max_iters=100))
            for _ in range(12):
                if st.outcome.is_terminal:
                    break
                step_and_check(st, algo.value, trial)
            r_fresh = b - A.matvec(st.x)
            if norm2(r_fresh) <= PAPER_TOL:
                continue
            st2 = init(next_algo, A, b, st.x, r_fresh, SolverConfig(max_iters=100))
            for _ in range(3):
                if st2.outcome.is_terminal:
                    break
                step_and_check(st2, next_algo.value, trial, "post-handoff")

    _report("criterion 4 (residual identity)", not identity_violations and checked >= 200,
            f"{checked} steps checked, including post-handoff steps")
    _report("criterion 7 (A4 normalization)", not normalization_violations,
            "|A(B+E) - 1| <= 1e-14 at every A4 step")
    assert checked >= 200
    assert not identity_violations, identity_violations[:5]
    assert not normalization_violations, normalization_violations[:5]


def test_criterion_5_breakdown_honesty():
    """Orthogonal and near-degenerate shadow vectors always end in a labeled
    breakdown and never put a non-finite value into x or r."""
    rng = np.random.default_rng(29)
    runs = 0
    bad = []
    for algo in AlgoId:
        for trial in range(8):
            n = int(rng.choice([10, 20, 30]))
            A = _diag_dominant(rng, n)
            b = rng.standard_normal(n)
            r0 = b.copy()
            y = rng.standard_normal(n)
            y -= (np.dot(y, r0) / np.dot(r0, r0)) * r0
            y -= (np.dot(y, r0) / np.dot(r0, r0)) * r0
            if trial % 2:
                # near-degenerate instead of exactly orthogonal
                y += 1e-15 * norm2(y) * r0 / norm2(r0)
            st = init(algo, A, b, np.zeros(n), y,
                      SolverConfig(tol=PAPER_TOL, max_iters=200))
            outcome = st.outcome
            while not outcome.is_terminal:
                outcome = st.step()
                if not (np.all(np.isfinite(st.x)) and np.all(np.isfinite(st.r))):
                    bad.append((algo.value, trial, "non-finite state"))
                    break
            runs += 1
            if outcome.kind is not OutcomeKind.BREAKDOWN or not outcome.label:
                bad.append((algo.value, trial, outcome.kind.value))
    _report("criterion 5 (breakdown honesty)", not bad,
            f"{runs} degenerate-shadow runs all ended in labeled Breakdown, "
            f"no NaN/Inf in x or r")
    assert not bad, bad[:10]


def test_criterion_6_determinism(instances):
    """Identical config and seed give bitwise-identical traces and iterates."""
    mismatches = []
    inst = instances["baheux"][5.0, 100]
    for number, pool in sorted(PAPER_COMBOS.items()):
        plan = SwitchPlan(
            strategy=ST2(20),
            policy=SelectionPolicy(pool, CoinToss(DEFAULT_SEED + number)),
            start=pool[0],
            cfg=SolverConfig(tol=PAPER_TOL, max_iters=10000),
            global_budget=10000,
        )
        rec1, trace1 = run_switching(inst.A, inst.b, np.zeros(100), inst.b, plan)
        rec2, trace2 = run_switching(inst.A, inst.b, np.zeros(100), inst.b, plan)
        if trace1.events != trace2.events:
            mismatches.append((number, "trace"))
        if not np.array_equal(rec1.x, rec2.x):
            mismatches.append((number, "x"))
        if (rec1.outcome, rec1.residual, rec1.iterations) != \
           (rec2.outcome, rec2.residual, rec2.iterations):
            mismatches.append((number, "record"))
    _report("criterion 6 (determinism)", not mismatches,
            "bitwise-identical traces and final iterates across reruns")
    assert not mismatches, mismatches


# Restart-only runs that converge on as many cells as every pairing, by ST2
# cycle length: at cycle 10, restarting A5/B10 alone converges everywhere.
RESTART_TIES = {10: {AlgoId.A5B10}, 20: set(), 40: set()}
RESTARTS = range(len(PAPER_COMBOS), len(PAPER_COMBOS) + len(AlgoId))


@pytest.mark.parametrize("cycle", sorted(RESTART_TIES))
def test_criterion_8_switching_beats_restarting(cycle, grid, instances):
    """Switching, not restarting, avoids breakdown at ST2 cycle 20 and 40:
    every pairing converges on all 40 (delta, n) cells, while restarting any
    single algorithm under the same cycle and budget converges on strictly
    fewer. At cycle 10 restarting A5/B10 alone ties the pairings."""
    records = grid("baheux", f"ST2({cycle})")
    cells = len(instances["baheux"])
    pairing = {number: _converged(records, position)
               for position, number in enumerate(PAPER_COMBOS)}
    restart_only = {algo: _converged(records, position)
                    for algo, position in zip(AlgoId, RESTARTS)}
    ties = {algo for algo, count in restart_only.items() if count >= cells}
    ok = all(count == cells for count in pairing.values()) and ties == RESTART_TIES[cycle]
    _report(f"criterion 8, cycle {cycle} (switching beats restarting)", ok,
            "restart-only " + ", ".join(f"{a.value} {c}/{cells}"
                                        for a, c in restart_only.items())
            + "; pairings " + ", ".join(f"{k} {c}/{cells}" for k, c in pairing.items()))
    assert ok, (pairing, restart_only)


def test_criterion_9_second_family(grid, instances):
    """The paper's claim on a second family, 2-D convection-diffusion with
    b = A 1: under ST2(20) every pairing converges on all 12 (m, beta,
    gamma) cells with max |x - 1| <= 1e-8, every solo run fails, and
    restarting any single algorithm converges on fewer cells, at the
    harness's budgets, tolerance and seed."""
    records = grid("convection-diffusion", "ST2(20)")
    solo_records = grid("convection-diffusion", "solo")
    cells = len(instances["convection-diffusion"])
    pairing = [_converged(records, position) for position in PAIRINGS]
    worst = max(np.max(np.abs(rec.x - 1.0))
                for (_, position), rec in records.items() if position in PAIRINGS)
    solo = [_converged(solo_records, position) for position in range(len(report.SOLO))]
    restart_only = [_converged(records, position) for position in RESTARTS]
    ok = (all(c == cells for c in pairing) and worst <= 1e-8 and not any(solo)
          and all(c < cells for c in restart_only))
    _report("criterion 9 (second family)", ok,
            f"pairings {sum(pairing)}/{len(pairing) * cells} (max |x - 1| {worst:.1e}), "
            f"solo {sum(solo)}/{len(solo) * cells}, restart-only "
            + ", ".join(f"{a.value} {c}/{cells}" for a, c in zip(AlgoId, restart_only)))
    assert ok, (pairing, worst, solo, restart_only)


def test_readme_result_tables(grid):
    """The README's solo, ST1-start and second-family tables, and its
    switching-against-restarting table at ST2 cycles 10, 20 and 40, are
    verbatim what tools/paper_report.py prints from these rows (the tool
    checks the rest)."""
    held = report.readme_tables()
    assert report.solo_table(grid("baheux", "solo")) in held
    assert report.st1_table(grid("baheux", "ST1"), grid("baheux", "ST1, first member")) in held
    cycles = {f"cycle {c}": grid("baheux", f"ST2({c})") for c in sorted(RESTART_TIES)}
    assert report.restart_table(cycles) in [report.columns(table, cycles) for table in held]
    assert report.second_family_table(grid("convection-diffusion", "ST2(20)")) in held


def test_criterion_10_lanczos_iterates():
    """Each algorithm computes the Lanczos iterates: from x0 = 0 with y = b,
    its iterate after k updates is the Petrov-Galerkin one, x_k in K_k(A, b)
    with b - A x_k orthogonal to K_k(A.T, b), within 1e-7 of the exact x_k for
    every k <= 6, on 20 random systems of order 8, A = 10 I plus integers in
    [-3, 3] and b = A 1."""
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = dict.fromkeys(AlgoId, 0.0)
    stopped = []
    for system in range(20):
        dense = 10.0 * np.eye(8) + rng.integers(-3, 4, (8, 8))
        b = dense.sum(axis=1)
        exact = [None] + [lanczos_iterate(dense, b, b, k) for k in range(1, 7)]
        A = from_dense(dense)
        for algo in AlgoId:
            st = init(algo, A, b, np.zeros(8), b, SolverConfig(tol=PAPER_TOL, max_iters=100))
            while True:
                if st.k >= 1:
                    x_k = exact[st.k]
                    worst[algo] = max(worst[algo], np.max(np.abs(st.x - x_k))
                                      / np.max(np.abs(x_k)))
                if st.k == 6 or st.outcome.is_terminal:
                    break
                st.step()
            if st.k < 6:
                stopped.append((system, algo.value, st.k, st.outcome.kind.value))
    ok = not stopped and all(dev <= 1e-7 for dev in worst.values())
    _report("criterion 10 (Lanczos iterates)", ok,
            "largest relative deviation from the exact iterate: "
            + ", ".join(f"{a.value} {dev:.1e}" for a, dev in worst.items()))
    assert not stopped, stopped
    assert ok, worst


# The guard each algorithm trips when (y, A r0) = 0 exactly.
EXACT_BREAKDOWN_LABELS = {
    AlgoId.A4: "A4.A: B+E",
    AlgoId.A12: "A12.c1",
    AlgoId.A5B10: "A5B10.A1: (y_0,Ar_0)",
    AlgoId.A8B10: "A8B10.A: (y_k,Az_k)",
}


def test_criterion_10_exact_breakdowns():
    """Where the Lanczos iterate x_1 does not exist, every algorithm ends in
    a labeled Breakdown before its first update: on 5 nonsingular
    skew-symmetric integer matrices K of order 8 (strict upper triangle in
    [-3, 3]) with an integer b and y = b, (y, K r0) = 0 exactly, so the
    exact oracle's system is singular at k = 1."""
    rng = np.random.default_rng(DEFAULT_SEED)
    wrong = []
    systems = 0
    while systems < 5:
        K = np.triu(rng.integers(-3, 4, (8, 8)), 1)
        K -= K.T
        b = rng.integers(-3, 4, 8)
        if np.linalg.matrix_rank(K) < 8 or not b.any():
            continue
        systems += 1
        with pytest.raises(SingularMatrixError):
            lanczos_iterate(K, b, b, 1)
        A, b = from_dense(K.astype(float)), b.astype(float)
        for algo in AlgoId:
            st = init(algo, A, b, np.zeros(8), b, SolverConfig(tol=PAPER_TOL, max_iters=100))
            run(st, 10)
            if (st.outcome.kind, st.k, st.outcome.label) != (
                    OutcomeKind.BREAKDOWN, 0, EXACT_BREAKDOWN_LABELS[algo]):
                wrong.append((systems, algo.value, st.outcome, st.k))
    _report("criterion 10, exact breakdowns", not wrong,
            "every algorithm breaks down at k = 0 where (y, A r0) = 0")
    assert not wrong, wrong
