"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import re

import numpy as np
import pytest

from lanswitch.harness import (
    DEFAULT_SEED,
    PAPER_COMBOS,
    ExperimentConfig,
    SwitchTemplate,
    run_cell,
    run_experiment,
)
from lanswitch.linalg import norm2
from lanswitch.problems import BaheuxSpec, gen_baheux
from lanswitch.solvers import AlgoId, OutcomeKind, SolverConfig, init, run
from lanswitch.switching import (ST1, ST2, ST3, CoinToss, SelectionPolicy, SwitchPlan,
                                 run_switching)
from oracles import (SingularMatrixError, direct_solve_oracle, from_dense, lanczos_iterate,
                     norm_inf)
from random_systems import convection_diffusion
from test_readme import README
from test_solvers import a4_normalization

DELTAS = (0.0, 0.2, 5.0, 8.0)
DIMS = (20, 40, 60, 80, 100, 200, 400, 600, 800, 1000)
TOL = 1e-13


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"[ACCEPTANCE] {name}: {status}{suffix}")


def _grid(strategy):
    """All 160 switching cells under ``strategy``: 4 deltas x 10 dims x 4
    paper pairings, at the harness's default budget."""
    templates = tuple(SwitchTemplate(strategy, PAPER_COMBOS[k])
                      for k in sorted(PAPER_COMBOS))
    out = {}
    for delta in DELTAS:
        for n in DIMS:
            cfg = ExperimentConfig(problem=BaheuxSpec(n=n, delta=delta),
                                   algorithms=templates, tol=TOL,
                                   seed=DEFAULT_SEED)
            for number, rec in zip(sorted(PAPER_COMBOS), run_experiment(cfg)):
                out[(delta, n, number)] = rec
    return out


@pytest.fixture(scope="module")
def grid_records():
    """The 160 cells under ST2(20), the paper's strategy."""
    return _grid(ST2(20))


@pytest.fixture(scope="module")
def problems_cache():
    cache = {}

    def get(n, delta):
        key = (n, delta)
        if key not in cache:
            cache[key] = gen_baheux(BaheuxSpec(n=n, delta=delta))
        return cache[key]

    return get


def _assert_grid_converges(name, records, problems_cache):
    """Every cell ends Converged with recomputed residual <= 1e-12."""
    violations = []
    for (delta, n, number), rec in records.items():
        inst = problems_cache(n, delta)
        true_res = norm2(inst.b - inst.A.matvec(rec.x))
        if rec.outcome != "Converged" or rec.residual > TOL or true_res > 1e-12:
            violations.append((delta, n, number, rec.outcome, true_res))
    _report(name, not violations,
            f"{len(records) - len(violations)}/{len(records)} cells converged "
            f"with recomputed residual <= 1e-12")
    assert not violations, violations[:10]


def test_criterion_1_switching_convergence(grid_records, problems_cache):
    """Every pairing converges under ST2 on the full grid with true residual <= 1e-12."""
    _assert_grid_converges("criterion 1 (switching convergence)", grid_records,
                           problems_cache)


def test_criterion_1_st1_switching_convergence(problems_cache):
    """The same bar under ST1, which switches only after a breakdown."""
    _assert_grid_converges("criterion 1, ST1 (switching convergence)", _grid(ST1()),
                           problems_cache)


def test_criterion_1_st3_switching_convergence(problems_cache):
    """The same bar under ST3 at its default threshold, which switches when
    a denominator the next step divides by is small for its guard's scale."""
    _assert_grid_converges("criterion 1, ST3 (switching convergence)", _grid(ST3()),
                           problems_cache)


def _readme_solo_counts():
    """The solo rows of the README's opening table: {algorithm: (cells
    converged, cells, fewest and most updates before a breakdown)}."""
    with open(README, encoding="utf-8") as fh:
        rows = re.findall(r"^\| (\S+), solo \| (\d+)/(\d+) \| (\d+)–(\d+) \|$",
                          fh.read(), re.M)
    return {AlgoId.parse(name): tuple(map(int, counts)) for name, *counts in rows}


def test_criterion_2_solo_fragility(problems_cache):
    """Each solo algorithm fails somewhere on the grid at n >= 60, budget 5n.
    Over all 40 cells it converges on as many cells, and breaks down after as
    few and as many updates, as the README's opening table says."""
    cells = len(DELTAS) * len(DIMS)
    failures = {}
    converged = dict.fromkeys(AlgoId, 0)
    breakdown_updates = {algo: [] for algo in AlgoId}
    for algo in AlgoId:
        for delta in DELTAS:
            for n in DIMS:
                inst = problems_cache(n, delta)
                cfg = SolverConfig(tol=TOL, max_iters=5 * n)
                st = init(algo, inst.A, inst.b, np.zeros(n), inst.b, cfg)
                outcome = st.outcome
                if not outcome.is_terminal:
                    outcome, _ = run(st, 5 * n)
                converged[algo] += outcome.kind is OutcomeKind.CONVERGED
                if outcome.kind is OutcomeKind.BREAKDOWN:
                    breakdown_updates[algo].append(st.k)
                if n >= 60 and outcome.kind in (OutcomeKind.BREAKDOWN, OutcomeKind.ITER_LIMIT):
                    failures.setdefault(algo, (n, delta, outcome.kind.value))
    ok = set(failures) == set(AlgoId)
    _report("criterion 2 (solo fragility)", ok,
            "; ".join(f"{a.value} fails at n={v[0]}, delta={v[1]} ({v[2]})"
                      for a, v in sorted(failures.items(), key=lambda t: t[0].value))
            + "; converged " + ", ".join(f"{a.value} {c}/{cells}" for a, c in converged.items()))
    assert ok, f"missing solo failures for {set(AlgoId) - set(failures)}"
    assert _readme_solo_counts() == {
        a: (converged[a], cells, min(breakdown_updates[a]), max(breakdown_updates[a]))
        for a in AlgoId}


def test_criterion_3_oracle_equivalence(grid_records, problems_cache):
    """Converged runs with n <= 400 match the dense oracle and the ones vector."""
    oracles = {}
    checked = 0
    violations = []
    for (delta, n, number), rec in grid_records.items():
        if n > 400 or rec.outcome != "Converged":
            continue
        key = (n, delta)
        if key not in oracles:
            inst = problems_cache(n, delta)
            oracles[key] = direct_solve_oracle(inst.A, inst.b)
        x_oracle = oracles[key]
        rel = (np.max(np.abs(rec.x - x_oracle))
               / np.max(np.abs(x_oracle)))
        ones_err = np.max(np.abs(rec.x - 1.0))
        checked += 1
        if rel > 1e-8 or ones_err > 1e-8:
            violations.append((delta, n, number, rel, ones_err))
    # Solo runs that converge (small n) are held to the same bound.
    for algo in AlgoId:
        for delta in DELTAS:
            for n in (10, 20, 30, 40):
                inst = problems_cache(n, delta)
                cfg = SolverConfig(tol=TOL, max_iters=5 * n)
                st = init(algo, inst.A, inst.b, np.zeros(n), inst.b, cfg)
                if not st.outcome.is_terminal:
                    run(st, 5 * n)
                if st.outcome.kind is OutcomeKind.CONVERGED:
                    key = (n, delta)
                    if key not in oracles:
                        oracles[key] = direct_solve_oracle(inst.A, inst.b)
                    rel = (np.max(np.abs(st.x - oracles[key]))
                           / np.max(np.abs(oracles[key])))
                    checked += 1
                    if rel > 1e-8 or np.max(np.abs(st.x - 1.0)) > 1e-8:
                        violations.append((delta, n, algo.value, rel))
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
            st = init(algo, A, b, x0, y, SolverConfig(tol=TOL, max_iters=100))
            for _ in range(12):
                if st.outcome.is_terminal:
                    break
                step_and_check(st, algo.value, trial)
            r_fresh = b - A.matvec(st.x)
            if norm2(r_fresh) <= TOL:
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
                      SolverConfig(tol=TOL, max_iters=200))
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


def test_criterion_6_determinism(problems_cache):
    """Identical config and seed give bitwise-identical traces and iterates."""
    mismatches = []
    for number, pool in sorted(PAPER_COMBOS.items()):
        inst = problems_cache(100, 5.0)
        plan = SwitchPlan(
            strategy=ST2(20),
            policy=SelectionPolicy(pool, CoinToss(DEFAULT_SEED + number)),
            start=pool[0],
            cfg=SolverConfig(tol=TOL, max_iters=10000),
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


def _readme_cycle_counts(cycle):
    """The README's "Switching against restarting" table at ``cycle``:
    {algorithm of a restart-only row or pairing number: (cells converged,
    cells)}."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    header = re.search(r"^\| run(?: \| cycle \d+)+ \|$", text, re.M).group(0)
    column = [int(c) for c in re.findall(r"cycle (\d+)", header)].index(cycle)
    out = {}
    for label, counts in re.findall(r"^\| ([^|]+?) \|((?: \d+/\d+ \|)+)$", text, re.M):
        key = (AlgoId.parse(label.removesuffix(", restart only"))
               if label.endswith(", restart only") else int(label.split(":")[0]))
        out[key] = tuple(map(int, re.findall(r"(\d+)/(\d+)", counts)[column]))
    return out


@pytest.mark.parametrize("cycle", sorted(RESTART_TIES))
def test_criterion_8_switching_beats_restarting(cycle, grid_records):
    """Switching, not restarting, avoids breakdown at ST2 cycle 20 and 40:
    every pairing converges on all 40 (delta, n) cells, while restarting any
    single algorithm under the same cycle and budget converges on strictly
    fewer. At cycle 10 restarting A5/B10 alone ties the pairings. Every count
    is the one in the README's table."""
    cells = len(DELTAS) * len(DIMS)
    templates = tuple(SwitchTemplate(ST2(cycle), (algo,)) for algo in AlgoId)
    restart_only = dict.fromkeys(AlgoId, 0)
    for delta in DELTAS:
        for n in DIMS:
            cfg = ExperimentConfig(problem=BaheuxSpec(n=n, delta=delta),
                                   algorithms=templates, tol=TOL,
                                   seed=DEFAULT_SEED)
            for algo, rec in zip(AlgoId, run_experiment(cfg)):
                restart_only[algo] += rec.outcome == "Converged"
    records = grid_records if cycle == 20 else _grid(ST2(cycle))
    pairing = {number: sum(records[(delta, n, number)].outcome == "Converged"
                           for delta in DELTAS for n in DIMS)
               for number in sorted(PAPER_COMBOS)}
    ties = {algo for algo, count in restart_only.items() if count >= cells}
    ok = all(count == cells for count in pairing.values()) and ties == RESTART_TIES[cycle]
    _report(f"criterion 8, cycle {cycle} (switching beats restarting)", ok,
            "restart-only " + ", ".join(f"{a.value} {c}/{cells}"
                                        for a, c in restart_only.items())
            + "; pairings " + ", ".join(f"{k} {c}/{cells}" for k, c in pairing.items()))
    assert ok, (pairing, restart_only)
    assert _readme_cycle_counts(cycle) == {
        **{a: (c, cells) for a, c in restart_only.items()},
        **{k: (c, cells) for k, c in pairing.items()}}


# Criterion 9's family: the convection-diffusion operator of an m x m grid
# for each (beta, gamma).
CD_SIZES = (10, 20, 30)
CD_PARAMS = ((0.5, 0.5), (2.0, 0.0), (5.0, 5.0), (0.9, 3.0))


def test_criterion_9_second_family():
    """The paper's claim on a second family, 2-D convection-diffusion with
    b = A 1: under ST2(20) every pairing converges on all 12 (m, beta,
    gamma) cells with max |x - 1| <= 1e-8, every solo run fails, and
    restarting any single algorithm converges on fewer cells, at the
    harness's budgets (100n switching, 5n solo) and seeds."""
    pairings = tuple(SwitchTemplate(ST2(20), PAPER_COMBOS[k]) for k in sorted(PAPER_COMBOS))
    restarts = tuple(SwitchTemplate(ST2(20), (algo,)) for algo in AlgoId)
    combos = pairings + tuple(AlgoId) + restarts
    # run_cell reads the config's tolerance, seed and budget, not its problem.
    cfg = ExperimentConfig(problem="convection-diffusion", algorithms=combos, tol=TOL,
                           seed=DEFAULT_SEED)
    converged = [0] * len(combos)
    worst = 0.0
    for m in CD_SIZES:
        for beta, gamma in CD_PARAMS:
            inst = convection_diffusion(m, beta, gamma)
            for index, combo in enumerate(combos):
                rec, _ = run_cell(inst, combo, cfg, index)
                converged[index] += rec.outcome == "Converged"
                if index < len(pairings):
                    worst = max(worst, np.max(np.abs(rec.x - 1.0)))
    cells = len(CD_SIZES) * len(CD_PARAMS)
    pairing = converged[:len(pairings)]
    solo = converged[len(pairings):len(pairings) + len(AlgoId)]
    restart_only = converged[len(pairings) + len(AlgoId):]
    ok = (all(c == cells for c in pairing) and worst <= 1e-8 and not any(solo)
          and all(c < cells for c in restart_only))
    _report("criterion 9 (second family)", ok,
            f"pairings {sum(pairing)}/{len(pairing) * cells} (max |x - 1| {worst:.1e}), "
            f"solo {sum(solo)}/{len(solo) * cells}, restart-only "
            + ", ".join(f"{a.value} {c}/{cells}" for a, c in zip(AlgoId, restart_only)))
    assert ok, (pairing, worst, solo, restart_only)


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
            st = init(algo, A, b, np.zeros(8), b, SolverConfig(tol=TOL, max_iters=100))
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
            st = init(algo, A, b, np.zeros(8), b, SolverConfig(tol=TOL, max_iters=100))
            run(st, 10)
            if (st.outcome.kind, st.k, st.outcome.label) != (
                    OutcomeKind.BREAKDOWN, 0, EXACT_BREAKDOWN_LABELS[algo]):
                wrong.append((systems, algo.value, st.outcome, st.k))
    _report("criterion 10, exact breakdowns", not wrong,
            "every algorithm breaks down at k = 0 where (y, A r0) = 0")
    assert not wrong, wrong
