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
    run_experiment,
)
from lanswitch.linalg import norm2
from lanswitch.problems import BaheuxSpec, gen_baheux
from lanswitch.solvers import AlgoId, OutcomeKind, SolverConfig, init, run
from lanswitch.switching import ST1, ST2, CoinToss, SelectionPolicy, SwitchPlan, run_switching
from oracles import direct_solve_oracle, from_dense, lanczos_iterate, norm_inf
from test_readme import README

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

    def check(state, where):
        nonlocal checked
        gap = norm2(state.r - (state.b - state.A.matvec(state.x)))
        bound = 1e-10 * (norm2(state.b) + norm_inf(state.A) * norm2(state.x))
        checked += 1
        if gap > bound:
            identity_violations.append((where, gap, bound))
        if state.algo is AlgoId.A4 and abs(state.last_normalization - 1.0) > 1e-14:
            normalization_violations.append((where, state.last_normalization))

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
                out = st.step()
                if out.kind in (OutcomeKind.CONTINUE, OutcomeKind.CONVERGED):
                    check(st, (algo.value, trial, st.k))
            r_fresh = b - A.matvec(st.x)
            if norm2(r_fresh) <= TOL:
                continue
            st2 = init(next_algo, A, b, st.x, r_fresh, SolverConfig(max_iters=100))
            for _ in range(3):
                if st2.outcome.is_terminal:
                    break
                out = st2.step()
                if out.kind in (OutcomeKind.CONTINUE, OutcomeKind.CONVERGED):
                    check(st2, (next_algo.value, trial, "post-handoff", st2.k))

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
