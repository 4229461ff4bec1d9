"""Fingerprint switching solves so that two checkouts can be compared bitwise.

Run from the repository root of each checkout and diff the outputs:

    python3 tools/fingerprint.py --seed 42 --random 1500 > fp.txt

One line per solve: a label, then the outcome, iterations, switches,
restarts, the record residual (as ``float.hex``), a hash of the bytes of the
final iterate and a hash of every trace event (kind, iteration, algorithms
and the event residual as ``float.hex``). The solves are every cell of the
benchmark's ``paper-st2`` and ``event-switch`` workloads for passes 0 and 1
at ``--seed`` (taken from ``perfbench/workloads.py``, so the plans are
exactly the ones the benchmark times), followed by ``--random`` random small
systems under random plans, drawn from the fixed seed 0: the property
test's Gaussian, sparse, ill-conditioned and Baheux matrices
(``tests/random_systems.py``) with n <= 24, every pool, selection mode,
strategy and ``shadow_restart`` value, budgets 1-5000 and random x0 and y. A solve that raises prints the exception class instead of the
fields. Warnings that escape a solve are counted and reported on standard
error, outside the fingerprint lines.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import warnings

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import workloads as W  # noqa: E402
from lanswitch.solvers import AlgoId, SolverConfig  # noqa: E402
from lanswitch.switching import (  # noqa: E402
    ST1,
    ST2,
    ST3,
    CoinToss,
    Fixed,
    RoundRobin,
    SelectionPolicy,
    SwitchPlan,
    run_switching,
)
from random_systems import KINDS, random_system  # noqa: E402

PASSES = 2
RANDOM_SEED = 0


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def fingerprint(A, b, x0, y, plan) -> str:
    try:
        rec, trace = run_switching(A, b, x0, y, plan)
    except Exception as exc:  # a raised solve is part of the fingerprint
        return f"raised {type(exc).__name__}"
    events = _digest(f"{e.kind.value} {e.at_iteration} {e.from_algo} {e.to_algo} "
                     f"{float(e.residual_norm).hex()}" for e in trace.events)
    return (f"{rec.outcome} {rec.iterations} {rec.switches} {rec.restarts} "
            f"{float(rec.residual).hex()} x:{_digest([rec.x.tobytes()])} ev:{events}")


def workload_solves(name: str, seed: int):
    wl = W.WORKLOADS[name]
    instances = W.build(wl, None)
    for pass_no in range(PASSES):
        for c in W.cells_of(wl):
            inst = instances[c.key]
            plan = W.plan_for(c, seed, pass_no, wl.budget_per_n * c.key[0])
            n, delta = c.key
            label = f"{name} p{pass_no} n{n} d{delta:g} {type(c.strategy).__name__} c{c.pairing}"
            yield label, inst.A, inst.b, np.zeros(n), inst.b, plan


def random_solves(count: int):
    algos = list(AlgoId)
    for i in range(count):
        rng = np.random.default_rng([RANDOM_SEED, i])
        kind = str(rng.choice(KINDS))
        A, b = random_system(kind, int(rng.integers(2, 25)), int(rng.integers(0, 2**32)))
        n = A.nrows
        pool = tuple(algos[j] for j in rng.permutation(4)[:int(rng.integers(1, 5))])
        mode = [CoinToss(int(rng.integers(0, 2**31))), RoundRobin(),
                Fixed(pool[int(rng.integers(0, len(pool)))])][int(rng.integers(0, 3))]
        strategy = [ST1(), ST2(int(rng.integers(1, 31))),
                    ST3(float(rng.choice([1e-8, 1e-3, 1e9])),
                        int(rng.integers(1, 5)))][int(rng.integers(0, 3))]
        budget = int(rng.integers(1, 5001))
        plan = SwitchPlan(
            strategy=strategy,
            policy=SelectionPolicy(pool, mode),
            start=pool[int(rng.integers(0, len(pool)))],
            cfg=SolverConfig(tol=float(rng.choice([1e-13, 1e-8])),
                             max_iters=int(rng.integers(1, budget + 1))),
            global_budget=budget,
            shadow_restart=str(rng.choice(["residual", "initial"])),
        )
        x0 = np.zeros(n) if rng.random() < 0.5 else rng.standard_normal(n)
        y = b if rng.random() < 0.5 else rng.standard_normal(n)
        yield f"random {i} {kind} n{n}", A, b, x0, y, plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--random", type=int, default=1500,
                        help="number of random small systems (default 1500)")
    args = parser.parse_args(argv)
    solves = [workload_solves(name, args.seed) for name in ("paper-st2", "event-switch")]
    solves.append(random_solves(args.random))
    leaky = 0
    for group in solves:
        for label, A, b, x0, y, plan in group:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                line = fingerprint(A, b, x0, y, plan)
            leaky += bool(caught)
            print(f"{label}: {line}", flush=True)
    print(f"# solves that let a warning escape: {leaky}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
