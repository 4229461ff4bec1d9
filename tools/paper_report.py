"""Print the README's result tables from the paper grid, and check the README.

Run from the repository root:

    python3 tools/paper_report.py

Every table comes from ``lanswitch.harness.run_experiment`` on the paper's 40
Baheux problems (``harness.paper_instances``), or on the 12
convection-diffusion problems of acceptance criterion 9 where it says so,
at the harness's tolerance, budgets per n and seed unless a column names
another seed:

- solo: the cells each algorithm converges on alone, and the fewest and
  most iterations it had run when it broke down;
- ST1 starts: cells and iterations of each pairing under ST1 from its
  default start and, where that is not its pool's first member, from the
  first member;
- the ST3 sweep: iterations (switches + restarts) summed over the pairings'
  160 cells at each monitor threshold and under ST2(20), at four seeds;
- switching against restarting: the cells each pairing, and each algorithm
  restarted alone, converges on under ST2 at cycles 5-60 and under ST3;
- the second family: the convection-diffusion cells each algorithm
  restarted alone, and each pairing, converges on under ST2(20), and the
  longest converged run.

The tables are printed in that order. The tool exits 1 when the README
does not hold one of them verbatim, naming the header of each such table
on standard error, and 0 otherwise. The ST3 sweep solves 40 grids of 160
cells; the whole report takes about 35 s on a 2-core x86-64 host.
"""

from __future__ import annotations

import os
import re
import statistics
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
sys.path.insert(0, os.path.join(ROOT, "src"))

from lanswitch.harness import (  # noqa: E402
    DEFAULT_SEED,
    PAPER_COMBOS,
    SwitchTemplate,
    paper_instances,
    run_experiment,
)
from lanswitch.linalg import SparseMatrix  # noqa: E402
from lanswitch.problems import ProblemInstance  # noqa: E402
from lanswitch.solvers import AlgoId  # noqa: E402
from lanswitch.switching import ST1, ST2, ST3  # noqa: E402

SOLO = tuple(AlgoId)
CYCLES = (5, 10, 20, 30, 40, 60)
SWEEP_EXPONENTS = range(3, 12)  # ST3 thresholds 1e-3 to 1e-11
SWEEP_SEEDS = (DEFAULT_SEED, 7, 101, 2024)
# The second family: the convection-diffusion operator of an m x m grid for
# each (beta, gamma), b = A 1.
CD_SIZES = (10, 20, 30)
CD_PARAMS = ((0.5, 0.5), (2.0, 0.0), (5.0, 5.0), (0.9, 3.0))


def convection_diffusion(m, beta, gamma):
    """The 5-point convection-diffusion operator of an m x m grid, b = A 1.

    Node (i, j) is unknown i m + j. Its row holds 4 on the diagonal,
    -1 - beta and -1 + beta for its left and right neighbours (j - 1 and
    j + 1), and -1 - gamma and -1 + gamma for those below and above (i - 1
    and i + 1); a neighbour outside the grid is dropped. Saad, *Iterative
    Methods for Sparse Linear Systems*, 2nd ed., ch. 2.
    """
    i, j = np.divmod(np.arange(m * m), m)
    rows, cols, vals = [], [], []
    for di, dj, value in ((0, 0, 4.0), (0, -1, -1.0 - beta), (0, 1, -1.0 + beta),
                          (-1, 0, -1.0 - gamma), (1, 0, -1.0 + gamma)):
        ni, nj = i + di, j + dj
        inside = (ni >= 0) & (ni < m) & (nj >= 0) & (nj < m)
        rows.append(np.flatnonzero(inside))
        cols.append((ni * m + nj)[inside])
        vals.append(np.full(rows[-1].size, value))
    A = SparseMatrix.from_coo(m * m, np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(vals))
    return ProblemInstance(A=A, b=A.matvec(np.ones(m * m)))


def second_family_instances():
    """The 12 convection-diffusion problems, keyed (m, beta, gamma)."""
    return {(m, beta, gamma): convection_diffusion(m, beta, gamma)
            for m in CD_SIZES for beta, gamma in CD_PARAMS}


def pairings(strategy, first_member=False):
    """The paper pairings under ``strategy``, in ``PAPER_COMBOS`` order, each
    from its default start or, with ``first_member``, from its pool's first
    member."""
    return tuple(SwitchTemplate(strategy, pool, pool[0] if first_member else None)
                 for pool in PAPER_COMBOS.values())


def versus_restarting(strategy):
    """The pairings, then each algorithm alone in a one-member pool, which
    restarts it at every handoff."""
    return pairings(strategy) + tuple(SwitchTemplate(strategy, (algo,)) for algo in AlgoId)


def _name(algo):
    return algo.value.replace("B", "/B")  # A5B10 -> A5/B10


def _pairing(number):
    return f"{number}: " + " + ".join(_name(algo) for algo in PAPER_COMBOS[number])


def _records(grid, position):
    return [rec for (_, pos), rec in grid.items() if pos == position]


def _converged(grid, position):
    records = _records(grid, position)
    return f"{sum(rec.outcome == 'Converged' for rec in records)}/{len(records)}"


def markdown(rows):
    """A markdown table, the first row its header."""
    lines = ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join([lines[0], "|" + "---|" * len(rows[0])] + lines[1:])


def solo_table(grid):
    """From the grid of ``SOLO``."""
    rows = [("run", "cells converged", "iterations at the breakdown")]
    for position, algo in enumerate(SOLO):
        spent = [rec.iterations for rec in _records(grid, position)
                 if rec.outcome == "Breakdown"]
        rows.append((f"{_name(algo)}, solo", _converged(grid, position),
                     f"{min(spent)}–{max(spent)}"))
    return markdown(rows)


def st1_table(default, first_member):
    """From the grids of ``pairings(ST1())`` and of its first-member starts."""
    rows = [("pairing under ST1", "start", "cells converged", "iterations, all cells")]
    for position, number in enumerate(PAPER_COMBOS):
        # One row when the default start is the first member: both grids
        # then solve the same plans.
        starts = {pairings(ST1())[position].resolve_start(): default,
                  PAPER_COMBOS[number][0]: first_member}
        for start, grid in starts.items():
            rows.append((_pairing(number), _name(start), _converged(grid, position),
                         f"{sum(rec.iterations for rec in _records(grid, position)):,}"))
    return markdown(rows)


def _versus_rows(cells):
    """The rows of a ``versus_restarting`` grid: each algorithm restarted
    alone, then each pairing, labelled and followed by ``cells(position)``."""
    rows = [(f"{_name(algo)}, restart only", *cells(position))
            for position, algo in enumerate(AlgoId, start=len(PAPER_COMBOS))]
    return rows + [(_pairing(number), *cells(position))
                   for position, number in enumerate(PAPER_COMBOS)]


def restart_table(columns):
    """From ``{column header: grid of versus_restarting(strategy)}``."""
    return markdown([("run", *columns)] + _versus_rows(
        lambda position: [_converged(grid, position) for grid in columns.values()]))


def second_family_table(grid):
    """From the convection-diffusion grid of ``versus_restarting(ST2(20))``."""
    def cells(position):
        spent = [rec.iterations for rec in _records(grid, position)
                 if rec.outcome == "Converged"]
        return _converged(grid, position), f"{max(spent):,}" if spent else "–"

    return markdown([("run, convection–diffusion, ST2(20)", "cells converged",
                      "longest converged run")] + _versus_rows(cells))


def sweep_table(grid):
    """From ``grid(combos, seed)``, the records of ``combos`` at ``seed``."""
    rows = [("threshold", *(f"seed {seed}" for seed in SWEEP_SEEDS),
             f"median per run, seed {SWEEP_SEEDS[0]}")]
    strategies = {f"1e-{e}": ST3(float(f"1e-{e}")) for e in SWEEP_EXPONENTS}
    strategies["ST2(20)"] = ST2(20)
    for label, strategy in strategies.items():
        runs = [list(grid(pairings(strategy), seed).values()) for seed in SWEEP_SEEDS]
        rows.append((f"**{label}**" if strategy == ST3() else label,
                     *(f"{sum(r.iterations for r in records):,} "
                       f"({sum(r.switches for r in records):,} + "
                       f"{sum(r.restarts for r in records):,})" for records in runs),
                     f"{statistics.median(r.switches for r in runs[0]):g} + "
                     f"{statistics.median(r.restarts for r in runs[0]):g}"))
    return markdown(rows)


def readme_tables():
    """Every markdown table of the README, as text."""
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^\|.*\|(?:\n\|.*\|)*$", fh.read(), re.M)


def columns(table, headers):
    """``table`` cut to its first column and the columns named in ``headers``."""
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.splitlines()]
    keep = [0] + [i for i, header in enumerate(rows[0]) if header in headers]
    return markdown([[row[i] for i in keep] for row in rows[:1] + rows[2:]])


def report(grid, second_family):
    """Every README result table, in README order, from ``grid(combos, seed)``
    on the Baheux problems and ``second_family(combos)`` on the
    convection-diffusion ones."""
    strategies = {f"cycle {c}": ST2(c) for c in CYCLES}
    strategies["ST3"] = ST3()
    return [
        solo_table(grid(SOLO, DEFAULT_SEED)),
        st1_table(grid(pairings(ST1()), DEFAULT_SEED),
                  grid(pairings(ST1(), first_member=True), DEFAULT_SEED)),
        sweep_table(grid),
        restart_table({header: grid(versus_restarting(strategy), DEFAULT_SEED)
                       for header, strategy in strategies.items()}),
        second_family_table(second_family(versus_restarting(ST2(20)))),
    ]


def main() -> int:
    instances = paper_instances()
    second = second_family_instances()
    tables = report(lambda combos, seed: run_experiment(instances, combos, seed),
                    lambda combos: run_experiment(second, combos))
    held = readme_tables()
    stale = 0
    for table in tables:
        print(table, end="\n\n")
        if table not in held:
            print(f"README.md does not hold the table {table.splitlines()[0]}",
                  file=sys.stderr)
            stale += 1
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
