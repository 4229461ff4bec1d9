"""Command-line front end for solo and switching runs on one problem, and
their report."""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
from typing import List, Optional, Tuple, Union

from .harness import (
    DEFAULT_SEED,
    SOLO_BUDGET_PER_N,
    SWITCH_BUDGET_PER_N,
    Combo,
    SwitchTemplate,
    run_experiment,
)
from .problems import BaheuxSpec, gen_baheux, read_matrix_market
from .solvers import AlgoId, SolverConfig
from .switching import ST1, ST2, ST3, RunRecord


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Exit code 1 on usage errors instead of argparse's default 2.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="lanswitch",
                description="Lanczos-type solvers with breakdown-avoiding switching")
    p.add_argument("--problem", default="baheux",
                   help="'baheux' or 'mm:<path>' for a MatrixMarket file")
    p.add_argument("--n", type=int, default=100,
                   help="dimension for the generated problem (multiple of 10)")
    p.add_argument("--delta", type=float, default=0.0,
                   help="skew of the generated problem")
    p.add_argument("--solo", default=None,
                   help="comma list of algorithms to run individually "
                        f"({', '.join(a.value.lower() for a in AlgoId)})")
    p.add_argument("--switch", choices=["st1", "st2", "st3"], default=None,
                   help="switching strategy to run over --pool")
    p.add_argument("--pool", default=None, help="comma list of pool algorithms")
    p.add_argument("--start", default=None, help="starting algorithm for switching")
    p.add_argument("--cycle", type=int, default=None,
                   help=f"ST2 cycle length (default {ST2.cycle_len}; needs --switch st2)")
    p.add_argument("--monitor-threshold", type=float, default=None,
                   help=f"ST3 threshold relative to a guard's scale (default "
                        f"{ST3.monitor_threshold:g}; needs --switch st3)")
    p.add_argument("--tol", type=float, default=SolverConfig.tol,
                   help="residual-norm convergence tolerance")
    p.add_argument("--budget", type=int, default=None,
                   help=f"iteration budget (default {SOLO_BUDGET_PER_N}n solo, "
                        f"{SWITCH_BUDGET_PER_N}n switching)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for the coin-toss selection")
    p.add_argument("--repeats", type=int, default=1,
                   help="timing repetitions; the median is reported")
    p.add_argument("--format", choices=["csv", "md"], default="csv")
    p.add_argument("--out", default=None, help="write the report to this path")
    return p


def _parse_algos(text: str) -> List[AlgoId]:
    return [AlgoId.parse(part) for part in text.split(",") if part.strip()]


def _config_from_args(args) -> Tuple[Union[BaheuxSpec, str], List[Combo]]:
    """The problem (a spec or a MatrixMarket path) and the combos to run."""
    if args.problem == "baheux":
        problem = BaheuxSpec(n=args.n, delta=args.delta)
    elif args.problem.startswith("mm:"):
        problem = args.problem[3:]
        if not problem:
            raise _UsageError("empty path in mm:<path>")
    else:
        raise _UsageError(f"unknown problem {args.problem!r}")

    # A strategy's own flag without that strategy would be ignored.
    for flag, value, switch in (("--cycle", args.cycle, "st2"),
                                ("--monitor-threshold", args.monitor_threshold, "st3")):
        if value is not None and args.switch != switch:
            raise _UsageError(f"{flag} requires --switch {switch}")
    combos = []
    if args.solo:
        combos.extend(_parse_algos(args.solo))
        # A repeated algorithm would run twice and fill one column twice.
        if len(set(combos)) < len(combos):
            raise _UsageError("--solo entries must be distinct")
    if args.switch:
        if not args.pool:
            raise _UsageError("--switch requires --pool")
        pool = tuple(_parse_algos(args.pool))
        if args.switch == "st1":
            strategy = ST1()
        elif args.switch == "st2":
            strategy = ST2() if args.cycle is None else ST2(cycle_len=args.cycle)
        else:
            strategy = (ST3() if args.monitor_threshold is None
                        else ST3(monitor_threshold=args.monitor_threshold))
        start = AlgoId.parse(args.start) if args.start else None
        combos.append(SwitchTemplate(strategy=strategy, pool=pool, start=start))
    else:
        for flag, value in (("--pool", args.pool), ("--start", args.start)):
            if value is not None:
                raise _UsageError(f"{flag} requires --switch")
    if not combos:
        raise _UsageError("nothing to run: give --solo and/or --switch")

    return problem, combos


CSV_COLUMNS = ("n", "delta", "combo", "outcome", "residual",
               "iterations", "switches", "restarts", "seconds")


def _sci(value: float) -> str:
    return f"{value:.4e}"


def emit_table(records: List[RunRecord], delta: float, format: str) -> str:
    """One problem's records as CSV, one row per record, or as a paper-shaped
    markdown table, one row with a (residual, T(s)) column pair per record.
    ``delta`` is the generated problem's, NaN for a MatrixMarket file."""
    if format == "csv":
        rows = [CSV_COLUMNS] + [
            (str(r.n), _sci(delta), r.combo, r.outcome, _sci(r.residual),
             str(r.iterations), str(r.switches), str(r.restarts), _sci(r.seconds))
            for r in records]
        return "".join(",".join(row) + "\n" for row in rows)
    header, row = ["n"], [str(records[0].n)]
    for r in records:
        header += [f"{r.combo} residual", f"{r.combo} T(s)"]
        row += [_sci(r.residual), _sci(r.seconds)]
    title = "### external problem" if math.isnan(delta) else f"### delta = {delta:g}"
    return "\n".join([title, "| " + " | ".join(header) + " |", "|" + "---|" * len(header),
                      "| " + " | ".join(row) + " |", ""])


def _write_report(path: str, report: str) -> None:
    """Write ``report`` to ``path`` so that a failed write leaves an existing
    file as it was: into a file beside it, renamed over it once complete. A
    path that exists but is not a regular file, such as a device or a pipe,
    is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(report)
        return
    # Through a symbolic link to the file it names, as a plain write goes.
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    fh = open(tmp, "w", encoding="ascii")
    try:
        with fh:
            if os.path.exists(target):
                # The new report keeps the permission bits of the old one.
                shutil.copymode(target, tmp)
            fh.write(report)
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def cli_main(argv: Optional[List[str]] = None) -> int:
    """Parse flags, run the experiment, write the report.

    Exit code 0 when every run converged with ||b - A x|| within ``--tol``,
    2 when any did not, 1 on usage or configuration errors. A solo run's
    Converged is the recurrence's claim, so its residual may lie above the
    tolerance; the exit code does not take that claim on trust.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        problem, combos = _config_from_args(args)
        options = dict(seed=args.seed, tol=args.tol, budget=args.budget,
                       repeats=args.repeats)
        # No instances: the values are checked, before the problem is read,
        # and nothing is solved.
        run_experiment({}, combos, **options)
        if args.out:
            # Fail before any solve if the report cannot be written. Mode "a"
            # keeps an existing file as it is until the report is ready, and
            # a file made only for this check goes again.
            existed = os.path.exists(args.out)
            open(args.out, "a").close()
            if not existed:
                os.remove(args.out)
    except (_UsageError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    try:
        if isinstance(problem, BaheuxSpec):
            inst, delta = gen_baheux(problem), problem.delta
        else:
            inst, delta = read_matrix_market(problem), math.nan
        records = list(run_experiment({problem: inst}, combos, **options).values())
        report = emit_table(records, delta, args.format)
        if args.out:
            _write_report(args.out, report)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if not args.out:
        sys.stdout.write(report)

    if all(r.outcome == "Converged" and r.residual <= args.tol for r in records):
        return 0
    return 2


def console_entry() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    console_entry()
