"""Command-line front end for solo and switching runs."""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .harness import (
    DEFAULT_SEED,
    ExperimentConfig,
    SwitchTemplate,
    emit_table,
    run_experiment,
)
from .problems import BaheuxSpec
from .solvers import AlgoId, SolverConfig
from .switching import ST1, ST2, ST3


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
                        "(a4, a12, a5b10, a8b10)")
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
                   help="iteration budget (default 5n solo, 100n switching)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for the coin-toss selection")
    p.add_argument("--repeats", type=int, default=1,
                   help="timing repetitions; the median is reported")
    p.add_argument("--format", choices=["csv", "md"], default="csv")
    p.add_argument("--out", default=None, help="write the report to this path")
    return p


def _parse_algos(text: str) -> List[AlgoId]:
    return [AlgoId.parse(part) for part in text.split(",") if part.strip()]


def _config_from_args(args) -> ExperimentConfig:
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

    return ExperimentConfig(
        problem=problem,
        algorithms=tuple(combos),
        tol=args.tol,
        seed=args.seed,
        budget=args.budget,
        repeats=args.repeats,
    )


def cli_main(argv: Optional[List[str]] = None) -> int:
    """Parse flags, run the experiment, write the report.

    Exit code 0 when every run converged, 2 when any did not, 1 on usage or
    configuration errors.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
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
        records = run_experiment(cfg)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    report = emit_table(records, format=args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(report)
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(report)

    if all(r.outcome == "Converged" for r in records):
        return 0
    return 2


def console_entry() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    console_entry()
