"""lanswitch benchmark: closed-loop solves of the paper's switching workloads.

Run from the repository root:

    python3 perfbench/run.py --workload paper-st2 --seed 42 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` times solves untraced for about ``--seconds`` seconds and
reports the end-to-end metrics; ``--trace 1`` runs pass 0 of the workload
untraced and traced in turn, checks that tracing changed no solve, and
reports the per-layer metrics. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; metric names
and units are the ones BENCHMARK.json declares. One client, one solve at a
time, one process per workload.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEFAULT_SEED = 42
MIN_REPEATS = 3
TICK_EVERY = 4
SETUP_EVERY = 8


def _import_package():
    """Pin every BLAS/OpenMP runtime to one thread, then import lanswitch from
    this checkout's src/, never from elsewhere."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    try:
        import lanswitch
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import lanswitch from {SRC}: {exc}")
    if not os.path.abspath(lanswitch.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: lanswitch resolved to {lanswitch.__file__}, outside {SRC}")
    return lanswitch


def read_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        sys.exit(f"perfbench: cannot read {path}: {exc}")


# ---------------------------------------------------------------------------
# Environment block
# ---------------------------------------------------------------------------


def _first_line(path: str, prefix: str = "") -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line[len(prefix):].strip().lstrip(":").strip()
    except OSError:
        pass
    return "unknown"


def _llc() -> str:
    best = (0, "unknown")
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        level = _first_line(os.path.join(index, "level"))
        if level.isdigit() and int(level) > best[0]:
            best = (int(level), f"L{level} {_first_line(os.path.join(index, 'size'))}")
    return best[1]


def _git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def environment(args) -> Dict[str, object]:
    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpu": _first_line("/proc/cpuinfo", "model name"), "llc": _llc(),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_sha": _git_sha(), "src_lines": _src_lines(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "load": "closed loop, 1 client, 1 process",
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of the sampled distribution.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics. Sample
    times cluster by problem size, and the plain sample median of a grid
    can fall in the gap between two clusters, where it jumps with the seed;
    the weighted mean moves smoothly.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 50 * n + 1)
    log_pdf = np.full(grid.size, -np.inf)
    inner = grid[1:-1]
    log_pdf[1:-1] = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def untraced_run(wl, seed: int, seconds: float, mm_dir: str):
    """Time every sample of the workload at least MIN_REPEATS times.

    A sample is one cell at one pass number, for the workload's number of
    passes. Each repeat solves every sample once, in a fresh seeded order;
    repeats continue while the next one still fits in ``seconds``.

    The yardstick kernel is timed between every TICK_EVERY solves, and each
    solve is divided by the mean of the two kernel times around its group:
    a slow spell of the shared host, which can last a whole run, scales
    both alike. A sample's time is the median of its repeats so divided,
    times yardstick.NOMINAL_S. A set-up is timed every SETUP_EVERY groups,
    divided the same way, and setup_s is the median of them.
    """
    import workloads as W
    import yardstick
    from tracer import BenchError

    if wl.from_files:
        W.write_files(wl, mm_dir)
    cells = W.cells_of(wl)
    verifier = W.Verifier()
    instances = W.build(wl, mm_dir)
    passes = wl.passes
    samples = [(cell, p) for p in range(passes) for cell in cells]
    plans = [W.plan_for(c, seed, p, wl.budget_per_n * c.key[0]) for c, p in samples]
    # Warm-up: the four pairings of the first instance and the yardstick, untimed.
    for i in range(4):
        W.solve(instances[samples[i][0].key], plans[i], verifier)
    yardstick.tick()

    order = random.Random(seed)
    scaled = [[] for _ in samples]
    fastest = [math.inf] * len(samples)
    counts = [None] * len(samples)
    setup, ticks, solves = [], [], []
    start = time.perf_counter()
    repeats = 0
    before = yardstick.tick()
    while True:
        t_repeat = time.perf_counter()
        perm = order.sample(range(len(samples)), len(samples))
        for g in range(0, len(perm), TICK_EVERY):
            if g % (TICK_EVERY * SETUP_EVERY) == 0:
                t0 = time.perf_counter()
                W.build(wl, mm_dir)
                t_setup = time.perf_counter() - t0
                after = yardstick.tick()
                setup.append(2 * t_setup / (before + after))
                before = after
            group = perm[g:g + TICK_EVERY]
            done = [W.solve(instances[samples[i][0].key], plans[i], verifier) for i in group]
            after = yardstick.tick()
            scale = 2 / (before + after)
            for i, s in zip(group, done):
                if counts[i] is None:
                    counts[i] = s.counts
                elif counts[i] != s.counts:
                    raise BenchError(f"repeats of sample {i} disagree: {counts[i]} then {s.counts}")
                scaled[i].append(s.seconds * scale)
                fastest[i] = min(fastest[i], s.seconds)
            solves += done
            ticks.append(after)
            before = after
        repeats += 1
        now = time.perf_counter()
        if repeats >= MIN_REPEATS and now - start + (now - t_repeat) > seconds:
            break

    times = [statistics.median(r) * yardstick.NOMINAL_S for r in scaled]
    verified = sum(s.verified for s in solves)
    p90 = hd_quantile(times, 0.9)
    print(f"# {len(solves)} solves: {repeats} repeats of {len(samples)} samples "
          f"({len(cells)} cells x {passes} passes); {sum(t > p90 for t in times)} samples "
          f"beyond p90; {len(solves) - verified} failed; {len(setup)} set-ups")
    print(f"# yardstick: {len(ticks)} ticks, median {statistics.median(ticks) * 1e3:.4g} ms, "
          f"fastest {min(ticks) * 1e3:.4g} ms, nominal {yardstick.NOMINAL_S * 1e3:g} ms; "
          f"wall-clock fastest repeats, not divided: {verified / repeats / sum(fastest):.4g} "
          f"solves/s, p50 {hd_quantile(fastest, 0.5) * 1e3:.4g} ms, "
          f"p90 {hd_quantile(fastest, 0.9) * 1e3:.4g} ms")
    metrics = {
        "solves_per_s": verified / repeats / sum(times),
        "solve_ms_p50": hd_quantile(times, 0.5) * 1e3,
        "solve_ms_p90": p90 * 1e3,
        "converged_frac": verified / len(solves),
        "setup_s": statistics.median(setup) * yardstick.NOMINAL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return solves, metrics


def traced_run(wl, seed: int, seconds: float, mm_dir: str):
    """Pass 0 untraced and traced in turn (at least one pair, until >= seconds),
    plus the microbenchmarks on the workload's operand."""
    import micro
    import workloads as W
    from tracer import BenchError, Tracer, check_fired

    if wl.from_files:
        W.write_files(wl, mm_dir)
    instances = W.build(wl, mm_dir)
    cells = W.cells_of(wl)
    verifier = W.Verifier()
    micro_metrics = micro.measure(wl.operand_n, seed, mm_dir)

    tracer = Tracer()
    plain_s, traced_s, solves = [], [], []
    reference = None
    start = time.perf_counter()
    while not plain_s or time.perf_counter() - start < seconds:
        plain = W.run_pass(wl, cells, instances, seed, 0, verifier)
        with tracer:
            traced = W.run_pass(wl, cells, instances, seed, 0, verifier)
        if reference is None:
            reference = [s.counts for s in plain]
        for i, (a, b) in enumerate(zip(plain, traced)):
            if not (a.counts == b.counts == reference[i]):
                raise BenchError(f"cell {i}: untraced {a.counts}, traced {b.counts}, "
                                 f"first pass {reference[i]}; tracing changed the program")
        plain_s.append(sum(s.seconds for s in plain))
        traced_s.append(sum(s.seconds for s in traced))
        solves += plain + traced
    check_fired(tracer, wl.monitors)
    pairs = len(plain_s)
    print(f"# {pairs} untraced/traced pass pairs of {len(cells)} cells; per-cell outcome, "
          f"iterations, switches and restarts identical in every pass")

    L = tracer.layer
    iters = sum(r[1] for r in reference) * pairs
    nsolves = len(cells) * pairs
    solve_s = L("switching.run_switching").total_s
    m: Dict[str, float] = {}
    for name in ("linalg.matvec", "linalg.matvec_t", "linalg.dot", "linalg.norm2"):
        s = L(name)
        m[f"{name}.us"] = s.total_s / s.calls * 1e6
        m[f"{name}.share"] = s.total_s / solve_s
        m[f"{name}.calls_per_iter"] = s.calls / iters
    for name in ("solvers.step", "solvers.init", "solvers.denominator_report",
                 "switching.select_next"):
        m[f"{name}.calls_per_iter"] = L(name).calls / iters
    m["solvers.step.self_share"] = L("solvers.step").self_s / solve_s
    m["solvers.init.share"] = L("solvers.init").total_s / solve_s
    m["solvers.denominator_report.share"] = L("solvers.denominator_report").total_s / solve_s
    init = L("solvers.init")
    m["solvers.init.useful_frac"] = (init.calls - init.breakdowns) / init.calls
    m["switching.run_switching.self_share"] = L("switching.run_switching").self_s / solve_s
    m["switching.us_per_iter"] = sum(plain_s) / iters * 1e6
    m["switching.iters_per_solve"] = iters / nsolves
    m["switching.switches_per_solve"] = sum(r[2] for r in reference) * pairs / nsolves
    m["switching.restarts_per_solve"] = sum(r[3] for r in reference) * pairs / nsolves
    m["switching.breakdowns_per_solve"] = (L("solvers.step").breakdowns + init.breakdowns) / nsolves
    m["tracing.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1
    m.update(micro_metrics)
    kib = micro_metrics["linalg.matvec.bytes_computed"] / 1024
    print(f"# matvec operand n={wl.operand_n}: {micro_metrics['linalg.matvec.flops_computed']:.0f} "
          f"flop and {kib:.0f} KiB per call, both computed from array sizes; no bandwidth "
          f"ratio is claimed (compare the KiB with the llc in the env line)")
    return solves, m


def run_one(args, spec: dict) -> int:
    import workloads as W
    from tracer import BenchError

    wl = W.WORKLOADS[args.workload]
    env = environment(args)
    print("# env " + json.dumps(env))
    print(f"# workload {wl.name}: {wl.why}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    scratch_root = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch_root, exist_ok=True)
    mm_dir = tempfile.mkdtemp(prefix="perfbench-", dir=scratch_root)
    try:
        runner = traced_run if args.trace else untraced_run
        solves, metrics = runner(wl, args.seed, args.seconds, mm_dir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(mm_dir, ignore_errors=True)

    names = [d["name"] for d in declared]
    if sorted(names) != sorted(metrics):
        print(f"perfbench: computed metrics {sorted(metrics)} differ from BENCHMARK.json "
              f"{sorted(names)}", file=sys.stderr)
        return 1
    wrong = sum(s.wrong for s in solves)
    result = {
        "correct": wrong == 0,
        "attempted": len(solves),
        "failed": sum(not s.verified for s in solves),
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }
    for d in declared:
        print(f"{d['name']:<40} {metrics[d['name']]:>14.6g} {d['unit']}")
    print(f"# fail_frac = failed / attempted = {result['failed']} / {result['attempted']} "
          f"= {result['failed'] / result['attempted']:.4g}")
    if wrong:
        print(f"# {wrong} solves claimed Converged but failed the recomputed checks")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    import workloads as W

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit so that the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = read_spec()
    _import_package()
    import workloads as W

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *W.WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # Part of the calling convention every run of the benchmark uses, which
    # always passes it; the default is BENCHMARK.json's run_seconds.
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
