import csv
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lanswitch import cli, harness
from lanswitch.cli import _build_parser, cli_main
from lanswitch.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    PAPER_COMBOS,
    SwitchTemplate,
    derive_seed,
    emit_table,
    run_experiment,
)
from lanswitch.problems import BaheuxSpec, gen_baheux, write_matrix_market
from lanswitch.solvers import AlgoId, SolverConfig
from lanswitch.switching import (ST1, ST2, ST3, CoinToss, RunRecord, SelectionPolicy,
                                 SwitchPlan)
from oracles import from_dense


def make_cfg(**kw):
    defaults = dict(
        problem=BaheuxSpec(n=20, delta=0.0),
        algorithms=(SwitchTemplate(ST2(20), PAPER_COMBOS[6]),),
        seed=42,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_requires_algorithms(self):
        with pytest.raises(ValueError):
            make_cfg(algorithms=())

    def test_requires_positive_repeats(self):
        with pytest.raises(ValueError):
            make_cfg(repeats=0)

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError, match="tol"):
            make_cfg(tol=0.0)

    @pytest.mark.parametrize("make", [
        lambda v: ST2(cycle_len=v),
        lambda v: SwitchPlan(ST2(), SelectionPolicy((AlgoId.A4,), CoinToss(0)), AlgoId.A4,
                             SolverConfig(), v),
        lambda v: SolverConfig(max_iters=v),
        lambda v: make_cfg(budget=v),
        lambda v: make_cfg(repeats=v),
    ], ids=["cycle_len", "global_budget", "max_iters", "budget", "repeats"])
    def test_counts_must_be_integers(self, make):
        # A non-integer count used to pass validation, and then a switching
        # run raised TypeError from range() mid-solve (a max_iters of 50.5
        # ran without error). A numpy integer is an integer.
        for value in (2.5, np.float64(20.0), "20"):
            with pytest.raises(ValueError, match="must be an integer"):
                make(value)
        make(np.int64(20))

    def test_combo_labels(self):
        records = run_experiment(make_cfg(algorithms=(
            AlgoId.A4,
            SwitchTemplate(ST2(20), (AlgoId.A4, AlgoId.A12)),
            SwitchTemplate(ST1(), (AlgoId.A5B10,)),
            SwitchTemplate(ST3(), (AlgoId.A4, AlgoId.A8B10)),
        ), budget=40))
        assert [r.combo for r in records] == [
            "A4/solo", "A4+A12/ST2", "A5B10/ST1", "A4+A8B10/ST3"]

    def test_st1_default_start_prefers_a8b10(self):
        tpl = SwitchTemplate(ST1(), (AlgoId.A4, AlgoId.A8B10))
        assert tpl.resolve_start() is AlgoId.A8B10
        tpl2 = SwitchTemplate(ST2(20), (AlgoId.A4, AlgoId.A8B10))
        assert tpl2.resolve_start() is AlgoId.A4

    def test_derive_seed_deterministic_and_distinct(self):
        a = derive_seed(42, 0)
        b = derive_seed(42, 1)
        assert a == derive_seed(42, 0)
        assert a != b


class TestRunExperiment:
    def test_paper_anchor_table1_n20(self):
        records = run_experiment(make_cfg())
        (rec,) = records
        assert rec.outcome == "Converged"
        assert rec.residual <= 1e-13
        assert rec.n == 20
        assert rec.delta == 0.0
        assert rec.combo == "A4+A12/ST2"
        assert math.isfinite(rec.seconds)

    def test_solo_a4_baheux100_not_converged(self):
        # Recorded fixture: A4 alone breaks down well before 5n iterations.
        cfg = make_cfg(problem=BaheuxSpec(n=100, delta=0.2),
                       algorithms=(AlgoId.A4,))
        (rec,) = run_experiment(cfg)
        assert rec.outcome == "Breakdown"
        assert rec.combo == "A4/solo"

    def test_all_four_solo_records(self):
        for n, budget in [(20, None), (100, 5)]:
            cfg = make_cfg(problem=BaheuxSpec(n=n, delta=0.0),
                           algorithms=tuple(AlgoId), budget=budget)
            records = run_experiment(cfg)
            assert [r.combo for r in records] == [
                "A4/solo", "A12/solo", "A5B10/solo", "A8B10/solo"]
            for r in records:
                assert r.outcome in ("Converged", "Breakdown", "IterLimit")
        # A run that spends its budget says so, however much of it the
        # prologue charged.
        assert [(r.outcome, r.iterations) for r in records] == [("IterLimit", 5)] * 4

    def test_batch_determinism(self):
        cfg = make_cfg(problem=BaheuxSpec(n=60, delta=5.0),
                       algorithms=(SwitchTemplate(ST2(20), PAPER_COMBOS[9]),
                                   AlgoId.A8B10),
                       seed=7)
        rec1 = run_experiment(cfg)
        rec2 = run_experiment(cfg)
        for a, b in zip(rec1, rec2):
            assert a.outcome == b.outcome
            assert a.residual == b.residual
            assert a.iterations == b.iterations
            assert a.switches == b.switches
            assert a.restarts == b.restarts
            assert np.array_equal(a.x, b.x)

    def test_repeats_report_median(self):
        cfg = make_cfg(repeats=3)
        (rec,) = run_experiment(cfg)
        assert rec.seconds >= 0.0

    def test_matrix_market_problem(self, tmp_path):
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.0))
        path = tmp_path / "prob.mtx"
        write_matrix_market(str(path), inst.A)
        cfg = make_cfg(problem=str(path))
        (rec,) = run_experiment(cfg)
        assert rec.outcome == "Converged"
        assert math.isnan(rec.delta)

    def test_overflowing_residual_does_not_abort_the_batch(self, tmp_path):
        # b = A 1 is finite, but ||b - A x0|| overflows: the solo row breaks
        # down and the switching row is exhausted, both with residual inf.
        path = tmp_path / "huge.mtx"
        write_matrix_market(str(path), from_dense(np.diag([1e155, 2e155, 3e155])))
        cfg = make_cfg(problem=str(path),
                       algorithms=(AlgoId.A4, SwitchTemplate(ST2(20), (AlgoId.A4, AlgoId.A8B10))))
        solo, switching = run_experiment(cfg)
        assert (solo.outcome, solo.residual) == ("Breakdown", math.inf)
        assert (switching.outcome, switching.residual) == ("Exhausted", math.inf)

    @pytest.mark.parametrize("number", sorted(PAPER_COMBOS))
    def test_paper_pairings_converge_on_200(self, number):
        cfg = make_cfg(problem=BaheuxSpec(n=200, delta=8.0),
                       algorithms=(SwitchTemplate(ST2(20), PAPER_COMBOS[number]),))
        (rec,) = run_experiment(cfg)
        assert rec.outcome == "Converged"
        assert rec.residual <= 1e-13

    def test_timing_coarse_monotonicity(self):
        # Seconds per iteration grow across a quadrupling ladder. Per
        # iteration, because iteration counts do not grow with n (n = 1600
        # takes fewer than n = 800); quadrupling, because on the banded
        # products a doubling of n costs only 10-20% more per iteration.
        # Each rung keeps its fastest of 15 rounds, and every round climbs the
        # whole ladder, so a slow spell of a shared host and the first,
        # cold solve slow a few rounds of each rung rather than one rung.
        # The 100 -> 400 rung has the least room, about 1.35x.
        ladder = (100, 400, 1600)
        per_iter = {n: math.inf for n in ladder}
        for _ in range(15):
            for n in ladder:
                (rec,) = run_experiment(make_cfg(problem=BaheuxSpec(n=n, delta=0.2)))
                assert rec.outcome == "Converged"
                per_iter[n] = min(per_iter[n], rec.seconds / rec.iterations)
        assert list(per_iter.values()) == sorted(per_iter.values())

    def test_extended_dimension_4000(self):
        # Largest published row: n=4000 at delta=8 stays below the tolerance.
        cfg = make_cfg(problem=BaheuxSpec(n=4000, delta=8.0))
        (rec,) = run_experiment(cfg)
        assert rec.outcome == "Converged"
        assert rec.residual <= 1e-13


class TestEmitTable:
    def _records(self):
        cfg = make_cfg(problem=BaheuxSpec(n=20, delta=0.2),
                       algorithms=(SwitchTemplate(ST2(20), PAPER_COMBOS[6]),
                                   SwitchTemplate(ST2(20), PAPER_COMBOS[9])))
        recs = run_experiment(cfg)
        cfg2 = make_cfg(problem=BaheuxSpec(n=40, delta=0.2),
                        algorithms=(SwitchTemplate(ST2(20), PAPER_COMBOS[6]),
                                    SwitchTemplate(ST2(20), PAPER_COMBOS[9])))
        recs += run_experiment(cfg2)
        cfg3 = make_cfg(problem=BaheuxSpec(n=60, delta=0.2),
                        algorithms=(SwitchTemplate(ST2(20), PAPER_COMBOS[6]),
                                    SwitchTemplate(ST2(20), PAPER_COMBOS[9])))
        recs += run_experiment(cfg3)
        return recs

    def test_single_record_csv_shape(self):
        (rec,) = run_experiment(make_cfg())
        text = emit_table([rec], format="csv")
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == "n,delta,combo,outcome,residual,iterations,switches,restarts,seconds"

    def test_csv_round_trip_five_significant_digits(self):
        records = self._records()
        text = emit_table(records, format="csv")
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(records)
        for row, rec in zip(parsed, records):
            assert int(row["n"]) == rec.n
            assert row["combo"] == rec.combo
            assert float(row["residual"]) == float(f"{rec.residual:.4e}")
            assert float(row["seconds"]) == float(f"{rec.seconds:.4e}")
            assert int(row["iterations"]) == rec.iterations

    def test_markdown_shape(self):
        records = self._records()
        text = emit_table(records, format="md")
        lines = [ln for ln in text.split("\n") if ln.startswith("|")]
        # header + separator + 3 dimension rows
        assert len(lines) == 5
        header = lines[0]
        assert header.count("residual") == 2
        assert header.count("T(s)") == 2
        data_rows = lines[2:]
        assert [row.split("|")[1].strip() for row in data_rows] == ["20", "40", "60"]

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            emit_table([], format="csv")

    def test_unknown_format_rejected(self):
        (rec,) = run_experiment(make_cfg())
        with pytest.raises(ValueError):
            emit_table([rec], format="html")

    def test_scientific_rendering(self):
        rec = RunRecord(n=20, delta=0.0, combo="A4+A12/ST2", outcome="Converged",
                        residual=5.5067e-14, iterations=64, switches=2,
                        restarts=1, seconds=0.0012)
        text = emit_table([rec], format="csv")
        assert "5.5067e-14" in text


class TestCli:
    def test_solo_run_exit_codes(self, capsys):
        # A12 alone on n=100 cannot reach 1e-13: exit code 2.
        code = cli_main(["--problem", "baheux", "--n", "100", "--delta", "0.2",
                         "--solo", "a12", "--tol", "1e-13"])
        assert code == 2
        out = capsys.readouterr().out
        assert "A12/solo" in out

    def test_switching_run_exit_zero(self, capsys):
        code = cli_main(["--problem", "baheux", "--n", "100", "--delta", "0.2",
                         "--switch", "st2", "--pool", "a4,a12", "--cycle", "20",
                         "--seed", "42"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Converged" in out

    def test_usage_error_exit_one(self, capsys):
        assert cli_main(["--switch", "st2"]) == 1  # missing --pool
        assert cli_main(["--problem", "nosuch"]) == 1
        assert cli_main(["--unknown-flag"]) == 1
        assert cli_main([]) == 1  # nothing to run

    def test_bad_algorithm_name(self):
        assert cli_main(["--solo", "a99"]) == 1

    def test_nonpositive_tol_and_budget_exit_one(self, capsys):
        assert cli_main(["--n", "20", "--solo", "a4", "--tol", "0"]) == 1
        assert "tol must be positive" in capsys.readouterr().err
        assert cli_main(["--n", "20", "--solo", "a4", "--budget", "0"]) == 1
        assert "budget must be at least 1" in capsys.readouterr().err
        # Rejected before the problem is read: the file does not exist.
        assert cli_main(["--problem", "mm:/nonexistent/x.mtx", "--solo", "a4",
                         "--budget", "0"]) == 1
        assert "budget must be at least 1" in capsys.readouterr().err

    def test_negative_seed_exits_one_before_any_solve(self, capsys):
        assert cli_main(["--n", "20", "--solo", "a4", "--switch", "st2",
                         "--pool", "a4,a12", "--seed", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "seed must be non-negative" in err

    @pytest.mark.parametrize("module", ["lanswitch", "lanswitch.cli"])
    def test_module_entry_points(self, module):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        done = subprocess.run(
            [sys.executable, "-m", module, "--n", "20", "--switch", "st2",
             "--pool", "a4,a12"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_matrix_market_routing(self, tmp_path, capsys):
        inst = gen_baheux(BaheuxSpec(n=20, delta=0.0))
        path = tmp_path / "prob.mtx"
        write_matrix_market(str(path), inst.A)
        code = cli_main(["--problem", f"mm:{path}", "--switch", "st1",
                         "--pool", "a5b10,a8b10"])
        assert code == 0

    @pytest.mark.parametrize("combo, row", [
        (["--solo", "a4"], "A4/solo,Breakdown,inf"),
        (["--switch", "st2", "--pool", "a4,a8b10"], "A4+A8B10/ST2,Exhausted,inf"),
    ])
    def test_overflowing_residual_exit_two(self, tmp_path, capsys, combo, row):
        path = tmp_path / "huge.mtx"
        write_matrix_market(str(path), from_dense(np.diag([1e155, 2e155, 3e155])))
        assert cli_main(["--problem", f"mm:{path}"] + combo) == 2
        header, line = capsys.readouterr().out.splitlines()
        assert f",{row}," in line

    def test_entry_count_mismatch_exit_one(self, tmp_path, capsys):
        path = tmp_path / "long.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 1 2.0\n2 2 3.0\n")
        assert cli_main(["--problem", f"mm:{path}", "--solo", "a4"]) == 1
        assert "more than the declared 1 entries" in capsys.readouterr().err

    def test_defaults_are_the_library_defaults(self):
        # The CLI and the harness read their defaults from the library, so
        # a changed library default cannot leave a stale copy behind. The
        # strategy flags keep no copy at all: unset, the library's apply.
        args = _build_parser().parse_args([])
        assert args.cycle is None and args.monitor_threshold is None
        for switch, strategy in (("st2", ST2()), ("st3", ST3())):
            args = _build_parser().parse_args(["--switch", switch, "--pool", "a4,a12"])
            assert cli._config_from_args(args).algorithms[0].strategy == strategy
        assert args.tol == SolverConfig().tol

    def test_missing_file_exit_one(self):
        assert cli_main(["--problem", "mm:/nonexistent/x.mtx", "--solo", "a4"]) == 1

    def test_output_file_and_markdown(self, tmp_path):
        out = tmp_path / "report.md"
        code = cli_main(["--problem", "baheux", "--n", "20", "--delta", "0",
                         "--switch", "st2", "--pool", "a4,a12",
                         "--format", "md", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("### delta = 0")
        assert "A4+A12/ST2" in text

    def test_unwritable_output_exit_one(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert cli_main(["--n", "20", "--solo", "a4", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_unwritable_output_fails_before_any_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(cfg):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(cli, "run_experiment", no_solve)
        out = tmp_path / "missing" / "x.csv"
        assert cli_main(["--n", "20", "--solo", "a4", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_failed_run_leaves_output_as_it_was(self, tmp_path, monkeypatch):
        # The writability check neither truncates an existing report nor
        # leaves an empty new one behind when the run then fails.
        def failing_solve(cfg):
            raise ValueError("solve failed")

        monkeypatch.setattr(cli, "run_experiment", failing_solve)
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("old report\n")
        for out in (old, new):
            assert cli_main(["--n", "20", "--solo", "a4", "--out", str(out)]) == 1
        assert old.read_text() == "old report\n"
        assert not new.exists()

    @pytest.mark.parametrize("flags, flag", [
        (["--pool", "a4,a12"], "--pool"),
        (["--start", "a12"], "--start"),
        (["--pool", "a4,a12", "--start", "a12"], "--pool"),
    ])
    def test_switch_flags_without_switch_exit_one(self, capsys, flags, flag):
        assert cli_main(["--n", "20", "--solo", "a4"] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize("flags, message", [
        (["--pool", "a4,a4"], "pool entries must be distinct"),
        (["--start", "a12", "--pool", "a4,a8b10"], "start algorithm must be a pool member"),
        (["--pool", ","], "pool must be non-empty"),
    ], ids=["repeated", "start-outside", "empty"])
    def test_bad_pool_or_start_exits_one_before_any_solve(self, capsys, monkeypatch,
                                                          flags, message):
        # The solo cells come first, so a late check would solve them.
        cells, run_cell = [], harness.run_cell
        monkeypatch.setattr(harness, "run_cell",
                            lambda *args: cells.append(args) or run_cell(*args))
        assert cli_main(["--n", "20", "--solo", "a4,a12", "--switch", "st2"] + flags) == 1
        assert cells == []
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--solo", "a4", "--cycle", "5"], "--cycle requires --switch st2"),
        (["--solo", "a4", "--cycle", "5", "--monitor-threshold", "1"],
         "--cycle requires --switch st2"),
        (["--switch", "st1", "--pool", "a4,a12", "--cycle", "5"],
         "--cycle requires --switch st2"),
        (["--switch", "st3", "--pool", "a4,a12", "--cycle", "5"],
         "--cycle requires --switch st2"),
        (["--solo", "a4", "--monitor-threshold", "1"],
         "--monitor-threshold requires --switch st3"),
        (["--switch", "st2", "--pool", "a4,a12", "--monitor-threshold", "1"],
         "--monitor-threshold requires --switch st3"),
    ], ids=["cycle-solo", "both-solo", "cycle-st1", "cycle-st3", "threshold-solo",
            "threshold-st2"])
    def test_strategy_flag_without_its_strategy_exits_one(self, capsys, monkeypatch,
                                                          flags, message):
        # A flag no run would read is an error, found before any solve runs.
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("solve ran"))
        assert cli_main(["--n", "20"] + flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("switch, flags, strategy", [
        ("st2", ["--cycle", "7"], ST2(cycle_len=7)),
        ("st3", ["--monitor-threshold", "1e-5"], ST3(monitor_threshold=1e-5)),
    ])
    def test_strategy_flags_reach_the_strategy(self, switch, flags, strategy):
        args = _build_parser().parse_args(["--switch", switch, "--pool", "a4,a12"] + flags)
        assert cli._config_from_args(args).algorithms[0].strategy == strategy

    def test_st3_flags(self):
        code = cli_main(["--problem", "baheux", "--n", "60", "--delta", "0.2",
                         "--switch", "st3", "--pool", "a8b10,a4",
                         "--monitor-threshold", "1e-8", "--seed", "3"])
        assert code in (0, 2)

    def test_start_flag(self, capsys):
        code = cli_main(["--problem", "baheux", "--n", "60", "--delta", "0",
                         "--switch", "st2", "--pool", "a4,a12", "--start", "a12"])
        assert code == 0

    def test_large_problem_invocation(self, capsys):
        code = cli_main(["--problem", "baheux", "--n", "2000", "--delta", "5",
                         "--switch", "st2", "--pool", "a4,a12", "--cycle", "20",
                         "--seed", "42"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Converged" in out
