import csv
import dataclasses
import math
import re

import numpy as np
import pytest

import kronsolve.experiments as experiments
import kronsolve.solvers as solvers
from kronsolve.cli import build_parser, main as cli_main
from kronsolve.errors import InvalidInputError, NumericalFailureError
from kronsolve.solvers import RegressionConfig, SolveReport
from kronsolve.experiments import (
    generate_synth_regression,
    generate_synth_tucker,
    run_regression_experiment,
    run_tucker_experiment,
)
from kronsolve.tensor_io import read_tensor, write_tensor


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSynthGeneration:
    def test_sample_variance(self):
        factors, _ = generate_synth_regression(200, 50, 1, seed=0)
        var = float(np.var(factors[0]))
        assert 0.0005 <= var <= 0.0015
        assert abs(float(np.mean(factors[0])) - 1.0) <= 0.01

    def test_target_is_all_ones(self):
        _, b = generate_synth_regression(10, 3, 2, seed=1)
        assert b.shape == (100,)
        assert np.all(b == 1.0)

    def test_seed_determinism(self):
        f1, b1 = generate_synth_regression(16, 4, 2, seed=42)
        f2, b2 = generate_synth_regression(16, 4, 2, seed=42)
        for a, b in zip(f1, f2):
            assert np.array_equal(a, b)
        assert np.array_equal(b1, b2)

    def test_requires_tall_factors(self):
        with pytest.raises(InvalidInputError):
            generate_synth_regression(3, 5, 2, seed=0)

    def test_synth_tucker_noise_level(self):
        x = generate_synth_tucker((12, 12, 12), (3, 3, 3), 0.01, seed=0)
        assert x.shape == (12, 12, 12)
        clean = generate_synth_tucker((12, 12, 12), (3, 3, 3), 0.0, seed=0)
        rel = np.linalg.norm(x - clean) / np.linalg.norm(clean)
        assert 0.003 <= rel <= 0.03


def run_regression(n=32, d=4, order=2, alpha=1e-3, seeds=(0, 1),
                   solvers=("naive", "kronmatmul", "sketch-solve", "fast"), **kw):
    """``run_regression_experiment`` at eps 0.1, delta 0.01 and lambda 1e-3."""
    config = RegressionConfig(eps=0.1, delta=0.01, lam=1e-3, alpha=alpha)
    return run_regression_experiment(n, d, order, config, seeds, solvers, **kw)


class TestRegressionExperiment:
    def test_rows_and_ratios(self, tmp_path):
        out = tmp_path / "r.csv"
        rows = run_regression(out_path=out)
        assert len(rows) == 8
        for row in rows:
            assert row.status == "ok"
            if row.solver in ("naive", "kronmatmul"):
                assert abs(row.ratio - 1.0) <= 1e-9
            else:
                assert row.ratio >= 1.0 - 1e-9
        header = read_csv(out)[0]
        assert header[0] == "solver"

    def test_csv_reports_iterations_and_convergence(self, tmp_path):
        # 64^2 rows against about 800 draws: the fast cell runs PCG
        out = tmp_path / "r.csv"
        run_regression(n=64, alpha=1e-4, seeds=(0,), solvers=("kronmatmul", "fast"),
                       out_path=out)
        with open(out, newline="") as fh:
            rows = {row["solver"]: row for row in csv.DictReader(fh)}
        exact, fast = rows["kronmatmul"], rows["fast"]
        assert (exact["iterations"], exact["converged"]) == ("0", "True")
        assert (exact["rows_sampled"], exact["distinct_rows"]) == ("0", "0")
        assert 0 < int(fast["distinct_rows"]) <= int(fast["rows_sampled"])
        assert int(fast["iterations"]) > 0 and fast["converged"] == "True"
        assert float(exact["residual"]) == 0.0 and 0.0 < float(fast["residual"]) < 1.0

    def test_opt_is_kronmatmul_unless_it_failed(self, monkeypatch):
        # naive runs first, yet OPT is the reference kronmatmul loss
        for row in run_regression(solvers=("naive", "kronmatmul", "fast")):
            if row.solver == "kronmatmul":
                assert row.ratio == 1.0

        def failing(*args, **kwargs):
            raise InvalidInputError("kronmatmul refused")

        monkeypatch.setattr(experiments, "kronmatmul_svd_solve", failing)
        rows = {r.solver: r for r in run_regression(
            seeds=(0,), solvers=("kronmatmul", "naive", "fast"))}
        assert rows["kronmatmul"].status.startswith("error:")
        assert rows["naive"].ratio == 1.0 and rows["fast"].ratio >= 1.0 - 1e-9

    def test_determinism_modulo_walltime(self, tmp_path):
        r1 = run_regression(out_path=tmp_path / "a.csv")
        r2 = run_regression(out_path=tmp_path / "b.csv")
        for a, b in zip(r1, r2):
            assert a.solver == b.solver and a.seed == b.seed
            assert a.loss == b.loss
            assert a.rows_sampled == b.rows_sampled

    def test_desk_scale_fast_ratio(self):
        # benchmark-default eps/delta/lambda at theoretical sample counts
        rows = run_regression(n=128, d=8, alpha=1.0, seeds=(0,),
                              solvers=("kronmatmul", "fast"))
        fast = [r for r in rows if r.solver == "fast"][0]
        assert fast.ratio <= 1.1

    def test_solver_error_recorded(self, tmp_path):
        # naive refuses: (d*d)^2 over the guard, run continues
        rows = run_regression(n=128, d=128, order=2, seeds=(0,),
                              solvers=("naive", "fast"), alpha=1e-5)
        by = {r.solver: r for r in rows}
        assert by["naive"].status.startswith("error:")
        assert by["fast"].status == "ok"

    def test_exact_cells_run_above_the_guard_in_rows(self, monkeypatch):
        # 144 rows against a guard of 100: neither exact solver forms a
        # rows-sized array, and naive's (prod d)^2 = 16 stays under the guard
        monkeypatch.setattr(solvers, "DENSE_GUARD", 100)
        rows = run_regression(n=12, d=2, order=2, seeds=(0,),
                              solvers=("naive", "kronmatmul"))
        assert [(r.solver, r.status) for r in rows] == [("naive", "ok"),
                                                        ("kronmatmul", "ok")]

    @staticmethod
    def timed_report(wall, evaluated):
        """A report whose every field derives from ``wall``; reading its
        loss appends ``wall`` to ``evaluated``."""

        def loss():
            evaluated.append(wall)
            return 10 * wall

        return SolveReport(solution=np.full(3, wall), loss_fn=loss,
                           iterations=round(10 * wall), sample_count=round(100 * wall),
                           wall_time=wall, distinct_rows=round(50 * wall))

    @staticmethod
    def assert_same_report(got, want, skip=()):
        """Every field but ``skip`` and the loss function equal, and the
        loss read from each equal too."""
        for f in dataclasses.fields(SolveReport):
            if f.name not in skip + ("loss_fn",):
                np.testing.assert_array_equal(getattr(got, f.name),
                                              getattr(want, f.name), err_msg=f.name)
        assert got.loss == want.loss

    def test_median_of_even_repeats(self):
        # the report of the upper middle run by wall time, with the median
        # wall time; every other field is that run's, and no run's loss is
        # evaluated until the kept report's is read
        evaluated = []
        walls = iter([0.4, 0.1, 0.3, 0.2])
        median = experiments._median_run(
            lambda: self.timed_report(next(walls), evaluated), 4)
        assert evaluated == []
        assert median.wall_time == pytest.approx(0.25)
        self.assert_same_report(median, self.timed_report(0.3, []), skip=("wall_time",))
        assert evaluated == [0.3]

    def test_median_of_odd_repeats(self):
        # the middle run's report by wall time, every field as it ran
        evaluated = []
        reports = [self.timed_report(wall, evaluated) for wall in (0.3, 0.1, 0.2)]
        runs = iter(reports)
        median = experiments._median_run(lambda: next(runs), 3)
        assert evaluated == []
        self.assert_same_report(median, reports[2])
        # the kept report is a copy of the run's, and the two share one evaluation
        assert evaluated == [0.2]

    def test_repeats_evaluate_one_loss_per_cell(self, count_calls, tmp_path):
        # three solves per cell, and only the kept report's loss is read
        losses = [count_calls(solvers, "ridge_loss"),
                  count_calls(solvers, "_projected_ridge_loss")]
        solves = count_calls(experiments, "kronmatmul_svd_solve")
        out = tmp_path / "reg.csv"
        rc = cli_main(["synth-regression", "--n", "32", "--d", "4", "--seeds", "0,1",
                       "--alpha", "0.001", "--solvers", "naive,kronmatmul,fast",
                       "--repeats", "3", "--out", str(out)])
        assert rc == 0 and len(read_csv(out)) == 1 + 6
        assert len(solves) == 2 * 3
        assert [len(calls) for calls in losses] == [2, 4]

    def test_a_failing_loss_is_the_cells_error(self, monkeypatch):
        def failing(*args):
            raise NumericalFailureError("loss failed")

        monkeypatch.setattr(solvers, "_projected_ridge_loss", failing)
        rows = {r.solver: r for r in run_regression(
            seeds=(0,), solvers=("naive", "kronmatmul"))}
        assert rows["kronmatmul"].status == "error: loss failed"
        assert math.isnan(rows["kronmatmul"].loss)
        assert rows["naive"].status == "ok" and rows["naive"].ratio == 1.0

    def test_run_validation(self, tmp_path):
        for bad in (dict(solvers=("bogus",)), dict(n=2, d=4), dict(order=0),
                    dict(seeds=()), dict(solvers=()), dict(repeats=0)):
            with pytest.raises(InvalidInputError):
                run_regression(out_path=tmp_path / "r.csv", **bad)
        assert not (tmp_path / "r.csv").exists()

    def test_one_instance_per_seed(self, count_calls):
        # every solver of a seed runs on the one instance drawn for it
        draws = count_calls(experiments, "generate_synth_regression")
        rows = run_regression(seeds=(0, 1, 2))
        assert len(rows) == 3 * 4
        assert [args[3] for args in draws] == [0, 1, 2]

    def test_negative_seed_fails_before_any_instance(self, count_calls, tmp_path):
        # every seed is checked before the first instance is drawn
        draws = count_calls(experiments, "generate_synth_regression")
        with pytest.raises(InvalidInputError, match="seed"):
            run_regression(seeds=(0, -1), out_path=tmp_path / "r.csv")
        assert draws == [] and not (tmp_path / "r.csv").exists()


class TestTuckerExperiment:
    # exact mode reads only the seed and lambda of the config
    CONFIG = RegressionConfig(eps=0.1, delta=0.01, lam=0.0, alpha=1e-5, seed=0)

    def test_synthetic_low_rank(self, tmp_path):
        x = generate_synth_tucker((20, 20, 20), (4, 4, 4), 0.01, seed=0)
        out = tmp_path / "t.csv"
        _, report = run_tucker_experiment(x, (4, 4, 4), self.CONFIG, sweeps=5,
                                          solver_mode="exact", out_path=out)
        assert report.rre <= 0.02
        rows = read_csv(out)
        assert len(rows) == 5 + 1  # header + one row per sweep

    def test_full_rank_interpolation(self):
        x = generate_synth_tucker((6, 6, 6), (6, 6, 6), 0.0, seed=0)
        _, report = run_tucker_experiment(x, (6, 6, 6), self.CONFIG, sweeps=1,
                                          solver_mode="exact")
        assert report.rre <= 1e-8

    def test_tensor_file_input(self, rng, tmp_path):
        x = rng.standard_normal((6, 5, 4))
        path = tmp_path / "x.ktn"
        write_tensor(path, x)
        config = dataclasses.replace(self.CONFIG, lam=1e-2)
        model, report = run_tucker_experiment(read_tensor(path), (2, 2, 2), config,
                                              sweeps=2, solver_mode="exact",
                                              out_path=tmp_path / "t.csv")
        assert len(report.sweep_losses) == 2
        assert model.lam == 1e-2  # the run's lambda is the config's

    def test_missing_file_is_io_error(self, tmp_path):
        out = tmp_path / "t.csv"
        with pytest.raises(InvalidInputError) as err:
            cli_main(["tucker", "--input", str(tmp_path / "nope"), "--core", "2,2",
                      "--sweeps", "1", "--out", str(out)])
        assert "nope" in str(err.value)
        assert not out.exists()


class TestCli:
    def test_synth_regression_command(self, tmp_path):
        out = tmp_path / "reg.csv"
        rc = cli_main(["synth-regression", "--n", "32", "--d", "4",
                       "--seeds", "0,1", "--alpha", "0.001",
                       "--solvers", "kronmatmul,fast", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 1 + 4

    def test_tucker_command(self, tmp_path):
        out = tmp_path / "tuck.csv"
        rc = cli_main(["tucker", "--synthetic", "10,10,10",
                       "--true-rank", "3,3,3", "--core", "3,3,3",
                       "--sweeps", "2", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["sweep", "loss", "rre", "sweep_seconds"]
        assert len(rows) == 3

    def test_tucker_file_command(self, rng, tmp_path):
        x = rng.standard_normal((5, 4, 3))
        path = tmp_path / "x.ktn"
        write_tensor(path, x)
        out = tmp_path / "t.csv"
        rc = cli_main(["tucker", "--input", str(path), "--core", "2,2,2",
                       "--sweeps", "1", "--out", str(out)])
        assert rc == 0

    def test_check_command(self):
        assert cli_main(["check"]) == 0

    def test_tucker_input_options(self, capsys, tmp_path):
        # exactly one of --input and --synthetic, --synthetic with a true
        # rank, and a missing file named; none writes a CSV
        out = tmp_path / "t.csv"
        tail = ["--core", "2,2,2", "--out", str(out)]
        for source in (["--input", "x.ktn", "--synthetic", "6,6,6"], []):
            with pytest.raises(SystemExit) as exit_:
                cli_main(["tucker", *source, *tail])
            assert exit_.value.code == 2
        assert "--input" in capsys.readouterr().err
        with pytest.raises(InvalidInputError, match="--true-rank"):
            cli_main(["tucker", "--synthetic", "6,6,6", *tail])
        missing = tmp_path / "missing.ktn"
        with pytest.raises(InvalidInputError, match=re.escape(str(missing))):
            cli_main(["tucker", "--input", str(missing), *tail])
        assert not out.exists()

    @pytest.mark.parametrize("shape, rank, noise", [
        ("6,6,6", "2,2", "0.01"), ("3,3,3", "4,4,4", "0.01"), ("6,6,6", "0,2,2", "0.01"),
        ("6,6,6", "2,2,2", "-1"), ("6,6,6", "2,2,2", "nan"), ("6,6,6", "2,2,2", "inf")])
    def test_bad_synthetic_tensor_fails_before_drawing(self, count_calls, tmp_path,
                                                       shape, rank, noise):
        # a rank list must give one rank in [1, I_n] per dim and the noise
        # level must be finite and >= 0, checked before anything is drawn
        flag = "--true-rank" if noise == "0.01" else "--noise"
        rngs = count_calls(np.random, "default_rng")
        out = tmp_path / "t.csv"
        with pytest.raises(InvalidInputError, match=flag):
            cli_main(["tucker", "--synthetic", shape, "--true-rank", rank, "--noise", noise,
                      "--core", rank, "--out", str(out)])
        assert rngs == [] and not out.exists()

    @pytest.mark.parametrize("command, generator", [
        (["synth-regression", "--n", "10", "--d", "2", "--seeds", "-1",
          "--solvers", "kronmatmul"], "generate_synth_regression"),
        (["tucker", "--synthetic", "6,6,6", "--true-rank", "2,2,2", "--core", "2,2,2",
          "--seed", "-1"], "generate_synth_tucker"),
    ])
    def test_negative_seed_fails_before_any_instance(self, count_calls, tmp_path,
                                                     command, generator):
        draws = count_calls(experiments, generator)
        out = tmp_path / "o.csv"
        with pytest.raises(InvalidInputError, match="seed must be a non-negative"):
            cli_main([*command, "--out", str(out)])
        assert draws == [] and not out.exists()


class TestDefaults:
    @staticmethod
    def defaults(*argv):
        return vars(build_parser().parse_args([*argv, "--out", "unused.csv"]))

    def test_parser_defaults_match_study_setup(self):
        reg = self.defaults("synth-regression")
        assert (reg["eps"], reg["delta"], reg["lam"], reg["alpha"]) == (0.1, 0.01, 1e-3, 1e-5)
        assert self.defaults("tucker", "--synthetic", "6,6,6", "--core", "2,2,2")["sweeps"] == 5


class TestLargeInstance:
    def test_fast_solver_tracks_exact_at_table_scale(self):
        # the n^2 x d^2 regime of the loss tables: d = 64, n = 4096; the
        # sketch keeps ~0.002% of the rows and should stay near the optimum
        from kronsolve.solvers import (RegressionConfig,
                                       fast_kronecker_regression,
                                       kronmatmul_svd_solve)
        factors, b = generate_synth_regression(4096, 64, 2, seed=0)
        cfg = RegressionConfig(eps=0.1, delta=0.01, lam=1e-3, alpha=1e-5,
                               seed=0)
        rep = fast_kronecker_regression(factors, b, cfg)
        opt = kronmatmul_svd_solve(factors, b, 1e-3)
        assert 0 < rep.sample_count < 4096**2
        assert rep.loss <= 1.25 * opt.loss
