import json
import os

import numpy as np
import pytest

from parlqr import bench, cli, demo, fileio, parallel, serial
from parlqr.errors import Infeasible, SolverError, WorkerConfigError, WorkerFailure
from parlqr.generate import generate

from conftest import interleaved_min_of, max_deviation, tolerance_scale


def problems_equal_bitwise(a, b):
    if (a.n, a.m, a.T) != (b.n, b.m, b.T):
        return False
    if not np.array_equal(a.x_init, b.x_init):
        return False
    for (ca, da), (cb, db) in zip(a.stages, b.stages):
        for fa, fb in ((ca.Qxx, cb.Qxx), (ca.Qux, cb.Qux), (ca.Quu, cb.Quu),
                       (ca.qx1, cb.qx1), (ca.qu1, cb.qu1),
                       (da.Fx, db.Fx), (da.Fu, db.Fu), (da.f1, db.f1)):
            if not np.array_equal(fa, fb):
                return False
    return (np.array_equal(a.terminal.Qxx, b.terminal.Qxx)
            and np.array_equal(a.terminal.qx1, b.terminal.qx1))


class TestGenerate:
    def test_deterministic_from_seed(self):
        assert problems_equal_bitwise(generate(2, 1, 5, 42), generate(2, 1, 5, 42))

    def test_distinct_seeds_differ(self):
        assert not problems_equal_bitwise(generate(2, 1, 5, 1), generate(2, 1, 5, 2))

    def test_generated_problems_validate(self):
        from parlqr.problem import validate
        for seed in range(25):
            assert validate(generate(4, 2, 6, seed)).ok

    def test_cross_solver_deviation(self):
        problem = generate(4, 2, 16, seed=4)
        ref = serial.solve(problem)
        sol = parallel.solve_parallel(problem, J=4, workers=1)
        assert max_deviation(sol.states, ref.states) <= 1e-8 * tolerance_scale(problem)


class TestFileRoundTrip:
    def test_problem_json_round_trip(self, tmp_path):
        problem = generate(3, 2, 7, seed=5)
        path = tmp_path / "p.json"
        fileio.save_problem(problem, path)
        again = fileio.load_problem(path)
        assert problems_equal_bitwise(problem, again)

    def test_dimension_mismatch_rejected(self, tmp_path):
        problem = generate(2, 1, 3, seed=6)
        data = fileio.problem_to_dict(problem)
        data["n"] = 7
        with pytest.raises(ValueError):
            fileio.problem_from_dict(data)


class TestSolveCommand:
    def _problem_file(self, tmp_path, seed=7):
        path = tmp_path / "problem.json"
        fileio.save_problem(generate(3, 2, 8, seed=seed), path)
        return path

    def test_serial_solve_exit_zero(self, tmp_path):
        src = self._problem_file(tmp_path)
        out = tmp_path / "sol.json"
        code = cli.main(["solve", "--problem", str(src), "--solver", "serial",
                         "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert {"states", "controls", "multipliers", "objective",
                "kkt_residual", "timing_seconds", "solver"} <= payload.keys()

    def test_invalid_data_exits_three(self, tmp_path, capsys):
        problem = generate(2, 1, 3, seed=8)
        data = fileio.problem_to_dict(problem)
        data["stages"][1]["Quu"] = [[0.0]]
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(data))
        code = cli.main(["solve", "--problem", str(src), "--out",
                         str(tmp_path / "o.json")])
        assert code == 3
        assert "Quu not positive-definite at stage 1" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path):
        code = cli.main(["solve", "--problem", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o.json")])
        assert code == 1

    def test_infeasible_exits_two(self, tmp_path, monkeypatch):
        src = self._problem_file(tmp_path)

        def raise_infeasible(*args, **kwargs):
            raise Infeasible(0.5, segment=1)

        monkeypatch.setattr(parallel, "solve_parallel", raise_infeasible)
        code = cli.main(["solve", "--problem", str(src), "--solver", "parallel",
                         "--out", str(tmp_path / "o.json")])
        assert code == 2

    def test_worker_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        src = self._problem_file(tmp_path)

        def raise_worker_failure(*args, **kwargs):
            raise WorkerFailure("a worker process ended abruptly")

        monkeypatch.setattr(parallel, "solve_parallel", raise_worker_failure)
        code = cli.main(["solve", "--problem", str(src), "--solver", "parallel",
                         "--out", str(tmp_path / "o.json")])
        assert code == 3
        assert "ended abruptly" in capsys.readouterr().err

    def test_non_integer_worker_env_exits_three(self, tmp_path, monkeypatch,
                                                capsys):
        src = self._problem_file(tmp_path)
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "abc")
        code = cli.main(["solve", "--problem", str(src), "--solver", "parallel",
                         "--out", str(tmp_path / "o.json")])
        assert code == 3
        assert parallel.WORKERS_ENV_VAR in capsys.readouterr().err

    def test_non_positive_worker_env_exits_three(self, tmp_path, monkeypatch,
                                                 capsys):
        src = self._problem_file(tmp_path)
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "0")
        code = cli.main(["solve", "--problem", str(src), "--solver", "parallel",
                         "--out", str(tmp_path / "o.json")])
        assert code == 3
        assert "'0'" in capsys.readouterr().err

    def test_parallel_and_serial_objectives_agree(self, tmp_path):
        src = self._problem_file(tmp_path, seed=9)
        out_s = tmp_path / "s.json"
        out_p = tmp_path / "p.json"
        assert cli.main(["solve", "--problem", str(src), "--solver", "serial",
                         "--out", str(out_s)]) == 0
        assert cli.main(["solve", "--problem", str(src), "--solver", "parallel",
                         "--J", "3", "--workers", "1", "--out", str(out_p)]) == 0
        obj_s = json.loads(out_s.read_text())["objective"]
        obj_p = json.loads(out_p.read_text())["objective"]
        assert obj_p == pytest.approx(obj_s, rel=1e-10)

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "{problem}", "--solver", "parallel", "--J", "0",
         "--out", "{out}"],
        ["solve", "--problem", "{problem}", "--solver", "parallel", "--J", "9",
         "--out", "{out}"],
        ["generate", "--n", "0", "--m", "1", "--T", "5", "--out", "{out}"],
        ["demo", "--dt", "0", "--out-dir", "{out}"],
        ["demo", "--T", "0", "--out-dir", "{out}"],
        ["bench", "--n", "2", "--m", "1", "--T", "6", "--J", "2", "--workers",
         "1", "--repeats", "0", "--out", "{out}"],
    ], ids=["J0", "J_past_T", "generate_n0", "demo_dt0", "demo_T0",
            "bench_repeats0"])
    def test_bad_argument_is_an_error_line(self, tmp_path, capsys, argv):
        fill = {"problem": str(self._problem_file(tmp_path)),
                "out": str(tmp_path / "out")}
        capsys.readouterr()
        code = cli.main([arg.format(**fill) for arg in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_generate_command_round_trips(self, tmp_path):
        out = tmp_path / "gen.json"
        assert cli.main(["generate", "--n", "2", "--m", "1", "--T", "5",
                         "--seed", "42", "--out", str(out)]) == 0
        assert problems_equal_bitwise(fileio.load_problem(out),
                                      generate(2, 1, 5, 42))


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    config = demo.DemoConfig(dt=0.02, T=120)
    summary = demo.run_demo(config, out, workers=1)
    return out, summary


@pytest.fixture(scope="module")
def report():
    return bench.run_bench(3, 2, T_list=[8, 16], J_list=[1, 2, 4],
                           workers_list=[1], repeats=2, seed=0)


class TestDemo:
    def test_emits_all_files(self, demo_dir):
        out, _ = demo_dir
        names = sorted(os.listdir(out))
        expected = sorted(
            [f"{v}_{d}.csv" for v in ("serial", "parallel", "smoothed")
             for d in ("undisturbed", "disturbed")] + ["summary.csv"])
        assert names == expected

    def test_csv_schema(self, demo_dir):
        out, _ = demo_dir
        header = (out / "serial_undisturbed.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,u1"
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "cost_s,cost_p,cost_smoothed"

    def test_undisturbed_variants_identical(self, demo_dir):
        _, summary = demo_dir
        assert summary["undisturbed_max_pairwise_deviation"] <= 1e-8

    def test_disturbed_costs_differ(self, demo_dir):
        _, summary = demo_dir
        costs = summary["disturbed_costs"]
        assert abs(costs["serial"] - costs["parallel"]) > 1e-6

    def test_byte_identical_reruns(self, tmp_path):
        config = demo.DemoConfig(dt=0.02, T=60)
        a = tmp_path / "a"
        b = tmp_path / "b"
        demo.run_demo(config, a, workers=1)
        demo.run_demo(config, b, workers=2)
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_disturbance_vanishes_at_origin(self):
        from parlqr.demo import _disturbance
        assert _disturbance(np.zeros(2)) == 0.0


class TestBench:
    def test_rows_cover_all_solvers(self, report):
        solvers = {rec.solver for rec in report.records}
        assert solvers == {"serial", "parallel", "kkt"}

    def test_deviations_tiny(self, report):
        assert report.max_deviation() <= 1e-8

    def test_csv_schema(self, report, tmp_path):
        path = tmp_path / "bench.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,m,T,J,workers,solver,seconds,deviation"
        assert len(lines) == len(report.records) + 1

    def test_json_report(self, report, tmp_path):
        path = tmp_path / "bench.json"
        report.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["environment"]["cpu_count"] >= 1
        assert len(payload["records"]) == len(report.records)

    def test_body_deterministic_excluding_seconds(self, tmp_path):
        def body(report):
            rows = []
            for rec in report.records:
                cells = rec.csv_row().split(",")
                del cells[6]  # seconds column
                rows.append(",".join(cells))
            return rows

        a = bench.run_bench(2, 1, T_list=[6], J_list=[2, 3], workers_list=[1],
                            repeats=1, seed=3)
        b = bench.run_bench(2, 1, T_list=[6], J_list=[2, 3], workers_list=[1],
                            repeats=1, seed=3)
        assert body(a) == body(b)

    def test_cli_bench_command(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = cli.main(["bench", "--n", "2", "--m", "1", "--T", "6", "--J", "2",
                         "--workers", "1", "--repeats", "1", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("n,m,T,J,workers,solver")


@pytest.mark.slow
def test_single_segment_dispatch_overhead_negligible(monkeypatch):
    # J=1 delegates to the serial solve: one call, no pool, the same arrays;
    # so its timing may differ from the serial row only by call overhead.
    # Short solves let the best of 30 of each side fall in the same quiet
    # spell of a shared host: at T=1024 the ratio of two identical calls
    # ranged over 0.90-1.29, at T=256 over 0.98-1.01
    problem = generate(40, 10, 256, seed=0)
    solve, calls = serial.solve, []

    def counted(p):
        calls.append(p)
        return solve(p)

    def no_pool(workers):
        raise AssertionError(f"a pool of {workers} was created")

    with monkeypatch.context() as patch:
        patch.setattr(serial, "solve", counted)
        patch.setattr(parallel, "_get_pool", no_pool)
        got = parallel.solve_parallel(problem, J=1, workers=2)
    assert calls == [problem]
    want = solve(problem)
    for field in ("states", "controls", "lambdas"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    serial_secs, parallel_secs = interleaved_min_of(
        [lambda: serial.solve(problem),
         lambda: parallel.solve_parallel(problem, J=1, workers=1)], repeats=30)
    assert parallel_secs <= 1.10 * serial_secs


class TestWorkerDefaults:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "3")
        assert parallel.default_workers(8) == 3

    def test_non_integer_env_is_a_solver_error(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "abc")
        with pytest.raises(WorkerConfigError) as info:
            parallel.default_workers(8)
        assert isinstance(info.value, SolverError)
        assert "'abc'" in str(info.value)

    @pytest.mark.parametrize("env", ["0", "-3"])
    def test_non_positive_env_is_a_solver_error(self, monkeypatch, env):
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, env)
        with pytest.raises(WorkerConfigError) as info:
            parallel.default_workers(8)
        assert repr(env) in str(info.value)

    def test_default_capped_by_cores_and_segments(self, monkeypatch):
        monkeypatch.delenv(parallel.WORKERS_ENV_VAR, raising=False)
        assert parallel.default_workers(1) == 1
        assert parallel.default_workers(64) <= (os.cpu_count() or 1)
