import csv
import io

import numpy as np
import pytest

from graphongames import (
    ConfigError,
    EmptyGroup,
    LQHomogeneous,
    LQSBM,
    ParameterBox,
    RunRecord,
    StrategySet,
    derive_run_seed,
    l2_distance,
    model_equilibrium_fn,
    observe,
    run_experiment,
    sample_network,
    solve_network_game,
    summarize_quantiles,
)
from graphongames import GridGraphon
from graphongames.harness import (
    config_from_dict,
    load_config,
    quantiles_to_csv,
    records_to_csv,
    timings_to_csv,
    write_text,
)
from conftest import ETA4, PI2, PI4, Q2, Q4, smooth_grid_kernel

SMALL_CONFIG = {
    "graphon": {"kind": "sbm", "q": Q4.tolist(), "pi": PI4.tolist()},
    "game": {
        "kind": "lq_sbm",
        "theta1": 1.0,
        "strategy_set": [0.0, 10.0],
        "xi": {"lower": [0.01] * 4, "upper": [1.2] * 4},
    },
    "eta_true": ETA4.tolist(),
    "n_list": [30, 60],
    "runs_per_n": 2,
    "master_seed": 7,
}


def small_config():
    return config_from_dict(SMALL_CONFIG)


class TestConfig:
    def test_shipped_config_valid(self):
        config = load_config("configs/sbm4.yaml")
        assert config.validate() == []
        assert isinstance(config.game, LQSBM)
        assert np.allclose(config.eta_true, ETA4)
        assert config.n_list == [100, 400, 1600]
        assert config.runs_per_n == 20

    def test_missing_key(self):
        broken = dict(SMALL_CONFIG)
        del broken["eta_true"]
        with pytest.raises(ConfigError):
            config_from_dict(broken)

    def test_unknown_kind(self):
        broken = dict(SMALL_CONFIG)
        broken["graphon"] = {"kind": "mystery"}
        with pytest.raises(ConfigError):
            config_from_dict(broken)

    def test_bad_optimizer_key(self):
        # the optimizer's settings are constants; an old config that sets
        # them is refused, not silently read
        broken = dict(SMALL_CONFIG)
        broken["optimizer"] = {"gtol": 1e-9}
        with pytest.raises(ConfigError, match="unknown key 'optimizer' in "
                                              "config"):
            config_from_dict(broken)

    def test_eta_true_outside_box_flagged(self):
        bad = dict(SMALL_CONFIG)
        bad["eta_true"] = [1.2, 0.6, 1.0, 0.8]  # on the boundary, not interior
        config = config_from_dict(bad)
        assert any("interior" in p for p in config.validate())

    def test_nested_eta_true_reports_its_shape(self):
        bad = dict(SMALL_CONFIG)
        bad["eta_true"] = [[1, 2], [3, 4]]
        assert config_from_dict(bad).validate() == [
            "eta_true has shape (2, 2), parameter box has dimension 4"]

    def test_game_graphon_mismatch_flagged(self):
        bad = dict(SMALL_CONFIG)
        bad["graphon"] = {"kind": "constant", "value": 0.3}
        config = config_from_dict(bad)
        assert any("community game" in p for p in config.validate())

    def test_community_count_mismatch_flagged(self):
        bad = dict(SMALL_CONFIG)
        bad["graphon"] = {"kind": "sbm", "q": Q4[:3, :3].tolist(),
                          "pi": [0.25, 0.25, 0.5]}
        config = config_from_dict(bad)
        assert any("community game" in p for p in config.validate())

    def test_duplicate_sizes_flagged(self):
        bad = dict(SMALL_CONFIG)
        bad["n_list"] = [30, 30]
        config = config_from_dict(bad)
        assert any("duplicates" in p for p in config.validate())

    def test_infeasible_corner_flagged(self):
        bad = dict(SMALL_CONFIG)
        bad["graphon"] = {"kind": "constant", "value": 1.0}
        bad["game"] = {
            "kind": "lq_homogeneous",
            "strategy_set": [0.0, 10.0],
            "xi": {"lower": [0.01, 0.01], "upper": [1.2, 1.2]},
        }
        bad["eta_true"] = [0.5, 0.5]
        config = config_from_dict(bad)
        assert any("margin" in p for p in config.validate())

    def test_grid_csv_path_relative_to_config(self, tmp_path):
        np.savetxt(tmp_path / "kern.csv", np.array([[0.2, 0.1], [0.1, 0.3]]), delimiter=",")
        cfg = dict(SMALL_CONFIG)
        cfg["graphon"] = {"kind": "grid", "csv": "kern.csv"}
        cfg["game"] = {
            "kind": "lq_homogeneous",
            "strategy_set": [0.0, 10.0],
            "xi": {"lower": [0.01, 0.01], "upper": [1.2, 1.2]},
        }
        cfg["eta_true"] = [0.5, 0.5]
        import yaml

        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        config = load_config(path)
        assert np.array_equal(config.graphon.q, [[0.2, 0.1], [0.1, 0.3]])
        assert config.graphon.pi.size == 2


class TestSeeds:
    def test_deterministic_and_distinct(self):
        a = derive_run_seed(1, 0, 100)
        assert a == derive_run_seed(1, 0, 100)
        others = {
            derive_run_seed(1, 1, 100),
            derive_run_seed(1, 0, 200),
            derive_run_seed(2, 0, 100),
        }
        assert a not in others and len(others) == 3


class TestRunExperiment:
    def test_zero_runs_gives_empty_sequence(self):
        config = small_config()
        config.runs_per_n = 0
        assert run_experiment(config) == []

    def test_record_count_and_order(self):
        records = run_experiment(small_config())
        assert [(r.n, r.run) for r in records] == [
            (30, 0), (30, 1), (60, 0), (60, 1),
        ]
        for r in records:
            assert np.all(np.isfinite(r.eta_hat))
            assert np.isfinite(r.objective) and r.objective >= 0.0
            assert r.wall_time_s >= 0.0

    def test_invalid_config_aborts(self):
        config = small_config()
        config.eta_true = np.array([2.0, 0.6, 1.0, 0.8])
        with pytest.raises(ConfigError):
            run_experiment(config)

    def test_grid_kernel_homogeneous_sweep(self):
        # a rasterized two-block kernel with the homogeneous game walks the
        # same pipeline through the grid code path
        grid = np.kron(Q2, np.ones((3, 3))).tolist()
        config = config_from_dict(
            {
                "graphon": {"kind": "sbm", "q": Q2.tolist(), "pi": PI2.tolist()},
                "game": {
                    "kind": "lq_homogeneous",
                    "strategy_set": [0.0, 50.0],
                    "xi": {"lower": [0.1, 0.0], "upper": [2.0, 1.5]},
                },
                "eta_true": [1.0, 0.5],
                "n_list": [60],
                "runs_per_n": 2,
                "master_seed": 11,
            }
        )
        object.__setattr__(config, "graphon", GridGraphon(np.array(grid)))
        assert config.validate() == []
        records = run_experiment(config)
        assert len(records) == 2
        assert all(r.converged for r in records)
        assert all(np.isfinite(r.err_inf) for r in records)

    @pytest.mark.parametrize("kernel", ["sbm4", "grid"])
    def test_l2_column_matches_the_reference_distance(self, kernel):
        # the column is read off J's statistic; l2_distance on the merged
        # partition of the observation and the model profile is the reference
        config = small_config()
        if kernel == "grid":
            config.graphon = smooth_grid_kernel()
            config.game = LQHomogeneous(
                strategy_set=StrategySet(0.0, 50.0),
                xi=ParameterBox(np.array([0.1, 0.0]), np.array([2.0, 1.5])),
            )
            config.eta_true = np.array([1.0, 0.9])
        config.n_list = [50, 200]
        records = run_experiment(config)
        model = model_equilibrium_fn(config.graphon, config.game,
                                     config.eta_true)
        for r in records:
            net = sample_network(config.graphon, r.n, r.seed)
            neq = solve_network_game(net, config.game, config.eta_true,
                                     tol=config.solver.tol,
                                     max_iter=config.solver.max_iter)
            reference = l2_distance(observe(net, neq), model)
            assert r.l2_obs_vs_graphon == pytest.approx(reference, rel=1e-10,
                                                        abs=0.0)

    @pytest.mark.parametrize(
        "stage", ["sample_network", "solve_network_game", "estimate"])
    def test_run_failures_become_rows(self, monkeypatch, stage):
        import graphongames.harness as harness
        from graphongames import NoConvergence

        def explode(*args, **kwargs):
            raise NoConvergence("synthetic failure")

        # the sweep runs estimate's core on the solver it builds once
        monkeypatch.setattr(harness, {"estimate": "_estimate"}.get(stage, stage),
                            explode)
        records = run_experiment(small_config())
        assert len(records) == 4  # never dropped
        # the sidecar cells each stage fills, at their values for a stage
        # that did not finish
        unfinished = {
            "sample_network": {"sample_s": "nan", "sample_minflt": ""},
            "solve_network_game": {
                "solve_s": "nan", "br_iterations": "0", "route": "",
                "residual": "nan", "interior": "", "certificate": "",
                "contraction_margin": "nan",
            },
            "estimate": {"estimate_s": "nan", "evaluations": "0"},
        }
        stages = list(unfinished)
        expected = {}
        for name in stages[stages.index(stage):]:
            expected.update(unfinished[name])
        results = csv.DictReader(io.StringIO(records_to_csv(records, 4)))
        timings = csv.DictReader(io.StringIO(timings_to_csv(records)))
        for r, result, timing in zip(records, results, timings, strict=True):
            assert not r.converged and r.failure == "NoConvergence"
            assert [result.pop(k) for k in ("N", "run", "seed")] == [
                str(r.n), str(r.run), str(r.seed)]
            assert result == {**dict.fromkeys(result, "nan"),
                              "converged": "false"}
            assert timing["failure"] == "NoConvergence"
            assert float(timing["wall_time_s"]) >= 0.0
            assert {k: timing[k] for k in expected} == expected
            # the stages before the failing one finished
            finished = {k: v for k, v in timing.items() if k not in expected}
            for key in ("sample_s", "solve_s"):
                if key in finished:
                    assert float(finished[key]) >= 0.0
            if "sample_s" in finished:
                assert int(finished["sample_minflt"]) >= 0
            if "route" in finished:
                assert int(finished["br_iterations"]) > 0
                assert finished["route"] == "cg"
                assert float(finished["residual"]) <= 1e-10
                assert finished["interior"] == "true"
                assert finished["certificate"] == "row_sum"
                assert 0.0 < float(finished["contraction_margin"]) < 1.0

    def test_linear_algebra_failure_does_not_abort_the_sweep(self,
                                                             monkeypatch):
        import graphongames.harness as harness

        calls = []

        def singular_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("Singular matrix")
            return estimate_core(*args, **kwargs)

        estimate_core = harness._estimate
        monkeypatch.setattr(harness, "_estimate", singular_once)
        records = run_experiment(small_config())
        assert len(records) == 4 and len(calls) == 4
        failed = records[1]
        assert (failed.n, failed.run) == (30, 1)
        assert failed.failure == "LinAlgError" and not failed.converged
        assert np.all(np.isnan(failed.eta_hat))
        for r in (records[0], *records[2:]):
            assert r.failure == "" and r.converged

    def test_timings_sidecar(self):
        records = run_experiment(small_config())
        lines = timings_to_csv(records).splitlines()
        assert lines[0].split(",") == [
            "N", "run", "wall_time_s", "sample_s", "solve_s", "estimate_s",
            "sample_minflt", "evaluations", "br_iterations", "route",
            "residual", "interior", "certificate", "contraction_margin",
            "failure",
        ]
        assert len(lines) == len(records) + 1
        for line, r in zip(lines[1:], records):
            cells = line.split(",")
            assert cells[:2] == [str(r.n), str(r.run)]
            assert float(cells[2]) == r.wall_time_s
            stages = [r.sample_s, r.solve_s, r.estimate_s]
            assert [float(c) for c in cells[3:6]] == stages
            assert all(np.isfinite(t) and t >= 0.0 for t in stages)
            assert sum(stages) <= r.wall_time_s
            assert int(cells[6]) == r.sample_minflt >= 0
            assert int(cells[7]) == r.evaluations >= 1
            assert int(cells[8]) == r.br_iterations > 0
            assert cells[9] == r.route == "cg"
            assert float(cells[10]) == r.residual <= 1e-10
            assert cells[11] == "true" and r.interior is True
            assert cells[12] == r.certificate == "row_sum"
            assert float(cells[13]) == r.contraction_margin > 0.0
            assert cells[14] == r.failure == ""

    def test_csv_bytes_reproducible(self, tmp_path):
        config = small_config()
        first = records_to_csv(run_experiment(config), 4)
        second = records_to_csv(run_experiment(config), 4)
        assert first == second
        path = tmp_path / "out.csv"
        write_text(path, records_to_csv(run_experiment(config), 4))
        assert path.read_bytes().decode() == first

    def test_csv_format(self):
        records = run_experiment(small_config())
        text = records_to_csv(records, 4)
        lines = text.split("\n")
        header = lines[0].split(",")
        assert header[:3] == ["N", "run", "seed"]
        assert header[3:7] == ["eta_hat_1", "eta_hat_2", "eta_hat_3", "eta_hat_4"]
        assert header[7:] == [
            "err_inf", "err_2", "objective", "l2_obs_vs_graphon",
            "hessian_min_eig", "converged",
        ]
        assert len(lines) == len(records) + 2 and lines[-1] == ""
        assert lines[1].split(",")[-1] in ("true", "false")
        # 17 significant digits survive a round trip
        first_eta = float(lines[1].split(",")[3])
        assert first_eta == records[0].eta_hat[0]


def _record(n, run, err, eta):
    return RunRecord(
        n=n, run=run, seed=run, eta_hat=np.array([eta]), err_inf=err,
        err_2=err, objective=0.0, l2_obs_vs_graphon=0.0,
        hessian_min_eig=0.0, converged=True, wall_time_s=0.0,
    )


class TestQuantiles:
    def test_single_record_all_quantiles_equal(self):
        rows = summarize_quantiles([_record(10, 0, 0.5, 1.0)])
        values = {v for (_, m, _, v) in rows if m == "err_inf"}
        assert values == {0.5}

    def test_linear_interpolation_definition(self):
        records = [_record(10, i, float(i + 1), 0.0) for i in range(4)]
        rows = summarize_quantiles(records)
        median = [v for (_, m, q, v) in rows if m == "err_inf" and q == 0.5][0]
        assert median == 2.5

    def test_empty_rejected(self):
        with pytest.raises(EmptyGroup):
            summarize_quantiles([])

    def test_csv_mentions_definition(self):
        rows = summarize_quantiles([_record(10, 0, 0.5, 1.0)])
        text = quantiles_to_csv(rows)
        assert text.startswith("#")
        assert "linear interpolation" in text.splitlines()[0]
        assert text.splitlines()[1] == "N,metric,quantile,value"


def test_records_have_slots():
    # a sweep keeps every record, so none carries an instance dictionary
    record = _record(10, 0, 0.5, 1.0)
    assert not hasattr(record, "__dict__")


def test_sweeps_leave_scipy_linalg_unloaded():
    # every sbm4 and grid network is certified by row sums, so no sweep
    # needs ARPACK, whose import costs about 30 ms and 10 MB at start-up
    import inspect
    import os
    import subprocess
    import sys

    import graphongames

    src = os.path.dirname(os.path.dirname(graphongames.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "import sys\nimport numpy as np\nimport graphongames as gg\n" + (
        "from graphongames import GridGraphon\n"
        + inspect.getsource(smooth_grid_kernel) + """
sbm4 = gg.load_config("configs/sbm4.yaml")
sbm4.n_list, sbm4.runs_per_n = [100, 1600], 2
grid = gg.ExperimentConfig(
    graphon=smooth_grid_kernel(),
    game=gg.LQHomogeneous(strategy_set=gg.StrategySet(0.0, 50.0),
                          xi=gg.ParameterBox(np.array([0.1, 0.0]),
                                             np.array([2.0, 1.5]))),
    eta_true=np.array([1.0, 0.9]), n_list=[200, 800], runs_per_n=2,
    master_seed=3)
for config in (sbm4, grid):
    records = gg.run_experiment(config)
    assert all(r.certificate == "row_sum" for r in records)
loaded = [m for m in ("scipy.sparse.linalg", "scipy.linalg")
          if m in sys.modules]
sys.exit(f"loaded: {loaded}" if loaded else 0)
""")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
