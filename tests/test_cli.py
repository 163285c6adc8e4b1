import numpy as np
import pytest
import yaml

from graphongames.cli import main
from conftest import ETA4, PI2, PI4, Q2, Q4

SHIPPED = "configs/sbm4.yaml"


GAME = {
    "kind": "lq_sbm",
    "theta1": 1.0,
    "strategy_set": [0.0, 10.0],
    "xi": {"lower": [0.01] * 4, "upper": [1.2] * 4},
}


def write_config(tmp_path, overrides=None, name="config.yaml"):
    cfg = {
        "graphon": {"kind": "sbm", "q": Q4.tolist(), "pi": PI4.tolist()},
        "game": GAME,
        "eta_true": ETA4.tolist(),
        "n_list": [40],
        "runs_per_n": 2,
        "master_seed": 7,
    }
    cfg.update(overrides or {})
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


class TestValidate:
    def test_shipped_config_ok(self, capsys):
        assert main(["validate", "--config", SHIPPED]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {"eta_true": [1.2, 0.6, 1.0, 0.8]})
        assert main(["validate", "--config", path]) == 1
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("graphon", [
        {"kind": "constant", "value": 0.3},
        {"kind": "sbm", "q": Q4[:3, :3].tolist(), "pi": [0.25, 0.25, 0.5]},
    ])
    def test_community_game_kernel_mismatch_exits_1(self, tmp_path, capsys,
                                                    graphon):
        path = write_config(tmp_path, {"graphon": graphon})
        assert main(["validate", "--config", path]) == 1
        assert "community game" in capsys.readouterr().err

    @pytest.mark.parametrize("key, whole, fraction", [
        ("n_list", [20.0], [20.5]),
        ("runs_per_n", 2.0, 2.5),
        ("master_seed", 7.0, 7.5),
        ("n_list", [20], [True]),
        ("runs_per_n", 2, True),
        ("master_seed", 7, False),
    ])
    def test_counts_must_be_whole_numbers(self, tmp_path, capsys, key, whole,
                                          fraction):
        # 20.0 is 20, but 20.5 is refused rather than truncated to 20, and
        # YAML's true and false are refused rather than read as 1 and 0
        path = write_config(tmp_path, {key: whole})
        assert main(["validate", "--config", path]) == 0
        path = write_config(tmp_path, {key: fraction}, name="fraction.yaml")
        assert main(["validate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert f"{key}: " in err and "is not a whole number" in err

    @pytest.mark.parametrize("overrides, section, key", [
        ({"outptu": "x.csv"}, "config", "outptu"),
        ({"optimiser": {"gtol": 1.0e-3}}, "config", "optimiser"),
        ({"graphon": {"kind": "sbm", "q": Q4.tolist(), "pi": PI4.tolist(),
                      "p": 0.5}}, "sbm graphon", "p"),
        ({"graphon": {"kind": "constant", "value": 0.3, "pi": [1.0]}},
         "constant graphon", "pi"),
        ({"graphon": {"kind": "grid", "csv": "k.csv", "sep": ","}},
         "grid graphon", "sep"),
        ({"game": {**GAME, "thetal": 2.0}}, "lq_sbm game", "thetal"),
        ({"game": {**GAME, "kind": "lq_homogeneous"}}, "lq_homogeneous game",
         "theta1"),
        ({"game": {**GAME, "xi": {"lower": [0.01] * 4, "upper": [1.2] * 4,
                                  "uper": [1.0] * 4}}}, "xi", "uper"),
        # the solver and optimizer settings are constants, not config keys
        ({"solver": {"tol": 1e-12}}, "config", "solver"),
        ({"optimizer": {"gtol": 1e-9, "max_iter": 10}}, "config",
         "optimizer"),
    ])
    def test_unknown_key_exits_1(self, tmp_path, capsys, overrides, section,
                                 key):
        # a misspelt or retired key would otherwise be ignored
        path = write_config(tmp_path, overrides)
        assert main(["validate", "--config", path]) == 1
        assert capsys.readouterr().err == (
            f"error: unknown key {key!r} in {section}\n")

    @pytest.mark.parametrize("overrides, key", [
        ({"runs_per_n": "abc"}, "runs_per_n"),
        ({"n_list": "abc"}, "n_list"),
        ({"eta_true": "x"}, "eta_true"),
        ({"game": {**GAME, "xi": [0.1, 0.2]}}, "xi"),
        ({"graphon": 5}, "graphon"),
    ])
    def test_value_of_the_wrong_type_exits_1(self, tmp_path, capsys,
                                             overrides, key):
        path = write_config(tmp_path, overrides)
        assert main(["validate", "--config", path]) == 1
        assert f" {key}: " in capsys.readouterr().err

    def test_empty_n_list_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {"n_list": []})
        assert main(["validate", "--config", path]) == 1
        assert "n_list is empty" in capsys.readouterr().err

    def test_negative_seed_override_exits_1(self, capsys):
        assert main(["validate", "--config", SHIPPED, "--seed", "-1"]) == 1
        assert "master_seed" in capsys.readouterr().err

    def test_missing_file_exits_1(self):
        assert main(["validate", "--config", "no/such/file.yaml"]) == 1

    def test_unparseable_yaml_exits_1(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("::: not yaml :::")
        assert main(["validate", "--config", str(bad)]) == 1

    def test_config_not_utf8_exits_1(self, tmp_path, capsys):
        # a UTF-16 byte-order mark is not UTF-8
        bad = tmp_path / "utf16.yaml"
        bad.write_bytes(b"\xff\xfe" + "master_seed: 7\n".encode("utf-16-le"))
        assert main(["validate", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot parse")


class TestSolve:
    def test_prints_piecewise_function(self, capsys):
        assert main(["solve", "--config", SHIPPED]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        left, right, value = lines[0].split()
        assert float(left) == 0.0 and float(right) == 0.25
        assert float(value) > 0.0

    def test_samples_written_to_file(self, tmp_path):
        out = tmp_path / "obs.txt"
        code = main([
            "solve", "--config", SHIPPED, "--samples", "400", "--out", str(out)
        ])
        assert code == 0
        values = np.loadtxt(out)
        assert values.shape == (400,)

    def test_eta_override(self, capsys):
        assert main(["solve", "--config", SHIPPED, "--eta", "0.1,0.1,0.1,0.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = np.array([float(line.split()[2]) for line in lines])
        assert np.all(values < 1.2)

    def test_binding_strategy_bound_exits_2(self, capsys):
        # the resolvent at this eta reaches 19.4 in community 1, beyond the
        # strategy set [0, 10], so it is not the equilibrium
        assert main(["solve", "--config", SHIPPED, "--eta=4.2,1,1,4.2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: ")
        assert captured.out == ""

    def test_negative_aggregate_effect_exits_1(self, capsys):
        # --eta is not box-checked, but the game needs theta2 >= 0: -1
        # would be community 1's theta2
        assert main(["solve", "--config", SHIPPED, "--eta=-1,0.5,0.5,0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "theta2 >= 0" in captured.err
        assert captured.out == ""


class TestEstimate:
    def test_self_recovery_from_exported_equilibrium(self, tmp_path, capsys):
        obs_path = tmp_path / "obs.txt"
        # 400 grid samples align exactly with quarter communities
        assert main([
            "solve", "--config", SHIPPED, "--samples", "400", "--out", str(obs_path)
        ]) == 0
        code = main([
            "estimate", "--config", SHIPPED, "--observation", str(obs_path)
        ])
        assert code == 0
        out = capsys.readouterr().out
        eta_line = [l for l in out.splitlines() if l.startswith("eta_hat")][0]
        eta_hat = np.array([float(v) for v in eta_line.split("=")[1].split(",")])
        assert np.abs(eta_hat - ETA4).max() <= 1e-6
        assert "converged = true" in out

    def test_fresh_sample_estimate(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["estimate", "--config", path, "--n", "60"]) == 0
        assert "eta_hat" in capsys.readouterr().out

    def test_infeasible_box_config_exits_1(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "graphon": {"kind": "constant", "value": 0.9},
                "game": {
                    "kind": "lq_homogeneous",
                    "strategy_set": [0.0, 10.0],
                    "xi": {"lower": [0.01, 0.01], "upper": [1.5, 2.0]},
                },
                "eta_true": [0.5, 0.5],
            },
        )
        # the box corner eta2 = 2.0 breaks the spectral condition, which is
        # a configuration defect caught before any numerics run
        assert main(["estimate", "--config", path, "--n", "30"]) == 1

    def test_numerical_failure_exits_2(self, capsys):
        # an explicit eta override is not box-checked; an infeasible one
        # fails inside the solver
        assert main(["solve", "--config", SHIPPED, "--eta", "1,5,5,5"]) == 2
        assert "numerical failure" in capsys.readouterr().err


NAN_PI = {"kind": "sbm", "q": Q4.tolist(), "pi": [float("nan")] * 4}
NAN_Q = {"kind": "sbm", "q": np.where(Q4 == 0.9, np.nan, Q4).tolist(),
         "pi": PI4.tolist()}


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command, observation, overrides",
        [
            (["solve", "--eta", "abc"], None, None),
            (["solve", "--eta", "0.5,0.5"], None, None),
            (["estimate"], "0.5\nabc\n0.7\n", None),
            (["estimate"], "", None),
            (["estimate"], "0.5\nnan\n0.7\n", None),
            (["estimate"], "0.5 0.6\n0.7 0.8\n", None),
            (["experiment", "--seed", "-1"], None, None),
            (["sample", "--seed", "-1"], None, None),
            (["estimate", "--seed", "-1"], None, None),
            (["experiment"], None, {"master_seed": -1}),
            (["sample", "--n", "0"], None, None),
            (["estimate", "--n", "0"], None, None),
            (["solve", "--samples", "-3"], None, None),
            (["experiment"], None,
             {"game": {**GAME, "strategy_set": [10.0, 0.0]}}),
            (["experiment"], None,
             {"game": {**GAME, "strategy_set": [0.0, float("inf")]}}),
            (["sample"], None, {"n_list": []}),
            (["estimate"], None, {"n_list": []}),
            (["validate"], None, {"graphon": NAN_PI}),
            (["experiment"], None, {"graphon": NAN_PI}),
            (["validate"], None, {"graphon": NAN_Q}),
            (["experiment"], None, {"graphon": NAN_Q}),
            (["experiment"], None, {"n_list": [0]}),
            (["experiment"], None, {"runs_per_n": -1}),
            (["validate"], None, "- 1\n- 2\n"),
        ],
        ids=[
            "eta-not-a-number",
            "eta-wrong-length",
            "observation-not-a-number",
            "observation-empty",
            "observation-nan",
            "observation-two-per-line",
            "experiment-negative-seed",
            "sample-negative-seed",
            "estimate-negative-seed",
            "config-negative-master-seed",
            "sample-zero-n",
            "estimate-zero-n",
            "solve-negative-samples",
            "experiment-inverted-strategy-set",
            "experiment-infinite-strategy-bound",
            "sample-empty-n-list",
            "estimate-empty-n-list",
            "validate-nan-community-weights",
            "experiment-nan-community-weights",
            "validate-nan-kernel-value",
            "experiment-nan-kernel-value",
            "experiment-zero-network-size",
            "experiment-negative-runs",
            "validate-config-not-a-mapping",
        ],
    )
    def test_exits_1_without_traceback(self, tmp_path, capsys, command,
                                       observation, overrides):
        if overrides is None:
            config = SHIPPED
        elif isinstance(overrides, str):  # the whole file
            config = str(tmp_path / "config.yaml")
            with open(config, "w") as fh:
                fh.write(overrides)
        else:
            config = write_config(tmp_path, overrides)
        argv = command + ["--config", config, "--out", str(tmp_path / "out")]
        if observation is not None:
            path = tmp_path / "obs.txt"
            path.write_text(observation)
            argv += ["--observation", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["estimate", "--config", SHIPPED, "--n", "abc"],
        ["solve", "--config", SHIPPED, "--samples", "2.5"],
        ["validate"],
        ["estimate", "--config", SHIPPED, "--observation", "obs.txt",
         "--n", "400"],
    ], ids=["n-not-an-integer", "samples-not-an-integer", "no-config",
            "observation-and-n"])
    def test_usage_error_exits_1(self, capsys, argv):
        # argparse's own code for a usage error, 2, is the code of a
        # numerical failure
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: graphon-games" in capsys.readouterr().out


class TestSampleAndExperiment:
    def test_sample_writes_files(self, tmp_path, capsys):
        path = write_config(tmp_path)
        prefix = str(tmp_path / "net")
        assert main([
            "sample", "--config", path, "--n", "25", "--out", prefix
        ]) == 0
        edges = (tmp_path / "net_edges.txt").read_text().split()
        assert len(edges) % 2 == 0
        labels = np.loadtxt(tmp_path / "net_labels.txt")
        assert labels.shape == (25,)

    def test_experiment_writes_all_outputs(self, tmp_path):
        path = write_config(tmp_path, {"output": str(tmp_path / "res.csv")})
        assert main(["experiment", "--config", path]) == 0
        res = (tmp_path / "res.csv").read_text()
        assert res.splitlines()[0].startswith("N,run,seed,eta_hat_1")
        assert len(res.splitlines()) == 3  # header + 2 runs
        quant = (tmp_path / "res.csv.quantiles.csv").read_text()
        assert "err_inf" in quant
        timing = (tmp_path / "res.csv.timings.csv").read_text()
        assert timing.splitlines()[0] == (
            "N,run,wall_time_s,sample_s,solve_s,estimate_s,sample_minflt,"
            "evaluations,br_iterations,route,residual,interior,certificate,"
            "contraction_margin,failure"
        )
        assert len(timing.splitlines()) == 3
        # the sampling stage's minor page faults: a count
        for row in timing.splitlines()[1:]:
            assert int(row.split(",")[6]) >= 0

    def test_experiment_progress_leaves_outputs_unchanged(self, tmp_path,
                                                          capsys):
        path = write_config(tmp_path)
        plain, streamed = tmp_path / "plain.csv", tmp_path / "streamed.csv"
        assert main(["experiment", "--config", path, "--out", str(plain)]) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        assert main(["experiment", "--config", path, "--out", str(streamed),
                     "--progress"]) == 0
        loud = capsys.readouterr()
        lines = loud.err.splitlines()
        assert [l.split()[:2] for l in lines] == [["N=40", "run=0"],
                                                 ["N=40", "run=1"]]
        assert all("converged=" in l and "wall_time_s=" in l for l in lines)
        assert loud.out.replace(str(streamed), str(plain)) == quiet.out
        for suffix in ("", ".quantiles.csv"):
            assert (tmp_path / f"streamed.csv{suffix}").read_bytes() == (
                tmp_path / f"plain.csv{suffix}").read_bytes()

    @pytest.mark.parametrize("overrides", [{"n_list": []}, {"runs_per_n": 0}],
                             ids=["empty-n-list", "zero-runs"])
    def test_empty_sweep_exits_1_writing_nothing(self, tmp_path, capsys,
                                                 overrides):
        path = write_config(tmp_path, overrides)
        out = str(tmp_path / "res.csv")
        assert main(["experiment", "--config", path, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]

    @pytest.mark.parametrize("out", ["missing/res.csv", "."],
                             ids=["missing-directory", "a-directory"])
    def test_bad_results_path_exits_1_before_any_run(
            self, tmp_path, capsys, monkeypatch, out):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr("graphongames.cli.run_experiment", no_run)
        path = write_config(tmp_path)
        out = str(tmp_path / out)
        assert main(["experiment", "--config", path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and out in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]

    def test_experiment_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path, {"output": str(tmp_path / "a.csv")})
        main(["experiment", "--config", path])
        main(["experiment", "--config", path, "--seed", "99",
              "--out", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_text() != (tmp_path / "b.csv").read_text()


class TestOut:
    @pytest.mark.parametrize("command", [
        ["solve"], ["estimate", "--n", "60"], ["diagnose"]])
    def test_out_holds_the_lines_and_stdout_is_empty(self, tmp_path, capsys,
                                                     command):
        path = write_config(tmp_path)
        assert main(command + ["--config", path]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "out.txt"
        assert main(command + ["--config", path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed and printed.count("\n") >= 4


class TestDiagnose:
    def test_benchmark_identifiable(self, capsys):
        assert main(["diagnose", "--config", SHIPPED]) == 0
        out = capsys.readouterr().out
        assert "identifiable = true" in out
        assert "constant" in out

    def test_constant_graphon_non_identifiable(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "graphon": {"kind": "constant", "value": 0.5},
                "game": {
                    "kind": "lq_homogeneous",
                    "strategy_set": [0.0, 10.0],
                    "xi": {"lower": [0.01, 0.01], "upper": [1.5, 1.2]},
                },
                "eta_true": [1.0, 1.0],
            },
        )
        assert main(["diagnose", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "identifiable = false" in out
        assert "gamma = 1" in out

    def test_two_block_homogeneous_game(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "graphon": {"kind": "sbm", "q": Q2.tolist(), "pi": PI2.tolist()},
                "game": {
                    "kind": "lq_homogeneous",
                    "strategy_set": [0.0, 50.0],
                    "xi": {"lower": [0.1, 0.0], "upper": [2.0, 1.5]},
                },
                "eta_true": [1.0, 0.9],
            },
        )
        assert main(["diagnose", "--config", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "identifiable = true",
            "constant = 14.239611584596751",
            "gamma = 0.65221598606541542",
            "lambda_m = 0.52667248260543975",
            "nu = 0.037456144940897801",
            "z_perp_norm = 0.19353590090961884",
        ]

    def test_one_community_game_takes_the_community_constant(self, tmp_path,
                                                             capsys):
        # one community has one row of maps, like a shared game; theta1 is
        # known (D1 = 0), so the community closed form applies
        path = write_config(
            tmp_path,
            {
                "graphon": {"kind": "sbm", "q": [[0.5]], "pi": [1.0]},
                "game": {
                    "kind": "lq_sbm",
                    "theta1": 1.0,
                    "strategy_set": [0.0, 10.0],
                    "xi": {"lower": [0.01], "upper": [1.2]},
                },
                "eta_true": [0.8],
            },
        )
        assert main(["diagnose", "--config", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "identifiable = true",
            "constant = 2.3999999999999999",
            "min_aggregate = 0.83333333333333337",
            "min_weight = 1",
        ]
