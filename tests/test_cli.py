import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmsgd import cli, engine, metrics, theory, topology
from swarmsgd import objective as obj
from swarmsgd.cli import (
    ConfigError,
    ExperimentConfig,
    build_graph,
    build_objective,
    cmd_bounds,
    cmd_compare,
    cmd_simulate,
    cmd_sweep,
    cmd_validate,
    experiment_config_from_dict,
    load_experiment_config,
    main,
    predicted_crossing_updates,
)


def _config_dict(**overrides):
    data = {
        "objective": {"kind": "ridge", "dim": 4, "rho": 0.1},
        "run": {
            "n_threads": 5,
            "step_size": 0.01,
            "attraction": 1.0,
            "mean_sample_time": 0.02,
            "max_updates": 600,
            "record_every": 200,
        },
        "graph": {"kind": "complete"},
        "replications": 2,
        "threshold": 0.1,
        "master_seed": 17,
        "output_dir": "out",
    }
    data.update(overrides)
    return data


def test_config_defaults_and_parsing():
    cfg = experiment_config_from_dict(_config_dict())
    assert cfg.replications == 2
    assert cfg.threshold == 0.1
    assert cfg.run["scheme"] == engine.SCHEME_SWARM
    assert cfg.validate["max_updates"] == 500
    # a block holds only the fields its kind reads
    assert cfg.objective == {"kind": "ridge", "dim": 4, "rho": 0.1, "x_tilde": None}
    assert cfg.graph == {"kind": "complete"}
    sine = experiment_config_from_dict(
        _config_dict(objective={"kind": "nonconvex_sine", "dim": 2}, graph=None)
    )
    assert sine.objective["noise_std"] == 1.0
    assert sine.graph == {"kind": "erdos_renyi", "p": None, "fixed_across_replications": False}


def test_config_errors_name_the_field():
    with pytest.raises(ConfigError, match="objective"):
        experiment_config_from_dict({"run": {"n_threads": 3}})
    with pytest.raises(ConfigError, match="objective.dim"):
        experiment_config_from_dict(_config_dict(objective={"kind": "ridge"}))
    with pytest.raises(ConfigError, match="run.n_threads"):
        experiment_config_from_dict(_config_dict(run={"step_size": 0.01}))
    with pytest.raises(ConfigError, match="unknown config field: run.step"):
        experiment_config_from_dict(
            _config_dict(run={"n_threads": 3, "step": 0.1, "max_updates": 10})
        )
    with pytest.raises(ConfigError, match="graph.file"):
        experiment_config_from_dict(_config_dict(graph={"kind": "file"}))
    with pytest.raises(ConfigError, match="scheme"):
        experiment_config_from_dict(
            _config_dict(run={"n_threads": 3, "scheme": "warp", "max_updates": 10})
        )
    with pytest.raises(ConfigError, match="threshold"):
        experiment_config_from_dict(_config_dict(threshold=-1.0))
    with pytest.raises(ConfigError, match="replications"):
        experiment_config_from_dict(_config_dict(replications=0))
    with pytest.raises(ConfigError):
        experiment_config_from_dict([1, 2])


def test_quadratic_config_requires_matrix():
    with pytest.raises(ConfigError, match="objective.Q"):
        experiment_config_from_dict(_config_dict(objective={"kind": "quadratic"}))
    cfg = experiment_config_from_dict(
        _config_dict(objective={"kind": "quadratic", "Q": [[1.0]], "b": [0.0]})
    )
    spec = build_objective(cfg)
    assert spec.kind == obj.QUADRATIC and spec.dim == 1


def test_build_objective_ridge_target_is_seeded():
    cfg = experiment_config_from_dict(_config_dict())
    a = build_objective(cfg)
    b = build_objective(cfg)
    assert np.array_equal(a.x_tilde, b.x_tilde)
    other = experiment_config_from_dict(_config_dict(master_seed=18))
    c = build_objective(other)
    assert not np.array_equal(a.x_tilde, c.x_tilde)

    explicit = experiment_config_from_dict(
        _config_dict(objective={"kind": "ridge", "dim": 2, "x_tilde": [0.25, 0.75]})
    )
    assert np.allclose(build_objective(explicit).x_tilde, [0.25, 0.75])


def test_build_graph_modes(tmp_path):
    cfg = experiment_config_from_dict(_config_dict())
    g = build_graph(cfg, 0)
    assert np.array_equal(g.adjacency, topology.complete_graph(5).adjacency)

    er = experiment_config_from_dict(_config_dict(graph={"kind": "erdos_renyi", "p": 0.9}))
    g0a = build_graph(er, 0)
    g0b = build_graph(er, 0)
    g1 = build_graph(er, 1)
    assert np.array_equal(g0a.adjacency, g0b.adjacency)
    assert not np.array_equal(g0a.adjacency, g1.adjacency)

    pinned = experiment_config_from_dict(
        _config_dict(graph={"kind": "erdos_renyi", "p": 0.9, "fixed_across_replications": True})
    )
    assert np.array_equal(build_graph(pinned, 0).adjacency, build_graph(pinned, 3).adjacency)

    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}))
    from_file = experiment_config_from_dict(
        _config_dict(graph={"kind": "file", "file": str(path)})
    )
    assert np.array_equal(build_graph(from_file, 0).adjacency, topology.path_graph(5).adjacency)

    wrong_n = experiment_config_from_dict(
        _config_dict(
            graph={"kind": "file", "file": str(path)},
            run={"n_threads": 6, "max_updates": 10},
        )
    )
    with pytest.raises(ConfigError, match="graph.file .* has 5 vertices, run.n_threads is 6"):
        build_graph(wrong_n, 0)


def test_default_edge_probability_is_clamped():
    cfg = experiment_config_from_dict(
        _config_dict(run={"n_threads": 6, "max_updates": 10}, graph={"kind": "erdos_renyi"})
    )
    # 10/6 > 1 collapses to the complete graph
    g = build_graph(cfg, 0)
    assert np.array_equal(g.adjacency, topology.complete_graph(6).adjacency)


def test_predicted_crossing_updates():
    spec = obj.ridge_spec(0.1, np.full(4, 0.9))
    k_loose = predicted_crossing_updates(spec, 0.01, 0.5)
    k_tight = predicted_crossing_updates(spec, 0.01, 0.01)
    assert k_loose is not None and k_tight is not None
    assert 0 < k_loose < k_tight
    sine = obj.nonconvex_sine_spec(3)
    assert predicted_crossing_updates(sine, 0.01, 0.1) is None

    quad = obj.quadratic_spec(np.eye(2), np.array([0.6, -0.8]), noise_std=0.0)  # U0 = 1
    for gamma in (0.01, 0.3, 0.5, 1.5):
        rate = 1.0 - 2.0 * gamma + gamma**2
        expected = max(1, math.ceil(math.log(1.0 / 0.1) / -math.log(rate)))
        assert predicted_crossing_updates(quad, gamma, 0.1) == expected
    # kappa = L with gamma = 1/L contracts to zero; gamma >= 2/L diverges
    for gamma in (1.0, 2.0, 2.5, 0.0, -0.1, math.nan):
        assert predicted_crossing_updates(quad, gamma, 0.1) is None
    # a start already inside the threshold takes one step
    assert predicted_crossing_updates(quad, 0.01, 1.0) == 1
    assert predicted_crossing_updates(quad, 0.01, 2.0) == 1


def test_cmd_simulate_outputs_and_determinism(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cfg1 = experiment_config_from_dict(_config_dict(output_dir=out1))
    cfg2 = experiment_config_from_dict(_config_dict(output_dir=out2))
    report1 = cmd_simulate(cfg1)
    report2 = cmd_simulate(cfg2)
    assert report1["replications"] == 2
    for name in ("run_0000.csv", "run_0001.csv", "summary.json"):
        b1 = (tmp_path / "a" / name).read_bytes()
        b2 = (tmp_path / "b" / name).read_bytes()
        assert b1 == b2
    loaded = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert loaded["replications"] == 2
    assert len(loaded["runs"]) == 2
    assert report2["n_hit"] == report1["n_hit"]


def test_cmd_simulate_jobs_parallel_identical(tmp_path):
    out1, out2 = str(tmp_path / "serial"), str(tmp_path / "parallel")
    cmd_simulate(experiment_config_from_dict(_config_dict(output_dir=out1)), jobs=1)
    cmd_simulate(experiment_config_from_dict(_config_dict(output_dir=out2)), jobs=2)
    for name in ("run_0000.csv", "run_0001.csv", "summary.json"):
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "parallel" / name).read_bytes()


def test_cmd_simulate_centralized_scheme(tmp_path):
    cfg = experiment_config_from_dict(
        _config_dict(
            output_dir=str(tmp_path / "c"),
            run={"n_threads": 5, "scheme": engine.SCHEME_CENTRALIZED, "max_updates": 50},
        )
    )
    report = cmd_simulate(cfg)
    assert report["scheme"] == engine.SCHEME_CENTRALIZED
    assert all(r["n_samples"] == 5 * r["n_updates"] for r in report["runs"])


def test_cmd_compare_report_and_mean_identity(tmp_path):
    cfg = experiment_config_from_dict(
        _config_dict(
            output_dir=str(tmp_path / "cmp"),
            replications=3,
            run={"n_threads": 5, "step_size": 0.01, "mean_sample_time": 0.02},
        )
    )
    report = cmd_compare(cfg)
    assert report["instance"] == {"dim": 4, "n_threads": 5}
    assert report["predicted_ratio"] == pytest.approx(sum(1 / i for i in range(1, 6)))
    included = [r for r in report["per_run"] if r["T_s"] is not None and r["T_c"] is not None]
    assert included, "expected the tiny instance to cross"
    # the per-run rows must reproduce the reported means exactly
    assert report["T_s_mean"] == pytest.approx(
        sum(r["T_s"] for r in included) / len(included), rel=1e-12
    )
    assert report["T_c_mean"] == pytest.approx(
        sum(r["T_c"] for r in included) / len(included), rel=1e-12
    )
    assert report["ratio"] == pytest.approx(report["T_c_mean"] / report["T_s_mean"], rel=1e-12)
    seeds = {r["seed"] for r in report["per_run"]}
    assert len(seeds) == 3  # one swarm stream per replication
    data = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
    assert data == report


def test_cmd_compare_excludes_non_crossing_runs(tmp_path):
    # a horizon far too small for any crossing forces exclusions
    cfg = experiment_config_from_dict(
        _config_dict(
            output_dir=str(tmp_path / "none"),
            replications=2,
            threshold=1e-9,
            run={"n_threads": 5, "max_virtual_time": 0.02},
        )
    )
    report = cmd_compare(cfg)
    assert report["excluded"] == [0, 1]
    assert report["T_s_mean"] is None and report["ratio"] is None


def test_cmd_compare_requires_threshold(tmp_path):
    cfg = experiment_config_from_dict(
        _config_dict(output_dir=str(tmp_path / "x"), threshold=None)
    )
    with pytest.raises(ConfigError, match="threshold"):
        cmd_compare(cfg)


def test_compare_determinism(tmp_path):
    kwargs = dict(replications=2)
    cfg1 = experiment_config_from_dict(
        _config_dict(output_dir=str(tmp_path / "r1"), **kwargs)
    )
    cfg2 = experiment_config_from_dict(
        _config_dict(output_dir=str(tmp_path / "r2"), **kwargs)
    )
    cmd_compare(cfg1)
    cmd_compare(cfg2)
    assert (tmp_path / "r1" / "comparison.json").read_bytes() == (
        tmp_path / "r2" / "comparison.json"
    ).read_bytes()


def _bounds_params(**overrides):
    params = {
        "kappa": 0.8667,
        "L": 0.8667,
        "sigma_sq": 1.0,
        "gamma": 0.01,
        "a": 1.0,
        "lambda2": 6.0,
        "d_bar": 5.0,
        "N": 6,
    }
    params.update(overrides)
    return params


def test_cmd_bounds_report(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_bounds_params()))
    report = cmd_bounds(str(path), str(tmp_path / "out"))
    assert report["harmonic"]["H_N"] == pytest.approx(sum(1 / i for i in range(1, 7)))
    assert report["strong_convex"]["admissible"] is True
    assert report["centralized"]["admissible"] is True
    assert report["convex"]["admissible"] is True
    assert (tmp_path / "out" / "bounds.json").exists()


def test_cmd_bounds_huge_step_all_inadmissible(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_bounds_params(gamma=10.0)))
    report = cmd_bounds(str(path), None)
    assert report["strong_convex"]["admissible"] is False
    assert report["centralized"]["admissible"] is False
    assert report["convex"]["admissible"] is False
    assert report["nonconvex"]["admissible"] is False


def test_cmd_bounds_missing_field(tmp_path):
    path = tmp_path / "p.json"
    params = _bounds_params()
    del params["lambda2"]
    path.write_text(json.dumps(params))
    with pytest.raises(ConfigError, match="lambda2"):
        cmd_bounds(str(path), None)


def test_cmd_validate(tmp_path):
    cfg = experiment_config_from_dict(
        _config_dict(
            output_dir=str(tmp_path / "val"),
            validate={
                "max_updates": 120,
                "record_every": 30,
                "lemma2_states": 2,
                "lemma2_replications": 1500,
                "sigma_samples": 6000,
            },
        )
    )
    report = cmd_validate(cfg)
    assert report["lemma4_violations"] == 0
    assert report["lemma4_checks"] == len(
        [c for c in report["checks"] if c["check"] == "lemma4"]
    )
    assert report["lemma2_checks"] == 2
    for c in report["checks"]:
        assert set(c) >= {"check", "k", "holds", "lhs", "rhs"}
    assert (tmp_path / "val" / "validation.json").exists()


def test_cmd_sweep(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(
        json.dumps(
            {
                "base": {"kappa": 0.8667, "L": 0.8667, "sigma_sq": 1.0},
                "grid": {"gamma": [0.005, 0.01], "a": [1.0], "N": [6]},
            }
        )
    )
    out = cmd_sweep(str(path), str(tmp_path / "out"))
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "family,gamma,a,N,lambda2,d_bar,admissible,omega,rate,bound"
    assert len(lines) == 1 + 2 * 4  # two gammas, four bound families
    families = {line.split(",")[0] for line in lines[1:]}
    assert families == {"strong_convex", "centralized", "convex", "nonconvex"}
    for line in lines[1:]:
        assert line.split(",")[6] in ("0", "1")


def test_main_exit_codes(tmp_path):
    good = tmp_path / "exp.json"
    good.write_text(json.dumps(_config_dict(output_dir=str(tmp_path / "sim"))))
    assert main(["simulate", "--config", str(good)]) == 0

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"objective": {"kind": "ridge"}}))
    assert main(["simulate", "--config", str(missing)]) == 2
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{")
    assert main(["bounds", "--config", str(bad_json)]) == 2

    with pytest.raises(SystemExit):
        main(["unknown-command"])
    with pytest.raises(SystemExit):
        main(["simulate"])  # --config is required


def test_main_missing_graph_file_is_exit_2(tmp_path, capsys):
    cfg = _config_dict(
        graph={"kind": "file", "file": str(tmp_path / "absent.json")},
        output_dir=str(tmp_path / "sim"),
    )
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    # A missing graph file is bad input; exit 1 is covered by
    # test_diverging_simulate_is_exit_1_naming_the_run.
    assert main(["simulate", "--config", str(path)]) == 2
    assert "graph.file" in capsys.readouterr().err


def test_main_overrides(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(_config_dict(output_dir=str(tmp_path / "ignored"))))
    out = tmp_path / "chosen"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "summary.json").exists()

    out2 = tmp_path / "seeded"
    assert (
        main(["simulate", "--config", str(cfg_path), "--out", str(out2), "--seed", "99"]) == 0
    )
    assert (out / "run_0000.csv").read_bytes() != (out2 / "run_0000.csv").read_bytes()


def test_main_bounds_and_sweep_commands(tmp_path, capsys):
    bounds_path = tmp_path / "b.json"
    bounds_path.write_text(json.dumps(_bounds_params()))
    assert main(["bounds", "--config", str(bounds_path), "--out", str(tmp_path / "bo")]) == 0
    out = capsys.readouterr().out
    assert "harmonic" in out

    sweep_path = tmp_path / "s.json"
    sweep_path.write_text(
        json.dumps({"base": {"kappa": 1.0, "L": 1.0, "sigma_sq": 1.0}, "grid": {}})
    )
    assert main(["sweep", "--config", str(sweep_path), "--out", str(tmp_path / "so")]) == 0
    assert (tmp_path / "so" / "sweep.csv").exists()


def test_main_validate_command(tmp_path):
    cfg = _config_dict(
        output_dir=str(tmp_path / "val"),
        validate={
            "max_updates": 60,
            "record_every": 20,
            "lemma2_states": 1,
            "lemma2_replications": 1200,
            "sigma_samples": 5000,
        },
    )
    path = tmp_path / "v.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 0


def test_validate_ignores_threshold_and_stop_at_threshold(tmp_path):
    run = {"n_threads": 5, "max_updates": 600, "stop_at_threshold": True}
    cfg = _config_dict(
        run=run,
        threshold=None,
        output_dir=str(tmp_path / "val"),
        validate={"max_updates": 60, "lemma2_states": 1, "lemma2_replications": 1200},
    )
    path = tmp_path / "v.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 0


@pytest.mark.parametrize(
    "kind,build", [("path", topology.path_graph), ("star", topology.star_graph)]
)
def test_documented_graph_kinds_run(tmp_path, kind, build):
    cfg = _config_dict(graph={"kind": kind}, output_dir=str(tmp_path / kind))
    assert np.array_equal(
        build_graph(experiment_config_from_dict(cfg), 0).adjacency, build(5).adjacency
    )
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 0
    assert (tmp_path / kind / "summary.json").exists()


def test_unknown_graph_kind_is_exit_2_naming_the_field(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_config_dict(graph={"kind": "ring"})))
    assert main(["simulate", "--config", str(path)]) == 2
    assert "graph.kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field", ["step_size", "attraction", "mean_sample_time", "max_virtual_time"]
)
def test_non_finite_run_parameter_is_exit_2(tmp_path, capsys, field):
    run = {"n_threads": 5, "record_every": 200, field: math.nan}
    if field != "max_virtual_time":
        run["max_updates"] = 600
    path = tmp_path / "exp.json"
    # json writes NaN as a bare literal, which json.load reads back
    path.write_text(json.dumps(_config_dict(run=run, output_dir=str(tmp_path / "o"))))
    assert main(["simulate", "--config", str(path)]) == 2
    assert field in capsys.readouterr().err


def test_main_validate_exit_1_on_lemma2_failure(tmp_path, monkeypatch):
    real_check = cli.metrics.lemma2_monte_carlo_check

    def failing_check(*args, **kwargs):
        result = real_check(*args, **kwargs)
        return type(result)(**{**result.__dict__, "holds": False})

    monkeypatch.setattr(cli.metrics, "lemma2_monte_carlo_check", failing_check)
    cfg = _config_dict(
        output_dir=str(tmp_path / "val"),
        validate={
            "max_updates": 60,
            "record_every": 20,
            "lemma2_states": 1,
            "lemma2_replications": 1200,
            "sigma_samples": 5000,
        },
    )
    path = tmp_path / "v.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 1
    report = json.loads((tmp_path / "val" / "validation.json").read_text())
    assert report["lemma2_violations"] == 1 and report["lemma4_violations"] == 0


def test_compare_counts_failed_lemma4_checks(tmp_path, monkeypatch):
    real_check = cli.metrics.lemma4_check
    failed = []

    def failing_check(*args, **kwargs):
        result = real_check(*args, **kwargs)
        failed.append(result)
        return type(result)(**{**result.__dict__, "holds": False})

    monkeypatch.setattr(cli.metrics, "lemma4_check", failing_check)
    cfg = experiment_config_from_dict(_config_dict(output_dir=str(tmp_path / "cmp")))
    report = cmd_compare(cfg)
    assert failed
    assert report["lemma4_violations"] == len(failed)
    assert all(r["lemma4_violations"] > 0 for r in report["per_run"])


def test_cmd_compare_jobs_parallel_identical(tmp_path):
    serial = cmd_compare(
        experiment_config_from_dict(_config_dict(output_dir=str(tmp_path / "serial"))), jobs=1
    )
    parallel = cmd_compare(
        experiment_config_from_dict(_config_dict(output_dir=str(tmp_path / "parallel"))), jobs=2
    )
    assert serial["per_run"] == parallel["per_run"]
    assert (tmp_path / "serial" / "comparison.json").read_bytes() == (
        tmp_path / "parallel" / "comparison.json"
    ).read_bytes()


@pytest.mark.parametrize("jobs", [0, -3, True, 2.5])
@pytest.mark.parametrize("command", [cmd_simulate, cmd_compare])
def test_jobs_out_of_range_is_a_config_error_naming_it(tmp_path, command, jobs):
    config = experiment_config_from_dict(_config_dict(output_dir=str(tmp_path / "o")))
    with pytest.raises(ConfigError, match="--jobs"):
        command(config, jobs=jobs)
    assert not any(tmp_path.iterdir())  # checked before anything is written


def test_compare_horizon_requires_prediction_or_time(tmp_path):
    # a nonconvex objective has no closed-form crossing prediction, so
    # compare demands an explicit horizon
    cfg = experiment_config_from_dict(
        _config_dict(
            objective={"kind": "nonconvex_sine", "dim": 3},
            output_dir=str(tmp_path / "nc"),
        )
    )
    cfg = ExperimentConfig(
        **{
            **cfg.__dict__,
            "run": {**cfg.run, "max_updates": None, "max_virtual_time": None},
        }
    )
    with pytest.raises(ConfigError, match="max_virtual_time"):
        cli._compare_horizons(cfg, build_objective(cfg))


@pytest.mark.parametrize("scheme", engine.SCHEMES)
def test_diverging_simulate_is_exit_1_naming_the_run(tmp_path, capsys, scheme):
    out = tmp_path / "o"
    cfg = _config_dict(
        objective={"kind": "ridge", "dim": 3, "rho": 0.1},
        run={"n_threads": 4, "scheme": scheme, "step_size": 50, "max_updates": 2000},
        output_dir=str(out),
    )
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert scheme in err and "replication 0" in err and "diverged at update" in err
    assert not (out / "summary.json").exists()


def _exit_code_and_err(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"replications": "x"}, "replications"),
        ({"objective": [1]}, "objective"),
        ({"run": {"n_threads": 5, "max_updates": 10, "step_size": "fast"}}, "run.step_size"),
        ({"run": {"n_threads": 5, "max_updates": 10, "stop_at_threshold": "yes"}},
         "run.stop_at_threshold"),
        ({"run": {"n_threads": 2.5, "max_updates": 10}}, "run.n_threads"),
        ({"objective": {"kind": "ridge", "dim": 2, "x_tilde": [0.5, "a"]}}, "objective.x_tilde[1]"),
        ({"objective": {"kind": "ridge", "dim": 2, "rho": -1.0}}, "objective"),
        ({"graph": {"kind": "complete", "p": math.inf}}, "graph.p"),
        ({"validate": {"lemma2_states": None, "max_updates": "many"}}, "validate.max_updates"),
        ({"master_seed": 1.5}, "master_seed"),
        ({"output_dir": 3}, "output_dir"),
        ({"run": {"n_threads": 1, "max_updates": 10}}, "run.n_threads"),
        ({"run": {"n_threads": 0, "max_updates": 10, "scheme": "centralized"}}, "run.n_threads"),
        ({"graph": {"kind": "erdos_renyi", "p": 0}}, "graph.p"),
        ({"graph": {"kind": "erdos_renyi", "p": 1.5}}, "graph.p"),
        ({"validate": {"lemma2_replications": 10}}, "validate.lemma2_replications"),
        ({"validate": {"max_updates": 0}}, "validate.max_updates"),
        ({"master_seed": -1}, "master_seed"),
        ({"master_seed": 2**64}, "master_seed"),
        ({"run": {"n_threads": 5, "max_updates": 10, "track_running_average": True}},
         "unknown config field: run.track_running_average"),
        ({"run": {"n_threads": 5, "max_updates": 10, "step_size": -1}}, "run.step_size"),
        ({"run": {"n_threads": 5, "max_updates": 10, "mean_sample_time": 0}},
         "run.mean_sample_time"),
        ({"run": {"n_threads": 5, "max_updates": 10, "attraction": -1}}, "run.attraction"),
        ({"run": {"n_threads": 5, "max_updates": 10, "record_every": 0}}, "run.record_every"),
        ({"run": {"n_threads": 5, "max_updates": 0}}, "run.max_updates"),
        ({"validate": {"lemma2_states": -1}}, "validate.lemma2_states"),
        ({"validate": {"sigma_samples": -5}}, "validate.sigma_samples"),
        ({"objective": {"kind": "ridge", "dim": 0}}, "objective.dim"),
        ({"objective": {"kind": "ridge", "dim": 2, "rho": 0}}, "objective.rho"),
        ({"objective": {"kind": "ridge", "x_tilde": [0.5, 1.5]}}, "objective.x_tilde[1]"),
        ({"objective": {"kind": "nonconvex_sine", "dim": 2, "noise_std": -1}},
         "objective.noise_std"),
        ({"objective": {"kind": "ridge", "dim": 2, "noise_std": 1.0}}, "objective.noise_std"),
        ({"objective": {"kind": "nonconvex_sine", "dim": 2, "rho": 0.1}}, "objective.rho"),
        ({"objective": {"kind": "quadratic", "dim": 7, "Q": [[1, 0], [0, 1]], "b": [0, 0]}},
         "objective.dim"),
        ({"graph": {"kind": "erdos_renyi", "file": "g.json"}}, "graph.file"),
        ({"graph": {"kind": "complete", "fixed_across_replications": True}},
         "graph.fixed_across_replications"),
        ({"graph": {"kind": "erdos_renyi", "p": 0.001}}, "graph.p"),
        # refused by the objective constructor and the engine's run config
        ({"objective": {"kind": "quadratic", "Q": [[1, 0], [0, -1]], "b": [0, 0]}},
         "objective: Q must be positive definite"),
        ({"run": {"n_threads": 5, "max_updates": 10, "max_virtual_time": 1.0}},
         "exactly one horizon is required"),
        ({"run": {"n_threads": 5}}, "run.max_updates or run.max_virtual_time"),
        # an integer too large for a float
        ({"run": {"n_threads": 5, "max_updates": 10, "step_size": 10**400}}, "run.step_size"),
    ],
)
def test_bad_experiment_field_is_exit_2_naming_it(tmp_path, capsys, overrides, field):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_config_dict(**{"output_dir": str(tmp_path / "o"), **overrides})))
    code, err = _exit_code_and_err(capsys, ["simulate", "--config", str(path)])
    assert code == 2
    assert field in err


@pytest.mark.parametrize(
    "option,value",
    [("--seed", "-1"), ("--seed", str(2**64)), ("--jobs", "0"), ("--jobs", "-3")],
)
def test_option_override_out_of_range_is_exit_2(tmp_path, capsys, option, value):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_config_dict(output_dir=str(tmp_path / "o"))))
    code, err = _exit_code_and_err(capsys, ["simulate", "--config", str(path), option, value])
    assert code == 2
    assert option in err


def test_every_run_field_is_a_run_config_field():
    # all but run.scheme, which picks the engine function instead
    run_config_fields = {f.name for f in dataclasses.fields(engine.RunConfig)}
    assert set(cli._SCHEMA["config"]["run"]) - run_config_fields == {"scheme"}


def test_every_library_field_takes_the_library_range():
    # a field the library also takes points at the library's own range,
    # so the two cannot drift apart
    config = cli._SCHEMA["config"]
    blocks = [
        (config["objective"], obj.RANGES),
        (config["run"], engine.RANGES),
        (config["validate"], engine.RANGES),
        ({name: config["validate"][name] for name in ("lemma2_replications", "sigma_samples")},
         {"lemma2_replications": metrics.RANGES["n_replications"],
          "sigma_samples": metrics.RANGES["sigma_samples"]}),
        ({"threshold": config["threshold"]}, engine.RANGES),
        (config["graph"], topology.RANGES),
        (cli._SCHEMA["bounds"], theory.RANGES),
        (cli._SCHEMA["sweep"]["base"], theory.RANGES),
        (cli._SCHEMA["sweep"]["grid"], theory.RANGES),
    ]
    shared = [
        (block[name], ranges[name]) for block, ranges in blocks for name in block.keys() & ranges
    ]
    assert len(shared) == 44
    assert all(entry[2] is range_ for entry, range_ in shared)



@pytest.mark.parametrize("command", ["compare", "validate"])
def test_single_thread_swarm_run_is_exit_2(tmp_path, capsys, command):
    # compare and validate run the swarm whatever run.scheme says
    run = {"n_threads": 1, "max_updates": 10, "scheme": "centralized"}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_config_dict(run=run, output_dir=str(tmp_path / "o"))))
    code, err = _exit_code_and_err(capsys, [command, "--config", str(path)])
    assert code == 2
    assert "run.n_threads must be an integer at least 2, got 1" in err


def test_non_finite_output_is_refused_before_writing(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(ValueError):
        cli._write_json({"x": math.nan}, str(path))
    assert not path.exists()


@pytest.mark.parametrize(
    "params,field",
    [
        (_bounds_params(gamma="x"), "gamma"),
        (_bounds_params(gamma="NaN"), "gamma"),
        (_bounds_params(gamma=math.nan), "gamma"),
        (_bounds_params(N=6.5), "N"),
        (_bounds_params(D=[1]), "D"),
        ([1, 2], "bound parameters"),
        (_bounds_params(sigma2=3), "unknown config field: sigma2"),
        (_bounds_params(gamma=-0.01), "gamma"),
        (_bounds_params(N=0), "N"),
        (_bounds_params(G0=-1.0), "G0"),
        (_bounds_params(N=10**400), "N"),
        (_bounds_params(N=10**200), "N"),
        (_bounds_params(K=2**53 + 1), "K"),
        # finite inputs whose bound overflows a float name the family
        (_bounds_params(gamma=1e227), "convex bound"),
        (_bounds_params(D=-1), "D"),
        (_bounds_params(D=0.0), "D"),
    ],
)
def test_bad_bound_parameter_is_exit_2_naming_it(tmp_path, capsys, params, field):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    code, err = _exit_code_and_err(capsys, ["bounds", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert field in err
    assert not (tmp_path / "bounds.json").exists()


def test_number_too_long_to_read_is_exit_2(tmp_path, capsys):
    # json reads integers of at most 4300 digits; a longer one is bad input
    path = tmp_path / "p.json"
    path.write_text('{"N": ' + "1" * 5000 + "}")
    code, err = _exit_code_and_err(capsys, ["bounds", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize(
    "params,field",
    [
        ({"base": {"kappa": "1", "L": 1.0, "sigma_sq": 1.0}}, "base.kappa"),
        ({"base": {"kappa": 1.0, "L": 1.0, "sigma_sq": 1.0}, "grid": {"gamma": 0.01}}, "grid.gamma"),
        ({"base": {"kappa": 1.0, "L": 1.0, "sigma_sq": 1.0}, "grid": {"N": [20, "x"]}}, "grid.N[1]"),
        ({"base": [], "grid": {}}, "base"),
        ({"base": {"kappa": 1.0, "L": 1.0, "sigma_sq": 1.0, "gamma": 0.5}}, "base.gamma"),
        ({"base": {"kappa": 1.0, "L": 1.0, "sigma_sq": 1.0, "D": 0.5}}, "base.D"),
        ({"base": {"kappa": 1.0, "L": 1.0, "sigma_sq": 1.0}, "grid": {"gama": [0.5]}},
         "grid.gama"),
        ({"base": {"kappa": 1.0, "L": 1.0, "sigma_sq": 1.0}, "grids": {}}, "grids"),
        ({"base": {"kappa": 1.0, "L": 1.0, "sigma_sq": 1.0}, "grid": {"gamma": [-0.1]}},
         "gamma"),
        ({"base": {"kappa": 1.0, "L": 1.0, "sigma_sq": 1.0}, "grid": {"N": [0]}}, "N"),
        ({"base": {"kappa": 1.0, "L": 1.0, "sigma_sq": 1.0, "d_bar": 0.5}}, "d_bar"),
        ({"base": {"kappa": 1.0, "L": 1.0, "sigma_sq": 1.0}, "grid": {"N": [10**200]}},
         "grid.N[0]"),
    ],
)
def test_bad_sweep_parameter_is_exit_2_naming_it(tmp_path, capsys, params, field):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(params))
    code, err = _exit_code_and_err(capsys, ["sweep", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert field in err


@pytest.mark.parametrize(
    "content",
    [
        '{"n": 5, "edges": 5}',
        "{",
        "[1, 2]",
        '{"n": 5, "edges": [[0, 1]]}',
        "7",
        '{"n": 5, "edges": [[0, 1.9], [1, 2], [2, 3], [3, 4]]}',
        '{"n": "5", "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}',
        '{"n": 5, "edges": [[0, 1], [true, 2], [2, 3], [3, 4]]}',
        # checked before its 10**6 x 10**6 int64 matrix (7.28 TiB) is built
        '{"n": 1000000, "edges": [[0, 1]]}',
    ],
)
def test_malformed_graph_file_is_exit_2_naming_it(tmp_path, capsys, content):
    graph = tmp_path / "g.json"
    graph.write_text(content)
    path = tmp_path / "exp.json"
    cfg = _config_dict(graph={"kind": "file", "file": str(graph)}, output_dir=str(tmp_path / "o"))
    path.write_text(json.dumps(cfg))
    code, err = _exit_code_and_err(capsys, ["simulate", "--config", str(path)])
    assert code == 2
    assert "graph.file" in err


def test_bounds_json_is_strict_json(tmp_path):
    # the convex weight's denominator vanishes here, so mu is -inf
    path = tmp_path / "p.json"
    path.write_text(
        '{"kappa":0.5,"L":1,"sigma_sq":1,"gamma":0.5,"a":1,"lambda2":1,"d_bar":1,"N":2}'
    )
    cmd_bounds(str(path), str(tmp_path))

    def reject(constant):
        raise ValueError(f"bounds.json holds the non-JSON constant {constant}")

    report = json.loads((tmp_path / "bounds.json").read_text(), parse_constant=reject)
    assert report["convex"]["mu"] == "-inf"
    assert report["convex"]["tilde_omega"] == "inf"
    assert report["convex"]["bound_at_K"] is None


# Fixed inputs of bounds and sweep and the sha256 of what they write.
# The sweeps mix admissible, reportedly inadmissible and raising points
# for every family; the second pins d_bar and uses a = 0.
_RIDGE_CURVATURE = 2.0 / 3.0 + 2.0 * 0.1
_PINNED_BOUNDS = (
    {
        "kappa": _RIDGE_CURVATURE, "L": _RIDGE_CURVATURE, "sigma_sq": 24.0, "gamma": 0.01,
        "a": 1.0, "lambda2": 10.0, "d_bar": 9.0, "N": 10,
    },
    "0324cbeaed0258cdc7a7b75df2ad8495a93e0e9746c3217ca0e8ea47a7a78097",
)
_PINNED_SWEEPS = (
    (
        {
            "base": {
                "kappa": _RIDGE_CURVATURE, "L": _RIDGE_CURVATURE, "sigma_sq": 24.0, "K": 500,
                "U0": 4.0,
            },
            "grid": {"gamma": [0.01, 0.5, 3.0], "a": [0.5, 2.0], "N": [2, 10]},
        },
        "0ab0fa401f6f32ebd33a3960314b3289437b958c66258cc19de3af2626bfd0a5",
    ),
    (
        {
            "base": {
                "kappa": 0.5, "L": 1.0, "sigma_sq": 1.0, "d_bar": 3.0, "V0": 0.2, "G0": 2.0,
                "f0_gap": 0.5,
            },
            "grid": {
                "gamma": [0.01, 0.5, 3.0], "a": [0.0, 1.0], "N": [2, 5], "lambda2": [0.5, 4.0],
            },
        },
        "2d2ab21bbca3357677d096beb0c97f2104132b294b282b3a4e6b67d9569a1ec0",
    ),
)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_bound_outputs_are_pinned(tmp_path):
    params, digest = _PINNED_BOUNDS
    path = tmp_path / "bounds_in.json"
    path.write_text(json.dumps(params))
    cmd_bounds(str(path), str(tmp_path / "bounds"))
    assert _sha256(tmp_path / "bounds" / "bounds.json") == digest
    for i, (params, digest) in enumerate(_PINNED_SWEEPS):
        path = tmp_path / f"sweep_in_{i}.json"
        path.write_text(json.dumps(params))
        assert _sha256(cmd_sweep(str(path), str(tmp_path / f"sweep_{i}"))) == digest


def test_bound_calculators_are_called_through_the_theory_module(tmp_path, monkeypatch):
    # a wrapper set on the module (as a profiler does) sees every call
    calls = {}
    for family in ("strong_convex", "centralized", "convex", "nonconvex"):
        name = f"{family}_bound"

        def counting(*args, _original=getattr(theory, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(theory, name, counting)
    path = tmp_path / "b.json"
    path.write_text(json.dumps(_bounds_params()))
    cmd_bounds(str(path), None)
    path = tmp_path / "s.json"
    path.write_text(
        json.dumps(
            {"base": {"kappa": 1.0, "L": 1.0, "sigma_sq": 1.0}, "grid": {"gamma": [0.01, 3.0]}}
        )
    )
    cmd_sweep(str(path), str(tmp_path))
    assert calls == dict.fromkeys(
        ("strong_convex_bound", "centralized_bound", "convex_bound", "nonconvex_bound"), 3
    )
    predicted_crossing_updates(obj.ridge_spec(0.1, np.full(4, 0.9)), 0.01, 0.5)
    assert calls["centralized_bound"] == 4


@pytest.mark.parametrize("command", ["bounds", "sweep"])
@pytest.mark.parametrize("option", [["--seed", "3"], ["--jobs", "2"]])
def test_bound_commands_reject_seed_and_jobs(tmp_path, capsys, command, option):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_bounds_params()))
    code, err = _exit_code_and_err(capsys, [command, "--config", str(path), *option])
    assert code == 2
    assert option[0] in err


def test_validate_rejects_jobs(tmp_path, capsys):
    # validate runs one trajectory, so it has no replications to spread
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_config_dict(output_dir=str(tmp_path / "o"))))
    code, err = _exit_code_and_err(capsys, ["validate", "--config", str(path), "--jobs", "2"])
    assert code == 2
    assert "--jobs" in err
    assert not (tmp_path / "o").exists()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


# One block of each kind, setting every field that kind reads.
_FULL_OBJECTIVES = (
    {"kind": "ridge", "dim": 2, "rho": 0.1, "x_tilde": [0.2, 0.4]},
    {"kind": "quadratic", "dim": 2, "Q": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0],
     "noise_std": 1.0},
    {"kind": "nonconvex_sine", "dim": 2, "noise_std": 1.0},
)
_FULL_GRAPHS = (
    {"kind": "complete"},
    {"kind": "path"},
    {"kind": "star"},
    {"kind": "erdos_renyi", "p": 0.5, "fixed_across_replications": False},
    {"kind": "file", "file": "g.json"},
)


def _full_config(objective, graph):
    """A valid config that sets every field its blocks' kinds read."""
    return {
        "objective": objective,
        "run": {
            "n_threads": 3, "step_size": 0.01, "attraction": 1.0, "mean_sample_time": 0.02,
            "scheme": "swarm_event_driven", "record_every": 10, "max_updates": 50,
            "max_virtual_time": None, "stop_at_threshold": False,
        },
        "graph": graph,
        "validate": {
            "max_updates": 50, "record_every": 10, "lemma2_states": 1,
            "lemma2_replications": 1000, "sigma_samples": 100,
        },
        "replications": 1, "threshold": 0.1, "master_seed": 3, "output_dir": "out",
    }


_FULL_CONFIGS = [_full_config(o, g) for o in _FULL_OBJECTIVES for g in _FULL_GRAPHS]
_FULL_BOUNDS = _bounds_params(K=100, U0=1.0, V0=0.5, G0=2.0, f0_gap=1.0, D=0.5)
_FULL_SWEEP = {
    "base": {
        "kappa": 0.5, "L": 1.0, "sigma_sq": 1.0, "d_bar": 3.0, "K": 100, "U0": 1.0, "V0": 0.5,
        "G0": 2.0, "f0_gap": 1.0,
    },
    "grid": {"gamma": [0.01, 0.5], "a": [0.0, 1.0], "N": [2, 5], "lambda2": [0.5, 4.0]},
}


def _field_paths(data, prefix=()):
    for key, value in data.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


def _replaced(data, path, value):
    """``data`` with the field at ``path`` set to ``value``, through JSON
    as the cli reads it."""
    data = json.loads(json.dumps(data))
    block = data
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    return json.loads(json.dumps(data))


@pytest.mark.parametrize("graph", _FULL_GRAPHS, ids=lambda g: g["kind"])
@pytest.mark.parametrize("objective", _FULL_OBJECTIVES, ids=lambda o: o["kind"])
def test_full_config_of_each_kind_parses(objective, graph):
    data = _full_config(objective, graph)
    cfg = experiment_config_from_dict(data)
    assert (cfg.objective, cfg.graph, cfg.run, cfg.validate) == (
        objective, graph, data["run"], data["validate"]
    )
    assert build_objective(cfg).dim == 2
    cli.build_run_config(cfg, 0)


def test_ridge_dim_may_come_from_x_tilde():
    cfg = experiment_config_from_dict(
        _config_dict(objective={"kind": "ridge", "x_tilde": [0.25, 0.75, 0.5]})
    )
    assert cfg.objective["dim"] == 3
    assert build_objective(cfg).dim == 3


@settings(max_examples=300, deadline=None)
@given(
    case=st.sampled_from(
        [(i, path) for i, data in enumerate(_FULL_CONFIGS) for path in _field_paths(data)]
    ),
    value=_JSON_VALUES,
)
def test_any_one_field_replaced_parses_or_raises_config_error(case, value):
    index, path = case
    try:
        cfg = experiment_config_from_dict(_replaced(_FULL_CONFIGS[index], path, value))
        build_objective(cfg)
        cli.build_run_config(cfg, 0)
    except ConfigError:
        pass


_BOUND_DOCUMENTS = {
    "bounds": (cmd_bounds, _FULL_BOUNDS, "bounds.json"),
    "sweep": (cmd_sweep, _FULL_SWEEP, "sweep.csv"),
}


@settings(max_examples=300, deadline=None)
@given(
    case=st.sampled_from(
        [(name, path) for name, (_, doc, _) in _BOUND_DOCUMENTS.items() for path in _field_paths(doc)]
    ),
    value=_JSON_VALUES,
)
def test_any_one_bound_input_replaced_writes_or_raises_config_error(
    tmp_path_factory, case, value
):
    name, path = case
    command, doc, written = _BOUND_DOCUMENTS[name]
    out = tmp_path_factory.mktemp(name)
    params = out / "params.json"
    params.write_text(json.dumps(_replaced(doc, path, value)))
    try:
        command(str(params), str(out))
    except ConfigError:
        return
    assert (out / written).exists()


def test_objective_kind_map_covers_exactly_the_objective_kinds():
    kinds, _ = cli._SCHEMA["config"]["objective"]["kind"]
    assert tuple(kinds) == obj.KINDS


def test_main_compare_prints_its_summary_line(tmp_path, capsys):
    out = tmp_path / "cmp"
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_config_dict(output_dir=str(out))))
    assert main(["compare", "--config", str(path)]) == 0
    report = json.loads((out / "comparison.json").read_text())
    assert report["ratio"] is not None
    assert capsys.readouterr().out == (
        f"T_s_mean={report['T_s_mean']} T_c_mean={report['T_c_mean']} "
        f"ratio={report['ratio']:.3f} predicted={report['predicted_ratio']:.3f} "
        f"excluded={len(report['excluded'])}\n"
    )
