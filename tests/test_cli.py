import json

import pytest

from edgecache.cli import main


@pytest.mark.parametrize("model", ["replacement", "poisson", "sqrt-churn"])
def test_generate_smoke_and_determinism(tmp_path, capsys, model):
    out1 = tmp_path / "a" / "trace.csv"
    out2 = tmp_path / "b" / "trace.csv"
    argv = ["generate", "--model", model, "--N", "40", "--T", "60",
            "--seed", "7", "--M", "3,5"]
    if model != "poisson":
        argv += ["--U", "80"]
    assert main(argv + ["--out", str(out1)]) == 0
    captured = capsys.readouterr().out
    assert "path length at M=3" in captured and "path length at M=5" in captured
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.with_suffix(".json").read_bytes() == out2.with_suffix(".json").read_bytes()


def test_generate_sqrt_churn_runs_on_default_size(tmp_path, capsys):
    assert main(["generate", "--model", "sqrt-churn", "--N", "12", "--M", "3",
                 "--out", str(tmp_path / "a.csv")]) == 0
    assert "T=10000, N=12" in capsys.readouterr().out
    assert main(["generate", "--model", "sqrt-churn", "--T", "30",
                 "--out", str(tmp_path / "b.csv")]) == 0
    assert "T=30, N=1000" in capsys.readouterr().out


def test_generate_sqrt_churn_m_flag_overrides_params_file(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"N": 12, "T": 40, "M": 3}))
    out = tmp_path / "t.csv"
    assert main(["generate", "--model", "sqrt-churn", "--config", str(params),
                 "--M", "2", "--out", str(out)]) == 0
    assert "path length at M=2" in capsys.readouterr().out
    assert json.loads(out.with_suffix(".json").read_text())["params"]["M"] == 2
    assert main(["generate", "--model", "sqrt-churn", "--config", str(params),
                 "--out", str(out)]) == 0
    assert json.loads(out.with_suffix(".json").read_text())["params"]["M"] == 3


@pytest.mark.parametrize("argv, message", [
    (["--model", "replacement", "--N", "10", "--num-ranks", "20"], "num_ranks=20"),
    (["--model", "poisson", "--groups", "[[0, 1]]"], "lifetimes must be positive"),
    (["--model", "poisson", "--zipf", "1.2"], "zipf_exponent"),
], ids=["num-ranks-above-N", "zero-lifetime-group", "zipf-on-poisson"])
def test_generate_bad_parameters_are_usage_errors(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["generate", *argv, "--T", "5", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_generate_model_may_come_from_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": "poisson", "N": 10, "T": 20}))
    by_file, by_flag = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["generate", "--config", str(cfg), "--out", str(by_file)]) == 0
    assert main(["generate", "--model", "poisson", "--N", "10", "--T", "20",
                 "--out", str(by_flag)]) == 0
    assert by_file.read_bytes() == by_flag.read_bytes()
    assert main(["generate", "--config", str(cfg), "--model", "replacement",
                 "--out", str(by_file)]) == 0
    assert json.loads(by_file.with_suffix(".json").read_text())["generator"] == "replacement"


def test_generate_without_model_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--N", "10", "--out", str(out)])
    assert exc.value.code == 2
    assert "--model is required" in capsys.readouterr().err
    assert not out.exists()


def test_generate_zero_trace_warns(tmp_path, capsys):
    out = tmp_path / "z.csv"
    code = main(["generate", "--model", "poisson", "--N", "10", "--T", "5",
                 "--groups", "[[5, 0.0]]", "--out", str(out)])
    assert code == 0
    assert "all zeros" in capsys.readouterr().err


def _make_trace(tmp_path):
    out = tmp_path / "trace.csv"
    main(["generate", "--model", "replacement", "--N", "12", "--T", "15",
          "--U", "50", "--seed", "1", "--out", str(out)])
    return out


def test_run_rosc_writes_outputs(tmp_path):
    trace = _make_trace(tmp_path)
    out = tmp_path / "run"
    code = main(["run", "--policy", "rosc", "--trace", str(trace),
                 "--W", "3", "--K", "10", "--M", "2", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    assert (out / "rosc.csv").exists()
    doc = json.loads((out / "rosc.json").read_text())
    assert doc["policy"] == "rosc" and doc["seed"] == 1
    cfg = json.loads((out / "effective_config.json").read_text())
    assert cfg["W"] == 3 and cfg["K"] == 10

    lines = (out / "rosc.csv").read_text().splitlines()
    assert lines[0] == "t,forward_cost,switch_cost,total_cost"
    assert len(lines) == 16


def test_run_csv_recomposes_to_summary_total(tmp_path):
    trace = _make_trace(tmp_path)
    out = tmp_path / "recompose"
    main(["run", "--policy", "rosc", "--trace", str(trace), "--W", "3",
          "--K", "10", "--M", "2", "--seed", "2", "--out", str(out)])
    rows = (out / "rosc.csv").read_text().splitlines()[1:]
    total = 0.0
    for row in rows:
        _, fwd, sw, _ = row.split(",")
        total += float(fwd) + float(sw)
    doc = json.loads((out / "rosc.json").read_text())
    assert total == doc["total_cost"]  # exact: repr round-trips floats


def test_run_determinism_byte_identical(tmp_path):
    trace = _make_trace(tmp_path)
    argv = ["run", "--policy", "rosc", "--trace", str(trace), "--W", "2",
            "--K", "8", "--M", "2", "--seed", "9"]
    main(argv + ["--out", str(tmp_path / "r1")])
    main(argv + ["--out", str(tmp_path / "r2")])
    assert (tmp_path / "r1" / "rosc.csv").read_bytes() == \
        (tmp_path / "r2" / "rosc.csv").read_bytes()


def test_run_w0_is_valid(tmp_path):
    trace = _make_trace(tmp_path)
    code = main(["run", "--policy", "rosc", "--trace", str(trace), "--W", "0",
                 "--K", "5", "--M", "2", "--out", str(tmp_path / "w0")])
    assert code == 0


def test_run_horizon_control_applies_forecast_noise(tmp_path):
    from edgecache.baselines import rhc_policy
    from edgecache.model import CostModel, load_trace
    from edgecache.workloads import PredictionOracle

    path = _make_trace(tmp_path)
    out = tmp_path / "noisy"
    code = main(["run", "--policy", "rhc", "--trace", str(path), "--W", "4",
                 "--M", "2", "--beta-star", "1", "--seed", "3", "--R", "0.3",
                 "--out", str(out)])
    assert code == 0
    trace = load_trace(path)
    cost = CostModel.uniform(0.05, 1.0, trace.N, 2)
    noisy = rhc_policy(trace, cost, 4,
                       predictions=PredictionOracle(trace, R=0.3, seed=3))
    exact = rhc_policy(trace, cost, 4)
    assert noisy.total_cost != exact.total_cost
    doc = json.loads((out / "rhc.json").read_text())
    assert doc["total_cost"] == noisy.total_cost


@pytest.mark.parametrize("policy", ["rhc", "chc"])
def test_run_horizon_control_refuses_w0(tmp_path, capsys, policy):
    trace = _make_trace(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--policy", policy, "--trace", str(trace), "--W", "0",
              "--M", "2", "--out", str(tmp_path / "w0")])
    assert exc.value.code == 2
    assert "at least one slot" in capsys.readouterr().err


def test_run_rejects_capacity_above_services(tmp_path, capsys):
    trace = _make_trace(tmp_path)  # N = 12
    with pytest.raises(SystemExit) as exc:
        main(["run", "--policy", "rhc", "--trace", str(trace), "--M", "20",
              "--out", str(tmp_path / "m20")])
    assert exc.value.code == 2
    assert "M=20" in capsys.readouterr().err


@pytest.mark.parametrize("R", ["-0.5", "nan", "inf"])
def test_run_rejects_bad_noise_weight(tmp_path, capsys, R):
    trace = _make_trace(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--policy", "rhc", "--trace", str(trace), "--M", "2",
              "--R", R, "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert "noise weight R" in capsys.readouterr().err


def test_run_missing_trace_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--policy", "rosc", "--trace", str(missing),
              "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert "absent.csv" in capsys.readouterr().err


def test_run_malformed_trace_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,s1,s2\n1,3,4\n2,5\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--policy", "rosc", "--trace", str(bad),
              "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "bad.csv, line 3" in err
    assert "Traceback" not in err


def test_run_optdp_budget_refusal(tmp_path, capsys):
    trace = _make_trace(tmp_path)  # N = 12 exceeds the exact-DP budget
    code = main(["run", "--policy", "opt-dp", "--trace", str(trace),
                 "--M", "2", "--out", str(tmp_path / "dp")])
    assert code == 3
    assert "exceeds" in capsys.readouterr().err


def test_run_ratio_zero_is_usage_error(tmp_path, capsys):
    trace = _make_trace(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--policy", "sopt", "--trace", str(trace), "--M", "2",
              "--ratio", "0", "--out", str(tmp_path / "r0")])
    assert exc.value.code == 2
    assert "beta must be a vector of positive costs" in capsys.readouterr().err


def test_run_replays_from_its_effective_config(tmp_path):
    trace = _make_trace(tmp_path)
    first, again = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--policy", "pseudo-opt", "--trace", str(trace),
                 "--M", "2", "--W-big", "7", "--out", str(first)]) == 0
    config = first / "effective_config.json"
    assert main(["run", "--policy", "pseudo-opt", "--config", str(config),
                 "--out", str(again)]) == 0
    assert (first / "pseudo-opt.csv").read_bytes() == \
        (again / "pseudo-opt.csv").read_bytes()
    assert json.loads(config.read_text())["W_big"] == 7


def test_run_unknown_policy_is_usage_error(tmp_path):
    trace = _make_trace(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--policy", "magic", "--trace", str(trace)])
    assert exc.value.code == 2


def test_config_file_flag_precedence(tmp_path):
    trace = _make_trace(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"W": 5, "K": 4, "M": 2, "seed": 3}))
    out = tmp_path / "cfgrun"
    code = main(["run", "--policy", "rosc", "--trace", str(trace),
                 "--config", str(cfg), "--W", "1", "--out", str(out)])
    assert code == 0
    eff = json.loads((out / "effective_config.json").read_text())
    assert eff["W"] == 1      # flag wins
    assert eff["K"] == 4      # file fills the gap
    assert eff["seed"] == 3


def test_generate_config_values_parse_like_flags(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"M": 3, "N": 12, "T": 40}))
    by_file, by_flag = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["generate", "--model", "sqrt-churn", "--config", str(cfg),
                 "--out", str(by_file)]) == 0
    from_file = capsys.readouterr().out
    assert main(["generate", "--model", "sqrt-churn", "--M", "3", "--N", "12",
                 "--T", "40", "--out", str(by_flag)]) == 0
    assert "path length at M=3" in from_file
    assert from_file.split("(")[1] == capsys.readouterr().out.split("(")[1]
    assert by_file.read_bytes() == by_flag.read_bytes()
    assert json.loads(by_file.with_suffix(".json").read_text())["params"]["M"] == 3


@pytest.mark.parametrize("doc, key", [
    ({"W": "two"}, "W"),
    ({"K": 2.5}, "K"),
    ({"policy": "magic"}, "policy"),
    ({"command": "run"}, "command"),
    ({"alph": 0.1}, "alph"),
], ids=["not-an-int", "float-for-int", "not-a-choice", "unknown-key",
        "abbreviated-key"])
def test_config_value_the_flag_rejects_is_usage_error(tmp_path, capsys, doc, key):
    trace = _make_trace(tmp_path)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--policy", "rosc", "--trace", str(trace),
              "--config", str(cfg), "--out", str(tmp_path / "bad")])
    assert exc.value.code == 2
    assert f"--{key}" in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, "[1, 2]", "{not json"],
                         ids=["missing", "not-an-object", "not-json"])
def test_unreadable_config_file_is_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "c.json"
    if text is not None:
        cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--seeds", "1", "--config", str(cfg),
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_sweep_config_takes_value_lists(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"values": [1, 2], "policies": ["rosc", "sopt"],
                               "measure_runtime": True, "seeds": 2}))
    by_file, by_flag = tmp_path / "file", tmp_path / "flag"
    small = ["--N", "12", "--T", "12", "--M", "2", "--K", "5"]
    assert main(["sweep", "--config", str(cfg), *small, "--out", str(by_file)]) == 0
    assert main(["sweep", "--values", "1,2", "--policies", "rosc,sopt",
                 "--seeds", "2", *small, "--out", str(by_flag)]) == 0
    assert (by_file / "costs_W.csv").read_bytes() == \
        (by_flag / "costs_W.csv").read_bytes()
    assert json.loads((by_file / "effective_config.json").read_text())["measure_runtime"]


def test_sweep_replays_from_its_effective_config(tmp_path):
    first, again = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "--workload", "replacement", "--N", "12", "--T", "12",
                 "--U", "40", "--axis", "M", "--values", "1,3", "--seeds", "2",
                 "--seed-base", "4", "--policies", "rosc,rhc", "--K", "5",
                 "--R", "0.2", "--out", str(first)]) == 0
    config = first / "effective_config.json"
    assert main(["sweep", "--config", str(config), "--out", str(again)]) == 0
    assert (first / "costs_M.csv").read_bytes() == (again / "costs_M.csv").read_bytes()
    assert config.read_bytes() == (again / "effective_config.json").read_bytes()
    doc = json.loads(config.read_text())
    assert doc["values"] == [1, 3] and doc["seed_base"] == 4 and doc["U"] == 40


def test_run_replays_from_its_effective_config_alone(tmp_path):
    trace = _make_trace(tmp_path)
    first, again = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--policy", "chc", "--trace", str(trace), "--M", "2",
                 "--W", "3", "--R", "0.2", "--seed", "5", "--out", str(first)]) == 0
    config = first / "effective_config.json"
    assert main(["run", "--config", str(config), "--out", str(again)]) == 0
    assert (first / "chc.csv").read_bytes() == (again / "chc.csv").read_bytes()
    assert config.read_bytes() == (again / "effective_config.json").read_bytes()


def test_sweep_smoke_and_table_shape(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--workload", "replacement", "--N", "12", "--T", "12",
                 "--axis", "W", "--values", "1,2", "--seeds", "2",
                 "--policies", "rosc,sopt", "--M", "2", "--K", "5",
                 "--out", str(out)])
    assert code == 0
    runtimes = (out / "runtimes.csv").read_text().splitlines()
    assert runtimes[0] == "W,rosc,sopt"
    assert len(runtimes) == 3
    costs = (out / "costs_W.csv").read_text().splitlines()
    assert costs[0].startswith("W,rosc_mean,rosc_std")


def test_sweep_empty_seeds_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--seeds", "0", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["--workload", "poisson", "--U", "5"], "--workload poisson"),
    (["--workload", "sqrt_churn", "--M", "20"], "--workload sqrt_churn"),
    (["--axis", "M", "--values", "2.5"], "whole numbers"),
    (["--axis", "W", "--values", "1,nan"], "whole numbers"),
    (["--policies", "rosc,magic"], "'magic'"),
    (["--jobs", "0"], "jobs"),
    (["--axis", "R", "--values=-1,0"], "noise weight R"),
    (["--R", "-0.5"], "noise weight R"),
    (["--R", "inf"], "noise weight R"),
], ids=["U-on-poisson", "generator-refuses", "fractional-M", "nan-W",
        "unknown-policy", "no-jobs", "negative-R-value", "negative-R-base",
        "infinite-R-base"])
def test_sweep_bad_input_fails_before_any_cell(tmp_path, capsys, argv, message):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--N", "12", "--T", "12", "--seeds", "1", *argv,
              "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sqrt_churn_sweep_passes_M_and_U_to_its_generator(tmp_path):
    argv = ["sweep", "--workload", "sqrt_churn", "--N", "20", "--T", "30",
            "--M", "3", "--seeds", "2", "--policies", "rosc,sopt", "--K", "5"]
    outs = {}
    for U in ("50", "500"):
        outs[U] = tmp_path / U
        assert main(argv + ["--U", U, "--out", str(outs[U])]) == 0
        assert json.loads((outs[U] / "summary.json").read_text())["failures"] == []
    assert (outs["50"] / "costs_W.csv").read_bytes() != \
        (outs["500"] / "costs_W.csv").read_bytes()


def test_validate_small_suites(tmp_path):
    out = tmp_path / "report.json"
    code = main(["validate", "--checks", "projection,sampler", "--cases", "200",
                 "--updates", "50", "--runs", "20", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["checks"]["projection"]["cases"] == 200


@pytest.mark.parametrize("argv", [
    ["--checks", "theorem1", "--instances", "0"],
    ["--checks", "projection", "--cases", "-5"],
    ["--checks", "sampler", "--updates", "0"],
    ["--checks", "theorem1", "--runs", "0"],
], ids=["instances", "cases", "updates", "runs"])
def test_validate_zero_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["validate", *argv])
    assert exc.value.code == 2
    # the message names the flag, not the library's keyword
    assert f"{argv[2]} must be at least 1" in capsys.readouterr().err


def test_validate_unknown_check_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--checks", "nonsense"])
    assert exc.value.code == 2


def test_bound_prints_terms(capsys):
    code = main(["bound", "--alpha", "0.05", "--beta-star", "10", "--M", "10",
                 "--N", "100", "--T", "10000", "--U", "200", "--K", "100",
                 "--W", "10", "--HT", "100"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rounding"] == pytest.approx(601_000.0)
    assert doc["total"] == pytest.approx(
        doc["tracking"] + doc["rounding"] + doc["churn"])


def test_bound_rejects_w0():
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--alpha", "0.05", "--beta-star", "10", "--M", "2",
              "--N", "10", "--T", "100", "--U", "50", "--K", "10",
              "--W", "0", "--HT", "5"])
    assert exc.value.code == 2


def test_bound_rejects_capacity_above_services(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--alpha", "0.05", "--beta-star", "10", "--M", "10",
              "--N", "5", "--T", "100", "--U", "50", "--K", "10",
              "--W", "2", "--HT", "5"])
    assert exc.value.code == 2
    assert "M=10" in capsys.readouterr().err
