import dataclasses
import json

import pytest

from edgecache import bench
from edgecache.cli import build_parser, main


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
    (["--model", "replacement", "--N", "10", "--num-ranks", "20"],
     "num_ranks must be an integer in [1, 10], got 20"),
    (["--model", "poisson", "--groups", "[[0, 1]]"],
     "groups[0] lifetime must be a finite real in (0, inf), got 0"),
    (["--model", "poisson", "--zipf-exponent", "1.2"], "zipf_exponent"),
], ids=["num-ranks-above-N", "zero-lifetime-group", "zipf-on-poisson"])
def test_generate_bad_parameters_are_usage_errors(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["generate", *argv, "--T", "5", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("knob", [("popularity-shape", "0.05"),
                                  ("per-service-volume", "1e300")])
def test_generate_refuses_poisson_means_past_numpys_limit(tmp_path, capsys, knob):
    flag, value = knob
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--model", "poisson", "--N", "50", "--T", "200",
              f"--{flag}", value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"{flag.replace('-', '_')}=" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--model", "replacement", "--rank-lifetime-mean", "0"], "rank_lifetime_mean must be"),
    (["--model", "sqrt-churn", "--N", "10", "--M", "0"], "M must be"),
], ids=["zero-lifetime-mean", "churn-M-0"])
def test_generate_refuses_params_its_generator_cannot_use(tmp_path, capsys, argv, message):
    """A zero mean lifetime ended in a ZeroDivisionError traceback, and M = 0
    wrote a sqrt-churn trace whose blips swapped rank 1 with the last rank."""
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["generate", *argv, "--T", "5", "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_generate_refuses_a_negative_path_length_m(tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--model", "replacement", "--N", "12", "--T", "5",
              "--M=-1", "--out", str(out)])
    assert exc.value.code == 2
    assert "M must be an integer in [0, 12], got -1" in capsys.readouterr().err
    assert not out.exists()


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

    # the forecast noise of seed 2 moves rhc's decisions on this trace, so the
    # check below fails if the CLI drops --R or --seed
    path = _make_trace(tmp_path)
    out = tmp_path / "noisy"
    code = main(["run", "--policy", "rhc", "--trace", str(path), "--W", "4",
                 "--M", "2", "--beta-star", "1", "--seed", "2", "--R", "0.3",
                 "--out", str(out)])
    assert code == 0
    trace = load_trace(path)
    cost = CostModel.uniform(0.05, 1.0, trace.N, 2)
    noisy = rhc_policy(trace, cost, 4,
                       predictions=PredictionOracle(trace, R=0.3, seed=2))
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
    assert "M must be an integer in [1, 12], got 20" in capsys.readouterr().err


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


@pytest.mark.parametrize("sidecar, message", [
    ("[1, 2]", "expected a JSON object"),
    ('{"U": "50"}', "U must be a finite real in [0, inf), got '50'"),
    ('{"U": NaN}', "U must be a finite real in [0, inf), got nan"),
    ("{U: 50}", "not valid JSON"),
], ids=["array", "string-U", "nan-U", "broken-json"])
def test_run_malformed_trace_sidecar_is_usage_error(tmp_path, capsys, sidecar, message):
    trace = _make_trace(tmp_path)
    trace.with_suffix(".json").write_text(sidecar)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["run", "--policy", "sopt", "--trace", str(trace), "--M", "2",
              "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"cannot load --trace {trace}" in err and "trace.json" in err
    assert message in err


@pytest.mark.parametrize("policy", ["rosc", "rhc", "chc", "sopt", "opt-dp", "pseudo-opt"])
def test_run_overflowing_cost_is_usage_error(tmp_path, capsys, policy):
    """Arrivals of 1e308 are finite, but their forwarding costs add to inf;
    10 services x 10 slots fits the exact DP's budget."""
    trace = tmp_path / "huge.csv"
    services = range(1, 11)
    trace.write_text("t," + ",".join(f"s{n}" for n in services) + "\n"
                     + "".join(f"{t}," + ",".join("1e308" for _ in services) + "\n"
                               for t in range(1, 11)))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--policy", policy, "--trace", str(trace), "--M", "1",
              "--W", "2", "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "total cost overflows" in err and "Traceback" not in err


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
    assert "ratio must be a finite real in (0, inf), got 0.0" in capsys.readouterr().err


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


def test_sweep_with_failed_cells_exits_1(tmp_path, capsys):
    # N = 40 exceeds the exact DP's budget, so the one cell fails
    code = main(["sweep", "--N", "40", "--T", "12", "--seeds", "1",
                 "--policies", "opt-dp", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "1 failures" in capsys.readouterr().out


def test_sweep_empty_seeds_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--seeds", "0", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def _no_trace(params, seed):
    raise AssertionError("a trace was built")


@pytest.mark.parametrize("argv, message", [
    (["--workload", "poisson", "--U", "5"], "workload poisson"),
    (["--workload", "sqrt_churn", "--M", "20"], "workload sqrt_churn"),
    (["--axis", "M", "--values", "2.5"], "whole numbers"),
    (["--axis", "W", "--values", "1,nan"], "W must be a finite real in (-inf, inf)"),
    (["--policies", "rosc,magic"], "'magic'"),
    (["--jobs", "0"], "jobs"),
    (["--axis", "R", "--values=-1,0"], "noise weight R"),
    (["--R", "-0.5"], "noise weight R"),
    (["--R", "inf"], "noise weight R"),
    (["--alpha=-1"], "alpha must be a finite real in (0, inf), got -1.0"),
    (["--gamma", "2"], "gamma must be a finite real in (0, 1), got 2.0"),
    (["--axis", "ratio", "--values=-1"], "ratio must be a finite real in (0, inf)"),
    (["--axis", "M", "--values", "20"], "M must be an integer in [1, 12], got 20"),
    (["--K", "0"], "K must be an integer in [1, "),
    (["--policies", "rhc,chc", "--W", "0"], "window of at least one slot"),
    (["--policies", "sopt,chc", "--axis", "W", "--values", "2,0"], "at least one slot"),
    (["--workload", "poisson", "--zipf-exponent", "1"], "workload poisson"),
], ids=["U-on-poisson", "generator-refuses", "fractional-M", "nan-W",
        "unknown-policy", "no-jobs", "negative-R-value", "negative-R-base",
        "infinite-R-base", "negative-alpha", "gamma-past-1", "negative-ratio-value",
        "M-value-past-N", "rosc-K-0", "horizon-W-0", "horizon-W-value-0",
        "zipf-on-poisson"])
def test_sweep_bad_input_fails_before_any_cell(tmp_path, capsys, monkeypatch, argv, message):
    """Each refusal comes from the spec's checks: no trace is built for it."""
    for name, (params, _) in list(bench.WORKLOADS.items()):
        monkeypatch.setitem(bench.WORKLOADS, name, (params, _no_trace))
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--N", "12", "--T", "12", "--seeds", "1", *argv,
              "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_parallel_sweep_writes_the_serial_tables(tmp_path):
    argv = ["sweep", "--N", "12", "--T", "12", "--values", "1,2", "--seeds", "3",
            "--policies", "rosc,rhc,sopt", "--M", "2", "--K", "5", "--R", "0.1"]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(argv + ["--out", str(serial)]) == 0
    assert main(argv + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert (serial / "costs_W.csv").read_bytes() == (parallel / "costs_W.csv").read_bytes()


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
    # the message names the count by its keyword in validate.run_checks
    keyword = {"--runs": "seeds"}.get(argv[2], argv[2].lstrip("-"))
    assert f"{keyword} must be an integer in [1, " in capsys.readouterr().err


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


@pytest.mark.parametrize("flag, value, name", [
    ("--K", "0", "K must be an integer in [1, 9223372036854775807], got 0"),
    ("--K", "-5", "K must be an integer in [1, 9223372036854775807], got -5"),
    ("--T", "0", "T must be an integer in [1, 9223372036854775807], got 0"),
    ("--U", "nan", "U must be a finite real in [0, inf), got nan"),
    ("--U", "-1", "U must be a finite real in [0, inf), got -1.0"),
    ("--HT", "-1", "H_T must be a finite real in [0, inf), got -1.0"),
    ("--HT", "inf", "H_T must be a finite real in [0, inf), got inf"),
], ids=["K-0", "K-negative", "T-0", "U-nan", "U-negative", "HT-negative", "HT-inf"])
def test_bound_rejects_bad_counts(capsys, flag, value, name):
    argv = {"--alpha": "0.05", "--beta-star": "10", "--M": "2", "--N": "10",
            "--T": "100", "--U": "50", "--K": "10", "--W": "2", "--HT": "5"}
    argv[flag] = value
    with pytest.raises(SystemExit) as exc:
        main(["bound", *(item for pair in argv.items() for item in pair)])
    assert exc.value.code == 2
    assert name in capsys.readouterr().err


def test_bound_rejects_capacity_above_services(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--alpha", "0.05", "--beta-star", "10", "--M", "10",
              "--N", "5", "--T", "100", "--U", "50", "--K", "10",
              "--W", "2", "--HT", "5"])
    assert exc.value.code == 2
    assert "M must be an integer in [1, 5], got 10" in capsys.readouterr().err


def test_run_replay_takes_a_new_ratio_or_alpha(tmp_path):
    """``effective_config.json`` holds no beta* derived from ratio and alpha,
    so a flag given beside ``--config`` prices the replay as it would alone."""
    trace = _make_trace(tmp_path)
    argv = ["run", "--policy", "rhc", "--trace", str(trace), "--M", "2"]
    first = tmp_path / "first"
    assert main(argv + ["--out", str(first)]) == 0
    config = first / "effective_config.json"
    assert json.loads(config.read_text())["beta_star"] is None
    for flag in (["--ratio", "1"], ["--alpha", "0.5"]):
        replayed, alone = tmp_path / f"replayed{flag[0]}", tmp_path / f"alone{flag[0]}"
        assert main(["run", "--config", str(config), *flag, "--out", str(replayed)]) == 0
        assert main(argv + flag + ["--out", str(alone)]) == 0
        assert (replayed / "rhc.csv").read_bytes() == (alone / "rhc.csv").read_bytes()
        assert (replayed / "rhc.csv").read_bytes() != (first / "rhc.csv").read_bytes()


# each workload's flags, setting every field of its parameter class but M to
# a value other than its default
CHANGED_FIELDS = {
    "replacement": ["--U", "77", "--zipf-exponent", "1.1", "--rank-lifetime-mean", "7.5",
                    "--num-ranks", "9", "--thinning", "0.6"],
    "poisson": ["--groups", "[[5, 0.5], [20, 0.3]]", "--per-service-volume", "3.5",
                "--popularity-shape", "1.5"],
    "sqrt_churn": ["--U", "90", "--zipf-exponent", "1.2", "--blips-per-sqrt", "0.5",
                   "--M", "4"],
}


@pytest.mark.parametrize("fields", ["default", "changed"])
@pytest.mark.parametrize("model", list(bench.WORKLOADS))
def test_a_trace_sidecars_params_replay_through_generate(tmp_path, model, fields):
    flags = ["--N", "30", "--T", "40"] + (CHANGED_FIELDS[model] if fields == "changed" else [])
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert main(["generate", "--model", model, *flags, "--seed", "7",
                 "--out", str(first)]) == 0
    params = json.loads(first.with_suffix(".json").read_text())["params"]
    if fields == "changed":
        for field in dataclasses.fields(bench.WORKLOADS[model][0]):
            if field.default is not dataclasses.MISSING:
                assert params[field.name] != json.loads(json.dumps(field.default)), field.name
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"model": model, **params}))
    assert main(["generate", "--config", str(config), "--seed", "7", "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    assert again.with_suffix(".json").read_bytes() == first.with_suffix(".json").read_bytes()


# the settings of each command that are not generator fields
OWN_SETTINGS = {
    "generate": {"model", "seed", "M", "out"},
    "sweep": {"workload", "axis", "values", "seeds", "seed_base", "policies",
              "measure_runtime", "jobs", "out", *bench.PAPER_DEFAULTS},
}


@pytest.mark.parametrize("command", list(OWN_SETTINGS))
def test_generator_flags_are_the_parameter_fields_but_M(command):
    fields = {field.name for params, _ in bench.WORKLOADS.values()
              for field in dataclasses.fields(params)}
    parser = build_parser()
    dests = set(vars(parser.parse_args([command]))) - OWN_SETTINGS[command]
    assert dests - {"command", "func", "config"} == fields - {"M"}
    for name in fields - {"M"}:         # each flag is named after its field
        flag = "--" + name.replace("_", "-")
        assert getattr(parser.parse_args([command, f"{flag}=1"]), name) == 1


@pytest.mark.parametrize("command, flag, outputs", [
    ("generate", "--model", ["trace.csv", "trace.json"]),
    ("sweep", "--workload", ["costs_W.csv", "effective_config.json"]),
])
def test_a_hyphen_in_a_workload_name_reads_as_an_underscore(tmp_path, command, flag, outputs):
    argv = [command, "--N", "12", "--T", "20", "--M", "3"]
    if command == "sweep":
        argv += ["--seeds", "1", "--policies", "rosc,sopt", "--K", "5"]
    written = []
    for name in ("sqrt-churn", "sqrt_churn"):
        out = tmp_path / name
        target = out / "trace.csv" if command == "generate" else out
        assert main(argv + [flag, name, "--out", str(target)]) == 0
        written.append([(out / file).read_bytes() for file in outputs])
    assert written[0] == written[1]
