import argparse
import csv
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

import agtrack
from agtrack import (AlgorithmConfig, algorithms, cli, default_alpha, random_logistic_problem,
                     random_quadratic_problem, sigma)
from agtrack.algorithms import CSV_COLUMNS
from agtrack.cli import (ALGORITHM_FIELDS, PROBLEM_FIELDS, ConfigError, build_algorithm,
                         build_problem, build_schedule, check_config, load_config, main)
from conftest import M9_EDGE_SETS, ring_edges


def base_config(**overrides):
    cfg = {
        "problem": {"kind": "quadratic", "m": 5, "n": 3, "seed": 0,
                    "L": 1.0, "mu": 0.0},
        "graph": {"m": 5, "kind": "static",
                  "edge_sets": [[[i, (i + 1) % 5] for i in range(5)]]},
        "algorithm": {"variant": "acc_gt_static", "alpha": "theorem_default",
                      "mu_mode": "zero", "max_iterations": 60},
        "diagnostics": "off",
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_trace(out_dir):
    with open(out_dir / "trace.csv") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))


def read_summary(out_dir):
    with open(out_dir / "summary.csv") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# ------------------------------------------------------------ config model

def test_config_round_trips_through_dict():
    cfg = check_config(base_config())
    assert check_config(cfg) == cfg
    assert cfg["diagnostics"] == "off"


def test_config_rejects_missing_section():
    data = base_config()
    del data["graph"]
    with pytest.raises(ConfigError, match="graph: required object is missing"):
        check_config(data)


def test_config_rejects_bad_diagnostics_flag():
    with pytest.raises(ConfigError, match="diagnostics"):
        check_config(base_config(diagnostics=True))


def test_config_rejects_non_list_sweep_axis():
    for axis in (0.1, []):
        with pytest.raises(ConfigError, match="sweep"):
            check_config(base_config(sweep={"algorithm.alpha": axis}))


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(path))


def test_load_config_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))


def test_run_rejects_a_config_whose_top_level_is_not_an_object(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, [base_config()]),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: top level: expected a JSON object\n"
    assert not out.exists()


# ------------------------------------------------------------ builders

def test_build_problem_requires_kind():
    with pytest.raises(ConfigError, match="problem.kind"):
        build_problem({"m": 5, "n": 3})


def test_build_problem_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="unknown kind"):
        build_problem({"kind": "cubic", "m": 5, "n": 3})


def test_build_problem_logistic_shapes():
    problem = build_problem({"kind": "logistic", "m": 4, "n": 3, "seed": 7,
                             "samples_per_agent": 10, "ridge": 0.05})
    assert problem.m == 4 and problem.n == 3
    assert problem.mu == pytest.approx(0.05)


def test_build_schedule_static_takes_one_edge_set():
    spec = {"m": 5, "kind": "static",
            "edge_sets": [[[0, 1]], [[1, 2]]]}
    with pytest.raises(ConfigError, match=r"^graph\.edge_sets: static schedule takes exactly one"):
        build_schedule(spec)  # the section is named once, not "graph: graph.edge_sets: ..."


def test_build_schedule_cyclic_checks_period():
    spec = {"m": 9, "kind": "cyclic", "period": 2,
            "edge_sets": [list(map(list, s)) for s in M9_EDGE_SETS]}
    with pytest.raises(ConfigError, match=r"^graph\.period: 2 does not match 3 edge sets$"):
        build_schedule(spec)


def test_build_schedule_rejects_malformed_edge_sets():
    with pytest.raises(ConfigError, match=r"^graph\.edge_sets: expected a list of edge sets"):
        build_schedule({"m": 5, "kind": "static", "edge_sets": 5})
    with pytest.raises(ConfigError, match=r"^graph: an edge set is a list of \(i, j\) pairs"):
        build_schedule({"m": 5, "kind": "cyclic", "edge_sets": [[[0, 1]], 5]})


def test_build_schedule_seeded_random_needs_probability():
    with pytest.raises(ConfigError, match="edge_probability"):
        build_schedule({"m": 5, "kind": "seeded_random", "seed": 1})


def test_build_schedule_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="unknown kind"):
        build_schedule({"m": 5, "kind": "mesh", "edge_sets": [[]]})


def test_build_algorithm_wraps_validation_errors():
    with pytest.raises(ConfigError, match="algorithm"):
        build_algorithm({"variant": "nonexistent_variant"})


def test_build_algorithm_requires_variant():
    with pytest.raises(ConfigError, match=r"^algorithm\.variant: required field is missing$"):
        build_algorithm({"alpha": 0.1})


@pytest.mark.parametrize("kind,generator", [("quadratic", random_quadratic_problem),
                                            ("logistic", random_logistic_problem)])
def test_problem_fields_are_the_generators_keywords(kind, generator):
    # A key the generator does not take would be accepted and dropped; a
    # keyword missing from the table could never be set.
    assert set(PROBLEM_FIELDS[kind]) == set(inspect.signature(generator).parameters)


def test_algorithm_fields_are_algorithm_config_fields():
    assert set(ALGORITHM_FIELDS) == {f.name for f in dataclasses.fields(AlgorithmConfig)}


# ------------------------------------------------------------ run command

def test_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "run complete:" in captured
    assert "T1_gap: holds" in captured
    assert (out / "trace.csv").exists()
    assert (out / "certificates.json").exists()
    assert (out / "config.json").exists()
    rows = read_trace(out)
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 62  # header + rows k = 0..60
    report = json.loads((out / "certificates.json").read_text())
    ids = [c["theorem_id"] for c in report["certificates"]]
    assert ids == ["T1_gap", "T1_consensus"]
    assert all(c["holds"] for c in report["certificates"])
    echoed = json.loads((out / "config.json").read_text())
    assert echoed == check_config(base_config())


def test_run_config_error_exits_two(tmp_path, capsys):
    data = base_config()
    del data["algorithm"]
    cfg_path = write_config(tmp_path, data)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def cyclic_graph():
    return {"m": 9, "kind": "cyclic", "edge_sets": [list(map(list, e)) for e in M9_EDGE_SETS]}


@pytest.mark.parametrize("problem_m,graph,algorithm,reason", [
    (9, cyclic_graph(), {"variant": "acc_gt_static", "max_iterations": 10},
     "requires a static schedule"),
    (5, None, {"variant": "gt", "alpha": "theorem_default", "max_iterations": 10},
     "no default step-size rule"),
    (5, None, {"variant": "gt", "alpha": 0.1, "mu_mode": "strongly_convex",
               "max_iterations": 10}, "gt has no momentum row"),
])
def test_run_reports_unsupported_run_settings_as_config_error(tmp_path, capsys, problem_m,
                                                              graph, algorithm, reason):
    data = base_config(algorithm=algorithm)
    data["problem"]["m"] = problem_m
    if graph is not None:
        data["graph"] = graph
    cfg_path = write_config(tmp_path, data)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: algorithm: ") and reason in err
    assert "Traceback" not in err


# Agent 4 is isolated: sigma rounds to 0.9999999999999998, and acc_gt_chebyshev
# once built an operator of about 7e7 rounds per call and never finished.
DISCONNECTED_CONFIG = Path(__file__).parent / "data" / "disconnected_static_config.json"
# Two separate pairs: sigma rounds to 1.0, once a ZeroDivisionError traceback.
TWO_PAIRS_GRAPH = {"m": 4, "kind": "static", "edge_sets": [[[0, 1], [2, 3]]]}


@pytest.mark.parametrize("two_pairs", [False, True], ids=["path4_isolated", "two_pairs"])
@pytest.mark.parametrize("alpha", [0.1, "theorem_default"])
@pytest.mark.parametrize("variant", ["acc_gt_static", "acc_gt_chebyshev"])
def test_run_reports_a_disconnected_static_graph_as_config_error(tmp_path, capsys, variant,
                                                                 alpha, two_pairs):
    data = json.loads(DISCONNECTED_CONFIG.read_text())
    data["algorithm"].update(variant=variant, alpha=alpha)
    if two_pairs:
        data["graph"] = TWO_PAIRS_GRAPH
        data["problem"]["m"] = 4
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, data), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"config error: algorithm: variant {variant} needs a connected "
                            "static graph (sigma < 1); this one is disconnected\n")
    assert captured.out == "" and not out.exists()


def test_sweep_reports_a_disconnected_static_graph_per_cell(tmp_path, capsys):
    data = json.loads(DISCONNECTED_CONFIG.read_text())
    data["sweep"] = {"algorithm.variant": ["acc_gt_chebyshev", "acc_gt_static", "gt"]}
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path, data), "--out", str(out),
                 "--deterministic"]) == 2
    assert "sweep complete: 3 cells" in capsys.readouterr().out
    rows = read_summary(out)
    for row, variant in zip(rows[:2], ("acc_gt_chebyshev", "acc_gt_static")):
        assert row["status"] == (f"config error: algorithm: variant {variant} needs a "
                                 "connected static graph (sigma < 1); this one is disconnected")
    assert rows[2]["status"] == "ok"  # gt has no mixing constant to rest on


def mismatched_agents_config():
    # A seeded-random graph of 10 agents for a problem of 8: numpy's matmul once
    # failed on it only after the whole spectral setup, as an algorithm error.
    data = base_config(graph={"m": 10, "kind": "seeded_random", "edge_probability": 0.3,
                              "seed": 1})
    data["problem"]["m"] = 8
    data["algorithm"]["variant"] = "acc_gt_tv"
    return data


MISMATCH_ERROR = "config error: graph.m: 10 does not match problem.m 8\n"


@pytest.mark.parametrize("command", ["run", "graph-info"])
def test_agent_count_mismatch_is_a_graph_config_error(tmp_path, capsys, command):
    out = tmp_path / "o"
    args = [command, "--config", write_config(tmp_path, mismatched_agents_config())]
    assert main(args + (["--out", str(out)] if command == "run" else [])) == 2
    captured = capsys.readouterr()
    assert captured.err == MISMATCH_ERROR and captured.out == "" and not out.exists()


def test_sweep_reports_agent_count_mismatch_per_cell(tmp_path, capsys):
    data = mismatched_agents_config()
    data["algorithm"]["max_iterations"] = 5
    data["sweep"] = {"problem.m": [10, 8]}
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path, data), "--out", str(out),
                 "--deterministic"]) == 2
    rows = read_summary(out)
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == MISMATCH_ERROR.strip()
    assert not (out / "cell_001").exists()


def test_run_rejects_zeta_for_a_variant_that_ignores_it(tmp_path, capsys):
    data = base_config()
    data["algorithm"]["zeta"] = 5
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: algorithm: zeta sets the rounds of "
                          "acc_gt_multiconsensus only; variant acc_gt_static")
    assert not out.exists()


@pytest.mark.parametrize("problem,reason", [
    ({"L": 0.5, "mu": 1.0}, "0 <= mu <= L"),
    ({"L": -1.0}, "0 <= mu <= L"),
    ({"m": 1, "n": 1}, "single drawn eigenvalue"),
    ({"kind": "logistic", "samples_per_agent": 0, "ridge": 0.1}, "at least one sample"),
    ({"kind": "logistic", "m": 1, "samples_per_agent": 1, "ridge": 0.0},
     "separable data, F has no minimizer"),
    ({"kind": "logistic", "ridge": -1.0}, "need ridge >= 0"),
    ({"kind": "logistic", "n": 0, "ridge": 0.1}, "need at least one agent and one dimension"),
    ({"m": 0}, "need at least one agent and one dimension"),
    ({"n": 0}, "need at least one agent and one dimension"),
])
def test_run_reports_impossible_problem_as_config_error(tmp_path, capsys, problem, reason):
    data = base_config()
    if problem.get("kind") == "logistic":  # a logistic problem reads no L or mu
        del data["problem"]["L"], data["problem"]["mu"]
    data["problem"].update(problem)
    data["graph"]["m"] = data["problem"]["m"]
    if data["problem"]["m"] == 1:
        data["graph"]["edge_sets"] = [[]]
    cfg_path = write_config(tmp_path, data)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: problem: ") and reason in captured.err
    assert "Traceback" not in captured.err and "T1" not in captured.out
    assert not out.exists()


def test_run_divergence_exits_three(tmp_path, capsys):
    data = base_config()
    data["algorithm"] = {"variant": "gt", "alpha": 5.0, "max_iterations": 400}
    cfg_path = write_config(tmp_path, data)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
    assert "divergence" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep", "graph-info"])
def test_commands_raise_and_main_alone_maps_errors_to_exit_codes(tmp_path, command):
    config = write_config(tmp_path, base_config(problem={"kind": "quadratic", "m": 5.9, "n": 3}))
    out = str(tmp_path / "o")
    handler = {"run": cli.cmd_run, "sweep": cli.cmd_sweep, "graph-info": cli.cmd_graph_info}
    with pytest.raises(ConfigError, match=r"^problem\.m: expected an integer, got 5\.9$"):
        handler[command](argparse.Namespace(config=config, out=out, seed=None, diagnostics=None,
                                             strict=False, deterministic=True))
    out_args = [] if command == "graph-info" else ["--out", out]
    assert main([command, "--config", config, *out_args]) == 2


def test_an_unknown_key_that_holds_a_line_break_is_reported_on_one_line(tmp_path, capsys):
    # Printed raw, the key split the error line in two.
    cfg = base_config()
    cfg["graph"]["x\ny"] = 1
    assert main(["graph-info", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: graph.'x\\ny': unknown key; ")


def test_an_L_whose_spectrum_map_overflows_is_a_config_error(tmp_path, capsys):
    # Under -W error::RuntimeWarning this was a traceback with exit 1.
    cfg = base_config()
    cfg["problem"]["L"] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("config error: problem: L = 1e+308 is too large: mapping "
                                       "the drawn spectra onto [mu, L] overflows\n")


def test_run_strict_exits_four_on_violated_bound(tmp_path, capsys):
    # An oversized (but still finite-trajectory) step breaks the consensus
    # bound without tripping the divergence guard.
    data = base_config()
    data["algorithm"] = {"variant": "acc_gt_static", "alpha": 0.3,
                         "mu_mode": "zero", "max_iterations": 80}
    cfg_path = write_config(tmp_path, data)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--out", str(out),
                 "--strict"]) == 4
    assert "VIOLATED" in capsys.readouterr().out
    # without --strict the same run reports the violation but exits 0
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0


def test_run_rejects_sc_mode_on_convex_problem(tmp_path, capsys):
    data = base_config()
    data["algorithm"]["mu_mode"] = "strongly_convex"
    cfg_path = write_config(tmp_path, data)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "mu > 0" in capsys.readouterr().err


def test_run_rejects_overlarge_sc_step(tmp_path, capsys):
    data = base_config()
    data["problem"]["mu"] = 0.5
    data["algorithm"] = {"variant": "acc_gt_static", "alpha": 3.0,
                         "mu_mode": "strongly_convex", "max_iterations": 10}
    cfg_path = write_config(tmp_path, data)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "alpha * mu <= 1" in capsys.readouterr().err


def test_run_deterministic_outputs_are_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["run", "--config", cfg_path, "--out", str(out),
                     "--deterministic"]) == 0
    for name in ("trace.csv", "certificates.json", "config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert not (out1 / "trace.csv").read_text().startswith("#")


def test_run_default_output_carries_timestamp(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "trace.csv").read_text().startswith("# generated ")


def test_run_seed_override_changes_instance(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    gaps = {}
    for seed in (0, 1):
        out = tmp_path / f"s{seed}"
        assert main(["run", "--config", cfg_path, "--out", str(out),
                     "--seed", str(seed), "--deterministic"]) == 0
        gaps[seed] = read_trace(out)[1][1]
    assert gaps[0] != gaps[1]
    # seed 0 override reproduces the config's own seed 0
    out = tmp_path / "plain"
    assert main(["run", "--config", cfg_path, "--out", str(out),
                 "--deterministic"]) == 0
    assert read_trace(out)[1][1] == gaps[0]


def test_run_seed_rewrites_the_seed_of_a_seeded_random_graph(tmp_path):
    graph = {"m": 5, "kind": "seeded_random", "edge_probability": 0.5, "seed": 1}
    data = base_config(graph=graph)
    data["algorithm"].update(variant="acc_gt_tv", max_iterations=20)
    traces = {}
    for name, graph_seed in (("flag", None), ("written", 7), ("kept", 1)):
        cfg, flag = json.loads(json.dumps(data)), ["--seed", "7"]
        if graph_seed is not None:  # the seeds --seed 7 writes, with this graph seed
            cfg["problem"]["seed"], cfg["algorithm"]["seeds"] = 7, [7]
            cfg["graph"]["seed"], flag = graph_seed, []
        out = tmp_path / name
        assert main(["run", "--config", write_config(tmp_path, cfg, f"{name}.json"),
                     "--out", str(out), "--deterministic", *flag]) == 0
        traces[name] = (out / "trace.csv").read_bytes()
    assert traces["flag"] == traces["written"]
    assert traces["flag"] != traces["kept"]  # the graph seed is part of the trace


def test_run_diagnostics_override(tmp_path):
    cfg_path = write_config(tmp_path, base_config(diagnostics="off"))
    out = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--out", str(out),
                 "--diagnostics", "on", "--deterministic"]) == 0
    rows = read_trace(out)
    margins = rows[0].index("lemma4_margin")
    # diagnostics on: interior rows carry finite margins, not nan
    assert rows[2][margins] != "nan"


def test_run_reports_why_gt_is_not_certified(tmp_path, capsys):
    data = base_config()
    data["algorithm"] = {"variant": "gt", "alpha": 0.1, "max_iterations": 20}
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
    report = json.loads((out / "certificates.json").read_text())
    assert report["certificates"] == []
    assert report["not_checked"] == "no convergence theorem covers variant gt"
    assert "certificates not checked: no convergence theorem covers variant gt" \
        in capsys.readouterr().out


def test_run_reports_trace_too_short_for_time_varying_bound(tmp_path, capsys):
    data = base_config()
    data["problem"]["m"] = 9
    data["graph"] = {"m": 9, "kind": "cyclic", "period": 3,
                     "edge_sets": [[list(e) for e in s] for s in M9_EDGE_SETS]}
    data["algorithm"] = {"variant": "acc_gt_tv", "max_iterations": 2}  # gamma = 3
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
    report = json.loads((out / "certificates.json").read_text())
    assert report["certificates"] == []
    assert report["not_checked"].startswith("trace too short")
    assert "certificates not checked: trace too short" in capsys.readouterr().out


def test_certified_runs_carry_no_skip_reason(tmp_path):
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, base_config()),
                 "--out", str(out)]) == 0
    report = json.loads((out / "certificates.json").read_text())
    assert "not_checked" not in report
    assert "sigma_gamma_is_estimate" not in report  # T1 uses the exact static sigma


@pytest.mark.parametrize("graph,estimate", [
    ({"m": 9, "kind": "cyclic", "period": 3,
      "edge_sets": [[list(e) for e in s] for s in M9_EDGE_SETS]}, False),
    ({"m": 9, "kind": "seeded_random", "edge_probability": 0.5, "seed": 1}, True),
])
def test_time_varying_certificates_say_if_sigma_gamma_was_estimated(tmp_path, graph, estimate):
    data = base_config(graph=graph)
    data["problem"]["m"] = 9
    data["algorithm"] = {"variant": "acc_gt_tv", "max_iterations": 12}
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
    report = json.loads((out / "certificates.json").read_text())
    assert [c["theorem_id"] for c in report["certificates"]] == ["T3_gap", "T3_consensus"]
    assert report["sigma_gamma_is_estimate"] is estimate


# ------------------------------------------------------------ graph-info

def test_graph_info_static_ring(tmp_path, capsys):
    cfg = base_config()
    cfg["graph"] = {"m": 10, "kind": "static",
                    "edge_sets": [[[i, (i + 1) % 10] for i in range(10)]]}
    cfg["problem"]["m"] = 10
    cfg_path = write_config(tmp_path, cfg)
    assert main(["graph-info", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "agents: 10" in out
    assert "gamma-connected: true (smallest gamma = 1)" in out
    assert "sigma = 0.87267799624996" in out
    assert "acc_gt_static" in out and "strongly_convex" in out


def test_graph_info_cyclic_schedule(tmp_path, capsys):
    cfg = base_config()
    cfg["graph"] = {"m": 9, "kind": "cyclic", "period": 3,
                    "edge_sets": [list(map(list, s)) for s in M9_EDGE_SETS]}
    cfg["problem"]["m"] = 9
    cfg_path = write_config(tmp_path, cfg)
    assert main(["graph-info", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "schedule: cyclic, period 3" in out
    assert "gamma-connected: true (smallest gamma = 3)" in out
    assert "sigma_gamma = 0.76136871888869" in out
    assert "(exact) at gamma = 3" in out


def test_graph_info_stdout_pinned(tmp_path, capsys):
    """The whole graph-info report of the static ring and the 9-agent cyclic
    schedule: which variants each schedule lists, in what order, and their
    default steps to the last digit."""
    ring = base_config(problem={**base_config()["problem"], "m": 10},
                       graph={"m": 10, "kind": "static",
                              "edge_sets": [[[i, (i + 1) % 10] for i in range(10)]]})
    cyclic = base_config(problem={**base_config()["problem"], "m": 9},
                         graph={"m": 9, "kind": "cyclic", "period": 3,
                                "edge_sets": [list(map(list, s)) for s in M9_EDGE_SETS]})
    expected = {
        "ring": (
            "agents: 10\n"
            "schedule: static, period 1\n"
            "gamma-connected: true (smallest gamma = 1)\n"
            "sigma = 0.87267799624996467\n"
            "default step sizes (L = 1):\n"
            "  acc_gt_static            zero             alpha = 4.893725142471521e-07\n"
            "  acc_gt_static            strongly_convex  alpha = 1.7344565826592464e-05\n"
            "  acc_gt_chebyshev         zero             alpha = 2.7944599627560514e-05\n"
            "  acc_gt_chebyshev         strongly_convex  alpha = 0.00036029411764705875\n"
            "  acc_gt_tv                zero             alpha = 1.2124246373735671e-08\n"
            "  acc_gt_tv                strongly_convex  alpha = 4.8633443293225809e-07\n"
            "  acc_gt_multiconsensus    zero             alpha = 7.366149949304972e-06\n"
            "  acc_gt_multiconsensus    strongly_convex  alpha = 5.9514716736014878e-05\n"),
        "cyclic": (
            "agents: 9\n"
            "schedule: cyclic, period 3\n"
            "gamma-connected: true (smallest gamma = 3)\n"
            "sigma_gamma = 0.76136871888869395 (exact) at gamma = 3\n"
            "default step sizes (L = 1):\n"
            "  acc_gt_tv                zero             alpha = 1.8469934961348668e-09\n"
            "  acc_gt_tv                strongly_convex  alpha = 1.1858861009610786e-07\n"
            "  acc_gt_multiconsensus    zero             alpha = 7.366149949304972e-06\n"
            "  acc_gt_multiconsensus    strongly_convex  alpha = 5.9514716736014878e-05\n"),
    }
    for name, cfg in (("ring", ring), ("cyclic", cyclic)):
        assert main(["graph-info", "--config", write_config(tmp_path, cfg, f"{name}.json")]) == 0
        assert capsys.readouterr().out == expected[name]


def test_graph_info_disconnected_graph(tmp_path, capsys):
    cfg = base_config()
    cfg["graph"] = {"m": 4, "kind": "static", "edge_sets": [[[0, 1]]]}
    cfg["problem"]["m"] = 4
    cfg_path = write_config(tmp_path, cfg)
    assert main(["graph-info", "--config", cfg_path]) == 0
    assert "gamma-connected: false" in capsys.readouterr().out


def test_run_rejects_non_integer_edge_endpoint(tmp_path, capsys):
    data = base_config()
    data["graph"]["edge_sets"] = [[[0, 1.9], [1, 2], [2, 3], [3, 4], [4, 0]]]
    cfg_path = write_config(tmp_path, data)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: graph: ") and "non-integer endpoint" in err
    assert "Traceback" not in err and not out.exists()


LOGISTIC_PROBLEM = {"kind": "logistic", "m": 5, "n": 3, "seed": 0,
                    "samples_per_agent": 10, "ridge": 0.01}


@pytest.mark.parametrize("section,key", [
    ("problem", "ridg"), ("problem", "samples_per_agent"), ("graph", "mu"),
    ("graph", "period"), ("algorithm", "seed"), (None, "target_gapp")])
def test_run_rejects_keys_no_reader_takes(tmp_path, capsys, section, key):
    data = base_config()
    if key == "ridg":  # a typo of a logistic key
        data["problem"] = {**LOGISTIC_PROBLEM, "ridg": 0.5}
    else:
        (data if section is None else data[section])[key] = 1
    cfg_path = write_config(tmp_path, data)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    name = key if section is None else f"{section}.{key}"
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name}: unknown key")
    assert not out.exists()


def test_builders_reject_keys_they_do_not_read():
    with pytest.raises(ConfigError, match=r"problem\.mu: unknown key; a logistic problem reads"):
        build_problem({**LOGISTIC_PROBLEM, "mu": 0.1})
    with pytest.raises(ConfigError, match=r"graph\.edge_sets: unknown key"):
        build_schedule({"m": 5, "kind": "seeded_random", "edge_probability": 0.5, "seed": 1,
                        "edge_sets": [[[0, 1]]]})
    with pytest.raises(ConfigError, match=r"algorithm\.seed: unknown key"):
        build_algorithm({"variant": "gt", "seed": 3})
    with pytest.raises(ConfigError, match=r"extra: unknown key; the config reads"):
        check_config(base_config(extra=1))
    assert build_problem(LOGISTIC_PROBLEM).m == 5


# Each of these was once truncated by int() (m 5.9 ran 5 agents) or, for a
# bool, read as 0 or 1.
@pytest.mark.parametrize("section,key,value", [
    ("problem", "m", 5.9), ("problem", "n", 3.0), ("problem", "seed", True),
    ("problem", "samples_per_agent", 10.0), ("graph", "m", 5.0), ("graph", "seed", 1.7),
    ("graph", "period", 3.0), ("algorithm", "max_iterations", 20.8),
    ("algorithm", "max_iterations", "60"), ("algorithm", "zeta", 2.0),
    ("algorithm", "seeds", [1.5])])
def test_run_rejects_non_integer_config_fields(tmp_path, capsys, section, key, value):
    data = base_config()
    if key == "samples_per_agent":
        data["problem"] = dict(LOGISTIC_PROBLEM)
    if (section, key) == ("graph", "seed"):
        data["graph"] = {"m": 5, "kind": "seeded_random", "edge_probability": 0.5, "seed": 1}
        data["algorithm"]["variant"] = "acc_gt_tv"
    if key == "period":
        data["graph"] = {"m": 5, "kind": "cyclic", "period": 3,
                         "edge_sets": [[[0, 1], [2, 3]], [[1, 2], [3, 4]], [[4, 0]]]}
        data["algorithm"]["variant"] = "acc_gt_tv"
    data[section][key] = value
    cfg_path = write_config(tmp_path, data)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}.{key}: expected ")
    assert "Traceback" not in err and not out.exists()


# null was once a TypeError traceback (exit 1); true, NaN and Infinity went
# through float(), "0.5" was parsed, and "no" was read as shared_basis True.
@pytest.mark.parametrize("section,key,value,expected", [
    ("problem", "L", None, "a finite number"), ("problem", "mu", "0.1", "a finite number"),
    ("problem", "ridge", float("nan"), "a finite number"),
    ("graph", "edge_probability", True, "a finite number"),
    ("algorithm", "alpha", float("inf"), "a finite number"),
    ("algorithm", "alpha", None, "a finite number"),
    (None, "target_gap", None, "a finite number"),
    ("problem", "shared_basis", "no", "true or false")])
def test_run_rejects_non_finite_or_non_boolean_config_fields(tmp_path, capsys, section, key,
                                                            value, expected):
    data = base_config()
    if key == "ridge":
        data["problem"] = dict(LOGISTIC_PROBLEM)
    if key == "edge_probability":
        data["graph"] = {"m": 5, "kind": "seeded_random", "edge_probability": 0.5, "seed": 1}
        data["algorithm"]["variant"] = "acc_gt_tv"
    (data[section] if section else data)[key] = value
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    name = f"{section}.{key}" if section else key
    assert err.startswith(f"config error: {name}: expected {expected}, got {value!r}")
    assert "Traceback" not in err and not out.exists()


def test_run_rejects_more_than_one_seed(tmp_path, capsys):
    data = base_config()
    data["algorithm"]["seeds"] = [1, 2]  # only the first would seed the run
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: algorithm: seeds must hold exactly one seed")
    assert "Traceback" not in err and not out.exists()


def test_float_fields_take_json_integers():
    assert build_problem({**base_config()["problem"], "L": 2, "mu": 0}).L == 2.0
    assert build_schedule({"m": 5, "kind": "seeded_random", "edge_probability": 1,
                           "seed": 1}).edge_probability == 1.0
    assert build_algorithm({"variant": "gt", "alpha": 1}).alpha == 1.0
    assert check_config({**base_config(), "target_gap": 0})["target_gap"] == 0.0


@pytest.mark.parametrize("command", ["graph-info", "run"])
def test_negative_random_graph_seed_is_a_graph_config_error(tmp_path, capsys, command):
    # graph-info once printed "gamma-connected: false" and exited 0; run
    # blamed the algorithm section.
    data = base_config()
    data["graph"] = {"m": 5, "kind": "seeded_random", "edge_probability": 0.5, "seed": -1}
    data["algorithm"]["variant"] = "acc_gt_tv"
    out = tmp_path / "o"
    args = [command, "--config", write_config(tmp_path, data)]
    assert main(args + (["--out", str(out)] if command == "run" else [])) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: graph: ")
    assert "non-negative integer seed, got -1" in captured.err
    assert "gamma-connected" not in captured.out and not out.exists()


def test_negative_run_seed_is_an_algorithm_config_error(tmp_path, capsys, monkeypatch):
    # Once accepted: run() spent the whole spectral setup, then failed with
    # numpy's "expected non-negative integer".
    monkeypatch.setattr(algorithms, "resolve_constants", lambda *args: pytest.fail(
        "constants were computed for a run that cannot start"))
    data = base_config()
    data["graph"] = {"m": 5, "kind": "seeded_random", "edge_probability": 0.5, "seed": 1}
    data["algorithm"].update(variant="acc_gt_tv", seeds=[-1])
    out = tmp_path / "o"
    assert main(["run", "--config", write_config(tmp_path, data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: algorithm: ")
    assert "non-negative integer, got -1" in err
    assert "Traceback" not in err and not out.exists()


def test_graph_info_step_sizes_use_the_built_problems_L(tmp_path, capsys):
    data = base_config(problem=dict(LOGISTIC_PROBLEM))
    assert main(["graph-info", "--config", write_config(tmp_path, data)]) == 0
    out = capsys.readouterr().out
    L = build_problem(LOGISTIC_PROBLEM).L  # data-derived, the L that run uses
    assert L != 1.0
    assert f"default step sizes (L = {L:g}):" in out
    sig = sigma(build_schedule(data["graph"]).matrix(0))
    alpha = default_alpha("acc_gt_static", L, sig, 1, "zero")
    assert f"acc_gt_static            zero             alpha = {alpha:.17g}" in out


def test_graph_info_config_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"problem": {}, "graph": {"m": 5},
                                       "algorithm": {}})
    assert main(["graph-info", "--config", cfg_path]) == 2
    assert "config error" in capsys.readouterr().err


# ------------------------------------------------------------ sweep

def sweep_config():
    cfg = base_config()
    cfg["algorithm"]["max_iterations"] = 40
    cfg["target_gap"] = 1e-3
    cfg["sweep"] = {"problem.seed": [0, 1], "algorithm.alpha": [0.05, 0.1]}
    return cfg


def test_sweep_runs_all_cells(tmp_path, capsys):
    cfg_path = write_config(tmp_path, sweep_config())
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--deterministic"]) == 0
    assert "sweep complete: 4 cells" in capsys.readouterr().out
    for index in range(4):
        assert (out / f"cell_{index:03d}" / "trace.csv").exists()
    rows = read_summary(out)
    assert len(rows) == 4
    assert list(rows[0]) == ["cell", "algorithm.alpha", "problem.seed",
                             "status", "final_gap", "comm_rounds_to_target",
                             "grad_rounds_to_target", "certificates"]
    assert all(r["status"] == "ok" for r in rows)
    # axes are sorted, so alpha varies slowest
    assert [r["algorithm.alpha"] for r in rows] == ["0.05", "0.05", "0.1", "0.1"]
    assert [r["problem.seed"] for r in rows] == ["0", "1", "0", "1"]
    assert all("T1_gap:pass" in r["certificates"] for r in rows)


def test_sweep_rejects_an_empty_axis(tmp_path, capsys):
    cfg = sweep_config()
    cfg["sweep"] = {"problem.seed": [0, 1], "algorithm.alpha": []}
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config error: sweep: expected an object mapping dotted paths to non-empty lists" \
        in captured.err
    assert "sweep complete" not in captured.out
    assert not out.exists()


def test_sweep_axis_through_a_value_that_is_not_an_object(tmp_path, capsys):
    cfg = sweep_config()
    cfg["sweep"] = {"algorithm.variant.name": ["gt"]}
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--deterministic"]) == 2
    assert "sweep complete: 1 cells" in capsys.readouterr().out
    assert [r["status"] for r in read_summary(out)] == [
        "config error: sweep: path 'algorithm.variant.name' does not exist in the config"]


def test_sweep_without_axes_behaves_as_run(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()
    assert not (out / "summary.csv").exists()
    assert "run complete:" in capsys.readouterr().out


def test_sweep_reports_divergent_cell(tmp_path):
    cfg = sweep_config()
    cfg["algorithm"]["variant"] = "gt"
    cfg["algorithm"]["max_iterations"] = 400
    cfg["sweep"] = {"algorithm.alpha": [0.1, 5.0]}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 3
    rows = read_summary(out)
    assert [r["status"] for r in rows] == ["ok", "diverged"]
    assert rows[1]["final_gap"] == ""


def test_sweep_reports_unsupported_variant_cell_and_finishes(tmp_path, capsys):
    cfg = base_config(graph=cyclic_graph())
    cfg["problem"]["m"] = 9
    cfg["algorithm"]["max_iterations"] = 10
    cfg["sweep"] = {"algorithm.variant": ["acc_gt_tv", "acc_gt_static"]}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--out", str(out), "--deterministic"]) == 2
    assert "sweep complete: 2 cells" in capsys.readouterr().out
    rows = read_summary(out)
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == ("config error: algorithm: variant acc_gt_static "
                                 "requires a static schedule")
    assert (out / "cell_000" / "trace.csv").exists()


def test_sweep_reports_impossible_problem_cell_and_finishes(tmp_path, capsys):
    cfg = base_config()
    cfg["problem"]["mu"] = 0.5
    cfg["algorithm"]["max_iterations"] = 10
    cfg["sweep"] = {"problem.L": [1.0, 0.25]}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--out", str(out), "--deterministic"]) == 2
    rows = read_summary(out)
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("config error: problem: need L > 0 and 0 <= mu <= L")
    assert not (out / "cell_001").exists()


def test_sweep_marks_a_non_numeric_axis_value_and_finishes(tmp_path, capsys):
    cfg = base_config()
    cfg["algorithm"]["max_iterations"] = 10
    cfg["sweep"] = {"problem.L": [1.0, None]}
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--deterministic"]) == 2
    assert "sweep complete: 2 cells" in capsys.readouterr().out
    rows = read_summary(out)
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == "config error: problem.L: expected a finite number, got None"
    assert (out / "cell_000" / "trace.csv").exists() and not (out / "cell_001").exists()


def test_sweep_rejects_unknown_axis_path(tmp_path):
    cfg = sweep_config()
    cfg["sweep"] = {"algorithm.bogus_knob": [1, 2]}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
    rows = read_summary(out)
    assert all(r["status"].startswith("config error") for r in rows)


def test_sweep_rejects_axes_no_reader_takes(tmp_path, capsys):
    # Once these ran four byte-identical cells and exited 0.
    cfg = json.loads((Path(__file__).parent / "data" / "readme_config.json").read_text())
    cfg["sweep"] = {"algorithm.seed": [0, 1], "graph.mu": [0.0, 5.0]}
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    rows = read_summary(out)
    assert len(rows) == 4
    assert all(r["status"].startswith("config error: graph.mu: unknown key") for r in rows)
    for axis, name in (({"algorithm.seed": [0, 1]}, "algorithm.seed"),
                       ({"problem.ridg": [0.1]}, "problem.ridg"),
                       ({"target_gapp": [0.1]}, "target_gapp")):
        cfg["sweep"] = axis
        assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert all(r["status"].startswith(f"config error: {name}: unknown key")
                   for r in read_summary(out))


def test_sweep_axis_may_set_a_read_key_the_config_omits(tmp_path):
    cfg = sweep_config()
    cfg["sweep"] = {"problem.shared_basis": [False, True]}
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert [r["status"] for r in read_summary(out)] == ["ok", "ok"]


def test_sweep_target_gap_axis_sets_each_cells_target(tmp_path):
    # The rounds to target were once counted to the base config's target_gap.
    cfg = json.loads((Path(__file__).parent / "data" / "readme_config.json").read_text())
    cfg["algorithm"].update(alpha=0.1, max_iterations=300)
    cfg["sweep"] = {"target_gap": [1.0, 1e-3]}
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--deterministic"]) == 0
    rows = read_summary(out)
    for row in rows:
        with open(out / f"cell_{int(row['cell']):03d}" / "trace.csv") as fh:
            trace = list(csv.DictReader(fh))
        hit = next(r for r in trace if float(r["gap"]) <= float(row["target_gap"]))
        assert (row["comm_rounds_to_target"], row["grad_rounds_to_target"]) == \
            (hit["comm_rounds"], hit["grad_rounds"])
    assert [(r["comm_rounds_to_target"], r["grad_rounds_to_target"]) for r in rows] == \
        [("33", "12"), ("252", "85")]


def test_sweep_strict_flags_violations(tmp_path):
    cfg = sweep_config()
    cfg["algorithm"] = {"variant": "acc_gt_static", "mu_mode": "zero",
                        "max_iterations": 80}
    cfg["sweep"] = {"algorithm.alpha": ["theorem_default", 0.3]}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--strict"]) == 4
    rows = read_summary(out)
    assert "T1_consensus:FAIL" in rows[1]["certificates"]


def mixed_sweep_config():
    """Sixteen cells: ok and diverged runs (alpha 0.1 and 5.0), a problem whose
    build fails (L below mu) and a value the config check rejects."""
    cfg = base_config(diagnostics="on")
    cfg["problem"]["mu"] = 0.5
    cfg["algorithm"] = {"variant": "gt", "max_iterations": 400}
    cfg["sweep"] = {"algorithm.alpha": [0.1, 5.0], "problem.L": [1.0, 0.25],
                    "problem.seed": [0, 1], "diagnostics": ["on", "maybe"]}
    return cfg


def sweep_outputs(run_dir):
    """Every file a sweep wrote under ``run_dir/sweep``, as bytes by relative path."""
    out = run_dir / "sweep"
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def sweep_in_process(run_dir, cfg_path, workers, monkeypatch, capsys):
    """Exit code, stdout and output files of a sweep on ``workers`` threads."""
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)  # a relative --out, so stdout names the same path
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    code = main(["sweep", "--config", cfg_path, "--out", "sweep", "--deterministic"])
    return code, capsys.readouterr().out, sweep_outputs(run_dir)


SWEEP_ON_WORKERS = """
import sys
from agtrack import cli
cli._usable_cpus = lambda: int(sys.argv[1])
sys.exit(cli.main(["sweep", "--config", sys.argv[2], "--out", "sweep", "--deterministic"]))
"""


def sweep_in_subprocess(run_dir, cfg_path, workers):
    """As ``sweep_in_process``, in a fresh interpreter without OPENBLAS_NUM_THREADS,
    so BLAS may run its own threads beside the sweep's."""
    run_dir.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(agtrack.__file__).parent.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SWEEP_ON_WORKERS, str(workers), cfg_path],
                          cwd=run_dir, env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, sweep_outputs(run_dir)


def test_sweep_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path, mixed_sweep_config())
    serial = sweep_in_process(tmp_path / "one", cfg_path, 1, monkeypatch, capsys)
    code, stdout, files = serial
    assert code == 3
    assert stdout == "sweep complete: 16 cells -> sweep/summary.csv\n"
    statuses = [r["status"] for r in read_summary(tmp_path / "one" / "sweep")]
    assert statuses.count("ok") == 2 and statuses.count("diverged") == 2
    assert statuses.count("config error: diagnostics: expected 'on' or 'off', got 'maybe'") == 8
    assert sum(s.startswith("config error: problem: need L > 0") for s in statuses) == 4
    assert sum(name.endswith("/trace.csv") for name in files) == 2
    assert sum(name.endswith("/certificates.json") for name in files) == 2
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more workers than CPUs, switching often inside each cell
    try:
        assert sweep_in_process(tmp_path / "many", cfg_path, 8, monkeypatch, capsys) == serial
    finally:
        sys.setswitchinterval(switch)


def test_sweep_outputs_do_not_depend_on_the_worker_count_beside_blas_threads(tmp_path):
    cfg_path = write_config(tmp_path, mixed_sweep_config())
    serial = sweep_in_subprocess(tmp_path / "one", cfg_path, 1)
    assert serial[:2] == (3, "sweep complete: 16 cells -> sweep/summary.csv\n")
    assert sweep_in_subprocess(tmp_path / "many", cfg_path, 4) == serial


def test_sweep_builds_each_problem_once_when_its_cells_run_on_different_workers(
        tmp_path, monkeypatch):
    built, threads = [], {}
    all_running = threading.Barrier(4, timeout=10)
    execute = cli._execute

    def counted_build(spec):
        built.append(spec["seed"])
        return build_problem(spec)

    def execute_with_the_others(config, problem, out_dir, deterministic):
        threads[out_dir.name] = threading.get_ident()
        all_running.wait()  # all four cells run at once, so each on its own worker
        return execute(config, problem, out_dir, deterministic)

    monkeypatch.setattr(cli, "build_problem", counted_build)
    monkeypatch.setattr(cli, "_execute", execute_with_the_others)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path, sweep_config()), "--out", str(out),
                 "--deterministic"]) == 0
    assert sorted(built) == [0, 1]  # problem.seed 0 and 1, two cells each
    assert len(set(threads.values())) == 4
    assert [r["status"] for r in read_summary(out)] == ["ok"] * 4


def test_sweep_gives_a_failed_problem_build_to_each_of_its_cells(tmp_path, monkeypatch):
    built = []

    def counted_build(spec):
        built.append(spec["L"])
        return build_problem(spec)

    cfg = sweep_config()
    cfg["problem"]["mu"] = 0.5
    cfg["sweep"] = {"problem.L": [0.25, 1.0], "algorithm.alpha": [0.05, 0.1, 0.2]}
    monkeypatch.setattr(cli, "build_problem", counted_build)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--deterministic"]) == 2
    assert sorted(built) == [0.25, 1.0]
    rows = read_summary(out)
    failed = [r["status"] for r in rows if r["problem.L"] == "0.25"]
    assert len(failed) == 3 and len(set(failed)) == 1
    assert failed[0].startswith("config error: problem: need L > 0 and 0 <= mu <= L")
    assert all(r["status"] == "ok" for r in rows if r["problem.L"] == "1.0")


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_propagates_an_unexpected_cell_error_and_cancels_the_cells_not_started(
        tmp_path, monkeypatch, workers):
    started = []
    execute = cli._execute

    def fail_cell_1(config, problem, out_dir, deterministic):
        index = int(out_dir.name.removeprefix("cell_"))
        started.append(index)
        if index == 1:
            raise RuntimeError("cell 1 failed")
        if index > 1:
            time.sleep(0.5)  # hold the workers while the sweep shuts down
        return execute(config, problem, out_dir, deterministic)

    cfg = sweep_config()
    cfg["sweep"] = {"algorithm.alpha": [0.05, 0.06, 0.07, 0.08, 0.09, 0.1, 0.11, 0.12]}
    monkeypatch.setattr(cli, "_execute", fail_cell_1)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    out = tmp_path / "sweep"
    with pytest.raises(RuntimeError, match="cell 1 failed"):
        main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    # Cells 0 and 1, and at most one more per worker, picked up before the rest
    # were cancelled; no summary is written.
    assert {0, 1} <= set(started) <= set(range(2 + workers))
    assert not (out / "summary.csv").exists()


# ------------------------------------------------------------ parser

def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_main_requires_config_flag():
    with pytest.raises(SystemExit):
        main(["run"])


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_out_that_cannot_be_a_directory_exits_2_before_anything_runs(
        tmp_path, capsys, monkeypatch, command, below):
    # Once the whole run was computed first, then ended in a FileExistsError
    # traceback (run) or a NotADirectoryError from a pool thread (sweep).
    calls = []
    monkeypatch.setattr(cli, "run", lambda *a, **k: calls.append("run"))
    monkeypatch.setattr(cli, "build_problem", lambda *a, **k: calls.append("build_problem"))
    blocker = tmp_path / "trace.csv"
    blocker.write_text("kept\n")
    out = blocker / below if below else blocker
    cfg = sweep_config() if command == "sweep" else base_config()
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == \
        f"config error: --out {out}: {blocker} exists and is not a directory\n"
    assert captured.out == "" and calls == [] and blocker.read_text() == "kept\n"


def test_package_star_exports_classes_and_functions_only():
    # __all__ once came from dir(), so it listed the submodules too.
    assert agtrack.__all__ and all(inspect.isclass(getattr(agtrack, name))
                                   or inspect.isfunction(getattr(agtrack, name))
                                   for name in agtrack.__all__)
    namespace = {}
    exec("from agtrack import *", namespace)
    assert "graph" not in namespace and "run" in namespace
