"""Tests of the benchmark itself: the smoke mode, the tracer and the guards.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q agbench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "agbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import agtrack  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "agbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_smoke_mode_passes_every_check_and_reports_every_metric():
    proc = run_bench("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    reported = {}
    for key, value in result["metrics"].items():
        workload, trace, name = key.split("/")
        reported.setdefault((workload, trace), {})[name] = value["unit"]
        assert isinstance(value["value"], (int, float))
    assert reported == {(w["name"], f"trace{t}"): units
                        for w in SPEC["workloads"] for t, units in expected.items()}


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "agbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "mc-random-m20", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads("full"))
    assert list(run.WORKLOADS) == list(workloads("full"))
    assert list(workloads("smoke")) == list(workloads("full"))


def test_self_time_excludes_child_spans(monkeypatch):
    ticks = iter([0.0, 1.0, 4.0, 10.0])  # outer start, inner start, inner end, outer end
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: next(ticks))
    t = tracer.Tracer()
    inner = t.wrap("graph.sigma", lambda: None, None)
    outer = t.wrap("graph.sigma_gamma", lambda: inner(), None)
    outer()
    assert t.stats["graph.sigma"] == [1, 3.0]
    assert t.stats["graph.sigma_gamma"] == [1, 7.0]


def test_installed_wrappers_count_calls_and_are_removed():
    original = agtrack.algorithms.aggregate_gradient
    t = tracer.Tracer()
    problem = agtrack.random_quadratic_problem(4, 2, seed=0)
    with t.installed():
        assert agtrack.algorithms.aggregate_gradient is not original
        agtrack.algorithms.aggregate_gradient(problem, problem.x_star[None, :].repeat(4, 0))
        problem.value(problem.x_star)
    assert agtrack.algorithms.aggregate_gradient is original
    assert "value" in vars(agtrack.ProblemInstance) and not hasattr(
        agtrack.ProblemInstance.value, "__wrapped__")
    assert t.calls("problems.aggregate_gradient") == 1
    assert t.calls("problems.value") == 1


def test_missing_call_site_fails_loudly(monkeypatch):
    monkeypatch.delattr(agtrack.algorithms, "gossip")
    with pytest.raises(KeyError):
        with tracer.Tracer().installed():
            pass
    assert not hasattr(agtrack.algorithms.aggregate_gradient, "__wrapped__")


def test_sampler_scale_removes_sampling_time_and_rescales():
    sampler = reference.Sampler()
    sampler.samples = [reference.REFERENCE_S, 3 * reference.REFERENCE_S]
    assert sampler.kernel_s() == 2 * reference.REFERENCE_S
    assert sampler.scale(3.0, 1.0) == 1.0


def test_sampler_samples_around_and_during_a_block_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with reference.Sampler() as sampler:
        deadline = time.perf_counter() + 3 * reference.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 2 + 2
    assert 0.0 < sampler.spent_s < 3 * reference.PERIOD_S
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert reference.kernel() == reference.kernel()
