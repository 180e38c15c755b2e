"""Regression tests for the run loop shared by every variant.

``run_loop_golden.json`` holds every CSV column of small runs (m <= 10,
K = 12), recorded bit for bit (floats as ``float.hex``) from the two-loop
implementation this loop replaced: all five variants, both momentum modes
where they apply, diagnostics on and off, and time-varying schedules for gt,
acc_gt_tv and acc_gt_multiconsensus.  Regenerate it only for an intended
numerical change:

    PYTHONPATH=src python tests/test_run_loop.py > tests/data/run_loop_golden.json
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from agtrack import (AlgorithmConfig, GraphSchedule, ProblemInstance, algorithms,
                     consensus_error, graph, metropolis_weights,
                     random_logistic_problem, random_quadratic_problem, resolve_constants,
                     run)
from agtrack.algorithms import CSV_COLUMNS
from conftest import M9_EDGE_SETS, ring_edges
from reference_steps import gt_init, gt_step

GOLDEN = Path(__file__).parent / "data" / "run_loop_golden.json"
K = 12

SCHEDULES = {
    "ring10": lambda: GraphSchedule.static(10, ring_edges(10)),
    "m9_cyclic": lambda: GraphSchedule.cyclic(9, M9_EDGE_SETS),
    "random8": lambda: GraphSchedule.seeded_random(8, 0.4, seed=5),
}

# name -> (variant, alpha, mu_mode, schedule, problem kind, problem mu)
CASES = {
    "gt_random": ("gt", 0.05, "zero", "random8", "quadratic", 0.0),
    "gt_cyclic": ("gt", 0.1, "zero", "m9_cyclic", "quadratic", 0.0),
    "gt_static_logistic": ("gt", 0.5, "zero", "ring10", "logistic", 0.0),
    "static_zero": ("acc_gt_static", "theorem_default", "zero", "ring10", "quadratic", 0.0),
    "static_sc": ("acc_gt_static", 0.2, "strongly_convex", "ring10", "quadratic", 0.1),
    "tv_zero": ("acc_gt_tv", 0.05, "zero", "m9_cyclic", "quadratic", 0.0),
    "tv_sc_random": ("acc_gt_tv", 0.05, "strongly_convex", "random8", "quadratic", 0.1),
    "tv_zero_logistic": ("acc_gt_tv", 0.5, "zero", "m9_cyclic", "logistic", 0.0),
    "chebyshev_zero": ("acc_gt_chebyshev", 0.1, "zero", "ring10", "quadratic", 0.0),
    "multiconsensus_random": ("acc_gt_multiconsensus", "theorem_default", "zero",
                              "random8", "quadratic", 0.0),
    "multiconsensus_sc": ("acc_gt_multiconsensus", 0.2, "strongly_convex", "m9_cyclic",
                          "quadratic", 0.1),
}


def build(name):
    variant, alpha, mode, sched_name, kind, mu = CASES[name]
    schedule = SCHEDULES[sched_name]()
    m = schedule.agent_count
    if kind == "logistic":
        problem = random_logistic_problem(m, 3, samples_per_agent=6, ridge=0.05, seed=4)
    else:
        problem = random_quadratic_problem(m, 3, L=1.0, mu=mu, seed=4)
    config = AlgorithmConfig(variant=variant, alpha=alpha, mu_mode=mode,
                             max_iterations=K, seeds=(7,))
    return config, problem, schedule


def columns(trace):
    """Every CSV column, floats as float.hex so equality is bitwise."""
    out = {}
    for name in CSV_COLUMNS:
        values = [getattr(r, name) for r in trace.rows]
        out[name] = values if name in ("k", "comm_rounds", "grad_rounds") else [
            float(v).hex() for v in values]
    return out


def record():
    return {name: {diag: columns(run(*build(name), diagnostics=(diag == "on")))
                   for diag in ("on", "off")}
            for name in CASES}


@pytest.mark.parametrize("diag", ["on", "off"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_columns_match_recorded_bits(name, diag):
    expected = json.loads(GOLDEN.read_text())[name][diag]
    got = columns(run(*build(name), diagnostics=(diag == "on")))
    for column in CSV_COLUMNS:
        assert got[column] == expected[column], (name, diag, column)


def test_gt_run_equals_hand_loop_of_gt_steps():
    """On a seeded-random schedule run('gt') is the textbook recursion: each
    step mixes x and s with the same W^k, two communication rounds and one
    gradient round per step."""
    schedule = GraphSchedule.seeded_random(8, 0.4, seed=11)
    problem = random_quadratic_problem(8, 3, seed=2)
    alpha = 0.05
    trace = run(AlgorithmConfig(variant="gt", alpha=alpha, max_iterations=K, seeds=(3,)),
                problem, schedule, diagnostics=False)

    x0 = np.random.default_rng(3).standard_normal(problem.n)
    state = gt_init(problem, x0)
    for k, row in enumerate(trace.rows):
        xbar = state.x.mean(axis=0)
        assert row.k == k
        assert row.gap == problem.value(xbar) - problem.F_star
        assert row.per_agent_gap_max == float(
            (problem.value_many(state.x) - problem.F_star).max())
        assert row.cons_x == consensus_error(state.x) / problem.m
        assert row.cons_s == consensus_error(state.s) / problem.m
        assert (row.comm_rounds, row.grad_rounds) == (2 * k, k + 1)
        W = metropolis_weights(schedule.edge_set(k), problem.m)
        state = gt_step(state, W, alpha, problem)


@pytest.mark.parametrize("variant,mode,sched_name", [
    ("gt", "zero", "random8"),
    ("acc_gt_tv", "zero", "m9_cyclic"),
    ("acc_gt_static", "strongly_convex", "ring10"),
])
def test_objective_evaluated_once_per_mean_iterate(monkeypatch, variant, mode, sched_name):
    schedule = SCHEDULES[sched_name]()
    problem = random_quadratic_problem(schedule.agent_count, 3, mu=0.1, seed=6)
    seen = []
    original = ProblemInstance.value

    def counting(self, w):
        seen.append(np.asarray(w).tobytes())
        return original(self, w)

    monkeypatch.setattr(ProblemInstance, "value", counting)
    trace = run(AlgorithmConfig(variant=variant, alpha=0.05, mu_mode=mode,
                                max_iterations=K), problem, schedule, diagnostics=True)
    assert not math.isnan(trace.rows[1].lemma1_upper_margin)
    assert len(set(seen)) == K + 1  # one mean iterate per row
    assert len(seen) == K + 1


@pytest.mark.parametrize("mode", ["zero", "strongly_convex"])
def test_margins_reuse_the_rows_oracle_output(monkeypatch, mode):
    # With diagnostics on, row k >= 1 adds one per-agent value evaluation at
    # y^k to the loop's gradient; only row 0 takes the whole local oracle.
    # F is evaluated at xbar^{k+1} and at the agents' x_i^k, nothing else,
    # and each row takes ||Pi y^k||^2 once.
    schedule = SCHEDULES["m9_cyclic"]()
    problem = random_logistic_problem(9, 3, samples_per_agent=6, ridge=0.05, seed=4)
    row, ys, calls = [-1], [], []

    def probe(k, x, y, z, s):
        row[0] = k
        ys.append(y)

    def counted(name, owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls.append((name, row[0], args))
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    for attr in ("_values", "_local", "_F"):
        counted(attr, ProblemInstance, attr)
    counted("consensus_error", algorithms, "consensus_error")
    trace = run(AlgorithmConfig(variant="acc_gt_tv", alpha=0.5, mu_mode=mode, max_iterations=K),
                problem, schedule, diagnostics=True, probe=probe)
    assert not math.isnan(trace.rows[K].lemma4_margin)

    def per_row(name):
        return [sum(1 for n, k, _ in calls if (n, k) == (name, r)) for r in range(-1, K + 1)]

    assert per_row("_local") == [0, 1] + [0] * K
    assert per_row("_values") == [0, 1] + [1] * K  # row 0's inside _local
    assert per_row("_F") == [1] + [2] * K + [1]  # F(xbar^0) first, no F(xbar^{K+1})
    assert per_row("consensus_error") == [0] + [4] * (K + 1)
    for k, y in enumerate(ys):
        assert sum(1 for n, r, args in calls
                   if (n, r) == ("consensus_error", k) and args[0] is y) == 1


VARIANT_CASES = [  # variant, schedule, the mu modes it runs
    ("gt", "m9_cyclic", ("zero",)),
    ("acc_gt_static", "ring10", ("zero", "strongly_convex")),
    ("acc_gt_tv", "m9_cyclic", ("zero", "strongly_convex")),
    ("acc_gt_chebyshev", "ring10", ("zero", "strongly_convex")),
    ("acc_gt_multiconsensus", "m9_cyclic", ("zero", "strongly_convex")),
]


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
@pytest.mark.parametrize("variant,sched_name,modes", VARIANT_CASES)
def test_diagnostics_change_only_the_margin_columns(variant, sched_name, modes, kind):
    schedule = SCHEDULES[sched_name]()
    m = schedule.agent_count
    problem = (random_logistic_problem(m, 3, samples_per_agent=6, ridge=0.05, seed=4)
               if kind == "logistic" else random_quadratic_problem(m, 3, mu=0.1, seed=4))
    fields = algorithms._ROW_FIELDS
    margin_cols = [i for i, name in enumerate(fields) if name.startswith(("lemma4", "lemma1"))]
    assert len(margin_cols) == 3
    others = [i for i in range(len(fields)) if i not in margin_cols]
    for mode in modes:
        config = AlgorithmConfig(variant=variant, alpha=0.05, mu_mode=mode, max_iterations=K)
        on, off = (run(config, problem, schedule, diagnostics=d).table for d in (True, False))
        assert on[:, others].tobytes() == off[:, others].tobytes(), (variant, kind, mode)
        assert np.isnan(off[:, margin_cols]).all()


@pytest.mark.parametrize("variant,sched_name,expected", [
    # The period-3 schedule: the loop builds its 3 matrices once.
    ("acc_gt_tv", "m9_cyclic", 3),
])
def test_run_builds_each_instant_matrix_once(monkeypatch, builds, variant, sched_name,
                                             expected):
    schedule = SCHEDULES[sched_name]()
    problem = random_quadratic_problem(schedule.agent_count, 3, seed=6)
    config = AlgorithmConfig(variant=variant, alpha=0.05, max_iterations=K)
    consts = resolve_constants(config, problem, schedule)  # sigma_gamma builds its own
    monkeypatch.setattr(algorithms, "resolve_constants", lambda *args: dict(consts))
    builds[0] = 0
    run(config, problem, schedule, diagnostics=False)
    assert builds[0] == expected


@pytest.mark.parametrize("variant", ["gt", "acc_gt_tv"])
def test_run_draws_each_chunk_once(monkeypatch, variant):
    # 200 iterations visit W^0 .. W^200 (gt tracks with W^{k-1} and stops at
    # W^199): four chunks of instants, each drawn once, in order.
    schedule = SCHEDULES["random8"]()
    problem = random_quadratic_problem(schedule.agent_count, 3, seed=6)
    config = AlgorithmConfig(variant=variant, alpha=0.05, max_iterations=200)
    consts = resolve_constants(config, problem, schedule)  # its connectivity check draws too
    monkeypatch.setattr(algorithms, "resolve_constants", lambda *args: dict(consts))
    drawn, chunk = [], GraphSchedule._chunk
    monkeypatch.setattr(GraphSchedule, "_chunk", lambda self, first: (
        drawn.append(first) or chunk(self, first)))
    run(config, problem, schedule, diagnostics=False)
    C = graph.SPECTRAL_CHUNK
    assert drawn == list(range(0, 200, C))


if __name__ == "__main__":
    print(json.dumps(record(), indent=1, sort_keys=True))
