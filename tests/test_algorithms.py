import csv
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agtrack import (AlgorithmConfig, DivergenceError, GraphSchedule, NotGammaConnectedError,
                     aggregate_gradient, algorithms, chebyshev_operator, default_alpha, graph,
                     metropolis_weights, quadratic_problem, random_quadratic_problem,
                     resolve_constants, run, sigma, theta_next)
from agtrack.algorithms import CSV_COLUMNS, VARIANTS
from conftest import M9_EDGE_SETS, NARROW_INTS, narrow, ring_edges
from reference_steps import (AveragedState, averaged_reference_step, gt_init,
                             gt_step)


def scalar_problem():
    """Single agent, f(x) = 0.5 x^2."""
    return quadratic_problem(np.ones((1, 1, 1)), np.zeros((1, 1)))


def ring_schedule(m):
    return GraphSchedule.static(m, ring_edges(m))


# ---------------------------------------------------------------- theta

def test_theta_next_golden_section():
    assert theta_next(1.0) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)


def test_theta_next_rejects_nonpositive():
    with pytest.raises(ValueError):
        theta_next(0.0)


@pytest.mark.parametrize("theta_prev", [math.nan, math.inf, None, True])
def test_theta_next_rejects_a_theta_that_is_not_a_finite_number(theta_prev):
    # theta_next(nan) and theta_next(inf) used to return nan.
    with pytest.raises(ValueError,
                       match=rf"theta_prev must be a finite number, got {re.escape(repr(theta_prev))}$"):
        theta_next(theta_prev)
    with pytest.raises(ValueError, match="theta_prev must be positive$"):
        theta_next(-0.5)


@given(st.floats(1e-6, 1.0))
@settings(max_examples=100, deadline=None)
def test_theta_next_defining_identity(theta_prev):
    theta = theta_next(theta_prev)
    assert 0.0 < theta < theta_prev
    assert (1 - theta) / theta ** 2 == pytest.approx(1 / theta_prev ** 2, rel=1e-12)


def recorded_thetas(variant, mu_mode, alpha, mu, K):
    """theta_k of every row of a run on a ring of five agents."""
    prob = random_quadratic_problem(5, 2, mu=mu, seed=1)
    trace = run(AlgorithmConfig(variant=variant, alpha=alpha, mu_mode=mu_mode,
                                max_iterations=K), prob, ring_schedule(5), diagnostics=False)
    return trace.column("theta")


def test_theta_schedule_nsc_starts_at_one():
    thetas = recorded_thetas("acc_gt_static", "zero", 0.01, 0.0, 49)
    assert thetas[0] == 1.0
    assert thetas[1] == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)
    for k in range(50):
        assert 1 / (k + 1) <= thetas[k] <= 2 / (k + 1)
    # gt is the theta = 1 case.
    assert (recorded_thetas("gt", "zero", 0.01, 0.0, 5) == 1.0).all()


def test_theta_schedule_sc_constant():
    thetas = recorded_thetas("acc_gt_static", "strongly_convex", 0.01, 0.25, 4)
    assert (thetas == math.sqrt(0.25 * 0.01) / 2).all()


def test_theta_schedule_sc_validation():
    with pytest.raises(ValueError, match="alpha \\* mu <= 1"):
        recorded_thetas("acc_gt_static", "strongly_convex", 2.0, 1.0, 2)
    with pytest.raises(ValueError, match="mu > 0"):
        recorded_thetas("acc_gt_static", "strongly_convex", 0.1, 0.0, 2)
    # The theorem-default alpha satisfies alpha * mu <= 1 even at mu = L.
    thetas = recorded_thetas("acc_gt_static", "strongly_convex", "theorem_default", 1.0, 2)
    assert 0.0 < thetas[0] <= 0.5 and (thetas == thetas[0]).all()


# ---------------------------------------------------------------- step sizes

def test_default_alpha_static_nsc():
    assert default_alpha("acc_gt_static", 1.0, 0.0) == pytest.approx(1 / 537)


def test_default_alpha_static_sc():
    got = default_alpha("acc_gt_static", 2.0, 0.5, mu_mode="strongly_convex")
    assert got == pytest.approx(0.125 / 238)


def test_default_alpha_tv_nsc():
    assert default_alpha("acc_gt_tv", 1.0, 0.0, gamma=1) == pytest.approx(1 / 21675)


def test_default_alpha_tv_scales_with_gamma():
    a1 = default_alpha("acc_gt_tv", 1.0, 0.3, gamma=1)
    a3 = default_alpha("acc_gt_tv", 1.0, 0.3, gamma=3)
    assert a3 == pytest.approx(a1 / 81)


def test_default_alpha_wrapped_variants_use_effective_constants():
    cheb = default_alpha("acc_gt_chebyshev", 1.0, 0.999)
    assert cheb == pytest.approx(0.35 ** 4 / 537)
    mc = default_alpha("acc_gt_multiconsensus", 1.0, 0.999, gamma=7)
    assert mc == pytest.approx((1 - 1 / math.e) ** 4 / 21675)


@pytest.mark.parametrize("gamma", [True, 2.5])
def test_default_alpha_rejects_a_gamma_that_is_not_an_integer(gamma):
    with pytest.raises(ValueError, match=f"gamma must be an integer at least 1, got {gamma!r}"):
        default_alpha("acc_gt_tv", 1.0, 0.5, gamma=gamma)


def test_default_alpha_rejects_gt_and_no_mixing():
    with pytest.raises(ValueError):
        default_alpha("gt", 1.0, 0.5)
    with pytest.raises(ValueError):
        default_alpha("acc_gt_static", 1.0, 1.0)


def test_default_alpha_pinned_bitwise():
    """float.hex of every theorem-default step over L in {1, 2.5}, sigma in
    {0, 0.3, 0.9} and gamma in {1, 3}, both modes.  The static and Chebyshev
    rules ignore gamma, so their gamma-3 entries equal their gamma-1 ones;
    gt has no rule in either mode."""
    golden = json.loads((Path(__file__).parent / "data" / "default_alpha_golden.json").read_text())
    got = {f"{variant} {mode} {L} {sig} {gamma}": default_alpha(variant, L, sig, gamma, mode).hex()
           for variant, mode, L, sig, gamma in itertools.product(
               ("acc_gt_static", "acc_gt_tv", "acc_gt_chebyshev", "acc_gt_multiconsensus"),
               ("zero", "strongly_convex"), (1.0, 2.5), (0.0, 0.3, 0.9), (1, 3))}
    assert got == golden
    for mode in ("zero", "strongly_convex"):
        with pytest.raises(ValueError, match="no default step-size rule is defined for the gt"):
            default_alpha("gt", 1.0, 0.5, 1, mode)


@pytest.mark.parametrize("mode", ["strong", "", None])
def test_default_alpha_rejects_an_unknown_mu_mode(mode):
    # "strong" used to read as mu = 0 and return the Theorem 1 step.
    for variant in ("acc_gt_static", "acc_gt_tv", "acc_gt_chebyshev", "acc_gt_multiconsensus"):
        with pytest.raises(ValueError, match=f"unknown mu_mode {re.escape(repr(mode))}$"):
            default_alpha(variant, 1.0, 0.5, 1, mode)


@pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf, None, "1.0", True])
def test_default_alpha_rejects_an_L_that_is_not_a_finite_number(L):
    # NaN used to return nan, inf a step of 0.0, None and "1.0" a TypeError.
    for variant in ("acc_gt_static", "acc_gt_tv", "acc_gt_chebyshev", "acc_gt_multiconsensus"):
        with pytest.raises(ValueError,
                           match=f"L must be a finite number, got {re.escape(repr(L))}$"):
            default_alpha(variant, L, 0.5)


@pytest.mark.parametrize("L", [0.0, -1.0, 0])
def test_default_alpha_rejects_an_L_that_is_not_positive(L):
    with pytest.raises(ValueError, match="L must be positive$"):
        default_alpha("acc_gt_static", L, 0.5)


@pytest.mark.parametrize("sig", [None, "0.5", True, math.nan])
def test_default_alpha_rejects_a_gossip_mixing_constant_that_is_not_a_number(sig):
    # None and "0.5" used to fail with TypeError: '<=' not supported.
    for variant in ("acc_gt_static", "acc_gt_tv"):
        with pytest.raises(ValueError, match=re.escape(f"must lie in [0, 1), got {sig!r};")):
            default_alpha(variant, 1.0, sig, 3)
    # A wrapper reads its own guaranteed contraction, never this argument.
    for variant in ("acc_gt_chebyshev", "acc_gt_multiconsensus"):
        assert default_alpha(variant, 1.0, sig, 3) == default_alpha(variant, 1.0, 0.5, 3)


# ---------------------------------------------------------------- gt steps

def test_gt_step_centralized_gd_hand_trace():
    prob = scalar_problem()
    state = gt_init(prob, np.array([2.0]))
    state = gt_step(state, np.eye(1), 0.1, prob)
    assert state.x[0, 0] == pytest.approx(1.8, abs=1e-15)


def identical_agents_problem(m, rng):
    """Every agent holds the same quadratic, so each local gradient vanishes
    at x* and the consensual optimum is an exact fixed point."""
    A = np.diag([1.0, 2.0, 4.0])
    b = rng.standard_normal(3)
    return quadratic_problem(np.tile(A, (m, 1, 1)), np.tile(b, (m, 1)))


def test_gt_fixed_point_at_optimum(rng):
    prob = identical_agents_problem(5, rng)
    W = metropolis_weights(ring_edges(5), 5)
    state = gt_init(prob, prob.x_star)
    for _ in range(5):
        state = gt_step(state, W, 0.05, prob)
    np.testing.assert_allclose(state.x, np.tile(prob.x_star, (5, 1)), atol=1e-12)


def test_gt_step_counters():
    # The start costs one gradient round, each gt step two gossip rounds and one gradient round.
    prob = random_quadratic_problem(4, 2, seed=2)
    trace = run(AlgorithmConfig(variant="gt", alpha=0.01, max_iterations=1), prob,
                ring_schedule(4), diagnostics=False)
    assert [(r.comm_rounds, r.grad_rounds) for r in trace.rows] == [(0, 1), (2, 2)]


def test_gt_tracks_mean_gradient(rng):
    prob = random_quadratic_problem(5, 3, seed=3)
    W = metropolis_weights(ring_edges(5), 5)
    state = gt_init(prob, rng.standard_normal(3))
    for _ in range(20):
        state = gt_step(state, W, 0.02, prob)
        sbar = state.s.mean(axis=0)
        gbar = aggregate_gradient(prob, state.x).mean(axis=0)
        assert np.linalg.norm(sbar - gbar) <= 1e-10


# ---------------------------------------------------------------- acc steps

def acc_instants(prob, schedule, alpha, K, x0_row, mu_mode="zero"):
    """Run acc_gt_static from x0_row; return its trace and (x, y, z, s) per instant."""
    seen = []
    trace = run(AlgorithmConfig(variant="acc_gt_static", alpha=alpha, mu_mode=mu_mode,
                                max_iterations=K),
                prob, schedule, diagnostics=False, x0_row=x0_row,
                probe=lambda k, x, y, z, s: seen.append((x, y, z, s)))
    return trace, seen


def test_acc_init_is_consensual(rng):
    prob = random_quadratic_problem(4, 3, seed=4)
    x0 = rng.standard_normal(3)
    _, seen = acc_instants(prob, ring_schedule(4), 0.01, 0, x0)
    x, y, z, s = seen[0]
    for field in (x, y, z):
        np.testing.assert_array_equal(field, np.tile(x0, (4, 1)))
    np.testing.assert_allclose(s.mean(axis=0), prob.mean_gradient(x0), atol=1e-12)
    with pytest.raises(ValueError):
        acc_instants(prob, ring_schedule(4), 0.01, 0, np.array([1.0, np.nan, 0.0]))


def test_acc_step_hand_trace_scalar():
    prob = scalar_problem()
    _, seen = acc_instants(prob, GraphSchedule.static(1, []), 0.1, 1, np.array([2.0]))
    (x0, y0, z0, s0), (x1, _, z1, _) = seen
    assert s0[0, 0] == pytest.approx(2.0)
    assert y0[0, 0] == pytest.approx(2.0)
    assert z1[0, 0] == pytest.approx(1.8)
    assert x1[0, 0] == pytest.approx(1.8)


def test_acc_first_step_matches_initialization_formula(rng):
    # The generic step at k = 0 (s^0 from the start, no tracking update)
    # reproduces z^1 = W z^0 - alpha/(theta_0 + mu alpha) s^0.
    prob = random_quadratic_problem(6, 3, mu=0.2, seed=5)
    W = metropolis_weights(ring_edges(6), 6)
    alpha, mu = 0.01, prob.mu
    theta0 = math.sqrt(mu * alpha) / 2
    trace, seen = acc_instants(prob, ring_schedule(6), alpha, 1, rng.standard_normal(3),
                               mu_mode="strongly_convex")
    assert trace.rows[0].theta == theta0
    (x0, _, z0, s0), (x1, _, z1, _) = seen
    expected_z1 = W @ z0 - alpha / (theta0 + mu * alpha) * s0
    np.testing.assert_allclose(z1, expected_z1, atol=1e-12)
    expected_x1 = theta0 * expected_z1 + (1 - theta0) * (W @ x0)
    np.testing.assert_allclose(x1, expected_x1, atol=1e-12)


def test_acc_step_mu_zero_z_update_collapse(rng):
    # With mu = 0 the z-update must equal W z - (alpha/theta) s at every k.
    prob = random_quadratic_problem(5, 2, seed=6)
    W = metropolis_weights(ring_edges(5), 5)
    K = 10
    trace, seen = acc_instants(prob, ring_schedule(5), 0.05, K, rng.standard_normal(2))
    for k in range(K):
        _, _, z, s = seen[k]
        theta = trace.rows[k].theta
        np.testing.assert_allclose(seen[k + 1][2], W @ z - (0.05 / theta) * s, atol=1e-12)


def test_acc_fixed_point_at_optimum(rng):
    prob = identical_agents_problem(5, rng)
    _, seen = acc_instants(prob, ring_schedule(5), 0.01, 5, prob.x_star)
    for x, _, _, _ in seen:
        np.testing.assert_allclose(x, np.tile(prob.x_star, (5, 1)), atol=1e-10)


# ------------------------------------------------- averaged reference

def test_averaged_step_theta_one_collapses_x_to_z(rng):
    avg = AveragedState(rng.standard_normal(3), rng.standard_normal(3),
                        rng.standard_normal(3))
    out = averaged_reference_step(avg, 0.1, 1.0, 0.0, rng.standard_normal(3))
    np.testing.assert_array_equal(out.xbar, out.zbar)


def test_averaged_step_mu_zero_formula(rng):
    avg = AveragedState(rng.standard_normal(3), rng.standard_normal(3),
                        rng.standard_normal(3))
    sbar = rng.standard_normal(3)
    out = averaged_reference_step(avg, 0.1, 0.25, 0.0, sbar)
    np.testing.assert_allclose(out.zbar, avg.zbar - (0.1 / 0.25) * sbar, atol=1e-14)


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        AlgorithmConfig(variant="momentum_sgd")
    with pytest.raises(ValueError):
        AlgorithmConfig(variant="gt", alpha=-0.1)
    with pytest.raises(ValueError):
        AlgorithmConfig(variant="gt", alpha="auto")
    with pytest.raises(ValueError):
        AlgorithmConfig(variant="gt", mu_mode="convex")
    with pytest.raises(ValueError):
        AlgorithmConfig(variant="gt", max_iterations=-1)
    with pytest.raises(ValueError):
        AlgorithmConfig(variant="acc_gt_multiconsensus", zeta=0)
    with pytest.raises(ValueError):
        AlgorithmConfig(variant="gt", seeds=())


@pytest.mark.parametrize("field,value", [("alpha", float("nan")), ("alpha", float("inf")),
                                         ("alpha", True), ("max_iterations", 2.5),
                                         ("max_iterations", True), ("zeta", 1.5),
                                         ("zeta", True)])
def test_config_rejects_non_finite_alpha_and_non_integer_counts(field, value):
    # Unchecked, a nan / inf alpha reads as a divergence at iteration 0, a
    # float count fails inside run(), and True runs as 1.
    with pytest.raises(ValueError, match=f"{field} must be .*, got {value!r}"):
        AlgorithmConfig(variant="acc_gt_multiconsensus", **{field: value})


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "acc_gt_multiconsensus"])
def test_config_rejects_zeta_for_variants_that_ignore_it(variant):
    with pytest.raises(ValueError, match=f"acc_gt_multiconsensus only; variant {variant}"):
        AlgorithmConfig(variant=variant, alpha=0.1, zeta=5)
    assert AlgorithmConfig(variant="acc_gt_multiconsensus", zeta=5).zeta == 5


def test_config_takes_exactly_one_seed():
    # run() draws x0 from seeds[0]; a second seed would be accepted and ignored.
    with pytest.raises(ValueError, match=r"exactly one seed, got \(1, 2\)"):
        AlgorithmConfig(variant="gt", seeds=(1, 2))
    assert AlgorithmConfig(variant="gt", seeds=(5,)).seeds == (5,)


@pytest.mark.parametrize("seed", [-1, True, 1.5, None, "3"])
def test_config_run_seed_must_be_a_non_negative_integer(seed):
    # -1 was accepted and failed in run(), after the whole spectral setup.
    with pytest.raises(ValueError, match=f"non-negative integer, got {seed!r}"):
        AlgorithmConfig(variant="gt", seeds=(seed,))
    assert AlgorithmConfig(variant="gt", seeds=(np.int64(2 ** 40),)).seeds == (2 ** 40,)


def test_resolve_constants_static_and_tv(m9_schedule):
    prob = random_quadratic_problem(9, 2, seed=9)
    tv = resolve_constants(AlgorithmConfig(variant="acc_gt_tv"), prob, m9_schedule)
    assert tv["gamma"] == 3
    assert tv["sigma_gamma"] == pytest.approx(0.761368718888694, abs=1e-12)
    mc = resolve_constants(AlgorithmConfig(variant="acc_gt_multiconsensus"),
                           prob, m9_schedule)
    assert mc["zeta"] == 13
    with pytest.raises(ValueError):
        resolve_constants(AlgorithmConfig(variant="acc_gt_static"), prob, m9_schedule)


def test_resolve_constants_flags_estimated_sigma_gamma(m9_schedule):
    cfg = AlgorithmConfig(variant="acc_gt_tv")
    random_schedule = GraphSchedule.seeded_random(9, 0.5, seed=1)
    prob = random_quadratic_problem(9, 2, seed=5)
    assert resolve_constants(cfg, prob, random_schedule)["sigma_gamma_is_estimate"] is True
    assert resolve_constants(cfg, prob, m9_schedule)["sigma_gamma_is_estimate"] is False
    trace = run(AlgorithmConfig(variant="acc_gt_multiconsensus", max_iterations=2),
                prob, random_schedule, diagnostics=False)
    assert trace.meta["sigma_gamma_is_estimate"] is True


# ---------------------------------------------------------------- run

def test_trace_column_names_an_unknown_column():
    trace = run(AlgorithmConfig(variant="acc_gt_static", alpha=0.1, max_iterations=2),
                random_quadratic_problem(5, 2, seed=10), ring_schedule(5), diagnostics=False)
    assert trace.column("gap").shape == (3,)
    with pytest.raises(ValueError, match=r"unknown trace column 'gaps'; the columns are "
                                         r"k, gap, per_agent_gap_max, .*, cons_z, theta$"):
        trace.column("gaps")


def test_trace_table_must_hold_one_column_per_field():
    with pytest.raises(ValueError, match="14 columns"):
        algorithms.RunTrace(np.zeros((3, 12)))


def test_run_k0_has_single_row():
    prob = random_quadratic_problem(5, 2, seed=10)
    trace = run(AlgorithmConfig(variant="acc_gt_static", max_iterations=0),
                prob, ring_schedule(5))
    assert len(trace.rows) == 1 and trace.rows[0].k == 0


def test_run_rejects_a_schedule_for_another_agent_count(monkeypatch):
    # Once the whole spectral setup ran first and numpy's matmul failed later.
    monkeypatch.setattr(algorithms, "resolve_constants", lambda *args: pytest.fail(
        "constants were computed for a mismatched schedule"))
    with pytest.raises(ValueError, match="the schedule has 10 agents but the problem has 8"):
        run(AlgorithmConfig(variant="acc_gt_tv", alpha=0.1), random_quadratic_problem(8, 2),
            GraphSchedule.seeded_random(10, 0.3, seed=1))


def test_multiconsensus_with_zeta_given_skips_sigma_gamma(monkeypatch):
    prob = random_quadratic_problem(8, 2, seed=1)
    sched = GraphSchedule.seeded_random(8, 0.3, seed=4)
    derived = resolve_constants(AlgorithmConfig(variant="acc_gt_multiconsensus", alpha=0.1),
                                prob, sched)  # zeta derived: sigma_gamma is computed
    assert "sigma_gamma" in derived and derived["zeta"] > 1
    monkeypatch.setattr(algorithms, "sigma_gamma_of", lambda *args: pytest.fail(
        "sigma_gamma computed though no step rule or zeta reads it"))
    for alpha in (0.1, "theorem_default"):  # the step rule reads the wrapper's constant
        consts = resolve_constants(AlgorithmConfig(variant="acc_gt_multiconsensus",
                                                   alpha=alpha, zeta=7), prob, sched)
        assert consts["gamma"] == derived["gamma"] and consts["zeta"] == 7
        assert "sigma_gamma" not in consts and "sigma_gamma_is_estimate" not in consts
    assert consts["alpha"] == default_alpha("acc_gt_multiconsensus", prob.L, derived["sigma_gamma"])
    # gamma is still resolved, so a schedule that never connects is still rejected.
    with pytest.raises(NotGammaConnectedError):
        resolve_constants(AlgorithmConfig(variant="acc_gt_multiconsensus", alpha=0.1, zeta=7),
                          prob, GraphSchedule.seeded_random(8, 0.0, seed=4))


def test_multiconsensus_run_draws_each_round_once(monkeypatch):
    prob = random_quadratic_problem(8, 2, seed=1)
    sched = GraphSchedule.seeded_random(8, 0.3, seed=4)
    cfg = AlgorithmConfig(variant="acc_gt_multiconsensus", alpha=0.1, zeta=7,
                          max_iterations=20)
    consts = resolve_constants(cfg, prob, sched)  # its connectivity check draws too
    monkeypatch.setattr(algorithms, "resolve_constants", lambda *args: dict(consts))
    drawn, chunk = [], GraphSchedule._chunk
    monkeypatch.setattr(GraphSchedule, "_chunk", lambda self, first: (
        drawn.append(first) or chunk(self, first)))
    rounds = run(cfg, prob, sched, diagnostics=False).rows[-1].comm_rounds
    assert rounds == 3 * 7 * 20
    # Whole chunks, each once: 7 chunks, where one batch per call made 60.
    C = graph.SPECTRAL_CHUNK
    assert drawn == list(range(0, math.ceil(rounds / C) * C, C))


def test_run_is_deterministic():
    prob = random_quadratic_problem(5, 2, seed=11)
    cfg = AlgorithmConfig(variant="acc_gt_static", max_iterations=30, seeds=(3,))
    a = run(cfg, prob, ring_schedule(5))
    b = run(cfg, prob, ring_schedule(5))
    for name in CSV_COLUMNS:
        np.testing.assert_array_equal(a.column(name), b.column(name))


def test_run_seed_changes_start():
    prob = random_quadratic_problem(5, 2, seed=11)
    a = run(AlgorithmConfig(variant="gt", alpha=0.1, max_iterations=5, seeds=(0,)),
            prob, ring_schedule(5))
    b = run(AlgorithmConfig(variant="gt", alpha=0.1, max_iterations=5, seeds=(1,)),
            prob, ring_schedule(5))
    assert a.rows[0].gap != b.rows[0].gap


def test_run_round_totals_per_variant(monkeypatch, m9_schedule):
    # Row k has used `slots` mixing calls of r rounds per iteration and k + 1
    # gradient rounds, as many as the operators and the oracle were called.
    calls = {"mix": 0, "grad": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("gossip", "chebyshev_apply", "multiple_consensus"):
        monkeypatch.setattr(algorithms, name, counted("mix", getattr(algorithms, name)))
    monkeypatch.setattr(algorithms, "aggregate_gradient",
                        counted("grad", algorithms.aggregate_gradient))
    prob9 = random_quadratic_problem(9, 2, seed=12)
    prob10 = random_quadratic_problem(10, 2, seed=12)
    K = 12
    # variant, problem, schedule, alpha, mixing calls per iteration, rounds per call
    cases = [("gt", prob10, ring_schedule(10), 0.05, 2, 1),
             ("acc_gt_static", prob10, ring_schedule(10), "theorem_default", 3, 1),
             ("acc_gt_tv", prob9, m9_schedule, "theorem_default", 3, 1),
             ("acc_gt_chebyshev", prob10, ring_schedule(10), "theorem_default", 3, 4),
             ("acc_gt_multiconsensus", prob9, m9_schedule, "theorem_default", 3, 13)]
    for (variant, prob, schedule, alpha, slots, r), diagnostics in itertools.product(
            cases, (True, False)):
        calls.update(mix=0, grad=0)
        seen = []
        trace = run(AlgorithmConfig(variant=variant, alpha=alpha, max_iterations=K),
                    prob, schedule, diagnostics=diagnostics,
                    probe=lambda *_: seen.append((calls["mix"] * r, calls["grad"])))
        rows = [(row.comm_rounds, row.grad_rounds) for row in trace.rows]
        assert rows == [(slots * r * k, k + 1) for k in range(K + 1)], variant
        assert rows == seen, variant
        if r > 1:
            assert trace.meta["t" if variant == "acc_gt_chebyshev" else "zeta"] == r


def test_chebyshev_run_takes_one_svd_with_the_operators_constants(monkeypatch):
    # resolve_constants takes sigma of W^0 and the operator reuses it: one
    # SVD per run, where each of the two once took its own.
    W = metropolis_weights(ring_edges(12), 12)
    expected = chebyshev_operator(W)
    svds, ops = [0], []
    svd, apply = np.linalg.svd, algorithms.chebyshev_apply

    def counting_svd(*args, **kwargs):
        svds[0] += 1
        return svd(*args, **kwargs)

    def recording_apply(op, v):
        ops.append(op)
        return apply(op, v)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(algorithms, "chebyshev_apply", recording_apply)
    for alpha in (0.05, "theorem_default"):
        svds[0], ops[:] = 0, []
        trace = run(AlgorithmConfig(variant="acc_gt_chebyshev", alpha=alpha, max_iterations=4),
                    random_quadratic_problem(12, 3, seed=2), ring_schedule(12), diagnostics=False)
        assert svds[0] == 1
        assert len(ops) == 12 and all(op is ops[0] for op in ops)
        names = ("t", "nu", "c1", "c2", "c3", "lambda1")
        assert [float(getattr(ops[0], a)).hex() for a in names] \
            == [float(getattr(expected, a)).hex() for a in names]
        assert trace.meta["t"] == expected.t and trace.meta["sigma"] == sigma(W)


# A disconnected static graph whose sigma rounds to exactly 1.0 (once a
# ZeroDivisionError in the Chebyshev constants) and one whose sigma rounds to
# 0.9999999999999998 (once a Chebyshev degree of about 7e7: the run hung).
DISCONNECTED_STATIC = {"two_pairs": (4, [(0, 1), (2, 3)]),
                       "path4_isolated": (5, [(0, 1), (1, 2), (2, 3)])}


@pytest.mark.parametrize("graph_name", sorted(DISCONNECTED_STATIC))
@pytest.mark.parametrize("alpha", [0.05, "theorem_default"])
@pytest.mark.parametrize("variant", ["acc_gt_static", "acc_gt_chebyshev"])
def test_static_variants_reject_a_disconnected_graph_before_any_svd(monkeypatch, variant,
                                                                     alpha, graph_name):
    m, edges = DISCONNECTED_STATIC[graph_name]
    schedule = GraphSchedule.static(m, edges)
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: pytest.fail("SVD taken"))
    with pytest.raises(NotGammaConnectedError,
                       match=f"variant {variant} needs a connected static graph"):
        run(AlgorithmConfig(variant=variant, alpha=alpha, max_iterations=3),
            random_quadratic_problem(m, 2, seed=1), schedule)


def test_run_counters_nondecreasing(m9_schedule):
    prob = random_quadratic_problem(9, 2, seed=13)
    trace = run(AlgorithmConfig(variant="acc_gt_tv", max_iterations=20),
                prob, m9_schedule, diagnostics=False)
    comm = trace.column("comm_rounds")
    grad = trace.column("grad_rounds")
    assert (np.diff(comm) >= 0).all() and (np.diff(grad) >= 0).all()


def test_run_rejects_sc_mode_without_strong_convexity():
    prob = random_quadratic_problem(5, 2, mu=0.0, seed=14)
    with pytest.raises(ValueError):
        run(AlgorithmConfig(variant="acc_gt_static", mu_mode="strongly_convex"),
            prob, ring_schedule(5))


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "gt"])
def test_run_rejects_overlarge_sc_step(variant):
    # theta = sqrt(mu alpha)/2 needs alpha * mu <= 1.
    prob = random_quadratic_problem(5, 2, mu=0.5, seed=14)
    with pytest.raises(ValueError, match="alpha \\* mu <= 1"):
        run(AlgorithmConfig(variant=variant, alpha=3.0, mu_mode="strongly_convex",
                            max_iterations=2), prob, ring_schedule(5))


@pytest.mark.parametrize("alpha", [1e-3, 0.1, 3.0, "theorem_default"])
def test_gt_rejects_strongly_convex_mode(alpha):
    # gt has no momentum row: it runs the mu = 0 recursion whatever the mode.
    with pytest.raises(ValueError, match="gt has no momentum row"):
        AlgorithmConfig(variant="gt", alpha=alpha, mu_mode="strongly_convex")


def test_run_divergence_reports_iteration():
    prob = random_quadratic_problem(5, 3, seed=15)
    with pytest.raises(DivergenceError) as err:
        run(AlgorithmConfig(variant="acc_gt_static", alpha=10.0, max_iterations=2000),
            prob, ring_schedule(5), diagnostics=False)
    assert err.value.iteration is not None


def test_run_probe_sees_every_instant():
    prob = random_quadratic_problem(5, 2, seed=17)
    seen = []
    run(AlgorithmConfig(variant="acc_gt_static", max_iterations=7), prob,
        ring_schedule(5), diagnostics=False,
        probe=lambda k, x, y, z, s: seen.append((k, x.shape, s.shape)))
    assert [entry[0] for entry in seen] == list(range(8))
    assert all(entry[1] == (5, 2) for entry in seen)


def test_run_acc_beats_gt_on_sc_instance():
    # Same step size, same shared-basis SC instance: the momentum variant
    # needs strictly fewer gradient rounds to reach a 1e-6 gap.
    prob = random_quadratic_problem(5, 4, L=1.0, mu=0.1, seed=0, shared_basis=True)
    sched = ring_schedule(5)

    def rounds_to_target(trace):
        return next(r.grad_rounds for r in trace.rows if r.gap <= 1e-6)

    gt_trace = run(AlgorithmConfig(variant="gt", alpha=0.2, max_iterations=800),
                   prob, sched, diagnostics=False)
    acc_trace = run(AlgorithmConfig(variant="acc_gt_static", alpha=0.2,
                                    mu_mode="strongly_convex", max_iterations=300),
                    prob, sched, diagnostics=False)
    assert rounds_to_target(acc_trace) < rounds_to_target(gt_trace)


# ---------------------------------------------------------------- trace csv

def test_trace_csv_contract(tmp_path):
    prob = random_quadratic_problem(5, 2, seed=18)
    trace = run(AlgorithmConfig(variant="acc_gt_static", max_iterations=5),
                prob, ring_schedule(5))
    out = tmp_path / "trace.csv"
    trace.to_csv(out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert rows[0] == ["k", "gap", "per_agent_gap_max", "cons_x", "cons_y",
                       "cons_s", "zbar_dist", "comm_rounds", "grad_rounds",
                       "lemma4_margin", "lemma1_lower_margin", "lemma1_upper_margin"]
    assert len(rows) == 7
    # 17 significant digits round-trip exactly
    assert float(rows[1][1]) == trace.rows[0].gap

    stamped = tmp_path / "stamped.csv"
    trace.to_csv(stamped, timestamp="2020-01-01T00:00:00")
    first = stamped.read_text().splitlines()[0]
    assert first == "# generated 2020-01-01T00:00:00"


@pytest.fixture
def drawn_chunks(monkeypatch):
    """The first instant of each chunk ``GraphSchedule._draw`` draws, in call order."""
    firsts, draw = [], GraphSchedule._draw

    def spy_draw(self, first):  # _draw is the only code that draws
        firsts.append(first)
        return draw(self, first)

    monkeypatch.setattr(GraphSchedule, "_draw", spy_draw)
    return firsts


@pytest.mark.parametrize("variant", ["acc_gt_multiconsensus", "acc_gt_tv"])
def test_run_draws_each_seeded_random_instant_once(drawn_chunks, variant):
    # The gamma search, sigma_gamma and the loop's matrices share one draw of
    # each chunk to the horizon; past it the loop draws each chunk once.
    prob = random_quadratic_problem(20, 2, seed=1)
    sched = GraphSchedule.seeded_random(20, 0.1, 3)
    # acc_gt_tv reads instant k at iteration k, multiple consensus one per round.
    K = 20 if variant == "acc_gt_multiconsensus" else 1100
    run(AlgorithmConfig(variant=variant, max_iterations=K), prob, sched, diagnostics=False)
    assert len(drawn_chunks) == len(set(drawn_chunks))
    C = graph.SPECTRAL_CHUNK
    assert set(drawn_chunks) >= set(range(0, graph.HORIZON + 1, C))
    assert max(drawn_chunks) > graph.HORIZON
    # The chunks to the horizon, and the last one drawn past them.
    assert len(sched._mask_chunks) <= math.ceil((graph.HORIZON + 1) / C) + 1


def test_benchmark_multiconsensus_run_draws_each_chunk_once(drawn_chunks):
    # The multiple-consensus benchmark's run: 100 iterations of 3 calls of
    # zeta = 30 rounds read instants 0..8999, chunks 0..140.
    prob = random_quadratic_problem(20, 4, L=1.0, mu=0.0, seed=3)
    sched = GraphSchedule.seeded_random(20, 0.1, 3)
    trace = run(AlgorithmConfig("acc_gt_multiconsensus", alpha=0.2, max_iterations=100), prob,
                sched, diagnostics=False)
    assert trace.rows[-1].comm_rounds == 9000
    C = graph.SPECTRAL_CHUNK
    assert drawn_chunks == list(range(0, 141 * C, C))  # each once, in order
    # Kept: the chunks to the horizon, and the last one drawn past them.
    assert sorted(sched._mask_chunks) == [*range(0, graph.HORIZON + 1, C), 140 * C]


@pytest.mark.parametrize("dtype", NARROW_INTS)
def test_default_alpha_takes_a_narrow_integer_gamma_as_a_python_int(dtype):
    # np.int8(100) ** 4 wrapped, and the step read inf.
    gamma = narrow(dtype, 100)
    got = default_alpha("acc_gt_tv", 1.0, 0.5, gamma)
    assert got.hex() == default_alpha("acc_gt_tv", 1.0, 0.5, int(gamma)).hex()


@pytest.mark.parametrize("dtype", NARROW_INTS)
def test_config_takes_narrow_integers_as_python_ints(dtype):
    # max_iterations=np.int8(127) made run fail with "negative dimensions".
    prob = random_quadratic_problem(5, 2, seed=11)
    K = narrow(dtype, 200)
    config = AlgorithmConfig("acc_gt_static", alpha=0.05, max_iterations=K, seeds=(dtype(3),))
    assert type(config.max_iterations) is int and type(config.seeds[0]) is int
    expected = AlgorithmConfig("acc_gt_static", alpha=0.05, max_iterations=int(K), seeds=(3,))
    assert config == expected
    got, want = (run(c, prob, ring_schedule(5), diagnostics=False) for c in (config, expected))
    for name in CSV_COLUMNS:
        assert got.column(name).tobytes() == want.column(name).tobytes(), name
    zeta = AlgorithmConfig("acc_gt_multiconsensus", alpha=0.1, zeta=narrow(dtype)).zeta
    assert type(zeta) is int and zeta == int(narrow(dtype))


@pytest.mark.parametrize("seeds", [5, None])
def test_config_seeds_that_are_not_a_sequence_are_rejected(seeds):
    # Once a TypeError from len(seeds).
    with pytest.raises(ValueError, match="seeds must hold exactly one seed"):
        AlgorithmConfig("acc_gt_static", seeds=seeds)


@pytest.mark.parametrize("alpha", [None, [1]])
def test_config_alpha_that_is_not_a_number_is_rejected(alpha):
    # Once a TypeError from math.isfinite.
    with pytest.raises(ValueError, match="alpha must be a finite number or 'theorem_default'"):
        AlgorithmConfig("acc_gt_static", alpha=alpha)


def test_numbers_past_the_float_range_are_rejected():
    # Each was an OverflowError from math.isfinite or from gamma ** p.
    with pytest.raises(ValueError, match="theta_prev must be a finite number"):
        theta_next(10 ** 400)
    with pytest.raises(ValueError, match="alpha must be a finite number"):
        AlgorithmConfig("acc_gt_static", alpha=10 ** 400)
    with pytest.raises(ValueError, match="L must be a finite number"):
        default_alpha("acc_gt_tv", 10 ** 400, 0.5, 2)
    with pytest.raises(ValueError, match=rf"^gamma = {10 ** 100} is too large: gamma \*\* 4 "):
        default_alpha("acc_gt_tv", 1.0, 0.5, 10 ** 100)
