import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agtrack import (AlgorithmConfig, AveragedState, DivergenceError,
                     GraphSchedule, RoundCounter, ThetaSchedule, aggregate_gradient,
                     averaged_reference_step, default_alpha, gt_init, gt_step,
                     make_problem, metropolis_weights, quadratic_objective,
                     random_quadratic_problem, resolve_constants, run,
                     theta_next)
from agtrack.algorithms import CSV_COLUMNS, VARIANTS
from conftest import M9_EDGE_SETS, ring_edges


def scalar_problem():
    """Single agent, f(x) = 0.5 x^2."""
    return make_problem([quadratic_objective(np.eye(1), np.zeros(1))])


def ring_schedule(m):
    return GraphSchedule.static(m, ring_edges(m))


# ---------------------------------------------------------------- theta

def test_theta_next_golden_section():
    assert theta_next(1.0) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)


def test_theta_next_rejects_nonpositive():
    with pytest.raises(ValueError):
        theta_next(0.0)


@given(st.floats(1e-6, 1.0))
@settings(max_examples=100, deadline=None)
def test_theta_next_defining_identity(theta_prev):
    theta = theta_next(theta_prev)
    assert 0.0 < theta < theta_prev
    assert (1 - theta) / theta ** 2 == pytest.approx(1 / theta_prev ** 2, rel=1e-12)


def test_theta_schedule_nsc_starts_at_one():
    sched = ThetaSchedule("nonstrongly_convex")
    assert sched.theta(0) == 1.0
    assert sched.theta(1) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)
    for k in range(50):
        assert 1 / (k + 1) <= sched.theta(k) <= 2 / (k + 1)


def test_theta_schedule_sc_constant():
    sched = ThetaSchedule("strongly_convex", alpha=0.01, mu=0.25)
    expected = math.sqrt(0.25 * 0.01) / 2
    assert all(sched.theta(k) == pytest.approx(expected) for k in range(5))


def test_theta_schedule_sc_validation():
    with pytest.raises(ValueError):
        ThetaSchedule("strongly_convex", alpha=2.0, mu=1.0)   # alpha mu > 1
    with pytest.raises(ValueError):
        ThetaSchedule("strongly_convex", alpha=0.1, mu=0.0)


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


def test_default_alpha_rejects_gt_and_no_mixing():
    with pytest.raises(ValueError):
        default_alpha("gt", 1.0, 0.5)
    with pytest.raises(ValueError):
        default_alpha("acc_gt_static", 1.0, 1.0)


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
    return make_problem([quadratic_objective(A, b) for _ in range(m)])


def test_gt_fixed_point_at_optimum(rng):
    prob = identical_agents_problem(5, rng)
    W = metropolis_weights(ring_edges(5), 5)
    state = gt_init(prob, prob.x_star)
    for _ in range(5):
        state = gt_step(state, W, 0.05, prob)
    np.testing.assert_allclose(state.x, np.tile(prob.x_star, (5, 1)), atol=1e-12)


def test_gt_step_counters():
    prob = random_quadratic_problem(4, 2, seed=2)
    counter = RoundCounter()
    state = gt_init(prob, np.zeros(2), counter)
    assert (counter.comm_rounds, counter.grad_rounds) == (0, 1)
    W = metropolis_weights(ring_edges(4), 4)
    gt_step(state, W, 0.01, prob, counter)
    assert (counter.comm_rounds, counter.grad_rounds) == (2, 2)


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

def test_run_k0_has_single_row():
    prob = random_quadratic_problem(5, 2, seed=10)
    trace = run(AlgorithmConfig(variant="acc_gt_static", max_iterations=0),
                prob, ring_schedule(5))
    assert len(trace.rows) == 1 and trace.rows[0].k == 0


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


def test_run_round_totals_per_variant(m9_schedule):
    prob9 = random_quadratic_problem(9, 2, seed=12)
    prob10 = random_quadratic_problem(10, 2, seed=12)
    K = 12
    gt = run(AlgorithmConfig(variant="gt", alpha=0.05, max_iterations=K),
             prob10, ring_schedule(10), diagnostics=False)
    assert (gt.rows[-1].comm_rounds, gt.rows[-1].grad_rounds) == (2 * K, K + 1)
    acc = run(AlgorithmConfig(variant="acc_gt_static", max_iterations=K),
              prob10, ring_schedule(10), diagnostics=False)
    assert (acc.rows[-1].comm_rounds, acc.rows[-1].grad_rounds) == (3 * K, K + 1)
    cheb = run(AlgorithmConfig(variant="acc_gt_chebyshev", max_iterations=K),
               prob10, ring_schedule(10), diagnostics=False)
    t = cheb.meta["t"]
    assert t == 4
    assert cheb.rows[-1].comm_rounds == 3 * K * t
    mc = run(AlgorithmConfig(variant="acc_gt_multiconsensus", max_iterations=K),
             prob9, m9_schedule, diagnostics=False)
    assert mc.meta["zeta"] == 13
    assert mc.rows[-1].comm_rounds == 3 * K * 13


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


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_rejects_overlarge_sc_step(variant):
    # theta = sqrt(mu alpha)/2 needs alpha * mu <= 1, for gt as for the rest.
    prob = random_quadratic_problem(5, 2, mu=0.5, seed=14)
    with pytest.raises(ValueError, match="alpha \\* mu <= 1"):
        run(AlgorithmConfig(variant=variant, alpha=3.0, mu_mode="strongly_convex",
                            max_iterations=2), prob, ring_schedule(5))


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
