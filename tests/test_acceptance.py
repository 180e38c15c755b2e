"""End-to-end acceptance gate: twelve executable checks, one per guarantee.

Each test prints a single ``criterion NN: PASS`` line (visible under -s) once
its assertions have all held, so a full run doubles as a checklist.
"""
import math

import numpy as np

from agtrack import (AlgorithmConfig, DivergenceError, GraphSchedule,
                     aggregate_gradient, certify_theorem1, certify_theorem2,
                     certify_theorem3, certify_theorem4, chebyshev_apply,
                     chebyshev_operator, consensus_error, default_zeta,
                     fit_rate, metropolis_weights,
                     multiple_consensus, random_quadratic_problem,
                     run, sigma, sigma_gamma, theta_next)
from conftest import M9_EDGE_SETS, ring_edges
from reference_steps import AveragedState, averaged_reference_step, matrix_product_window


RING10 = GraphSchedule.static(10, ring_edges(10))
M9 = GraphSchedule.cyclic(9, M9_EDGE_SETS)


def projected(x):
    return x - x.mean(axis=0, keepdims=True)


def random_edge_set(m, rng, p):
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)
             if rng.random() < p]
    return edges or [(0, 1)]


# -------------------------------------------------------------------------

def test_criterion_01_static_sublinear_certificate():
    """The 1/K^2 bounds hold on five seeded convex instances at desk scale."""
    for seed in range(5):
        problem = random_quadratic_problem(10, 4, L=1.0, mu=0.0, seed=seed)
        cfg = AlgorithmConfig(variant="acc_gt_static", mu_mode="zero",
                              max_iterations=2000)
        trace = run(cfg, problem, RING10, diagnostics=False)
        for cert in certify_theorem1(trace):
            assert cert.holds, (seed, cert)
    print("criterion 01: PASS - static sublinear bounds hold on 5 seeds")


def test_criterion_02_static_linear_certificate_and_rate():
    """The linear-rate bounds hold on five strongly convex instances and the
    measured log-gap slope beats 90% of the guaranteed decay."""
    for seed, ratio in ((0, 10), (1, 10), (2, 10), (3, 100), (4, 100)):
        problem = random_quadratic_problem(10, 4, L=1.0, mu=1.0 / ratio,
                                           seed=seed)
        cfg = AlgorithmConfig(variant="acc_gt_static",
                              mu_mode="strongly_convex", max_iterations=5000)
        trace = run(cfg, problem, RING10, diagnostics=False)
        for cert in certify_theorem2(trace):
            assert cert.holds, (seed, ratio, cert)
        theta = math.sqrt(problem.mu * trace.meta["alpha"]) / 2.0
        assert fit_rate(trace) <= 0.9 * math.log(1.0 - theta), (seed, ratio)
    print("criterion 02: PASS - linear bounds and decay rate hold on 5 instances")


def test_criterion_03_time_varying_certificates():
    """Both gamma-grid bounds hold on the 3-phase alternating schedule with
    the prescribed step sizes."""
    problem = random_quadratic_problem(9, 4, L=1.0, mu=0.0, seed=0)
    cfg = AlgorithmConfig(variant="acc_gt_tv", mu_mode="zero",
                          max_iterations=600)
    trace = run(cfg, problem, M9, diagnostics=False)
    assert trace.meta["gamma"] == 3
    for cert in certify_theorem3(trace):
        assert cert.holds, cert
    sc_problem = random_quadratic_problem(9, 4, L=1.0, mu=0.02, seed=1)
    sc_cfg = AlgorithmConfig(variant="acc_gt_tv", mu_mode="strongly_convex",
                             max_iterations=600)
    sc_trace = run(sc_cfg, sc_problem, M9, diagnostics=False)
    for cert in certify_theorem4(sc_trace):
        assert cert.holds, cert
    print("criterion 03: PASS - time-varying bounds hold at gamma = 3")


def test_criterion_04_tracking_identity_every_variant():
    """The tracked direction averages to the exact mean gradient at every
    recorded instant of every variant."""
    cases = [("gt", RING10, 10, 0.05, "zero"),
             ("acc_gt_static", RING10, 10, 0.05, "zero"),
             ("acc_gt_chebyshev", RING10, 10, 0.05, "zero"),
             ("acc_gt_tv", M9, 9, 0.05, "zero"),
             ("acc_gt_multiconsensus", M9, 9, 0.05, "zero"),
             ("acc_gt_static", RING10, 10, 0.05, "strongly_convex")]
    worst = 0.0
    for seed, (variant, schedule, m, alpha, mode) in enumerate(cases):
        mu = 0.1 if mode == "strongly_convex" else 0.0
        problem = random_quadratic_problem(m, 3, L=1.0, mu=mu, seed=seed)
        drifts = []

        def probe(k, x, y, z, s):
            sbar = s.mean(axis=0)
            gbar = aggregate_gradient(problem, y).mean(axis=0)
            drifts.append(float(np.linalg.norm(sbar - gbar)))

        cfg = AlgorithmConfig(variant=variant, mu_mode=mode, alpha=alpha,
                              max_iterations=100)
        run(cfg, problem, schedule, diagnostics=False, probe=probe)
        assert len(drifts) == 101
        worst = max(worst, max(drifts))
        assert max(drifts) <= 1e-10, (variant, mode, max(drifts))
    print(f"criterion 04: PASS - tracking identity holds, worst drift {worst:.2e}")


def test_criterion_05_averaged_reduction_equivalence():
    """Column means of the distributed runs reproduce the inexact centralized
    recursion driven by the same tracked means."""
    cases = ([("acc_gt_static", RING10, 10, 0.0, "zero")] * 4
             + [("acc_gt_static", RING10, 10, 0.1, "strongly_convex")] * 3
             + [("acc_gt_tv", M9, 9, 0.0, "zero")] * 3)
    worst = 0.0
    for seed, (variant, schedule, m, mu, mode) in enumerate(cases):
        problem = random_quadratic_problem(m, 3, L=1.0, mu=mu, seed=seed)
        means = {}

        def probe(k, x, y, z, s):
            means[k] = (x.mean(axis=0), y.mean(axis=0),
                        z.mean(axis=0), s.mean(axis=0))

        cfg = AlgorithmConfig(variant=variant, mu_mode=mode, alpha=0.05,
                              max_iterations=200)
        trace = run(cfg, problem, schedule, diagnostics=False, probe=probe)
        mu_eff = problem.mu if mode == "strongly_convex" else 0.0
        avg = AveragedState(means[0][0], means[0][1], means[0][2])
        for k in range(200):
            avg = averaged_reference_step(avg, 0.05, trace.rows[k].theta,
                                          mu_eff, means[k][3])
            drift = max(np.abs(avg.ybar - means[k][1]).max(),
                        np.abs(avg.xbar - means[k + 1][0]).max(),
                        np.abs(avg.zbar - means[k + 1][2]).max())
            worst = max(worst, drift)
            assert drift <= 1e-8, (variant, mode, seed, k, drift)
    print(f"criterion 05: PASS - averaged recursion matched, worst drift {worst:.2e}")


def test_criterion_06_two_form_equivalence():
    """With mu = 0 the implemented update and its substituted two-variable
    form produce identical trajectories."""
    worst = 0.0
    for variant, schedule, m, seed in (("acc_gt_static", RING10, 10, 0),
                                       ("acc_gt_tv", M9, 9, 1)):
        problem = random_quadratic_problem(m, 3, L=1.0, mu=0.0, seed=seed)
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(problem.n)
        alpha, theta = 0.01, 1.0
        iterates = []
        run(AlgorithmConfig(variant=variant, alpha=alpha, mu_mode="zero", max_iterations=100),
            problem, schedule, diagnostics=False, x0_row=x0,
            probe=lambda k, x, y, z, s: iterates.append((x, z)))
        x_q = z_q = np.tile(x0, (m, 1))
        s_q = g_prev = aggregate_gradient(problem, x_q)
        for k in range(100):
            W = metropolis_weights(schedule.edge_set(k), m)
            if k > 0:
                theta = theta_next(theta)
            y_q = theta * z_q + (1.0 - theta) * x_q
            if k > 0:
                g_k = aggregate_gradient(problem, y_q)
                s_q = W @ s_q + g_k - g_prev
                g_prev = g_k
            x_q = W @ y_q - alpha * s_q
            z_q = W @ z_q - (alpha / theta) * s_q
            x, z = iterates[k + 1]
            drift = max(np.abs(x - x_q).max(), np.abs(z - z_q).max())
            worst = max(worst, drift)
            assert drift <= 1e-12, (m, k, drift)
    print(f"criterion 06: PASS - two-form equivalence, worst drift {worst:.2e}")


def test_criterion_07_chebyshev_effective_norm():
    """The polynomial-accelerated operator mixes any ring down to a
    disagreement contraction of at most 0.65 in one call."""
    norms = {}
    for m in (5, 10, 25, 50):
        W = metropolis_weights(ring_edges(m), m)
        op = chebyshev_operator(W)
        effective = chebyshev_apply(op, np.eye(m))
        norms[m] = np.linalg.norm(effective - np.full((m, m), 1.0 / m), 2)
        assert norms[m] <= 0.65, (m, norms[m])
    summary = ", ".join(f"m={m}: {v:.3f}" for m, v in norms.items())
    print(f"criterion 07: PASS - accelerated mixing norms {summary}")


def test_criterion_08_multiple_consensus_contraction():
    """ceil(gamma/(1-sigma_gamma)) chained rounds contract disagreement by
    at least 1/e from any start instant."""
    zeta = default_zeta(3, sigma_gamma(M9, 3))
    assert zeta == 13
    rng = np.random.default_rng(8)
    worst = 0.0
    for trial in range(100):
        x = rng.standard_normal((9, 4))
        start = int(rng.integers(0, 30))
        mixed = multiple_consensus(M9, None, start, zeta, x)
        before = np.linalg.norm(projected(x))
        after = np.linalg.norm(projected(mixed))
        worst = max(worst, after / before)
        assert after <= (1.0 / math.e + 1e-9) * before, (trial, after / before)
    print(f"criterion 08: PASS - 13-round contraction, worst factor {worst:.4f}")


def test_criterion_09_momentum_schedule():
    """The momentum sequence satisfies its defining recursion to 1e-12 and
    stays inside the [1/(k+1), 2/(k+1)] envelope up to k = 10^4; a run
    records exactly this sequence."""
    trace = run(AlgorithmConfig(variant="acc_gt_static", alpha=0.01, max_iterations=100),
                random_quadratic_problem(10, 2, seed=0), RING10, diagnostics=False)
    assert trace.rows[0].theta == 1.0
    theta_prev = 1.0
    for k in range(1, 10 ** 4 + 1):
        theta = theta_next(theta_prev)
        lhs = (1.0 - theta) / theta ** 2
        assert abs(lhs - 1.0 / theta_prev ** 2) <= 1e-12 * lhs, k
        assert 1.0 / (k + 1) <= theta <= 2.0 / (k + 1), k
        if k <= 100:
            assert trace.rows[k].theta == theta
        theta_prev = theta
    print("criterion 09: PASS - momentum recursion and envelope hold to k = 10^4")


def test_criterion_10_inexact_oracle_margins():
    """The recorded lower/upper oracle inequalities stay nonnegative (within
    rounding) at every instant of 500-step runs in both convexity modes."""
    for mode, mu in (("zero", 0.0), ("strongly_convex", 0.1)):
        problem = random_quadratic_problem(10, 4, L=1.0, mu=mu, seed=0)
        cfg = AlgorithmConfig(variant="acc_gt_static", mu_mode=mode,
                              max_iterations=500)
        trace = run(cfg, problem, RING10, diagnostics=True)
        for name in ("lemma1_lower_margin", "lemma1_upper_margin"):
            values = trace.column(name)
            finite = values[np.isfinite(values)]
            assert len(finite) >= 490, (mode, name, len(finite))
            assert finite.min() >= -1e-9, (mode, name, finite.min())
    print("criterion 10: PASS - oracle sandwich margins nonnegative over 500 steps")


def test_criterion_11_contraction_suites():
    """Single-step, windowed, and non-expansion disagreement contractions
    hold on 100 random (matrix, state) pairs each."""
    rng = np.random.default_rng(11)
    for _ in range(100):  # single gossip step against its own constant
        m = int(rng.integers(3, 21))
        W = metropolis_weights(random_edge_set(m, rng, float(rng.uniform(0.2, 0.7))), m)
        x = rng.standard_normal((m, 3))
        contraction = sigma(W)
        assert (np.linalg.norm(projected(W @ x))
                <= contraction * np.linalg.norm(projected(x)) + 1e-9)
    sig_g = sigma_gamma(M9, 3)
    for _ in range(100):  # full gamma-window against sigma_gamma
        k = int(rng.integers(2, 32))
        window = matrix_product_window(M9, k, 3)
        x = rng.standard_normal((9, 4))
        assert (np.linalg.norm(projected(window @ x))
                <= sig_g * np.linalg.norm(projected(x)) + 1e-9)
    for _ in range(100):  # any single round never expands disagreement
        m = int(rng.integers(3, 21))
        W = metropolis_weights(random_edge_set(m, rng, float(rng.uniform(0.1, 0.5))), m)
        x = rng.standard_normal((m, 2))
        assert (np.linalg.norm(projected(W @ x))
                <= np.linalg.norm(projected(x)) * (1.0 + 1e-12) + 1e-12)
    print("criterion 11: PASS - contraction suites hold on 100 pairs each")


def test_criterion_12_acceleration_separation():
    """On an ill-conditioned instance the accelerated method, tuned over the
    same step grid, needs strictly fewer gradient rounds to gap 1e-8 than the
    baseline tracker."""
    problem = random_quadratic_problem(10, 5, L=1.0, mu=0.01, seed=0,
                                       shared_basis=True)

    def rounds_to_target(variant, mode, alpha, cap):
        cfg = AlgorithmConfig(variant=variant, mu_mode=mode, alpha=alpha,
                              max_iterations=cap)
        try:
            trace = run(cfg, problem, RING10, diagnostics=False)
        except DivergenceError:
            return None
        for row in trace.rows:
            if row.gap <= 1e-8:
                return row.grad_rounds
        return None

    grid = (0.05, 0.1, 0.2, 0.5)
    gt_best = min((r for a in grid
                   if (r := rounds_to_target("gt", "zero", a, 8000)) is not None),
                  default=None)
    acc_best = min((r for a in grid
                    if (r := rounds_to_target("acc_gt_static", "strongly_convex",
                                              a, 2000)) is not None),
                   default=None)
    assert gt_best is not None and acc_best is not None
    assert acc_best < gt_best, (acc_best, gt_best)
    print(f"criterion 12: PASS - tuned acceleration {acc_best} vs baseline "
          f"{gt_best} gradient rounds to 1e-8")
