import hashlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agtrack import (AlgorithmConfig, GraphSchedule, ProblemInstance, aggregate_gradient,
                     bregman_distance, consensus_error, inexact_value, logistic_problem,
                     quadratic_problem, random_logistic_problem, random_quadratic_problem,
                     run, solve_optimum)
from reference_steps import AggregateState, averages


def identity_quadratics(m, n):
    """f_(i)(x) = 0.5 ||x||^2 for every agent."""
    return quadratic_problem(np.tile(np.eye(n), (m, 1, 1)), np.zeros((m, n)))


def shifted_quadratics(centers):
    """f_(i)(x) = 0.5 ||x - c_i||^2."""
    m, n = centers.shape
    return quadratic_problem(np.tile(np.eye(n), (m, 1, 1)), -centers)


def fd_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f.value(x + e) - f.value(x - e)) / (2 * h)
    return g


# ------------------------------------------------- local objectives

def test_quadratic_constants_are_eigenvalue_range(rng):
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    A = Q @ np.diag([0.5, 1.0, 2.0, 8.0]) @ Q.T
    f = quadratic_problem(A[None], np.zeros((1, 4)))
    assert f.L == pytest.approx(8.0, rel=1e-12)
    assert f.mu == pytest.approx(0.5, rel=1e-12)


def single_agent_gradient(prob, x):
    return aggregate_gradient(prob, x[None, :])[0]


def test_gradient_matches_finite_differences(rng):
    quad = quadratic_problem([np.diag([1.0, 3.0]) + 0.2], [rng.standard_normal(2)])
    logi = logistic_problem(rng.standard_normal((15, 3)),
                            np.where(rng.random(15) < 0.5, -1.0, 1.0), [15], [0.05])
    for f, n in ((quad, 2), (logi, 3)):
        for _ in range(20):
            x = rng.standard_normal(n)
            np.testing.assert_allclose(single_agent_gradient(f, x), fd_gradient(f, x),
                                       rtol=1e-5, atol=1e-7)


def test_smoothness_sandwich(rng):
    f = logistic_problem(rng.standard_normal((25, 4)),
                         np.where(rng.random(25) < 0.5, -1.0, 1.0), [25], [0.01])
    for _ in range(50):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        gx, gy = single_agent_gradient(f, x), single_agent_gradient(f, y)
        excess = f.value(y) - f.value(x) - gx @ (y - x)
        dg = gy - gx
        assert excess >= dg @ dg / (2 * f.L) - 1e-9
        assert excess <= f.L / 2 * ((y - x) @ (y - x)) + 1e-9


def test_value_many_matches_value(rng):
    prob = random_quadratic_problem(4, 3, seed=5)
    X = rng.standard_normal((6, 3))
    np.testing.assert_allclose(prob.value_many(X),
                               [prob.value(row) for row in X], rtol=1e-12)


# ------------------------------------------------- aggregate_gradient

def test_aggregate_gradient_identity_quadratic(rng):
    prob = identity_quadratics(5, 3)
    y = rng.standard_normal((5, 3))
    np.testing.assert_allclose(aggregate_gradient(prob, y), y, atol=1e-14)


def test_aggregate_gradient_single_logistic_sample_at_zero():
    # The ridge keeps a minimizer and adds nothing to the gradient at 0.
    feature = np.array([2.0, -1.0, 0.5])
    prob = logistic_problem(feature[None, :], [1.0], [1], [1e-3])
    g = aggregate_gradient(prob, np.zeros((1, 3)))
    np.testing.assert_allclose(g[0], -0.5 * feature, atol=1e-12)


def test_separable_ridge_free_logistic_has_no_optimum():
    # One sample is always separable: without a ridge F > 0 has infimum 0,
    # which no point attains.
    feature = np.array([2.0, -1.0, 0.5])
    with pytest.raises(ValueError, match="separable data, F has no minimizer"):
        logistic_problem(feature[None, :], [1.0], [1], [0.0])
    # 30 samples in 20 dimensions are separable as well.
    with pytest.raises(ValueError, match="separable data"):
        random_logistic_problem(3, 20, samples_per_agent=10, seed=0)


def test_weakly_separable_ridge_free_logistic_has_no_optimum():
    # The zero sample's margin is 0 at every iterate and the first sample's
    # turns positive after one step: scaling that iterate up lowers F forever,
    # so F (infimum log(2)/2) has no minimizer.  The solver used to return
    # x_star = [22.33, 0] after two seconds.
    with pytest.raises(ValueError, match="separable data, F has no minimizer"):
        logistic_problem([[1, 0], [0, 0]], [1, 1], [2], [0])
    # Margins of both signs at every nonzero point: a minimizer exists.
    prob = logistic_problem([[1.0], [-1.0], [2.0]], [1, 1, 1], [3], [0])
    assert np.linalg.norm(prob.mean_gradient(prob.x_star)) <= 1e-9


def test_aggregate_gradient_zero_mean_at_optimum():
    prob = random_quadratic_problem(6, 4, mu=0.1, seed=1)
    y = np.tile(prob.x_star, (6, 1))
    g = aggregate_gradient(prob, y)
    assert np.linalg.norm(g.mean(axis=0)) <= 1e-9


def test_aggregate_gradient_counts_one_round(rng, monkeypatch):
    # One call evaluates every agent's local oracle once: one gradient round.
    prob = identity_quadratics(3, 2)
    calls = []
    original = ProblemInstance._gradients
    monkeypatch.setattr(ProblemInstance, "_gradients",
                        lambda self, Y: calls.append(Y.shape) or original(self, Y))
    aggregate_gradient(prob, rng.standard_normal((3, 2)))
    assert calls == [(3, 2)]


def test_gradient_round_is_bitwise_the_local_oracles_gradients(rng):
    # The gradient-only and value-only paths each give the local oracle's
    # bits, so the run's margins can pair the loop's gradient with _values.
    for prob in (random_quadratic_problem(6, 4, mu=0.1, seed=1),
                 random_logistic_problem(5, 3, samples_per_agent=7, ridge=0.05, seed=2)):
        y = rng.standard_normal((prob.m, prob.n))
        assert aggregate_gradient(prob, y).tobytes() == prob._local(y)[1].tobytes()
        assert prob._values(y).tobytes() == prob._local(y)[0].tobytes()
        w = rng.standard_normal(prob.n)
        local = prob._local(np.broadcast_to(w, (prob.m, prob.n)))[1].mean(axis=0)
        assert prob.mean_gradient(w).tobytes() == local.tobytes()


@pytest.mark.parametrize("counts", [(1, 7, 3), (5,), (2, 2, 9, 1)])
def test_mean_gradient_is_bitwise_the_local_gradients_mean_with_unequal_counts(counts, rng):
    # The logistic one-point path contracts the rows with w itself, with no
    # per-agent copy of w; its bits are still each agent's gradient at w, averaged.
    N, n = sum(counts), 4
    labels = np.where(rng.random(N) < 0.5, -1.0, 1.0)
    prob = logistic_problem(rng.standard_normal((N, n)), labels, counts,
                            rng.uniform(0.01, 0.2, len(counts)))
    for scale in (0.1, 1.0, 10.0):
        w = scale * rng.standard_normal(n)
        local = prob._local(np.broadcast_to(w, (prob.m, n)))[1].mean(axis=0)
        assert prob.mean_gradient(w).tobytes() == local.tobytes()


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
@pytest.mark.parametrize("shape", [(), (2,), (4,), (3, 3), (1, 3)])
def test_one_point_oracles_reject_any_other_shape(kind, shape):
    # An (m, n) array once went through mean_gradient as m different points.
    prob = (random_quadratic_problem(3, 3, mu=0.1, seed=0) if kind == "quadratic"
            else random_logistic_problem(3, 3, samples_per_agent=5, ridge=0.1, seed=0))
    for oracle in (prob.value, prob.mean_gradient):
        with pytest.raises(ValueError, match=rf"^a point of this problem has shape \(3,\), "
                                             rf"got {re.escape(str(shape))}$"):
            oracle(np.ones(shape))


def test_aggregate_gradient_shape_check(rng):
    prob = identity_quadratics(3, 2)
    with pytest.raises(ValueError):
        aggregate_gradient(prob, rng.standard_normal((4, 2)))


# ------------------------------------------------- averages / consensus_error

def test_averages_of_consensual_state(rng):
    row = rng.standard_normal(3)
    mat = np.tile(row, (4, 1))
    for out in averages(AggregateState(mat, mat, mat, mat)):
        np.testing.assert_allclose(out, row, atol=1e-15)


def test_averages_demeaned_is_zero(rng):
    x = rng.standard_normal((5, 3))
    x -= x.mean(axis=0)
    xbar, *_ = averages(AggregateState(x, x, x, x))
    np.testing.assert_allclose(xbar, 0.0, atol=1e-15)


def test_averages_two_agents_scalar():
    x = np.array([[0.0], [2.0]])
    xbar, *_ = averages(AggregateState(x, x, x, x))
    assert xbar[0] == pytest.approx(1.0)


def test_state_shape_validation(rng):
    x = rng.standard_normal((4, 2))
    with pytest.raises(ValueError):
        AggregateState(x, x, x, rng.standard_normal((4, 3)))


def test_consensus_error_examples():
    assert consensus_error(np.tile([1.0, 2.0], (5, 1))) == pytest.approx(0.0, abs=1e-15)
    assert consensus_error(np.array([[-1.0], [1.0]])) == pytest.approx(2.0)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_consensus_error_shift_invariance(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 3))
    v = rng.standard_normal(3)
    shifted = x + np.ones((6, 1)) * v
    assert consensus_error(shifted) == pytest.approx(consensus_error(x), rel=1e-9, abs=1e-9)


# ------------------------------------------------- bregman / inexact value

def test_bregman_zero_at_equal_points(rng):
    prob = random_quadratic_problem(4, 3, seed=2)
    x = rng.standard_normal(3)
    assert bregman_distance(prob, x, np.tile(x, (4, 1))) == pytest.approx(0.0, abs=1e-12)


def test_bregman_identity_quadratic_is_half_sq_dist(rng):
    prob = identity_quadratics(1, 3)
    x, y = rng.standard_normal(3), rng.standard_normal((1, 3))
    expected = 0.5 * np.sum((x - y[0]) ** 2)
    assert bregman_distance(prob, x, y) == pytest.approx(expected, rel=1e-12)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_bregman_nonnegative(seed):
    rng = np.random.default_rng(seed)
    prob = random_quadratic_problem(3, 2, mu=0.0, seed=seed % 7)
    x = rng.standard_normal(2)
    y = rng.standard_normal((3, 2))
    assert bregman_distance(prob, x, y) >= -1e-12


def test_inexact_value_consensual_equals_F(rng):
    prob = random_quadratic_problem(5, 3, seed=3)
    w = rng.standard_normal(3)
    y = np.tile(w, (5, 1))
    assert inexact_value(prob, w, y) == pytest.approx(prob.value(w), rel=1e-12)


def test_inexact_value_two_sided_bounds(rng):
    # F(w) is sandwiched by the linearized surrogate: from below at any w via
    # strong convexity, from above with the (L/2m)||Pi y||^2 penalty.
    prob = random_quadratic_problem(5, 3, mu=0.2, seed=4)
    for _ in range(25):
        y = np.tile(rng.standard_normal(3), (5, 1)) + 0.3 * rng.standard_normal((5, 3))
        ybar = y.mean(axis=0)
        sbar = aggregate_gradient(prob, y).mean(axis=0)
        fhat = inexact_value(prob, ybar, y)
        w = rng.standard_normal(3)
        d = w - ybar
        lower = fhat + sbar @ d + prob.mu / 2 * (d @ d)
        upper = (fhat + sbar @ d + prob.L / 2 * (d @ d)
                 + prob.L / (2 * prob.m) * consensus_error(y))
        assert prob.value(w) >= lower - 1e-9
        assert prob.value(w) <= upper + 1e-9


def test_shared_oracle_output_gives_the_default_bits(rng):
    # What a caller has already evaluated -- the local oracle at y, F(x), a
    # column mean -- stands in for the functions' own evaluation bit for bit.
    for prob in (random_quadratic_problem(6, 4, mu=0.1, seed=1),
                 random_logistic_problem(5, 3, samples_per_agent=7, ridge=0.05, seed=2)):
        y = rng.standard_normal((prob.m, prob.n))
        x = rng.standard_normal(prob.n)
        ybar = y.mean(axis=0)
        local = prob._local(y)
        assert inexact_value(prob, ybar, y, local=local) == inexact_value(prob, ybar, y)
        assert (bregman_distance(prob, x, y, local=local, F_x=prob.value(x))
                == bregman_distance(prob, x, y))
        assert consensus_error(y, ybar) == consensus_error(y)


# ------------------------------------------------- optimum oracle

def test_optimum_of_shifted_quadratics_is_mean_center(rng):
    centers = rng.standard_normal((6, 3))
    prob = shifted_quadratics(centers)
    np.testing.assert_allclose(prob.x_star, centers.mean(axis=0), atol=1e-10)


def test_optimum_single_quadratic_closed_form(rng):
    A = np.diag([2.0, 5.0]) + 0.3
    b = rng.standard_normal(2)
    prob = quadratic_problem([A], [b])
    np.testing.assert_allclose(prob.x_star, np.linalg.solve(A, -b), atol=1e-10)


def test_optimum_residual_random_quadratics():
    prob = random_quadratic_problem(3, 4, mu=0.05, seed=9)
    assert np.linalg.norm(prob.mean_gradient(prob.x_star)) <= 1e-10


def test_optimum_logistic_residual():
    prob = random_logistic_problem(4, 3, ridge=0.1, seed=6)
    x_star, F_star = solve_optimum(prob)
    assert np.linalg.norm(prob.mean_gradient(x_star)) <= 1e-10
    assert F_star <= prob.value(np.zeros(3)) + 1e-12


# ------------------------------------------------- generators

def test_random_quadratic_hits_target_constants():
    prob = random_quadratic_problem(8, 5, L=3.0, mu=0.03, seed=11)
    assert prob.L == pytest.approx(3.0, rel=1e-9)
    assert prob.mu == pytest.approx(0.03, rel=1e-9)
    assert prob.m == 8 and prob.n == 5


def test_random_quadratic_mu_zero_average_still_solvable():
    prob = random_quadratic_problem(6, 4, L=1.0, mu=0.0, seed=12)
    assert prob.mu == pytest.approx(0.0, abs=1e-12)
    assert prob.x_star is not None
    assert np.linalg.norm(prob.mean_gradient(prob.x_star)) <= 1e-10


def test_random_quadratic_shared_basis_commutes():
    prob = random_quadratic_problem(5, 4, mu=0.01, seed=13, shared_basis=True)
    A0, A1 = prob.A[0], prob.A[1]
    np.testing.assert_allclose(A0 @ A1, A1 @ A0, atol=1e-9)


def test_random_logistic_shapes_and_ridge():
    prob = random_logistic_problem(4, 3, samples_per_agent=10, ridge=0.2, seed=14)
    assert prob.m == 4 and prob.n == 3
    assert prob.mu == pytest.approx(0.2)
    assert prob.data.shape == (40, 3) and prob.labels.shape == (40,)
    assert prob.counts.tolist() == [10] * 4


def test_generators_are_seeded():
    a = random_quadratic_problem(3, 2, seed=42)
    b = random_quadratic_problem(3, 2, seed=42)
    np.testing.assert_array_equal(a.A, b.A)
    np.testing.assert_array_equal(a.x_star, b.x_star)


def test_generators_reject_impossible_quadratic_constants():
    for L, mu in ((0.5, 1.0), (0.0, 0.0), (-1.0, -2.0), (1.0, -0.1), (float("nan"), 0.0)):
        with pytest.raises(ValueError, match="0 <= mu <= L"):
            random_quadratic_problem(3, 2, L=L, mu=mu)
    with pytest.raises(ValueError, match="single drawn eigenvalue"):
        random_quadratic_problem(1, 1)  # one eigenvalue cannot be both L = 1 and mu = 0


def test_single_eigenvalue_quadratic_with_equal_constants():
    prob = random_quadratic_problem(1, 1, L=2.0, mu=2.0, seed=3)
    assert prob.L == prob.mu == 2.0
    np.testing.assert_array_equal(prob.A, [[[2.0]]])
    np.testing.assert_allclose(prob.x_star, -prob.b[0] / 2.0, rtol=1e-15)


def test_logistic_rejects_an_agent_without_rows(rng):
    # The check comes before L, which divides by each agent's count.
    with pytest.raises(ValueError, match="at least one sample"):
        logistic_problem(rng.standard_normal((4, 2)), np.ones(4), [4, 0], [0.1, 0.1])
    with pytest.raises(ValueError, match="at least one sample"):
        random_logistic_problem(3, 2, samples_per_agent=0, ridge=0.1)


@pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (0, 0)])
def test_generators_reject_empty_sizes(m, n):
    with pytest.raises(ValueError, match="at least one agent and one dimension"):
        random_quadratic_problem(m, n)
    with pytest.raises(ValueError, match="at least one agent and one dimension"):
        random_logistic_problem(m, n, ridge=0.1)
    with pytest.raises(ValueError, match="at least one agent and one dimension"):
        quadratic_problem(np.empty((m, n, n)), np.empty((m, n)))
    with pytest.raises(ValueError, match="at least one agent and one dimension"):
        logistic_problem(np.empty((2 * m, n)), np.empty(2 * m), np.full(m, 2), np.full(m, 0.1))


@pytest.mark.parametrize("ridge", [-1.0, -1e-12, float("nan")])
def test_logistic_rejects_a_negative_ridge(rng, ridge):
    with pytest.raises(ValueError, match="need ridge >= 0"):
        logistic_problem(rng.standard_normal((4, 2)), np.ones(4), [4], [ridge])
    with pytest.raises(ValueError, match="need ridge >= 0"):
        random_logistic_problem(3, 2, samples_per_agent=5, ridge=ridge)


# A rank-2 Hessian that rounding leaves with nonzero LU pivots: a rotated
# diag(1, 2, 0), whose range holds Q e_1 and Q e_2 and not Q e_3.
_Q = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
_RANK2 = (_Q * [1.0, 2.0, 0.0]) @ _Q.T

# Stacks the instance rejects, as (kind, stacks, message).  Unchecked, a
# non-symmetric A reports L and mu of its symmetric part while the gradient
# oracle returns A x + b, and counts that miss rows give a value and a
# broadcast error on the gradient.
MALFORMED_STACKS = {
    "non_symmetric_A": ("quadratic", {"A": [[[1.0, 2.0], [0.0, 1.0]]], "b": [[0.0, 0.0]]},
                        "symmetric"),
    "A_not_matching_b": ("quadratic", {"A": np.ones((2, 3, 3)), "b": np.zeros((2, 2))},
                         r"need A \(m, n, n\) and b \(m, n\)"),
    "counts_missing_rows": ("logistic", {"data": np.ones((6, 2)), "labels": np.ones(6),
                                         "counts": [2, 2], "ridge": [0.1, 0.1]},
                            "counts must cover the rows"),
    "float_counts": ("logistic", {"data": np.ones((4, 2)), "labels": np.ones(4),
                                  "counts": [2.0, 2.0], "ridge": [0.1, 0.1]},
                     "integer counts"),
    "one_ridge_for_two_agents": ("logistic", {"data": np.ones((4, 2)), "labels": np.ones(4),
                                              "counts": [2, 2], "ridge": [0.1]},
                                 "need ridge >= 0 per agent"),
    # Unchecked, a NaN in b gave x_star = [nan nan] and F_star = nan (the
    # optimum's residual test reads False for NaN), and a NaN in logistic data
    # ran the optimum solver's 10^6 iterations before its RuntimeError.  A NaN
    # or -inf ridge is "need ridge >= 0" (test_logistic_rejects_a_negative_ridge).
    "nan_in_A": ("quadratic", {"A": [[[np.nan, 0.0], [0.0, 1.0]]], "b": [[0.0, 0.0]]},
                 "every entry of A must be finite"),
    "inf_in_A": ("quadratic", {"A": [[[1.0, np.inf], [np.inf, 1.0]]], "b": [[0.0, 0.0]]},
                 "every entry of A must be finite"),
    "nan_in_b": ("quadratic", {"A": [np.eye(2)], "b": [[np.nan, 0.0]]},
                 "every entry of b must be finite"),
    "nan_in_data": ("logistic", {"data": [[1.0, np.nan], [0.5, -1.0]], "labels": [1.0, -1.0],
                                 "counts": [1, 1], "ridge": [0.1, 0.1]},
                    "every entry of data must be finite"),
    "inf_in_data": ("logistic", {"data": [[1.0, -np.inf], [0.5, -1.0]], "labels": [1.0, -1.0],
                                 "counts": [1, 1], "ridge": [0.1, 0.1]},
                    "every entry of data must be finite"),
    "nan_label": ("logistic", {"data": [[1.0, 2.0], [0.5, -1.0]], "labels": [np.nan, -1.0],
                               "counts": [1, 1], "ridge": [0.1, 0.1]},
                  "every entry of labels must be finite"),
    "inf_ridge": ("logistic", {"data": [[1.0, 2.0], [0.5, -1.0]], "labels": [1.0, -1.0],
                               "counts": [1, 1], "ridge": [0.1, np.inf]},
                  "every entry of ridge must be finite"),
    # Unchecked, labels +-2 reported L = 0.225, the value for labels +-1, where
    # the curvature is 4 times that (L = 0.6); a label of 0 makes its row's
    # loss the constant log 2.
    "labels_two": ("logistic", {"data": np.eye(2), "labels": [2.0, -2.0], "counts": [2],
                                "ridge": [0.1]},
                   "every label must be -1 or \\+1"),
    "label_zero": ("logistic", {"data": [[1.0, 2.0], [0.5, -1.0]], "labels": [1.0, 0.0],
                                "counts": [1, 1], "ridge": [0.1, 0.1]},
                   "every label must be -1 or \\+1"),
    # Unchecked, numpy's LinAlgError: Singular matrix came out of solve_optimum.
    "singular_mean_hessian": ("quadratic", {"A": [[[1.0, 0.0], [0.0, 0.0]]], "b": [[0.0, 1.0]]},
                              "F has no unique minimizer"),
    # Unchecked, b outside the range gave a RuntimeError on the optimum's
    # residual, and b inside it one of infinitely many minimizers, silently.
    "rank_deficient_mean_hessian_b_outside_range": (
        "quadratic", {"A": [_RANK2], "b": [_Q[:, 2]]}, "F has no unique minimizer"),
    "rank_deficient_mean_hessian_b_in_range": (
        "quadratic", {"A": [_RANK2], "b": [_Q[:, 0] + 2.0 * _Q[:, 1]]},
        "F has no unique minimizer"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_STACKS))
def test_malformed_stacks_are_rejected(name):
    kind, stacks, message = MALFORMED_STACKS[name]
    build = quadratic_problem if kind == "quadratic" else logistic_problem
    with pytest.raises(ValueError, match=message):
        build(**stacks)
    arrays = {key: np.asarray(value) for key, value in stacks.items()}
    with pytest.raises(ValueError, match=message):
        ProblemInstance(kind, 1.0, 0.1, **arrays)


def test_quadratic_problem_rejects_an_agent_that_is_not_convex():
    # Unchecked, -I reported L = mu = -1.0 with x* = (1, 1), F's maximizer.
    for A in ([[[-1.0, 0.0], [0.0, -1.0]]], [3.0 * np.eye(2), np.diag([1.0, -1.0])],
              [np.diag([1e6, -1e-3]), np.eye(2)]):
        with pytest.raises(ValueError, match="every A_i must be positive semidefinite"):
            quadratic_problem(A, np.ones((len(A), 2)))
    # An eigenvalue that rounding puts below zero, within 1e-10 of the
    # largest, is kept, and so is a generated instance with mu = 0.
    prob = quadratic_problem([np.diag([1e6, -1e-5]), np.eye(2)], np.ones((2, 2)))
    assert prob.mu == -1e-5 and prob.L == 1e6
    generated = random_quadratic_problem(4, 3, mu=0.0, seed=2)
    assert quadratic_problem(generated.A, generated.b).L == pytest.approx(generated.L)


def test_directly_built_instance_carries_its_optimum_and_runs():
    prob = random_quadratic_problem(4, 3, mu=0.1, seed=5)
    direct = ProblemInstance("quadratic", prob.L, prob.mu, A=prob.A, b=prob.b)
    x_star, F_star = solve_optimum(direct)
    assert direct.x_star.tobytes() == x_star.tobytes() and direct.F_star == F_star
    assert direct.F_star == prob.F_star
    trace = run(AlgorithmConfig(variant="acc_gt_static", max_iterations=5), direct,
                GraphSchedule.static(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert np.isfinite(trace.column("gap")).all()


# ------------------------------------------------- stacked layer against per-agent loops

def loop_value(f, x):
    """f_(i)(x) for one agent's tuple, (A, b) or (data, labels, ridge), written
    out per sample."""
    if len(f) == 2:
        A, b = f
        return 0.5 * x @ A @ x + b @ x
    data, labels, ridge = f
    loss = sum(np.logaddexp(0.0, -lab * (row @ x)) for row, lab in zip(data, labels))
    return loss / len(labels) + 0.5 * ridge * (x @ x)


def loop_grad(f, x):
    if len(f) == 2:
        A, b = f
        return A @ x + b
    data, labels, ridge = f
    g = sum(-lab / (1.0 + np.exp(lab * (row @ x))) * row for row, lab in zip(data, labels))
    return g / len(labels) + ridge * x


def oracle_records(kind, rng):
    if kind == "quadratic":
        records = []
        for _ in range(5):
            M = rng.standard_normal((3, 3))
            records.append((M @ M.T + 0.1 * np.eye(3), rng.standard_normal(3)))
        return records
    # Unequal sample counts, a one-sample agent, and a different ridge per agent.
    return [(rng.standard_normal((p, 3)), np.where(rng.random(p) < 0.5, -1.0, 1.0), r)
            for p, r in ((1, 0.3), (7, 0.05), (2, 0.1), (12, 0.2), (4, 0.15))]


def stacked_problem(kind, records):
    """The builder's instance over per-agent tuples."""
    if kind == "quadratic":
        A, b = zip(*records)
        return quadratic_problem(np.stack(A), np.stack(b))
    data, labels, ridge = zip(*records)
    return logistic_problem(np.concatenate(data), np.concatenate(labels),
                            [len(y) for y in labels], ridge)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_stacked_layer_matches_per_agent_loops(kind, rng):
    records = oracle_records(kind, rng)
    prob = stacked_problem(kind, records)
    m = len(records)
    assert (prob.m, prob.n) == (m, 3)

    def F(x):
        return np.mean([loop_value(f, x) for f in records])

    for _ in range(5):
        y = rng.standard_normal((m, 3))
        x, ybar, w = rng.standard_normal(3), y.mean(axis=0), rng.standard_normal(3)
        X = rng.standard_normal((4, 3))
        grads = np.array([loop_grad(f, y[i]) for i, f in enumerate(records)])
        np.testing.assert_allclose(aggregate_gradient(prob, y), grads, rtol=1e-12)
        assert prob.value(w) == pytest.approx(F(w), rel=1e-12)
        np.testing.assert_allclose(prob.value_many(X), [F(row) for row in X], rtol=1e-12)
        np.testing.assert_allclose(prob.mean_gradient(w),
                                   np.mean([loop_grad(f, w) for f in records], axis=0),
                                   rtol=1e-12)
        breg = np.mean([loop_value(f, x) - loop_value(f, y[i]) - loop_grad(f, y[i]) @ (x - y[i])
                        for i, f in enumerate(records)])
        assert bregman_distance(prob, x, y) == pytest.approx(breg, rel=1e-12)
        fhat = np.mean([loop_value(f, y[i]) + loop_grad(f, y[i]) @ (ybar - y[i])
                        for i, f in enumerate(records)])
        assert inexact_value(prob, ybar, y) == pytest.approx(fhat, rel=1e-12)


# sha256 of the generated instance data, recorded from the per-agent generators
# this stacked layout replaced: quadratic A then b, logistic data then labels.
INSTANCE_PINS = {
    "quad_seed3": (lambda: random_quadratic_problem(6, 4, L=1.0, mu=0.0, seed=3),
                   "36a8ccb5ba09645bc414c2368a85eefe25bb9607f14c32cf20b738f6bff51591"),
    "quad_seed11_shared": (lambda: random_quadratic_problem(5, 3, L=2.0, mu=0.05, seed=11,
                                                            shared_basis=True),
                           "88fad48a4f54a2dc447539d0fed4773bca81cf75c1015cb21b235fc86db56817"),
    # Benchmark scale (cheb-torus-m196, mc-random-m20) and a larger shared
    # basis, recorded from the per-agent generator loop.
    "quad_m196_seed100": (lambda: random_quadratic_problem(196, 20, L=1.0, mu=0.0, seed=100),
                          "96af8ddf5f9e841917ac009534279d1d44453fee28337c4666b164d25002e59f"),
    "quad_m20_seed100": (lambda: random_quadratic_problem(20, 4, L=1.0, mu=0.0, seed=100),
                         "887b44248b83783dc435fedebc15d5db9e0d589dfd466b8950b8aaf9e6d7cbd2"),
    "quad_m50_seed3_shared": (lambda: random_quadratic_problem(50, 20, L=1.0, mu=0.0, seed=3,
                                                               shared_basis=True),
                              "848e1d8c018a110b8f6d2137d69f76c272a72fa4735bef430fd1b0953eb81476"),
    "logistic_seed6": (lambda: random_logistic_problem(4, 3, samples_per_agent=10, ridge=0.1,
                                                       seed=6),
                       "5349707d601b840e72ac684586652b590961ba655ed5702f8b99db392559329a"),
    "logistic_seed9": (lambda: random_logistic_problem(5, 2, samples_per_agent=7, ridge=0.05,
                                                       seed=9),
                       "f36c9c0c8a66c7c69a80ef35250623a259a45fb33abe5597d0a0a0ebb178750f"),
}
CONSTANT_PINS = {
    "quad_seed3": ("0x1.0000000000000p+0", "0x0.0p+0"),
    "quad_seed11_shared": ("0x1.0000000000000p+1", "0x1.999999999999ap-5"),
    "quad_m196_seed100": ("0x1.0000000000000p+0", "0x0.0p+0"),
    "quad_m20_seed100": ("0x1.0000000000000p+0", "0x0.0p+0"),
    "quad_m50_seed3_shared": ("0x1.0000000000000p+0", "0x0.0p+0"),
    "logistic_seed6": ("0x1.73195c80fdf1cp+0", "0x1.999999999999ap-4"),
    "logistic_seed9": ("0x1.38783be8a4addp+0", "0x1.999999999999ap-5"),
}


@pytest.mark.parametrize("name", sorted(INSTANCE_PINS))
def test_generated_instances_pinned_bitwise(name):
    make, digest = INSTANCE_PINS[name]
    prob = make()
    arrays = (prob.A, prob.b) if prob.kind == "quadratic" else (prob.data, prob.labels)
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    assert h.hexdigest() == digest
    assert (float(prob.L).hex(), float(prob.mu).hex()) == CONSTANT_PINS[name]


# sha256 of x_star's bytes and F_star at the sweep benchmark's shape (m = 30,
# n = 10, 30 samples per agent), keyed (ridge, seed), recorded from the optimum
# solve that took each mean gradient through (m, n) and (N, n) copies of the
# point.  Ridge 0.01 is the benchmark's (the solver's mu > 0 momentum); ridge 0
# takes the theta recursion and the separability test.
OPTIMUM_PINS = {
    (0.01, 0): ("a1bf0402f5ffe499b7ad44e6a1375a665e7554ff35758c1d8b95f4c532aeffd7",
                "0x1.8fbed8096b0a5p-3"),
    (0.01, 1): ("5346d1d849a3d0526c832f662008dc031e08f8a7d32575305b30e44dc4669917",
                "0x1.4a467dfb814fdp-3"),
    (0.01, 200): ("64e2089ef7e9c56b8feb5af2bb70f69f579c04e6dd24039730b47978c8364461",
                  "0x1.9c0ce7fa04273p-3"),
    (0.01, 201): ("9e957824d355cbfb0b88ccbbe71718c9f2522a11828d6e1fc30004320bd7149b",
                  "0x1.ac66c83e3b554p-3"),
    (0.01, 202): ("d6e0f3b5b62b243d2698ca11e8df824a0ec7da1df4885e21ed61c9e04c91e7f3",
                  "0x1.9770745a37007p-3"),
    (0.01, 203): ("792f04e450d9cb81a2a402595bbb932ba32a00cdc065efa427ca327feea4a061",
                  "0x1.69a854a0fc179p-3"),
    (0.0, 0): ("d22332bcae8854a6e5330afec16ef45ee984d8080286bf18604c6152aa50164c",
               "0x1.46eaeed11f5a4p-3"),
    (0.0, 1): ("cfd15bb553fe5e28e9a6813859b8fb9791dc2aa29a3e12ac6da05f54209ee7b3",
               "0x1.d797f6d007a2bp-4"),
}


@pytest.mark.parametrize("ridge, seed", sorted(OPTIMUM_PINS))
def test_logistic_optimum_pinned_bitwise(ridge, seed):
    prob = random_logistic_problem(30, 10, samples_per_agent=30, ridge=ridge, seed=seed)
    digest = hashlib.sha256(prob.x_star.tobytes()).hexdigest()
    assert (digest, float(prob.F_star).hex()) == OPTIMUM_PINS[ridge, seed]


def test_random_quadratic_agent_count_must_be_an_integer():
    # Once a TypeError from numpy's shape.
    with pytest.raises(ValueError, match="need at least one agent and one dimension"):
        random_quadratic_problem(2.5, 2)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16])
def test_random_logistic_takes_narrow_integer_sizes_as_python_ints(dtype):
    # m * samples_per_agent wrapped for np.int8(20) * np.int8(10).
    got = random_logistic_problem(dtype(20), dtype(3), samples_per_agent=dtype(10), seed=4)
    want = random_logistic_problem(20, 3, samples_per_agent=10, seed=4)
    for name in ("data", "labels", "counts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_random_logistic_sample_count_must_be_an_integer():
    with pytest.raises(ValueError, match="samples_per_agent must be an integer, got 2.5"):
        random_logistic_problem(2, 2, samples_per_agent=2.5)


@pytest.mark.parametrize("L,mu", [(float("inf"), 0.0), (float("inf"), float("inf"))])
def test_random_quadratic_rejects_a_non_finite_L(L, mu):
    # An infinite L passed the check, warned in the spectrum map and failed
    # later on a non-finite A.
    with pytest.raises(ValueError, match=r"need L > 0 and 0 <= mu <= L, both finite \(got L = inf"):
        random_quadratic_problem(2, 2, L=L, mu=mu)


@pytest.mark.parametrize("kind,stacks,stray", [
    # Once accepted and kept: a logistic instance holding NaN A and unread b.
    ("logistic", {"A": np.full((9, 9, 9), np.nan), "b": np.ones(4)}, "A, b"),
    ("quadratic", {"ridge": np.array([-1.0]), "counts": np.array([5])}, "counts, ridge"),
])
def test_instance_rejects_stacks_its_kind_never_reads(kind, stacks, stray):
    prob = random_logistic_problem(3, 2, seed=1) if kind == "logistic" \
        else random_quadratic_problem(3, 2, seed=1)
    own = {name: getattr(prob, name) for name in (
        ("data", "labels", "counts", "ridge") if kind == "logistic" else ("A", "b"))}
    with pytest.raises(ValueError, match=f"^a {kind} instance does not read {stray}$"):
        ProblemInstance(kind, prob.L, prob.mu, **own, **stacks)


@pytest.mark.parametrize("kind,stacks,name,got", [
    # Once a TypeError: "object of type 'NoneType' has no len()".
    ("logistic", {"data": np.ones((2, 2)), "labels": np.ones(2), "ridge": np.zeros(1)},
     "counts", "None"),
    # Once an AttributeError: "'list' object has no attribute 'shape'".
    ("quadratic", {"A": [[[1.0]]], "b": np.ones((1, 1))}, "A", "[[[1.0]]]"),
    # Once a TypeError: "len() of unsized object".
    ("quadratic", {"A": np.ones((1, 1, 1)), "b": np.array(1.0)}, "b", "array(1.)"),
    # Once accepted, with the imaginary parts dropped wherever F was evaluated.
    ("quadratic", {"A": np.ones((1, 1, 1), dtype=complex), "b": np.ones((1, 1))}, "A",
     "array([[[1.+0.j]]])"),
    # Once a TypeError from isfinite.
    ("logistic", {"data": np.ones((2, 2)), "labels": np.ones(2), "counts": np.array([2]),
                  "ridge": np.array(["0"])}, "ridge", "array(['0'], dtype='<U1')"),
], ids=["missing", "list", "0-d", "complex", "text"])
def test_instance_rejects_a_stack_of_its_kind_that_is_not_a_real_array(kind, stacks, name, got):
    message = (f"a {kind} instance needs {name} as a real numpy array of one or more axes, "
               f"got {got}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ProblemInstance(kind, 1.0, 0.0, **stacks)


def test_instances_compare_by_identity_and_hash():
    # == once compared the arrays field by field and raised "The truth value
    # of an array ... is ambiguous"; hash() raised TypeError.
    a, b = random_quadratic_problem(3, 2, seed=1), random_quadratic_problem(3, 2, seed=1)
    assert a == a and a != b and not (a == b)
    assert hash(a) == hash(a) and len({a, b, a}) == 2


@pytest.mark.parametrize("constants", [{"L": True}, {"mu": np.bool_(False)}, {"L": "1"},
                                       {"L": None}, {"L": 10 ** 400}],
                         ids=["bool-L", "numpy-bool-mu", "text-L", "none-L", "huge-int-L"])
def test_random_quadratic_constants_must_be_numbers(constants):
    # Bools were taken as 1 and 0; a string or None was a TypeError from the
    # comparisons.
    with pytest.raises(ValueError, match=r"need L > 0 and 0 <= mu <= L, both finite \(got L = "):
        random_quadratic_problem(3, 2, **constants)


def test_random_quadratic_rejects_an_L_whose_spectrum_map_overflows():
    # Under -W error::RuntimeWarning the overflow escaped as a RuntimeWarning;
    # otherwise it failed later on a non-finite A.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^L = 1e\+308 is too large: mapping the drawn "):
            random_quadratic_problem(3, 2, L=1e308)


@pytest.mark.parametrize("generate", [random_quadratic_problem, random_logistic_problem])
def test_generator_seed_must_be_an_integer(generate):
    # Once numpy's TypeError from default_rng.
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
        generate(3, 2, seed=1.5)


@pytest.mark.parametrize("ridge", [True, None, "0.1", 10 ** 400],
                         ids=["bool", "none", "text", "huge-int"])
def test_random_logistic_ridge_must_be_a_number(ridge):
    # True was taken as 1.0; None was a TypeError from float().
    with pytest.raises(ValueError, match="need ridge >= 0"):
        random_logistic_problem(3, 2, ridge=ridge)
