import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agtrack import (GraphSchedule, chebyshev_apply, graph,
                     chebyshev_operator, default_zeta, gossip,
                     metropolis_weights, multiple_consensus, sigma,
                     sigma_gamma)
from conftest import M9_EDGE_SETS, NARROW_INTS, narrow, path_edges, ring_edges
from reference_steps import chebyshev_apply_textbook


def demean(x):
    return x - x.mean(axis=0)


# ---------------------------------------------------------------- gossip

def test_gossip_identity_is_noop(rng):
    x = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(gossip(np.eye(4), x), x)


def test_gossip_projector_averages(rng):
    x = rng.standard_normal((5, 2))
    out = gossip(np.full((5, 5), 0.2), x)
    np.testing.assert_allclose(out, np.tile(x.mean(axis=0), (5, 1)), atol=1e-12)


def test_gossip_consensual_fixed(rng):
    W = metropolis_weights(ring_edges(6), 6)
    x = np.tile(rng.standard_normal(3), (6, 1))
    np.testing.assert_allclose(gossip(W, x), x, atol=1e-12)


def test_gossip_counts_one_round(rng):
    W = metropolis_weights(ring_edges(3), 3)
    x = rng.standard_normal((3, 2))
    np.testing.assert_array_equal(gossip(W, x), W @ x)


def test_gossip_shape_mismatch():
    with pytest.raises(ValueError):
        gossip(np.eye(3), np.zeros((4, 2)))


# ---------------------------------------------------------------- chebyshev

def test_chebyshev_rejects_asymmetric():
    W = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    with pytest.raises(ValueError):
        chebyshev_operator(W)


def test_chebyshev_rejects_t_below_one():
    W = metropolis_weights(ring_edges(5), 5)
    with pytest.raises(ValueError):
        chebyshev_operator(W, t=0)


def test_chebyshev_constants_ring10():
    op = chebyshev_operator(metropolis_weights(ring_edges(10), 10))
    sig = (3 + math.sqrt(5)) / 6
    assert op.t == 4
    assert op.nu == pytest.approx((1 - sig) / op.lambda1, rel=1e-12)
    assert op.c1 == pytest.approx((1 - math.sqrt(op.nu)) / (1 + math.sqrt(op.nu)), rel=1e-12)
    assert op.c2 == pytest.approx((1 + op.nu) / (1 - op.nu), rel=1e-12)
    assert op.c3 == pytest.approx(2 / (op.lambda1 + 1 - sig), rel=1e-12)
    assert 0.0 < op.nu <= 1.0 and 0.0 <= op.c1 < 1.0 and op.c2 > 1.0


def test_chebyshev_t1_is_damped_gossip(rng):
    W = metropolis_weights(ring_edges(8), 8)
    op = chebyshev_operator(W, t=1)
    x = rng.standard_normal((8, 3))
    expected = x - op.c3 * (x - W @ x)
    np.testing.assert_allclose(chebyshev_apply(op, x), expected, atol=1e-12)


def test_chebyshev_consensual_unchanged(rng):
    op = chebyshev_operator(metropolis_weights(ring_edges(10), 10))
    x = np.tile(rng.standard_normal(4), (10, 1))
    np.testing.assert_allclose(chebyshev_apply(op, x), x, atol=1e-10)


def test_chebyshev_preserves_column_means(rng):
    op = chebyshev_operator(metropolis_weights(ring_edges(10), 10))
    x = rng.standard_normal((10, 4))
    out = chebyshev_apply(op, x)
    np.testing.assert_allclose(out.mean(axis=0), x.mean(axis=0), atol=1e-10)


class CountingMatrix(np.ndarray):
    """A mixing matrix that counts its products: one per gossip round."""

    def __matmul__(self, other):
        self.products += 1
        return np.asarray(self) @ other


def test_chebyshev_counts_t_rounds(rng):
    op = chebyshev_operator(metropolis_weights(ring_edges(10), 10))
    W = op.base_matrix.view(CountingMatrix)
    W.products = 0
    chebyshev_apply(dataclasses.replace(op, base_matrix=W), rng.standard_normal((10, 2)))
    assert W.products == op.t == 4


def test_chebyshev_effective_matrix_norm_bound():
    # Explicit effective matrix: symmetric, and its disagreement-subspace
    # norm is within the closed-form envelope 2 c1^t / (1 + c1^(2t)).
    for m in (5, 10, 25):
        op = chebyshev_operator(metropolis_weights(ring_edges(m), m))
        E = chebyshev_apply(op, np.eye(m))
        np.testing.assert_allclose(E, E.T, atol=1e-12)
        eff = np.linalg.norm(E - np.full((m, m), 1.0 / m), 2)
        envelope = 2 * op.c1 ** op.t / (1 + op.c1 ** (2 * op.t))
        assert eff <= envelope + 1e-9


def test_chebyshev_bypass_on_exact_consensus(rng):
    # Complete-graph Metropolis is J/m: sigma = 0, so acceleration degenerates
    # and one plain gossip round is used instead.
    op = chebyshev_operator(metropolis_weights([(0, 1), (0, 2), (1, 2)], 3))
    assert op.bypass and op.t == 1
    x = rng.standard_normal((3, 2))
    out = chebyshev_apply(op, x)
    np.testing.assert_allclose(out, np.tile(x.mean(axis=0), (3, 1)), atol=1e-12)


def torus_edges(side):
    return [(r * side + c, r * side + (c + 1) % side) for r in range(side) for c in range(side)] \
        + [(r * side + c, ((r + 1) % side) * side + c) for r in range(side) for c in range(side)]


@pytest.mark.parametrize("m, edges, n, t", [
    (10, ring_edges(10), 3, None), (25, ring_edges(25), 1, None), (16, torus_edges(4), 5, 1),
    (16, torus_edges(4), 5, 2), (36, torus_edges(6), 4, 7), (7, path_edges(7), 2, 12),
    (3, [(0, 1), (0, 2), (1, 2)], 2, None)])  # the last one is the sigma = 0 bypass
def test_chebyshev_apply_is_bitwise_the_textbook_recurrence(rng, m, edges, n, t):
    op = chebyshev_operator(metropolis_weights(edges, m), t=t)
    assert op.bypass == (m == 3)
    x = rng.standard_normal((m, n))
    x.setflags(write=False)  # the in-place recurrence must only read its input
    before = x.copy()
    out = chebyshev_apply(op, x)
    expected = chebyshev_apply_textbook(op, x)
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
    assert x.tobytes() == before.tobytes() and not np.shares_memory(out, x)


def test_chebyshev_operator_takes_a_given_sigma_bitwise():
    W = metropolis_weights(torus_edges(5), 25)
    given_sigma = chebyshev_operator(W, sigma=sigma(W))
    assert dataclasses.astuple(given_sigma)[1:] == dataclasses.astuple(chebyshev_operator(W))[1:]


@pytest.mark.parametrize("m, edges", [(4, [(0, 1), (2, 3)]),
                                      (12, ring_edges(5) + [(5 + i, 5 + (i + 1) % 7) for i in range(7)])])
def test_chebyshev_operator_rejects_sigma_one(m, edges):
    # Both graphs are disconnected with sigma exactly 1.0, which ended in a
    # ZeroDivisionError.  When sigma rounds just below 1, only run()'s graph
    # search before the SVD can tell (tests/test_algorithms.py).
    W = metropolis_weights(edges, m)
    assert sigma(W) == 1.0
    with pytest.raises(ValueError, match="needs sigma < 1; the graph is not connected"):
        chebyshev_operator(W)


@pytest.mark.parametrize("given_sigma", [False, True])
def test_chebyshev_operator_rejects_a_disconnected_graph_before_any_decomposition(
        monkeypatch, given_sigma):
    # A 4-agent path plus an isolated agent: sigma rounds to 0.9999999999999998,
    # which gave t = 71,592,018 rounds per call.
    W = metropolis_weights(path_edges(4), 5)
    sig = sigma(W)
    assert sig == 0.9999999999999998

    def no_decomposition(*args, **kwargs):
        raise AssertionError("decomposed a disconnected graph's matrix")

    monkeypatch.setattr(np.linalg, "svd", no_decomposition)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_decomposition)
    with pytest.raises(ValueError, match="needs sigma < 1; the graph is not connected"):
        chebyshev_operator(W, sigma=sig if given_sigma else None)


# Each of these shapes reached the symmetry test, where numpy raised an
# IndexError, a broadcast error or a zero-size reduction error.
def test_chebyshev_operator_rejects_a_vector():
    with pytest.raises(ValueError, match=r"mixing matrix must be square, .* shape \(3,\)$"):
        chebyshev_operator(np.full(3, 1 / 3))


def test_chebyshev_operator_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match=r"mixing matrix must be square, .* shape \(2, 3\)$"):
        chebyshev_operator(np.full((2, 3), 1 / 3))


def test_chebyshev_operator_rejects_an_empty_matrix():
    with pytest.raises(ValueError, match=r"mixing matrix is empty \(shape \(0, 0\)\)"):
        chebyshev_operator(np.empty((0, 0)))


def test_chebyshev_operator_rejects_a_stack():
    stack = np.array([metropolis_weights(ring_edges(2), 2)] * 2)
    with pytest.raises(ValueError, match=r"mixing matrix must be square, .* shape \(2, 2, 2\)$"):
        chebyshev_operator(stack)


# ------------------------------------------------- multiple consensus

def test_default_zeta_examples():
    assert default_zeta(2, 0.5) == 4
    assert default_zeta(3, 0.761368718888694) == 13
    with pytest.raises(ValueError):
        default_zeta(2, 1.0)


@pytest.mark.parametrize("gamma", [True, 2.5, 0, None])
def test_default_zeta_rejects_a_gamma_that_is_not_a_positive_integer(gamma):
    # default_zeta(True, 0.5) used to return 2 and default_zeta(2.5, 0.5) 5.
    with pytest.raises(ValueError, match=f"gamma must be an integer at least 1, got {gamma!r}$"):
        default_zeta(gamma, 0.5)


@pytest.mark.parametrize("sig", [None, "0.5", True])
def test_default_zeta_rejects_a_sigma_gamma_that_is_not_a_number(sig):
    # default_zeta(2, None) used to raise TypeError.
    with pytest.raises(ValueError, match=f"sigma_gamma must be a number, got {sig!r}$"):
        default_zeta(2, sig)
    for out_of_range in (-0.1, 1.0, math.nan):
        with pytest.raises(ValueError, match=r"sigma_gamma must lie in \[0, 1\)$"):
            default_zeta(2, out_of_range)


def test_multiple_consensus_consensual_fixed(rng):
    sched = GraphSchedule.cyclic(9, M9_EDGE_SETS)
    x = np.tile(rng.standard_normal(3), (9, 1))
    out = multiple_consensus(sched, metropolis_weights, 0, 7, x)
    np.testing.assert_allclose(out, x, atol=1e-12)


def test_multiple_consensus_zeta1_is_gossip(rng):
    sched = GraphSchedule.cyclic(9, M9_EDGE_SETS)
    x = rng.standard_normal((9, 2))
    for k in range(4):
        out = multiple_consensus(sched, metropolis_weights, k, 1, x)
        W = metropolis_weights(sched.edge_set(k), 9)
        np.testing.assert_allclose(out, gossip(W, x), atol=1e-14)


def test_multiple_consensus_counter(rng, monkeypatch):
    # zeta = 13 rounds from round 2 chain exactly W^2, ..., W^14.
    sched = GraphSchedule.cyclic(9, M9_EDGE_SETS)
    x = rng.standard_normal((9, 2))
    expected = x
    for k in range(2, 15):
        expected = sched.matrix(k) @ expected
    requested, matrix = [], GraphSchedule.matrix
    monkeypatch.setattr(GraphSchedule, "matrix",
                        lambda self, k: requested.append(k) or matrix(self, k))
    out = multiple_consensus(sched, metropolis_weights, 2, 13, x)
    assert requested == list(range(2, 15))
    np.testing.assert_array_equal(out, expected)


def test_multiple_consensus_seeded_random_chains_the_per_instant_matrices(rng):
    # zeta = 150 rounds from round 5 cross three stacks of SPECTRAL_CHUNK instants.
    sched = GraphSchedule.seeded_random(8, 0.3, seed=4)
    x = rng.standard_normal((8, 3))
    expected = x
    for k in range(5, 155):
        expected = metropolis_weights(sched.edge_set(k), 8) @ expected
    out = multiple_consensus(GraphSchedule.seeded_random(8, 0.3, seed=4),
                             metropolis_weights, 5, 150, x)
    np.testing.assert_array_equal(out, expected)


# Starts and lengths across multiples of SPECTRAL_CHUNK, and across 2**32,
# where the draw key turns from a uint32 pair to a tuple.
@pytest.mark.parametrize("start,zeta", [(0, 64), (60, 7), (63, 1), (64, 64), (100, 200),
                                        (2 ** 32 - 70, 100), (2 ** 32 - 3, 5)])
def test_multiple_consensus_is_bitwise_the_matrix_chain_across_chunks(rng, start, zeta):
    sched = GraphSchedule.seeded_random(8, 0.3, seed=4)
    x = rng.standard_normal((8, 3))
    expected = x
    for k in range(start, start + zeta):
        expected = metropolis_weights(sched.edge_set(k), 8) @ expected
    out = multiple_consensus(GraphSchedule.seeded_random(8, 0.3, seed=4), None, start, zeta, x)
    assert out.tobytes() == expected.tobytes()


# A multiple-consensus round is one ndarray.dot, which numpy charges far less
# to call than @ on these sizes; both reach the same BLAS product, and these
# pins hold the premise on every numpy the package accepts.
@pytest.mark.parametrize("m", [1, 9, 16, 20, 64, 196])
def test_dot_is_bitwise_matmul_on_a_chunk_view(rng, m):
    # A read-only view into the schedule's kept chunk stack, as the rounds read W.
    W = GraphSchedule.seeded_random(m, min(1.0, 4 / m), 3).matrix(70)
    assert not W.flags.writeable and not W.flags.owndata
    for n in (1, 2, 4, 20):
        for x in (rng.standard_normal((m, n)),  # C order
                  np.asfortranarray(rng.standard_normal((m, n))),
                  rng.standard_normal((m, 2 * n))[:, ::2],  # strided columns
                  rng.standard_normal((2 * m, n))[::2]):  # strided rows
            assert W.dot(x).tobytes() == (W @ x).tobytes(), (m, n, x.strides)


@pytest.mark.parametrize("schedule, start, zeta", [
    (GraphSchedule.seeded_random(20, 0.1, 3), 40, 30),  # across a chunk boundary
    (GraphSchedule.seeded_random(20, 0.1, 3), graph.HORIZON - 20, 90),  # past HORIZON
    (GraphSchedule.cyclic(20, [[(i, (i + 1) % 20) for i in range(r, 20, 3)]
                               for r in range(3)]), 5, 30),
])
def test_multiple_consensus_is_bitwise_the_matmul_chain(rng, schedule, start, zeta):
    x = rng.standard_normal((20, 4))
    expected = x
    for k in range(start, start + zeta):
        expected = schedule.matrix(k) @ expected
    # A fresh copy of the schedule draws and builds its own chunks.
    out = multiple_consensus(dataclasses.replace(schedule), None, start, zeta, x)
    assert out.tobytes() == expected.tobytes()


def test_consecutive_multiple_consensus_calls_draw_each_round_once(rng, monkeypatch):
    # As the run loop calls it: zeta rounds per call from a moving round pointer.
    sched = GraphSchedule.seeded_random(8, 0.3, seed=4)
    u = expected = rng.standard_normal((8, 3))
    for k in range(300):
        expected = metropolis_weights(sched.edge_set(k), 8) @ expected
    drawn, chunk = [], GraphSchedule._chunk
    monkeypatch.setattr(GraphSchedule, "_chunk", lambda self, first: (
        drawn.append(first) or chunk(self, first)))
    for start in range(0, 300, 30):
        u = multiple_consensus(sched, None, start, 30, u)
    assert u.tobytes() == expected.tobytes()
    C = graph.SPECTRAL_CHUNK
    assert drawn == list(range(0, 300, C))


def test_multiple_consensus_memory_is_bounded_by_the_chunk(rng):
    m, zeta = 200, 300
    sched = GraphSchedule.seeded_random(m, 0.05, seed=2)
    x = rng.standard_normal((m, 2))
    matrix_bytes = m * m * 8
    tracemalloc.start()
    try:
        out = multiple_consensus(sched, None, 0, zeta, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (m, 2)
    # One stack of SPECTRAL_CHUNK matrices and the draws behind it, far below
    # zeta matrices.
    assert peak < 2 * graph.SPECTRAL_CHUNK * matrix_bytes
    assert peak < zeta * matrix_bytes / 2


def test_multiple_consensus_static_ring_contracts(rng):
    # zeta = ceil(1/(1-sigma)) on a static ring: disagreement shrinks to 1/e.
    sched = GraphSchedule.static(5, ring_edges(5))
    sig = sigma(metropolis_weights(ring_edges(5), 5))
    zeta = default_zeta(1, sig)
    for _ in range(20):
        x = rng.standard_normal((5, 3))
        out = multiple_consensus(sched, metropolis_weights, 0, zeta, x)
        assert np.linalg.norm(demean(out)) <= (1 / math.e) * np.linalg.norm(demean(x)) + 1e-9


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_multiple_consensus_tv_contracts(seed):
    sched = GraphSchedule.cyclic(9, M9_EDGE_SETS)
    zeta = default_zeta(3, sigma_gamma(sched, 3))
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, 6))
    x = rng.standard_normal((9, 3))
    out = multiple_consensus(sched, metropolis_weights, start, zeta, x)
    assert zeta == 13
    assert np.linalg.norm(demean(out)) <= (1 / math.e) * np.linalg.norm(demean(x)) + 1e-9


def test_multiple_consensus_rejects_zeta_zero(rng):
    sched = GraphSchedule.cyclic(9, M9_EDGE_SETS)
    with pytest.raises(ValueError):
        multiple_consensus(sched, metropolis_weights, 0, 0, rng.standard_normal((9, 2)))


@pytest.mark.parametrize("zeta", [True, 2.5])
def test_multiple_consensus_rejects_a_zeta_that_is_not_an_integer(rng, zeta):
    sched = GraphSchedule.cyclic(9, M9_EDGE_SETS)
    with pytest.raises(ValueError, match=f"zeta must be an integer at least 1, got {zeta!r}"):
        multiple_consensus(sched, None, 0, zeta, rng.standard_normal((9, 2)))


@pytest.mark.parametrize("start", [True, 2.0])
def test_multiple_consensus_rejects_a_start_round_that_is_not_an_integer(rng, start):
    # start_round True used to start at round 1 without a word.
    for sched in (GraphSchedule.cyclic(9, M9_EDGE_SETS), GraphSchedule.seeded_random(9, 0.4, 3)):
        with pytest.raises(ValueError, match=f"start_round must be an integer, got {start!r}$"):
            multiple_consensus(sched, None, start, 2, rng.standard_normal((9, 2)))


def test_chebyshev_bypass_performs_every_round_it_is_given(rng):
    J = np.full((4, 4), 0.25)
    x = rng.standard_normal((4, 2))
    assert chebyshev_operator(J).t == 1
    op = chebyshev_operator(J, t=5)
    assert op.bypass and op.t == 5
    np.testing.assert_allclose(chebyshev_apply(op, x), np.tile(x.mean(axis=0), (4, 1)), atol=1e-12)
    # Each of the t rounds gossips with the operator's matrix once.
    W = metropolis_weights(path_edges(4), 4)
    gossips = dataclasses.replace(op, base_matrix=W)
    expected = x
    for _ in range(5):
        expected = W @ expected
    assert chebyshev_apply(gossips, x).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", NARROW_INTS)
def test_multiple_consensus_takes_narrow_integers_as_python_ints(rng, dtype):
    # np.uint8(250) + 10 wrapped to 4, and the call returned x unmixed.
    sched = GraphSchedule.seeded_random(8, 0.3, seed=4)
    x = rng.standard_normal((8, 2))
    start = narrow(dtype)
    out = multiple_consensus(sched, None, start, dtype(10), x)
    assert out.tobytes() == multiple_consensus(sched, None, int(start), 10, x).tobytes()
    assert not np.array_equal(out, x)


def test_gossip_rejects_a_w_that_is_not_a_matrix():
    # Once an IndexError from W.shape[1].
    with pytest.raises(ValueError, match=r"W must be a matrix, got shape \(3,\)"):
        gossip(np.ones(3), np.ones((3, 2)))


@pytest.mark.parametrize("given", [-1.0, "x", True, float("nan")])
def test_chebyshev_operator_rejects_a_sigma_that_is_not_a_nonnegative_number(given):
    # -1.0 built an operator from it; "x" was a TypeError from the comparison.
    W = metropolis_weights(ring_edges(5), 5)
    with pytest.raises(ValueError, match=r"^sigma must be a number in \[0, 1\), got "):
        chebyshev_operator(W, sigma=given)


@pytest.mark.parametrize("W", [{}, [[10 ** 400]]], ids=["dict", "huge-int"])
def test_chebyshev_operator_rejects_a_w_that_is_not_a_real_array(W):
    # Once a TypeError and an OverflowError from np.asarray.
    with pytest.raises(ValueError, match=r"^mixing matrix must be a real \(m, m\) array, got "):
        chebyshev_operator(W)


def test_chebyshev_operator_rejects_an_infinite_entry_of_w():
    # Once a RuntimeWarning from inf - inf in the symmetry test.
    W = metropolis_weights(ring_edges(3), 3)
    W[0, 1] = W[1, 0] = np.inf
    with pytest.raises(ValueError, match="^mixing matrix has an infinite entry$"):
        chebyshev_operator(W)


def test_chebyshev_operator_rejects_a_given_sigma_that_does_not_fit_one_agent():
    # One agent's W = [[1]] has sigma 0 and bypasses; a given sigma of 0.5 was
    # a ZeroDivisionError from nu = (1 - sigma) / lambda1 with lambda1 = 0.
    assert chebyshev_operator([[1.0]]).bypass
    with pytest.raises(ValueError, match="^sigma = 0.5 does not fit W"):
        chebyshev_operator([[1.0]], sigma=0.5)


def test_default_zeta_rejects_a_gamma_past_the_float_range():
    # Once an OverflowError from gamma / (1 - sigma_gamma).
    with pytest.raises(ValueError, match="is too large"):
        default_zeta(10 ** 400, 0.5)
