import copy
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agtrack import (EdgeSet, GraphSchedule, NotGammaConnectedError, chebyshev_operator,
                     gamma_connectivity, graph, metropolis_weights, resolve_gamma, sigma,
                     sigma_gamma)
from conftest import M9_EDGE_SETS, path_edges, ring_edges
from reference_steps import gamma_connected_bfs, matrix_product_window, metropolis_weights_loop

J3 = np.full((3, 3), 1.0 / 3.0)


def random_edge_set(m, seed, p=0.4):
    rng = np.random.default_rng(seed)
    return [(i, j) for i in range(m) for j in range(i + 1, m)
            if rng.random() < p]


# ---------------------------------------------------------------- metropolis

def test_metropolis_complete_graph_m3():
    W = metropolis_weights([(0, 1), (0, 2), (1, 2)], 3)
    np.testing.assert_allclose(W, J3, atol=1e-15)


def test_metropolis_path_m3():
    W = metropolis_weights(path_edges(3), 3)
    expected = np.array([[2 / 3, 1 / 3, 0.0],
                         [1 / 3, 1 / 3, 1 / 3],
                         [0.0, 1 / 3, 2 / 3]])
    np.testing.assert_allclose(W, expected, atol=1e-15)


def test_metropolis_empty_edges_is_identity():
    W = metropolis_weights([], 4)
    np.testing.assert_allclose(W, np.eye(4), atol=0)


def test_metropolis_rejects_bad_input():
    with pytest.raises(ValueError):
        metropolis_weights([(0, 1)], 0)
    with pytest.raises(ValueError):
        metropolis_weights([(0, 5)], 3)
    with pytest.raises(ValueError):
        metropolis_weights([(1, 1)], 3)


@pytest.mark.parametrize("m", [True, 2.5, np.float64(3.0), "3", None])
def test_metropolis_rejects_an_agent_count_that_is_not_an_integer(m):
    # m = True used to report "out of range for True agents", m = 2.5 a TypeError.
    with pytest.raises(ValueError, match=rf"m must be an integer, got {re.escape(repr(m))}$"):
        metropolis_weights([(0, 1)], m)
    for bad in (0, np.int64(-2)):
        with pytest.raises(ValueError, match="m must be positive$"):
            metropolis_weights([(0, 1)], bad)
    assert metropolis_weights([(0, 1)], np.int64(2)).tobytes() == metropolis_weights(
        [(0, 1)], 2).tobytes()


def test_metropolis_dedups_orientation():
    a = metropolis_weights([(0, 1), (1, 0)], 3)
    b = metropolis_weights([(0, 1)], 3)
    np.testing.assert_array_equal(a, b)


@given(st.integers(2, 12), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_metropolis_invariants_random_graphs(m, seed):
    W = metropolis_weights(random_edge_set(m, seed), m)
    assert (W >= -1e-15).all()
    np.testing.assert_allclose(W, W.T, atol=1e-15)
    np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(W.sum(axis=0), 1.0, atol=1e-12)


def random_edge_sets(m, count, seed):
    """count EdgeSets over m agents, each empty, sparse or dense at random."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(m, 1)
    lists = []
    for p in rng.choice([0.0, 0.1, 0.5], size=count):
        keep = rng.random(len(iu)) < p
        lists.append(list(zip(iu[keep].tolist(), ju[keep].tolist())))
    return GraphSchedule.cyclic(m, lists).edge_sets


# 40 examples of up to 70 edge sets of 30 agents take about 0.2 s in all.
@given(st.integers(1, 30), st.integers(1, 70), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=1000)
def test_metropolis_stack_is_bitwise_the_single_builds(m, count, seed):
    sets = random_edge_sets(m, count, seed)
    want = np.stack([metropolis_weights(e, m) for e in sets])
    for form in (list(sets), tuple(sets)):
        got = metropolis_weights(form, m)
        assert got.shape == (count, m, m) and got.tobytes() == want.tobytes()


def test_metropolis_empty_list_and_lone_edge_set_keep_their_meaning():
    for empty in ([], ()):
        assert metropolis_weights(empty, 4).tobytes() == np.eye(4).tobytes()
    lone = GraphSchedule.static(4, path_edges(4)).edge_set(0)
    W = metropolis_weights(lone, 4)
    assert W.shape == (4, 4)
    assert W.tobytes() == metropolis_weights(path_edges(4), 4).tobytes()
    assert metropolis_weights([lone], 4).tobytes() == W.tobytes()


def test_metropolis_stack_checks_each_edge_set_as_a_lone_one():
    fits, wide = GraphSchedule.cyclic(5, [[(0, 1)], [(0, 4)]]).edge_sets
    with pytest.raises(ValueError) as single:
        metropolis_weights(wide, 3)
    assert str(single.value) == "edge (0, 4) out of range for 3 agents"
    with pytest.raises(ValueError, match=re.escape(str(single.value))):
        metropolis_weights([fits, wide], 3)
    for mixed in ([fits, (1, 2)], [(1, 2), fits], (fits, [(1, 2)])):
        with pytest.raises(ValueError, match=r"EdgeSets only, not \(i, j\) pairs$"):
            metropolis_weights(mixed, 3)


# ---------------------------------------------------------------- sigma

def test_sigma_of_projector_is_zero():
    assert sigma(J3) == pytest.approx(0.0, abs=1e-12)


def test_sigma_of_identity_is_one():
    assert sigma(np.eye(4)) == pytest.approx(1.0, abs=1e-12)


def test_sigma_path3_two_thirds():
    # Path-graph Metropolis eigenvalues are {1, 2/3, 0}.
    assert sigma(metropolis_weights(path_edges(3), 3)) == pytest.approx(2 / 3, abs=1e-12)


def test_sigma_ring10_closed_form():
    # Ring Metropolis: W = (I + C + C^T)/3, eigenvalues (1 + 2cos(2 pi j/10))/3.
    got = sigma(metropolis_weights(ring_edges(10), 10))
    assert got == pytest.approx((3 + math.sqrt(5)) / 6, abs=1e-12)


def test_sigma_rejects_non_doubly_stochastic():
    with pytest.raises(ValueError):
        sigma(np.array([[0.9, 0.0], [0.0, 0.9]]))


@pytest.mark.parametrize("rows", [False, True])
def test_sigma_rejects_a_stack_with_one_matrix_off_in_one_kind_of_sum(rows):
    # Matrix b, neither the first nor the highest-norm one, gets only its
    # column sums (rows=False) or only its row sums (rows=True) off by 1e-8:
    # +d, -d in one row keeps that row's sum and moves two column sums; in
    # one column, the reverse.
    sched = GraphSchedule.seeded_random(8, 0.3, 1)
    Ws = np.array([sched.matrix(k) for k in range(10)])
    norms = [sigma(W) for W in Ws]
    b = 1 + int(np.argmin(norms[1:]))
    assert b != int(np.argmax(norms))
    i, j = (1, 0) if rows else (0, 1)
    Ws[b, 0, 0] += 1e-8
    Ws[b, i, j] -= 1e-8
    ones = np.ones(8)
    off, kept = (Ws[b] @ ones, ones @ Ws[b]) if rows else (ones @ Ws[b], Ws[b] @ ones)
    assert np.abs(off - 1.0).max() > graph.DS_INPUT_TOL > np.abs(kept - 1.0).max()
    for stack in (Ws, Ws.reshape(2, 5, 8, 8)):
        with pytest.raises(ValueError, match="not doubly stochastic"):
            sigma(stack)
    assert sigma(np.delete(Ws, b, axis=0)) == max(sigma(W) for W in np.delete(Ws, b, axis=0))


def test_doubly_stochastic_check_keeps_its_tolerance():
    W = metropolis_weights(ring_edges(6), 6)
    graph._check_doubly_stochastic(W, graph.DS_BUILD_TOL)  # a built matrix is accepted
    near = W.copy()
    near[0, 0] += graph.DS_INPUT_TOL / 2
    assert sigma(near) == pytest.approx(sigma(W), abs=1e-8)
    assert sigma(np.array([W, near])) == pytest.approx(sigma(W), abs=1e-8)


@pytest.mark.parametrize("entry", [(0, 0), (2, 3)])
def test_sigma_rejects_a_nan_entry(entry):
    # Unchecked, the deviation NaN > tol read False and numpy's SVD raised
    # LinAlgError ("SVD did not converge"), for chebyshev_operator too.
    W = metropolis_weights(ring_edges(6), 6)
    W[entry] = W[entry[::-1]] = np.nan
    stack = np.array([metropolis_weights(ring_edges(6), 6)] * 3)
    stack[1] = W
    for bad in (W, stack):
        with pytest.raises(ValueError, match=r"not doubly stochastic \(.* deviation nan\)"):
            sigma(bad)
    with pytest.raises(ValueError, match="not doubly stochastic"):
        chebyshev_operator(W)


@pytest.mark.parametrize("shape", [(0, 3, 3), (0, 0), (2, 0, 0)])
def test_sigma_rejects_an_empty_stack_or_matrix(shape):
    # Unchecked, numpy raised "zero-size array to reduction operation maximum
    # which has no identity" or "cannot reshape array of size 0 into shape (0)".
    empty = rf"mixing matrix is empty \(shape {re.escape(str(shape))}\)"
    with pytest.raises(ValueError, match=empty):
        sigma(np.empty(shape))
    with pytest.raises(ValueError, match="mixing matrix must be square"):
        sigma(np.empty(shape[:-1] + (1,)))


@given(st.integers(2, 10), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_consensus_contraction_single_step(m, seed):
    # ||Pi W x|| <= sigma ||Pi x|| for any Metropolis W and any x.
    W = metropolis_weights(random_edge_set(m, seed), m)
    sig = sigma(W)
    x = np.random.default_rng(seed + 1).standard_normal((m, 3))
    pi = lambda v: v - v.mean(axis=0)
    assert np.linalg.norm(pi(W @ x)) <= sig * np.linalg.norm(pi(x)) + 1e-9


# ------------------------------------------------- matrix_product_window

def test_window_gamma0_is_identity(m9_schedule):
    W = matrix_product_window(m9_schedule, 5, 0)
    np.testing.assert_array_equal(W, np.eye(9))


def test_window_static_gamma2_is_square(ring10):
    W1 = metropolis_weights(ring_edges(10), 10)
    W2 = matrix_product_window(ring10, 1, 2)
    np.testing.assert_allclose(W2, W1 @ W1, atol=1e-15)


def test_window_alternating_order():
    # E^0 = {(0,1)}, E^1 = {(1,2)}: the window at k=1 is W^1 W^0, in that order.
    sched = GraphSchedule.cyclic(3, [[(0, 1)], [(1, 2)]])
    got = matrix_product_window(sched, 1, 2)
    expected = np.array([[0.5, 0.5, 0.0],
                         [0.25, 0.25, 0.5],
                         [0.25, 0.25, 0.5]])
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_window_rejects_short_history(m9_schedule):
    with pytest.raises(ValueError):
        matrix_product_window(m9_schedule, 1, 3)


# ------------------------------------------------- gamma_connectivity

def test_static_ring_gamma1_connected(ring10):
    assert gamma_connectivity(ring10, 1)


def test_alternating_pair_needs_gamma2():
    sched = GraphSchedule.cyclic(3, [[(0, 1)], [(1, 2)]])
    assert not gamma_connectivity(sched, 1)
    assert gamma_connectivity(sched, 2)


def test_empty_schedule_never_connected():
    sched = GraphSchedule.cyclic(4, [[], []])
    assert not gamma_connectivity(sched, 1)
    assert not gamma_connectivity(sched, 5)
    with pytest.raises(NotGammaConnectedError, match="not gamma-connected"):
        resolve_gamma(sched)


def test_m9_schedule_gamma3(m9_schedule):
    assert not gamma_connectivity(m9_schedule, 2)
    assert gamma_connectivity(m9_schedule, 3)


# ------------------------------------------------- sigma_gamma

def test_sigma_gamma_no_mixing_is_one():
    sched = GraphSchedule.cyclic(4, [[], [], []])
    report = sigma_gamma(sched, 3)
    assert report.sigma_gamma == pytest.approx(1.0, abs=1e-12)


def test_sigma_gamma_complete_static_is_zero():
    sched = GraphSchedule.static(3, [(0, 1), (0, 2), (1, 2)])
    report = sigma_gamma(sched, 1)
    assert report.sigma_gamma == pytest.approx(0.0, abs=1e-12)
    assert not report.is_estimate


def test_sigma_gamma_alternating_is_period_max():
    sched = GraphSchedule.cyclic(3, [[(0, 1)], [(1, 2)]])
    report = sigma_gamma(sched, 2)
    mats = [metropolis_weights(e, 3) for e in ([(0, 1)], [(1, 2)])]
    J = np.full((3, 3), 1 / 3)
    by_hand = max(np.linalg.norm(mats[1] @ mats[0] - J, 2),
                  np.linalg.norm(mats[0] @ mats[1] - J, 2))
    assert report.sigma_gamma == pytest.approx(by_hand, abs=1e-12)
    assert not report.is_estimate


def test_sigma_gamma_m9_frozen_value(m9_schedule):
    report = sigma_gamma(m9_schedule, 3)
    assert report.sigma_gamma == pytest.approx(0.761368718888694, abs=1e-12)
    assert report.gamma == 3
    assert not report.is_estimate


def test_sigma_gamma_static_monotone_in_gamma(ring10):
    values = [sigma_gamma(ring10, g).sigma_gamma for g in range(1, 6)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_sigma_gamma_seeded_random_is_estimate():
    sched = GraphSchedule.seeded_random(6, 0.5, seed=7)
    report = sigma_gamma(sched, 2, horizon=40)
    assert report.is_estimate
    assert 0.0 <= report.sigma_gamma <= 1.0


def test_sigma_gamma_rejects_horizon_below_gamma():
    sched = GraphSchedule.seeded_random(6, 0.5, seed=7)
    with pytest.raises(ValueError):
        sigma_gamma(sched, 4, horizon=2)


RING5_W = metropolis_weights(ring_edges(5), 5)
RANDOM6 = GraphSchedule.seeded_random(6, 0.5, seed=0)
M9 = GraphSchedule.cyclic(9, M9_EDGE_SETS)


@pytest.mark.parametrize("call,argument", [
    (lambda: chebyshev_operator(RING5_W, t=2.5), "t"),
    (lambda: chebyshev_operator(RING5_W, t=True), "t"),
    (lambda: gamma_connectivity(RANDOM6, True), "gamma"),
    (lambda: gamma_connectivity(RANDOM6, 2, horizon=40.0), "horizon"),
    (lambda: sigma_gamma(RANDOM6, 1, horizon=True), "horizon"),
    (lambda: sigma_gamma(RANDOM6, 2.5), "gamma"),
    (lambda: sigma_gamma(M9, 3, horizon=True), "horizon"),  # a periodic schedule too
], ids=["cheb-t-float", "cheb-t-bool", "connectivity-gamma-bool",
        "connectivity-horizon-float", "sigma-gamma-horizon-bool", "sigma-gamma-gamma-float",
        "sigma-gamma-periodic-horizon-bool"])
def test_integer_arguments_are_checked_not_truncated(call, argument):
    with pytest.raises(ValueError, match=f"^{argument} must be an integer"):
        call()


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_gamma_window_contraction_and_nonexpansion(seed):
    # ||Pi W^{k,gamma} x|| <= sigma_gamma ||Pi x||, and plain non-expansion
    # for partial windows 0 <= t < gamma.
    sched = GraphSchedule.cyclic(9, M9_EDGE_SETS)
    gamma = 3
    report = sigma_gamma(sched, gamma)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(gamma - 1, 12))
    x = rng.standard_normal((9, 4))
    pi = lambda v: v - v.mean(axis=0)
    full = matrix_product_window(sched, k, gamma)
    assert np.linalg.norm(pi(full @ x)) <= report.sigma_gamma * np.linalg.norm(pi(x)) + 1e-9
    for t in range(gamma):
        part = matrix_product_window(sched, k, t)
        assert np.linalg.norm(pi(part @ x)) <= np.linalg.norm(pi(x)) + 1e-9


# ------------------------------------------------- schedules

def test_seeded_random_schedule_reproducible():
    a = GraphSchedule.seeded_random(8, 0.3, seed=11)
    b = GraphSchedule.seeded_random(8, 0.3, seed=11)
    assert [a.edge_set(k) for k in range(10)] == [b.edge_set(k) for k in range(10)]
    c = GraphSchedule.seeded_random(8, 0.3, seed=12)
    assert any(a.edge_set(k) != c.edge_set(k) for k in range(10))


def test_schedule_periods(ring10, m9_schedule):
    assert ring10.period == 1
    assert m9_schedule.period == 3
    assert GraphSchedule.seeded_random(4, 0.5, seed=0).period is None
    assert m9_schedule.edge_set(5) == m9_schedule.edge_set(2)


# ------------------------------------------------- spectral constants, bit for bit

# (sigma, sigma_gamma) as float.hex, recorded from the implementation that
# rebuilt every W^k per use; caching the matrices must not change a bit.
# sigma is the single-step constant of the instants sigma_gamma reads.
SPECTRAL_PINS = {
    "ring10_gamma1": ("0x1.becfa67baa318p-1", "0x1.becfa67baa318p-1"),
    "ring10_gamma2": ("0x1.becfa67baa318p-1", "0x1.85ec1842c6a38p-1"),
    "m9_cyclic_gamma3": ("0x1.0000000000000p+0", "0x1.85d21ee7a6124p-1"),
    "random8_default_horizon": ("0x1.0000000000000p+0", "0x1.9594fe05ec2afp-1"),
}


@pytest.mark.parametrize("name", sorted(SPECTRAL_PINS))
def test_spectral_constants_pinned_bitwise(name):
    schedule, gamma = {
        "ring10_gamma1": (GraphSchedule.static(10, ring_edges(10)), 1),
        "ring10_gamma2": (GraphSchedule.static(10, ring_edges(10)), 2),
        "m9_cyclic_gamma3": (GraphSchedule.cyclic(9, M9_EDGE_SETS), 3),
        "random8_default_horizon": (GraphSchedule.seeded_random(8, 0.4, seed=5), None),
    }[name]
    if gamma is None:
        gamma = resolve_gamma(schedule)
        assert gamma == 3
    report = sigma_gamma(schedule, gamma)
    last = gamma - 1 + schedule.period if schedule.period else graph.HORIZON + 1
    single = sigma(np.stack([schedule.matrix(k) for k in range(gamma - 1, last)]))
    assert (single.hex(), report.sigma_gamma.hex()) == SPECTRAL_PINS[name]


# ------------------------------------------------- cached schedule matrices

def test_schedule_matrix_is_metropolis_of_its_edge_set():
    for sched in (GraphSchedule.cyclic(9, M9_EDGE_SETS),
                  GraphSchedule.seeded_random(8, 0.4, seed=5)):
        for k in range(7):
            np.testing.assert_array_equal(
                sched.matrix(k), metropolis_weights(sched.edge_set(k), sched.agent_count))


def test_schedule_matrix_is_read_only(m9_schedule):
    with pytest.raises(ValueError):
        m9_schedule.matrix(0)[0, 0] = 2.0
    with pytest.raises(ValueError):
        GraphSchedule.seeded_random(6, 0.5, seed=1).matrix(3)[1, 1] = 0.0


def test_schedule_matrix_rejects_negative_instant(m9_schedule):
    with pytest.raises(ValueError):
        m9_schedule.matrix(-1)
    sched = GraphSchedule.seeded_random(6, 0.5, seed=1)
    with pytest.raises(ValueError):
        sched.matrix(-1)
    sched.matrix(0)  # a kept chunk stack does not serve a negative instant
    with pytest.raises(ValueError, match="nonnegative"):
        sched.matrix(-1)


def instant_readers():
    """(name, schedule) of each kind, the seeded_random one both before and
    after its chunk of instants 0..SPECTRAL_CHUNK - 1 is stored and built."""
    stored = GraphSchedule.seeded_random(6, 0.5, seed=1)
    stored.matrix(2)
    return [("static", GraphSchedule.static(6, ring_edges(6))),
            ("cyclic", GraphSchedule.cyclic(9, M9_EDGE_SETS)),
            ("random unstored", GraphSchedule.seeded_random(6, 0.5, seed=1)),
            ("random stored", stored)]


@pytest.mark.parametrize("k", [2.5, 2.0, np.float64(1.0), True, False, np.True_, "2", None])
def test_instant_index_that_is_not_an_integer_is_rejected(k):
    # A seeded_random edge_set(True) used to read instant 1 and edge_set(2.5)
    # instant 2 while its chunk was unstored; a static schedule's edge_set(2.5)
    # raised TypeError.
    for name, sched in instant_readers():
        for read in (sched.edge_set, sched.matrix):
            with pytest.raises(ValueError,
                               match=rf"instant index must be an integer, got {re.escape(repr(k))}$"):
                read(k)
            with pytest.raises(ValueError, match="instant index must be nonnegative$"):
                read(np.int64(-1))
        assert sched.edge_set(np.int64(2)) == sched.edge_set(2), name
        assert sched.matrix(np.uint8(2)).tobytes() == sched.matrix(2).tobytes(), name


def test_periodic_schedule_builds_each_matrix_once(builds):
    sched = GraphSchedule.cyclic(9, M9_EDGE_SETS)
    for k in range(30):
        sched.matrix(k)
    assert builds[0] == 3
    assert sched.matrix(4) is sched.matrix(1)


def test_sigma_gamma_builds_each_instant_once_per_call(builds):
    # Its windows are built apart from matrix(k)'s store, which they leave empty.
    sched = GraphSchedule.cyclic(9, M9_EDGE_SETS)
    assert sigma_gamma(sched, 3).gamma == 3
    assert builds[0] == 5  # W^0 .. W^4, the windows ending at 2, 3 and 4
    builds[0] = 0
    sched = GraphSchedule.seeded_random(8, 0.4, seed=5)
    for gamma in (3, graph.MAX_GAMMA):  # a window of MAX_GAMMA spans chunks
        sigma_gamma(sched, gamma, horizon=300)
        assert builds[0] == 301  # W^0 .. W^300
        builds[0] = 0
    assert not sched._matrices


def test_sigma_gamma_builds_each_chunk_in_one_stacked_call(monkeypatch):
    calls = []
    original = graph.metropolis_weights

    def recording(edge_sets, m):
        calls.append(len(edge_sets))
        return original(edge_sets, m)

    monkeypatch.setattr(graph, "metropolis_weights", recording)
    sigma_gamma(GraphSchedule.cyclic(9, M9_EDGE_SETS), 3)
    assert calls == [5]  # W^0 .. W^4
    del calls[:]
    sigma_gamma(GraphSchedule.seeded_random(8, 0.4, seed=5), 3, horizon=300)
    assert calls == [2 + 64, 64, 64, 64, 43]  # the first chunk also holds gamma - 1 instants


def test_random_schedule_cache_is_bounded(monkeypatch):
    drawn, masks = [], GraphSchedule._masks
    monkeypatch.setattr(GraphSchedule, "_masks", lambda self, start, count: (
        drawn.append(start) or masks(self, start, count)))
    sched = GraphSchedule.seeded_random(8, 0.4, seed=5)
    C = graph.SPECTRAL_CHUNK
    for k in range(300):
        sched.matrix(k)
    # One stack of C instants, whatever was visited before it.
    assert drawn == list(range(0, 300, C))
    assert [Ws.shape for Ws in sched._matrices.values()] == [(C, 8, 8)]
    sched.matrix(0)  # dropped long ago: drawn again
    assert drawn[-1] == 0 and list(sched._matrices) == [0]


def test_matrix_cache_is_not_part_of_schedule_identity():
    used = GraphSchedule.seeded_random(8, 0.4, seed=5)
    used.matrix(3)
    fresh = GraphSchedule.seeded_random(8, 0.4, seed=5)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) and "_matrices" not in repr(used)


def test_gamma_connectivity_draws_each_instant_once_per_call(monkeypatch):
    draws, edge_sets = [], []
    masks, edge_set = GraphSchedule._masks, GraphSchedule.edge_set

    def counting_masks(self, start, count):
        draws.extend(range(start, start + count))
        return masks(self, start, count)

    def counting_edge_set(self, k):
        edge_sets.append(k)
        return edge_set(self, k)

    monkeypatch.setattr(GraphSchedule, "_masks", counting_masks)
    monkeypatch.setattr(GraphSchedule, "edge_set", counting_edge_set)
    assert gamma_connectivity(GraphSchedule.cyclic(9, M9_EDGE_SETS), 3)
    assert draws == edge_sets == [0, 1, 2, 3, 4]  # one period of window starts, windows of 3
    sched = GraphSchedule.seeded_random(8, 0.4, seed=5)
    horizon = 2 * graph.SPECTRAL_CHUNK + 20  # three chunks, the last one short
    for gamma in (3, 5):
        draws.clear()
        edge_sets.clear()
        assert gamma_connectivity(sched, gamma, horizon=horizon - 1)
        assert draws == list(range(horizon))
        assert edge_sets == []  # seeded_random instants are drawn in batches
    # A failing window ends the call within one chunk of the instants it covers.
    sparse = GraphSchedule.seeded_random(8, 0.02, seed=1)
    first_fail = next(h for h in range(1, 600) if not gamma_connected_bfs(sparse, 2, h))
    draws.clear()
    assert not gamma_connectivity(sparse, 2, horizon=599)
    assert draws == list(range(len(draws)))
    assert first_fail < len(draws) <= first_fail + graph.SPECTRAL_CHUNK


# ------------------------------------------------- array-native graph layer

# (m, p) shapes of the vectorized-builder check: small and large, sparse and
# dense, the complete graph, and the one-agent network.
BUILD_GRID = [(20, 0.1), (10, 0.3), (30, 0.15), (200, 0.05), (6, 0.5), (196, 0.02),
              (3, 1.0), (1, 0.5)]


@pytest.mark.parametrize("m,p", BUILD_GRID)
def test_metropolis_bit_identical_to_loop_builder(m, p):
    sched = GraphSchedule.seeded_random(m, p, seed=m)
    for k in range(100 if m < 100 else 20):
        edges = sched.edge_set(k)
        assert isinstance(edges, EdgeSet)
        W = metropolis_weights(edges, m)  # the EdgeSet's arrays, taken as they are
        assert W.tobytes() == metropolis_weights_loop(edges, m).tobytes()
        # a plain list of the same pairs goes through full validation
        assert W.tobytes() == metropolis_weights(list(edges), m).tobytes()


def test_metropolis_accepts_arrays_and_numpy_integers():
    edges = [(0, 1), (1, 2), (3, 2)]
    expected = metropolis_weights(edges, 4)
    for same in (np.array(edges), np.array(edges, dtype=np.int32),
                 [(np.int64(i), np.uint8(j)) for i, j in edges], iter(edges)):
        assert metropolis_weights(same, 4).tobytes() == expected.tobytes()


# Floats were once truncated: [(0, 1.9), (1, 2.2)] became ((0, 1), (1, 2)) and
# [(0.5, 2)] the edge (0, 2).
@pytest.mark.parametrize("edges", [[(0.5, 2)], [(0, 1.9), (1, 2.2)], [(0, 1.0)],
                                   [(True, 2)], [(0, np.True_)], np.array([[True, False]]),
                                   [(0, "1")], [(0, None)]])
def test_non_integer_endpoints_are_rejected(edges):
    with pytest.raises(ValueError, match="non-integer endpoint"):
        metropolis_weights(edges, 3)
    with pytest.raises(ValueError, match="non-integer endpoint"):
        GraphSchedule.static(3, edges)
    with pytest.raises(ValueError, match="non-integer endpoint"):
        GraphSchedule.cyclic(3, [[(0, 1)], edges])


def test_edges_must_be_pairs():
    for edges in ([(0, 1, 2)], [0, 1], [(0, 1), (2,)], 5):
        with pytest.raises(ValueError):
            metropolis_weights(edges, 3)
    with pytest.raises(ValueError, match="list of"):
        GraphSchedule.cyclic(3, [[(0, 1)], 5])


def test_edge_draws_share_one_read_only_pair_table():
    iu, ju = graph._upper_pairs(7)
    assert graph._upper_pairs(7)[0] is iu
    assert not iu.flags.writeable and not ju.flags.writeable
    np.testing.assert_array_equal(np.stack([iu, ju]), np.triu_indices(7, 1))


# ------------------------------------------------- EdgeSet, a validated value

def test_edge_set_is_the_canonical_tuple_with_read_only_arrays():
    sched = GraphSchedule.cyclic(5, [[(3, 1), (0, 4), (1, 3)], []])
    edges = sched.edge_set(0)
    assert isinstance(edges, EdgeSet) and isinstance(edges, tuple)
    assert edges == ((0, 4), (1, 3)) and hash(edges) == hash(((0, 4), (1, 3)))
    assert repr(edges) == "((0, 4), (1, 3))"
    assert edges.i.dtype == edges.j.dtype == np.intp
    assert edges.i.tolist() == [0, 1] and edges.j.tolist() == [4, 3]
    for arr in (edges.i, edges.j):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 2
    with pytest.raises(AttributeError):
        edges.i = np.array([1, 2])
    empty = sched.edge_set(1)
    assert empty == () and empty.i.shape == empty.j.shape == (0,)


def test_edge_set_survives_pickle_and_deepcopy():
    for edges in (GraphSchedule.seeded_random(12, 0.3, seed=4).edge_set(7),
                  GraphSchedule.static(3, []).edge_set(0)):
        for twin in (pickle.loads(pickle.dumps(edges)), copy.deepcopy(edges)):
            assert type(twin) is EdgeSet and twin == edges
            assert twin.i is not edges.i
            for got, want in ((twin.i, edges.i), (twin.j, edges.j)):
                assert got.dtype == np.intp and not got.flags.writeable
                np.testing.assert_array_equal(got, want)
    sched = GraphSchedule.cyclic(9, M9_EDGE_SETS)
    assert pickle.loads(pickle.dumps(sched)) == sched


@pytest.mark.parametrize("make", [lambda: GraphSchedule.seeded_random(60, 0.05, seed=3),
                                  lambda: GraphSchedule.cyclic(9, M9_EDGE_SETS)])
def test_schedule_pickles_and_copies_without_its_matrix_store(make):
    fresh_size = len(pickle.dumps(make()))
    sched = make()
    want = sched.matrix(5).copy()
    assert sched._matrices  # the store is filled ...
    assert len(pickle.dumps(sched)) == fresh_size  # ... but not pickled
    for twin in (pickle.loads(pickle.dumps(sched)), copy.deepcopy(sched)):
        assert twin == sched and not twin._matrices
        assert twin.matrix(5).tobytes() == want.tobytes()
        assert twin._matrices is not sched._matrices
    assert sched.matrix(5).tobytes() == want.tobytes()


def test_edge_set_for_fewer_agents_is_validated_in_full():
    edges = GraphSchedule.static(6, [(0, 5), (1, 2)]).edge_set(0)
    assert metropolis_weights(edges, 8).shape == (8, 8)  # more agents: taken as is
    with pytest.raises(ValueError, match=r"edge \(0, 5\) out of range for 5 agents"):
        metropolis_weights(edges, 5)
    with pytest.raises(ValueError, match="out of range for 4 agents"):
        GraphSchedule.static(4, edges)


def test_direct_construction_validates_edge_sets():
    # Once constructed as given: gamma_connectivity then saw the edge (0, 1).
    with pytest.raises(ValueError, match=r"edge \(0, 1\.5\) has a non-integer endpoint"):
        GraphSchedule(3, "cyclic", (((0, 1.5),), ((1, 2),)))
    with pytest.raises(ValueError, match="out of range"):
        GraphSchedule(3, "static", (((0, 3),),))
    sched = GraphSchedule(3, "cyclic", [[(1, 0)], [(2, 1), (1, 2)]])
    assert sched.edge_sets == (((0, 1),), ((1, 2),))
    assert all(type(e) is EdgeSet for e in sched.edge_sets)
    assert sched == GraphSchedule.cyclic(3, [[(0, 1)], [(1, 2)]])


@pytest.mark.parametrize("seed", [-1, True, 1.0, 2.5, None, "3"])
def test_seeded_random_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="non-negative integer seed"):
        GraphSchedule.seeded_random(4, 0.5, seed)


@pytest.mark.parametrize("count", [0, -3, True, np.True_, 2.0, 2.5, None, "4"])
def test_agent_count_must_be_an_integer_at_least_one(count):
    # A bool is no count, and a float one used to fail inside numpy with a TypeError.
    for build in (lambda: GraphSchedule.static(count, [(0, 1)]),
                  lambda: GraphSchedule.cyclic(count, [[(0, 1)], [(0, 1)]]),
                  lambda: GraphSchedule.seeded_random(count, 0.5, 0)):
        with pytest.raises(ValueError,
                           match=f"agent_count must be an integer at least 1, got {count!r}$"):
            build()
    assert GraphSchedule.seeded_random(np.int64(4), 0.5, 0).agent_count == 4


@pytest.mark.parametrize("p", [True, False, np.True_, None, -0.1, 1.5, math.nan])
def test_seeded_random_edge_probability_is_a_number_in_the_unit_interval(p):
    # True used to draw the complete graph and False the empty one.
    with pytest.raises(ValueError,
                       match=rf"requires edge_probability in \[0, 1\], got {re.escape(repr(p))}$"):
        GraphSchedule.seeded_random(4, p, 0)


@pytest.mark.parametrize("p", ["0.5", 0.5j, [0.5]])
def test_seeded_random_edge_probability_that_is_not_a_real_number_is_rejected(p):
    # These used to fail with TypeError: '<=' not supported.
    with pytest.raises(ValueError,
                       match=rf"requires edge_probability in \[0, 1\], got {re.escape(repr(p))}$"):
        GraphSchedule.seeded_random(4, p, 0)


def _tuple_key_draw(m, p, seed, k):
    """An instant drawn with the (seed, k) tuple key, as every draw once was."""
    iu, ju = np.triu_indices(m, 1)
    mask = np.random.default_rng((seed, k)).random(len(iu)) < p
    return tuple(zip(iu[mask].tolist(), ju[mask].tolist()))


def test_uint32_draw_key_gives_the_tuple_key_stream(monkeypatch):
    keys = []
    default_rng = np.random.default_rng

    def spy(key):
        keys.append(key)
        return default_rng(key)

    monkeypatch.setattr(graph.np.random, "default_rng", spy)
    iu, ju = np.triu_indices(9, 1)
    words = (0, 1, 2 ** 31, 2 ** 32 - 1)
    for seed in words + (np.uint32(7), np.int64(2 ** 31)):
        sched = GraphSchedule.seeded_random(9, 0.4, seed)
        for k in words:
            expected = _tuple_key_draw(9, 0.4, seed, k)
            assert sched.edge_set(k) == expected
            keys.clear()
            (row,) = sched._draw(k, 1)  # one row is batched too: no default_rng
            assert tuple(zip(iu[row].tolist(), ju[row].tolist())) == expected
            assert keys == []
    for seed, k in ((2 ** 32, 0), (0, 2 ** 32), (2 ** 40, 3), (5, 2 ** 40)):
        expected = _tuple_key_draw(9, 0.4, seed, k)
        sched = GraphSchedule.seeded_random(9, 0.4, seed)
        assert sched.edge_set(k) == expected
        keys.clear()
        (row,) = sched._draw(k, 1)
        assert tuple(zip(iu[row].tolist(), ju[row].tolist())) == expected
        assert keys == [(seed, k)]  # beyond one uint32 word: the tuple key


# (start, count) batches of the batched draw: from k = 0 over a chunk's length,
# up to k = 2**32 - 1, and one that straddles 2**32.
MASK_BATCHES = ((0, 70), (2 ** 32 - 40, 40), (2 ** 32 - 3, 6))


@pytest.mark.parametrize("seed", [0, 3, 2 ** 32 - 1])
@pytest.mark.parametrize("m,p", [(9, 0.4), (20, 0.1), (7, 0.0), (7, 1.0), (1, 0.5)])
def test_masks_rows_are_the_default_rng_draws(seed, m, p):
    sched = GraphSchedule.seeded_random(m, p, seed)
    pairs = m * (m - 1) // 2
    for start, count in MASK_BATCHES:
        masks = sched._masks(start, count)
        assert masks.shape == (count, pairs) and masks.dtype == bool
        for c, row in enumerate(masks):
            expected = np.random.default_rng((seed, start + c)).random(pairs) < p
            assert np.array_equal(row, expected), (start, c)


def test_masks_keep_the_tuple_key_from_2_32_on(monkeypatch):
    keys = []
    default_rng = np.random.default_rng

    def spy(key):
        keys.append(key)
        return default_rng(key)

    monkeypatch.setattr(graph.np.random, "default_rng", spy)
    sched = GraphSchedule.seeded_random(9, 0.4, 3)
    masks = sched._masks(2 ** 32 - 3, 6)
    assert keys == [(3, 2 ** 32 + c) for c in range(3)]  # the batch splits at 2**32
    iu, ju = np.triu_indices(9, 1)
    for c, row in enumerate(masks):
        assert tuple(zip(iu[row].tolist(), ju[row].tolist())) == _tuple_key_draw(
            9, 0.4, 3, 2 ** 32 - 3 + c)
    keys.clear()
    big = GraphSchedule.seeded_random(9, 0.4, 2 ** 40)
    first = big._masks(5, 3)
    # A seed beyond one word: its chunk is drawn once, key by key, and stored.
    assert keys == [(2 ** 40, k) for k in range(graph.SPECTRAL_CHUNK)]
    keys.clear()
    assert np.array_equal(big._masks(5, 3), first) and keys == []
    for c, row in enumerate(first):
        assert tuple(zip(iu[row].tolist(), ju[row].tolist())) == _tuple_key_draw(
            9, 0.4, 2 ** 40, 5 + c)


@pytest.mark.parametrize("seed", [0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3])
def test_draw_rows_are_the_default_rng_draws_across_2_32(seed):
    sched = GraphSchedule.seeded_random(9, 0.4, seed)
    for start, count in ((0, 3), (2 ** 32 - 3, 6)):  # the second straddles 2**32
        rows = sched._draw(start, count)
        assert rows.shape == (count, 36)
        for c, row in enumerate(rows):
            expected = np.random.default_rng((seed, start + c)).random(36) < 0.4
            assert np.array_equal(row, expected), (start, c)


@pytest.mark.parametrize("seed", [0, 3, 2 ** 31, 2 ** 32 - 1])
def test_seeding_words_give_the_default_rng_stream_bit_for_bit(seed):
    ks = np.array([0, 1, 63, 1000, 2 ** 31, 2 ** 32 - 1], dtype=np.uint32)
    words = graph._pcg64_states(seed, ks)
    assert words.dtype == np.uint64 and words.shape == (len(ks), 4)
    assert words.flags.c_contiguous
    seeds = graph._SeedWords(words)
    for k, row in zip(ks.tolist(), words):
        expected = np.random.SeedSequence([seed, k]).generate_state(4, np.uint64)
        assert row.tolist() == expected.tolist()
        u = np.random.Generator(np.random.PCG64(seeds)).random(50)
        assert u.tobytes() == np.random.default_rng((seed, k)).random(50).tobytes()


@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=70))
@settings(max_examples=200, deadline=1000)
def test_pcg64_states_are_seed_sequences_words_for_any_uint32_keys(seed, ks):
    words = graph._pcg64_states(seed, np.array(ks, dtype=np.uint32))
    assert words.shape == (len(ks), 4) and words.flags.c_contiguous
    for k, row in zip(ks, words):
        assert row.tolist() == np.random.SeedSequence([seed, k]).generate_state(
            4, np.uint64).tolist()


@given(st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64)),
       st.sampled_from([graph._STORED_STOP, 3 * graph._WORD_BLOCK, 2 ** 32 - graph._WORD_BLOCK,
                        2 ** 32]),
       st.integers(1, 70), st.integers(1, 70), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=1000)
def test_draw_is_the_default_rng_draw_across_any_edge(seed, edge, before, after, p):
    # The range starts before a block edge, the store's stop or 2**32 and ends after it.
    sched = GraphSchedule.seeded_random(6, p, seed)
    rows = sched._draw(edge - before, before + after)
    assert rows.shape == (before + after, 15)
    for k, row in enumerate(rows, edge - before):
        assert np.array_equal(row, np.random.default_rng((seed, k)).random(15) < p), k


@pytest.mark.parametrize("n_words,dtype", [(4, np.uint32), (8, np.uint32), (8, np.uint64),
                                           (2, np.uint64), (4, np.int64), (4, np.float64)])
def test_seed_words_serve_only_pcg64s_seeding_request(n_words, dtype):
    seeds = graph._SeedWords(graph._pcg64_states(3, np.arange(2, dtype=np.uint32)))
    with pytest.raises(ValueError, match="only PCG64's seeding request"):
        seeds.generate_state(n_words, dtype)


def test_seed_words_seed_no_other_bit_generator_and_check_their_layout():
    words = graph._pcg64_states(3, np.arange(4, dtype=np.uint32))
    for bitgen in (np.random.MT19937, np.random.SFC64):  # 624 uint32 / 3 uint64 words
        with pytest.raises(ValueError, match="only PCG64's seeding request"):
            bitgen(graph._SeedWords(words))
    for bad in (words.astype(np.uint32), words[:, :2], words.T.copy().T, words[0]):
        with pytest.raises(ValueError, match=r"C-contiguous \(n, 4\) uint64"):
            graph._SeedWords(bad)


@pytest.mark.parametrize("k", [70, graph._STORED_STOP + 5])
def test_a_pair_whose_uniform_equals_p_is_not_an_edge(k):
    # The edge rule is u < p, strictly: with p set to one of instant k's own
    # uniforms, that pair stays out, whether k is read from the mask store or
    # drawn past it.
    m, seed = 9, 4
    u = np.random.default_rng((seed, k)).random(36)
    pair = int(np.argsort(u)[18])  # a middle uniform, so both sides hold pairs
    sched = GraphSchedule.seeded_random(m, float(u[pair]), seed)
    masks = sched._masks(k - 1, 3)
    assert (k < graph._STORED_STOP) == bool(sched._mask_chunks)
    iu, ju = graph._upper_pairs(m)
    edge = (int(iu[pair]), int(ju[pair]))
    for row in (masks[1], sched._draw(k, 1)[0]):
        assert not row[pair] and np.array_equal(row, u < u[pair]) and row.sum() == 18
    assert edge not in sched.edge_set(k) and len(sched.edge_set(k)) == 18
    assert sched.matrix(k)[edge] == 0.0


def test_masks_of_a_periodic_schedule_mark_its_edge_sets():
    sched = GraphSchedule.cyclic(9, M9_EDGE_SETS)
    iu, ju = np.triu_indices(9, 1)
    masks = sched._masks(2, 5)
    for c, row in enumerate(masks):
        assert tuple(zip(iu[row].tolist(), ju[row].tolist())) == sched.edge_set(2 + c)


# ------------------------------------------------- chunk stacks of W^k

# Instants around 2**32: the draw key is one uint32 pair below it, a tuple from it on.
KEY_EDGE = 2 ** 32 - 2


# The stack a seeded_random schedule draws in one batch and builds in one
# Metropolis pass serves matrix(k) bitwise as the per-instant build.
@pytest.mark.parametrize("m,p", BUILD_GRID + [(12, 0.0), (12, 1.0), (1, 0.0)])
def test_matrices_stack_is_bitwise_the_per_instant_matrices(m, p):
    sched = GraphSchedule.seeded_random(m, p, seed=m)
    for start, count in ((0, 70 if m < 100 else 12), (KEY_EDGE, 4)):
        for k in range(start, start + count):
            W = sched.matrix(k)
            assert W.shape == (m, m)
            assert W.tobytes() == metropolis_weights(sched.edge_set(k), m).tobytes(), k


def test_matrices_inside_a_chunk_are_slices_of_one_kept_stack(monkeypatch):
    drawn, masks = [], GraphSchedule._masks
    monkeypatch.setattr(GraphSchedule, "_masks", lambda self, start, count: (
        drawn.append((start, count)) or masks(self, start, count)))
    sched = GraphSchedule.seeded_random(8, 0.4, seed=5)
    C = graph.SPECTRAL_CHUNK
    instants = [3, 13, C - 1, 0, C + 5, KEY_EDGE - 4, KEY_EDGE + 2]
    views = [sched.matrix(k) for k in instants]
    # One aligned chunk per run of instants, drawn whole; the old one is dropped.
    assert drawn == [(0, C), (C, C), (KEY_EDGE + 2 - C, C), (KEY_EDGE + 2, C)]
    assert list(sched._matrices) == [KEY_EDGE + 2]
    assert all(W.base is views[0].base for W in views[1:4])
    for k, W in zip(instants, views):
        assert not W.flags.writeable
        with pytest.raises(ValueError):
            W[0, 0] = 0.5
        assert W.tobytes() == metropolis_weights(sched.edge_set(k), 8).tobytes(), k


def test_matrices_stack_is_read_only_and_leaves_the_cache_alone(builds):
    sched = GraphSchedule.seeded_random(8, 0.4, seed=5)
    Ws = [sched.matrix(k) for k in range(3, 8)]
    assert all(W.base is Ws[0].base and not W.base.flags.writeable for W in Ws)
    with pytest.raises(ValueError):
        Ws[0].base[0, 0, 0] = 0.5
    # The chunk is built without a metropolis_weights call per instant, and
    # edge_set draws of other instants leave the one kept stack as it is.
    assert builds[0] == 0 and list(sched._matrices) == [0]
    sched.edge_set(graph.SPECTRAL_CHUNK + 1)
    assert list(sched._matrices) == [0] and sched._matrices[0] is Ws[0].base
    assert not GraphSchedule.cyclic(9, M9_EDGE_SETS).matrix(0).flags.writeable


def test_matrices_rejects_negative_instant_and_empty_count():
    for sched in (GraphSchedule.seeded_random(6, 0.5, seed=1), GraphSchedule.cyclic(9, M9_EDGE_SETS)):
        with pytest.raises(ValueError, match="nonnegative"):
            sched.matrix(-1)
        assert not sched._matrices  # a rejected instant draws and keeps nothing
        with pytest.raises(ValueError, match="nonnegative"):
            matrix_product_window(sched, 0, -1)
        # An empty window is the identity and builds no matrix.
        assert np.array_equal(matrix_product_window(sched, 0, 0), np.eye(sched.agent_count))
        assert not sched._matrices


def _connectivity_schedules():
    yield "m9", GraphSchedule.cyclic(9, M9_EDGE_SETS)
    yield "alternating", GraphSchedule.cyclic(3, [[(0, 1)], [(1, 2)]])
    yield "split", GraphSchedule.cyclic(6, [[(0, 1), (1, 2)], [(3, 4), (4, 5)], [(2, 0)]])
    yield "ring", GraphSchedule.static(10, ring_edges(10))
    yield "single", GraphSchedule.static(1, [])
    for m, p, seed in ((8, 0.4, 5), (8, 0.02, 1), (12, 0.12, 3), (20, 0.1, 3), (5, 0.0, 0),
                       (2, 0.5, 891)):
        yield f"random{m}_{p}_{seed}", GraphSchedule.seeded_random(m, p, seed)


@pytest.mark.parametrize("name,sched", list(_connectivity_schedules()))
def test_gamma_connectivity_matches_bfs_reference(name, sched):
    verdicts = []
    for gamma in (1, 2, 3, 4, 6):
        horizon = gamma + sched.period - 2 if sched.period else 80
        got = gamma_connectivity(sched, gamma, horizon=horizon)
        assert got == gamma_connected_bfs(sched, gamma, horizon), gamma
        verdicts.append(got)
    if name in ("split", "random8_0.02_1", "random5_0.0_0"):  # the disconnected verdict is covered
        assert not any(verdicts[:2])
    if name == "random2_0.5_891":  # its only disconnected window of 8 ends at instant 1000
        for horizon in (graph.HORIZON - 1, graph.HORIZON):
            got = gamma_connectivity(sched, 8, horizon=horizon)
            assert got == gamma_connected_bfs(sched, 8, horizon) == (horizon < graph.HORIZON)


# Seeded-random schedules and gammas, with the end of the first disconnected
# window below 3 * SPECTRAL_CHUNK + 11: in each chunk, or none; two gammas are
# longer than a chunk.  The last one's only disconnected window ends at the
# default horizon, and is checked at that horizon and the one before.
@pytest.mark.parametrize("m,p,seed,gamma", [
    (12, 0.12, 3, 4),  # 46
    (2, 0.5, 891, 5),  # 87
    (20, 0.1, 3, 4),  # 71
    (10, 0.2, 3, 3),  # 108
    (6, 0.01, 1, 70),  # 190
    (2, 0.5, 891, 7), (20, 0.1, 3, 6), (6, 0.3, 1, 70),  # none
    (2, 0.5, 891, 8)])  # 1000
def test_batched_gamma_connectivity_matches_bfs_across_chunks(m, p, seed, gamma):
    sched = GraphSchedule.seeded_random(m, p, seed)
    horizon = 3 * graph.SPECTRAL_CHUNK + 10
    last_window = (graph.HORIZON - 1, graph.HORIZON) if (m, seed, gamma) == (2, 891, 8) else ()
    for h in (gamma - 1, graph.SPECTRAL_CHUNK, horizon) + last_window:
        if h >= gamma - 1:
            assert gamma_connectivity(sched, gamma, horizon=h) == gamma_connected_bfs(
                sched, gamma, h), h


def test_window_unions_are_the_or_of_each_window():
    masks = np.random.default_rng(0).random((40, 7)) < 0.2
    for gamma in range(1, 41):
        expected = [masks[s:s + gamma].any(axis=0) for s in range(41 - gamma)]
        assert np.array_equal(graph._window_unions(masks, gamma), expected), gamma


def test_connectivity_horizon_covers_the_last_instant_sigma_gamma_reads():
    # Instants 993..1000 have no edge, and every earlier window of 8 has one:
    # the only disconnected window of 8 ends at instant 1000.
    sched = GraphSchedule.seeded_random(2, 0.5, 891)
    assert gamma_connectivity(sched, 8, horizon=graph.HORIZON - 1)  # instants 0..999
    assert not gamma_connectivity(sched, 8)
    assert gamma_connectivity(sched, 9)
    assert resolve_gamma(sched) == 9
    assert sigma_gamma(sched, 9).sigma_gamma < 1.0


@pytest.fixture
def reads(monkeypatch):
    """The instants each walk reads: gamma_connectivity's through
    GraphSchedule._masks, sigma_gamma's through GraphSchedule.edge_set."""
    seen = {"masks": [], "edge_set": []}
    masks, edge_set = GraphSchedule._masks, GraphSchedule.edge_set

    def reading_masks(self, start, count):
        seen["masks"].extend(range(start, start + count))
        return masks(self, start, count)

    def reading_edge_set(self, k):
        seen["edge_set"].append(k)
        return edge_set(self, k)

    monkeypatch.setattr(GraphSchedule, "_masks", reading_masks)
    monkeypatch.setattr(GraphSchedule, "edge_set", reading_edge_set)
    return seen


def walk_reads(reads, sched, gamma, horizon):
    """The instants gamma_connectivity and sigma_gamma read, each in one call."""
    reads["masks"].clear()
    assert gamma_connectivity(sched, gamma, horizon=horizon)
    connectivity = list(reads["masks"])
    reads["edge_set"].clear()
    sigma_gamma(sched, gamma, horizon=horizon)
    return connectivity, list(reads["edge_set"])


@pytest.mark.parametrize("gamma", [1, 3, 70])
def test_both_walks_read_the_same_instants(reads, gamma):
    sched = GraphSchedule.seeded_random(6, 0.8, seed=0)  # connected at every instant
    C = graph.SPECTRAL_CHUNK
    for horizon in (gamma - 1, C - 1, C, 2 * C + 5):
        if horizon >= gamma - 1:
            assert walk_reads(reads, sched, gamma, horizon) == ([*range(horizon + 1)],) * 2, horizon
    # A periodic schedule reads one period of windows, whatever the horizon.
    for periodic, g in ((GraphSchedule.cyclic(9, M9_EDGE_SETS), 3),
                         (GraphSchedule.static(10, ring_edges(10)), gamma)):
        for horizon in (None, 0, g + periodic.period, 2 * C + 5):
            expected = [*range(g + periodic.period - 1)]
            assert walk_reads(reads, periodic, g, horizon) == (expected, expected), horizon


@pytest.mark.parametrize("gamma", [1, 3, 70])
def test_shortest_horizon_is_one_window_in_both_walks(monkeypatch, gamma):
    sched = GraphSchedule.seeded_random(6, 0.8, seed=0)
    stacks, svd_max = [], graph.sigma
    monkeypatch.setattr(graph, "sigma", lambda W: stacks.append(len(W)) or svd_max(W))
    report = sigma_gamma(sched, gamma, horizon=gamma - 1)
    window = matrix_product_window(sched, gamma - 1, gamma)
    J = np.full((6, 6), 1 / 6)
    assert stacks == [1]
    assert report.sigma_gamma == min(np.linalg.svd(window - J, compute_uv=False).max(), 1.0)
    assert report.is_estimate
    sparse = GraphSchedule.seeded_random(8, 0.02, seed=1)  # its first window is disconnected
    for s in (sched, sparse):
        assert gamma_connectivity(s, gamma, horizon=gamma - 1) == gamma_connected_bfs(
            s, gamma, gamma - 1)
    # A horizon below gamma - 1 holds no window: both walks reject it alike.
    errors = []
    for walk in (gamma_connectivity, sigma_gamma):
        with pytest.raises(ValueError, match="horizon must be at least gamma - 1") as error:
            walk(sched, gamma, horizon=gamma - 2)
        errors.append(str(error.value))
    assert errors[0] == errors[1]


def test_sigma_of_stack_is_max_of_each():
    sched = GraphSchedule.seeded_random(12, 0.3, seed=4)
    mats = np.stack([sched.matrix(k) for k in range(40)])
    each = [sigma(W) for W in mats]
    assert sigma(mats) == max(each)
    assert sigma(mats.reshape(4, 10, 12, 12)) == max(each)
    assert sigma(mats[:1]) == each[0]
    with pytest.raises(ValueError):
        sigma(np.concatenate([mats, 0.9 * np.eye(12)[None]]))


def one_svd_sigma(stack):
    """sigma as one SVD of the whole stack, clipped as sigma clips."""
    m = stack.shape[-1]
    val = np.linalg.svd(stack - np.ones((m, m)) / m, compute_uv=False).max()
    return float(min(max(val, 0.0), 1.0))


def window_stack(sched, gamma, count=70):
    return np.stack([matrix_product_window(sched, k, gamma)
                     for k in range(gamma - 1, gamma - 1 + count)])


SCREEN_SCHEDULES = {  # (constructor, args): each test builds its own schedule
    "m9-cyclic": (GraphSchedule.cyclic, (9, M9_EDGE_SETS)),
    "ring10-path10": (GraphSchedule.cyclic, (10, [ring_edges(10), path_edges(10), [(0, 5)]])),
    "random-m10": (GraphSchedule.seeded_random, (10, 0.3, 2)),
    "random-m20": (GraphSchedule.seeded_random, (20, 0.1, 3)),
    "random-m50": (GraphSchedule.seeded_random, (50, 0.08, 3)),
}


def screen_schedule(name):
    make, args = SCREEN_SCHEDULES[name]
    return make(*args)


@pytest.mark.parametrize("gamma", range(1, 7))
@pytest.mark.parametrize("name", SCREEN_SCHEDULES)
def test_screened_sigma_of_windows_is_bitwise_one_svd(name, gamma):
    stack = window_stack(screen_schedule(name), gamma)
    assert sigma(stack).hex() == one_svd_sigma(stack).hex()


def test_screened_sigma_of_tied_and_disconnected_stacks():
    W = metropolis_weights(ring_edges(12), 12)
    tied = np.stack([W] * 9)
    assert sigma(tied).hex() == one_svd_sigma(tied).hex() == sigma(W).hex()
    windows = window_stack(GraphSchedule.seeded_random(12, 0.4, seed=5), 3, count=30)
    assert sigma(windows) < 1.0
    # One window of two components (norm 1) among connected ones.
    split = np.insert(windows, 17, metropolis_weights(path_edges(6) + [(6, 7)], 12), axis=0)
    assert sigma(split) == one_svd_sigma(split) == 1.0
    batched = window_stack(GraphSchedule.seeded_random(12, 0.3, seed=4), 2, count=40)
    assert sigma(batched.reshape(4, 10, 12, 12)).hex() == one_svd_sigma(batched).hex()


@pytest.fixture
def svd_sizes(monkeypatch):
    """The number of matrices each np.linalg.svd call decomposes."""
    sizes, svd = [], np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        sizes.append(1 if a.ndim == 2 else len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return sizes


@pytest.mark.parametrize("name", SCREEN_SCHEDULES)
def test_screened_sigma_takes_at_most_two_svds(svd_sizes, name):
    for gamma in range(1, 7):
        stack = window_stack(screen_schedule(name), gamma)
        svd_sizes.clear()
        sigma(stack)
        assert 1 <= len(svd_sizes) <= 2 and sum(svd_sizes) <= len(stack), gamma
    svd_sizes.clear()
    sigma(stack[0])
    sigma(stack[:1])
    assert svd_sizes == [1, 1]


def test_screen_decomposes_few_windows_of_the_benchmark_schedule(svd_sizes):
    # The multiple-consensus benchmark's schedule at its gamma: the bound
    # leaves few of a chunk's windows to decompose.
    stack = window_stack(GraphSchedule.seeded_random(20, 0.1, seed=3), 6, count=64)
    expected = one_svd_sigma(stack)
    svd_sizes.clear()
    assert sigma(stack).hex() == expected.hex()
    assert sum(svd_sizes) < 8


def test_sigma_gamma_matches_windowwise_products():
    sched = GraphSchedule.seeded_random(10, 0.3, seed=2)
    gamma, horizon = 3, 2 * graph.SPECTRAL_CHUNK + 5  # three chunks, the last one short
    report = sigma_gamma(sched, gamma, horizon=horizon)
    J = np.full((10, 10), 0.1)
    windows = [np.linalg.norm(matrix_product_window(sched, k, gamma) - J, 2)
               for k in range(gamma - 1, horizon + 1)]
    assert report.sigma_gamma == min(max(windows), 1.0)


@pytest.mark.parametrize("gamma", [1, 3])
def test_sigma_gamma_takes_one_svd_stack_per_chunk(monkeypatch, gamma):
    stacks, svd_max = [], graph.sigma
    monkeypatch.setattr(graph, "sigma", lambda W: stacks.append(len(W)) or svd_max(W))
    sched = GraphSchedule.seeded_random(10, 0.3, seed=2)
    horizon = 2 * graph.SPECTRAL_CHUNK + 5
    sigma_gamma(sched, gamma, horizon=horizon)
    windows = horizon + 2 - gamma  # the windows ending at gamma - 1, ..., horizon
    C = graph.SPECTRAL_CHUNK
    assert stacks == [C, C, windows - 2 * C]


def test_sigma_gamma_of_benchmark_schedule_pinned_bitwise():
    # The multiple-consensus benchmark's schedule; recorded when sigma_gamma
    # took one window and one SVD at a time.
    sched = GraphSchedule.seeded_random(20, 0.1, seed=3)
    report = sigma_gamma(sched, 6)
    single = sigma(np.stack([sched.matrix(k) for k in range(5, graph.HORIZON + 1)]))
    assert (single.hex(), report.sigma_gamma.hex()) == (
        "0x1.0000000000000p+0", "0x1.987dde36307b0p-1")
    assert report.is_estimate


def test_sigma_gamma_memory_is_bounded_by_the_chunk():
    m, horizon = 200, 1000
    sched = GraphSchedule.seeded_random(m, 0.01, seed=1)
    matrix_bytes = m * m * 8
    tracemalloc.start()
    try:
        report = sigma_gamma(sched, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.is_estimate and 0.0 < report.sigma_gamma <= 1.0
    # A few chunk-sized stacks (the window buffer and what the SVD takes),
    # far below the horizon's worth of matrices.
    assert peak < 4 * graph.SPECTRAL_CHUNK * matrix_bytes
    assert peak < (horizon + 1) * matrix_bytes / 3


def test_sigma_gamma_frees_each_built_chunk_stack_before_its_sigma():
    # The peak is sigma's: the window buffer (SPECTRAL_CHUNK + gamma - 1
    # matrices), the products and sigma's two screen buffers, 261.1 matrices
    # when each instant was built by its own call.  A chunk's stacked build
    # still alive during that sigma would add another SPECTRAL_CHUNK or so.
    m, gamma = 200, 3
    sched = GraphSchedule.seeded_random(m, 0.02, seed=3)
    tracemalloc.start()
    try:
        report = sigma_gamma(sched, gamma, horizon=200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.sigma_gamma.hex() == "0x1.bd1d4cecbef33p-1"
    assert peak < 4 * (graph.SPECTRAL_CHUNK + gamma - 1) * m * m * 8


# ------------------------------------------------- the stored mask chunks

def stored_schedule(m=20, p=0.1, seed=3):
    """A seeded_random schedule whose mask store holds every chunk of
    instants 0..HORIZON, as resolve_gamma leaves it."""
    sched = GraphSchedule.seeded_random(m, p, seed)
    sched._masks(0, graph.HORIZON + 1)
    return sched


def test_mask_store_holds_the_chunks_of_instants_to_the_horizon_packed():
    sched = stored_schedule()
    C, pairs = graph.SPECTRAL_CHUNK, 20 * 19 // 2
    assert sorted(sched._mask_chunks) == list(range(0, graph.HORIZON + 1, C))
    for first, chunk in sched._mask_chunks.items():
        assert chunk.dtype == np.uint8 and chunk.shape == (C, math.ceil(pairs / 8))
        assert np.array_equal(np.unpackbits(chunk, axis=1, count=pairs).view(bool),
                              sched._draw(first, C))
    # Past the stored chunks, rows are drawn for the range asked and not kept.
    stop = graph._STORED_STOP
    masks = sched._masks(stop - 3, 70)
    assert np.array_equal(masks, sched._draw(stop - 3, 70))
    assert len(sched._mask_chunks) == math.ceil((graph.HORIZON + 1) / C)


@pytest.mark.parametrize("k", [0, 63, 64, 1000, 1001])
def test_edge_set_read_from_the_store_is_the_fresh_draw(monkeypatch, k):
    sched = stored_schedule()
    expected = GraphSchedule.seeded_random(20, 0.1, 3).edge_set(k)
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(graph.np.random, "default_rng",
                        lambda key: calls.append(key) or default_rng(key))
    got = sched.edge_set(k)
    assert calls == []  # read from the store, not drawn
    assert got == expected and type(got) is EdgeSet
    assert got.i.tobytes() == expected.i.tobytes() and got.j.tobytes() == expected.j.tobytes()
    assert sched.matrix(k).tobytes() == metropolis_weights(expected, 20).tobytes()


def _spy_draws(monkeypatch) -> list:
    """The instants ``GraphSchedule._draw``, the only code that draws, is
    asked for from now on, in call order."""
    drawn, draw = [], GraphSchedule._draw
    monkeypatch.setattr(GraphSchedule, "_draw", lambda self, start, count: drawn.extend(
        range(start, start + count)) or draw(self, start, count))
    return drawn


def test_mask_store_is_read_whatever_range_asks(monkeypatch):
    sched = GraphSchedule.seeded_random(9, 0.4, 5)
    keys = _spy_draws(monkeypatch)
    C = graph.SPECTRAL_CHUNK
    for start, count in ((5, 3), (C - 2, 5), (0, 2 * C + 1), (graph.HORIZON - 4, 30)):
        masks = sched._masks(start, count)
        for c, row in enumerate(masks):
            expected = np.random.default_rng((5, start + c)).random(36) < 0.4
            assert np.array_equal(row, expected), (start, c)
    stored = [k for k in keys if k < graph._STORED_STOP]
    assert len(stored) == len(set(stored))  # every stored instant drawn once
    assert sorted(stored) == sorted(set().union(
        *(range(f, f + C) for f in sched._mask_chunks)))


def test_mask_store_is_not_part_of_schedule_identity_and_is_not_copied():
    used = stored_schedule()
    fresh = GraphSchedule.seeded_random(20, 0.1, 3)
    assert used._mask_chunks and not fresh._mask_chunks
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) and "_mask_chunks" not in repr(used)
    assert len(pickle.dumps(used)) == len(pickle.dumps(fresh))
    for twin in (pickle.loads(pickle.dumps(used)), copy.deepcopy(used)):
        assert twin == used and not twin._mask_chunks
        assert twin.edge_set(70) == used.edge_set(70)


@pytest.mark.parametrize("seed", [3, 2 ** 32])
def test_mask_store_keeps_the_chunks_of_any_seed_and_draws_each_instant_once(monkeypatch, seed):
    # Every reader goes through the one store, so each instant below
    # _STORED_STOP is drawn once per schedule; a seed from 2**32 on, whose
    # instants are drawn key by key with the tuple key, stores its chunks too.
    C, stop = graph.SPECTRAL_CHUNK, graph._STORED_STOP
    expected = {k: _tuple_key_draw(9, 0.4, seed, k) for k in (0, C - 1, 70, stop - 1)}
    keys = _spy_draws(monkeypatch)
    sched = GraphSchedule.seeded_random(9, 0.4, seed)
    assert sched.edge_set(70) == expected[70]  # its first read stores its chunk
    assert sorted(keys) == list(range(C, 2 * C)) and list(sched._mask_chunks) == [C]
    sched.matrix(3)
    sched._masks(C - 2, 5)
    sigma_gamma(sched, 2)  # edge_set over instants 0..HORIZON
    gamma_connectivity(sched, 3)
    sched._masks(0, stop)
    for k in (0, C - 1, stop - 1):
        assert sched.edge_set(k) == expected[k]
        sched.matrix(k)
    assert sorted(keys) == list(range(stop))  # each instant below _STORED_STOP once
    assert sorted(sched._mask_chunks) == list(range(0, stop, C))


# ------------------------------------------------- the seeding-word block

@pytest.mark.parametrize("start,count", [(2040, 20), (graph._STORED_STOP - 3, 70),
                                         (2 ** 32 - 1030, 1040)])
def test_draw_past_the_store_is_the_default_rng_draw_across_blocks(start, count):
    # The last batch spans two blocks and runs past 2**32, where the keys no
    # longer fit one word and are drawn one by one.
    sched = GraphSchedule.seeded_random(9, 0.4, 6)
    rows = sched._draw(start, count)
    for c, row in enumerate(rows):
        expected = np.random.default_rng((6, start + c)).random(36) < 0.4
        assert np.array_equal(row, expected), (start, c)
    assert len(sched._word_block) <= 1
    assert np.array_equal(sched._draw(start, count), rows)


def test_seeding_words_are_hashed_once_per_block_walked_in_order(monkeypatch):
    hashed, states = [], graph._pcg64_states
    monkeypatch.setattr(graph, "_pcg64_states",
                        lambda seed, ks: hashed.append(ks.tolist()) or states(seed, ks))
    sched = GraphSchedule.seeded_random(9, 0.4, 5)
    B, C, stop = graph._WORD_BLOCK, graph.SPECTRAL_CHUNK, graph._STORED_STOP
    for first in range(stop, stop + 2 * B + C, C):  # as matrix(k) reads them
        sched._masks(first, C)
        (block,) = sched._word_block.values()
        assert block.shape == (B, 4) and len(sched._word_block) == 1
    assert hashed == [list(range(f, f + B)) for f in range(stop, stop + 3 * B, B)]
    assert list(sched._word_block) == [stop + 2 * B]
    del hashed[:]
    sched._masks(stop + 2 * B + C, C)  # within the kept block: no hash
    assert hashed == []
    for first in range(0, stop, C):  # the mask store's chunks are block 0: one hash
        sched._masks(first, C)
    assert stop <= B and hashed == [list(range(B))] and list(sched._word_block) == [0]


def test_word_block_is_not_part_of_schedule_identity_and_is_not_copied():
    used = GraphSchedule.seeded_random(20, 0.1, 3)
    used.matrix(graph._STORED_STOP + 5)
    fresh = GraphSchedule.seeded_random(20, 0.1, 3)
    assert used._word_block and not fresh._word_block
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) and "_word_block" not in repr(used)
    assert len(pickle.dumps(used)) == len(pickle.dumps(fresh))
    for twin in (pickle.loads(pickle.dumps(used)), copy.deepcopy(used)):
        assert twin == used and not twin._word_block
        assert twin.matrix(graph._STORED_STOP + 5).tobytes() == \
            used.matrix(graph._STORED_STOP + 5).tobytes()
