"""Shared graph fixtures used across the suite."""
import numpy as np
import pytest

from agtrack import GraphSchedule, graph


def ring_edges(m):
    return [(i, (i + 1) % m) for i in range(m)]


def path_edges(m):
    return [(i, i + 1) for i in range(m - 1)]


# Nine agents, three disjoint-subgraph instants; no single instant is
# connected, but the union of any 3 consecutive instants is.
M9_EDGE_SETS = (
    ((0, 1), (3, 4), (6, 7)),
    ((1, 2), (4, 5), (7, 8)),
    ((2, 3), (5, 6), (8, 0)),
)


@pytest.fixture(scope="session")
def ring10():
    return GraphSchedule.static(10, ring_edges(10))


@pytest.fixture(scope="session")
def m9_schedule():
    return GraphSchedule.cyclic(9, M9_EDGE_SETS)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def builds(monkeypatch):
    """Count Metropolis matrix builds made through graph.metropolis_weights:
    a periodic schedule's GraphSchedule.matrix and sigma_gamma's windows.  A
    seeded_random schedule's matrix(k) builds whole chunk stacks without it."""
    count = [0]
    original = graph.metropolis_weights

    def counting(edge_set, m):
        count[0] += 1
        return original(edge_set, m)

    monkeypatch.setattr(graph, "metropolis_weights", counting)
    return count
