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


# numpy integer types narrow enough that arithmetic on their largest values
# wraps; each entry point must take them as the Python ints they hold.
NARROW_INTS = (np.int8, np.uint8, np.int16)


def narrow(dtype, cap=None):
    """The largest value of a narrow numpy integer type, or cap if smaller."""
    top = int(np.iinfo(dtype).max)
    return dtype(top if cap is None else min(top, cap))


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
    """Count Metropolis matrices built through graph.metropolis_weights: a
    periodic schedule's GraphSchedule.matrix and sigma_gamma's windows.  A
    call counts each matrix it returns, one for a single matrix and one per
    matrix of a stack.  A seeded_random schedule's matrix(k) builds whole
    chunk stacks without it."""
    count = [0]
    original = graph.metropolis_weights

    def counting(edge_set, m):
        out = original(edge_set, m)
        count[0] += 1 if out.ndim == 2 else len(out)
        return out

    monkeypatch.setattr(graph, "metropolis_weights", counting)
    return count
