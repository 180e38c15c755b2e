"""Textbook reference recursions the run loop is checked against.

``run`` in ``agtrack.algorithms`` is the only implementation of the step.
These hand-written single steps stay as independent oracles for the tests:
``gt_init`` / ``gt_step`` are plain gradient tracking on an ``AggregateState``,
and ``averaged_reference_step`` is the inexact centralized accelerated
recursion the column means of every accelerated run follow.
``chebyshev_apply_textbook`` is the Chebyshev recurrence with a new array
per operation, as the in-place ``chebyshev_apply`` must reproduce it.

The graph layer has two loop oracles of the same kind:
``metropolis_weights_loop`` builds W one edge at a time and
``gamma_connected_bfs`` searches each window's union graph breadth first.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from agtrack import DivergenceError, ProblemInstance, aggregate_gradient, gossip


@dataclass(frozen=True)
class AggregateState:
    """Row-stacked m-by-n variables (x, y, z, s) of one algorithm instant.

    ``grad`` caches the aggregate gradient at the points that produced s (the
    tracking recursion needs the previous gradient each step).
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    s: np.ndarray

    grad: np.ndarray | None = None

    def __post_init__(self):
        shape = self.x.shape
        for name in ("y", "z", "s"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"state field {name} has shape {getattr(self, name).shape}, expected {shape}")


def averages(state: AggregateState):
    """Column means (xbar, ybar, zbar, sbar) of the four aggregate matrices."""
    return (state.x.mean(axis=0), state.y.mean(axis=0),
            state.z.mean(axis=0), state.s.mean(axis=0))


def gt_init(problem: ProblemInstance, x0_row: np.ndarray) -> AggregateState:
    """Consensual start for gradient tracking: x^0 = 1 x0^T, s^0 = grad f(x^0)."""
    x0 = np.tile(np.asarray(x0_row, dtype=float), (problem.m, 1))
    g0 = aggregate_gradient(problem, x0)
    return AggregateState(x0, x0, x0, g0.copy(), grad=g0)


def gt_step(state: AggregateState, W, alpha: float, problem: ProblemInstance) -> AggregateState:
    """One gradient-tracking step (2 communication rounds, 1 gradient round).

    Requires ``state.s`` to track from ``s^0 = grad f(x^0)``; y and z mirror x
    since the baseline method has no momentum rows.
    """
    x_next = gossip(W, state.x) - alpha * state.s
    g_next = aggregate_gradient(problem, x_next)
    s_next = gossip(W, state.s) + g_next - state.grad
    if not (np.isfinite(x_next).all() and np.isfinite(s_next).all()):
        raise DivergenceError("gradient-tracking iterate turned non-finite")
    return AggregateState(x_next, x_next, x_next, s_next, grad=g_next)


@dataclass(frozen=True)
class AveragedState:
    """Column means (xbar, ybar, zbar) evolved by the reference recursion."""

    xbar: np.ndarray
    ybar: np.ndarray
    zbar: np.ndarray


def averaged_reference_step(avg_state: AveragedState, alpha: float, theta_k: float,
                            mu: float, sbar_k: np.ndarray) -> AveragedState:
    """Inexact centralized accelerated step driven by the supplied mean sbar^k.

    Multiplying the distributed updates by (1/m) 1^T removes every W (column
    means are gossip-invariant), leaving

        ybar = theta zbar + (1 - theta) xbar,
        zbar' = (1 + mu alpha/theta)^{-1} (mu alpha/theta ybar + zbar - alpha/theta sbar),
        xbar' = theta zbar' + (1 - theta) xbar.

    Co-running this recursion on the distributed run's sbar^k sequence
    reproduces the distributed column means exactly.
    """
    ybar = theta_k * avg_state.zbar + (1.0 - theta_k) * avg_state.xbar
    ratio = mu * alpha / theta_k
    zbar_next = (ratio * ybar + avg_state.zbar - (alpha / theta_k) * np.asarray(sbar_k)) / (1.0 + ratio)
    xbar_next = theta_k * zbar_next + (1.0 - theta_k) * avg_state.xbar
    return AveragedState(xbar_next, ybar, zbar_next)


# ---------------------------------------------------------------- mixing layer

def chebyshev_apply_textbook(op, x: np.ndarray) -> np.ndarray:
    """``(I - P_t(c3 L)) x`` by the three-term recurrence, each step a fresh
    array: ``z1 = c2 (I - c3 L) x``, ``z^{s+1} = 2 c2 (I - c3 L) z^s - z^{s-1}``,
    ``a_{s+1} = 2 c2 a_s - a_{s-1}``, returning ``z^t / a_t``."""
    x = np.asarray(x, dtype=float)
    if op.bypass:
        return op.base_matrix @ x

    def damped(v):
        return v - op.c3 * (v - op.base_matrix @ v)

    a_prev, a_cur = 1.0, op.c2
    z_prev, z_cur = x, op.c2 * damped(x)
    for _ in range(1, op.t):
        a_prev, a_cur = a_cur, 2.0 * op.c2 * a_cur - a_prev
        z_prev, z_cur = z_cur, 2.0 * op.c2 * damped(z_cur) - z_prev
    return z_cur / a_cur


# ---------------------------------------------------------------- graph layer

def metropolis_weights_loop(edge_set, m: int) -> np.ndarray:
    """The Metropolis matrix built edge by edge: degrees, weights, then each
    diagonal entry as one minus its row's off-diagonal sum."""
    edges = sorted({(min(int(i), int(j)), max(int(i), int(j))) for i, j in edge_set})
    deg = np.zeros(m, dtype=int)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    W = np.zeros((m, m))
    for i, j in edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        W[i, j] = w
        W[j, i] = w
    for i in range(m):
        W[i, i] = 1.0 - W[i].sum()
    return W


def gamma_connected_bfs(schedule, gamma: int, horizon: int) -> bool:
    """Whether the union of the edge sets of every window ``[k, k + gamma)``
    with ``k + gamma <= horizon`` is connected, by breadth-first search."""
    m = schedule.agent_count
    for k in range(horizon - gamma + 1):
        adj = [[] for _ in range(m)]
        for r in range(k, k + gamma):
            for i, j in schedule.edge_set(r):
                adj[i].append(j)
                adj[j].append(i)
        seen = {0}
        queue = deque([0])
        while queue:
            for v in adj[queue.popleft()]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        if len(seen) < m:
            return False
    return True
