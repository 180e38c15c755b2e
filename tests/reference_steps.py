"""Textbook reference recursions the run loop is checked against.

``run`` in ``agtrack.algorithms`` is the only implementation of the step.
These hand-written single steps stay as independent oracles for the tests:
``gt_init`` / ``gt_step`` are plain gradient tracking on an ``AggregateState``,
and ``averaged_reference_step`` is the inexact centralized accelerated
recursion the column means of every accelerated run follow.
``chebyshev_apply_textbook`` is the Chebyshev recurrence with a new array
per operation, as the in-place ``chebyshev_apply`` must reproduce it.

The graph layer has three loop oracles of the same kind:
``metropolis_weights_loop`` builds W one edge at a time,
``matrix_product_window`` multiplies a window's matrices one at a time, and
``gamma_connected_bfs`` searches each window's union graph breadth first.

``reference_certificates`` replays the bounds T1-T4 one trace row and one
Python float at a time, as the column certificates in ``agtrack.analysis``
must reproduce them bit for bit.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from agtrack import BoundCertificate, DivergenceError, ProblemInstance, aggregate_gradient, gossip
from agtrack.analysis import REL_TOL


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


def matrix_product_window(schedule, k: int, gamma: int) -> np.ndarray:
    """Ordered product ``W^k W^{k-1} ... W^{k-gamma+1}`` of schedule matrices.

    ``gamma = 0`` returns the identity.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if k < gamma - 1:
        raise ValueError(f"need k >= gamma - 1 (got k={k}, gamma={gamma})")
    P = np.eye(schedule.agent_count)
    for r in range(k - gamma + 1, k + 1):
        P = schedule.matrix(r) @ P
    return P


def gamma_connected_bfs(schedule, gamma: int, horizon: int) -> bool:
    """Whether the union of the edge sets of every window ``[k, k + gamma)``
    within instants 0..horizon is connected, by breadth-first search."""
    m = schedule.agent_count
    for k in range(horizon - gamma + 2):
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


# ---------------------------------------------------------------- certificates

def certify_points(theorem_id: str, points) -> BoundCertificate:
    """The verdict over ``(k, checked side, bound side)`` points, one at a time."""
    worst = float("inf")
    first_violation = None
    for k, lhs, rhs in points:
        margin = rhs - lhs
        worst = min(worst, margin)
        if margin < -REL_TOL * max(1.0, abs(lhs)) and first_violation is None:
            first_violation = k
    if worst == float("inf"):
        raise ValueError(f"no instants to check for {theorem_id}")
    return BoundCertificate(theorem_id, first_violation is None, float(worst), first_violation)


def _t1_points(rows, problem, alpha, sigma):
    L = problem.L
    zbar0, s0 = rows[0].zbar_dist, rows[0].cons_s
    b_gap = (2.0 / alpha) * zbar0 + (1.0 - sigma) / (2.0 * L) * s0
    b_cons = 5.0 / (L * alpha) * zbar0 + 9.0 * (1.0 - sigma) / (4.0 * L * L) * s0
    return ([(r.k, r.gap, b_gap / r.k ** 2) for r in rows if r.k >= 1],
            [(r.k, r.cons_x, b_cons / (r.k + 1) ** 2) for r in rows])


def _t2_points(rows, problem, alpha, sigma):
    L, mu = problem.L, problem.mu
    theta = np.sqrt(mu * alpha) / 2.0
    coeff = theta * theta / (2.0 * alpha) + mu * theta / 2.0
    r0 = rows[0]
    C = r0.gap + coeff * r0.zbar_dist + 4.0 * (1.0 - sigma) / (59.0 * L * (1.0 - theta)) * r0.cons_s
    decay = 1.0 - theta
    return ([(r.k, r.gap + coeff * r.zbar_dist, decay ** r.k * C) for r in rows],
            [(r.k, r.cons_x, decay ** (r.k + 1) * 4.0 * C / L) for r in rows])


def _t3_points(rows, problem, alpha, sigma_gamma, gamma):
    L, m = problem.L, problem.m
    zbar0 = rows[0].zbar_dist
    max_s = m * max(r.cons_s for r in rows[:gamma + 1])
    bracket = (2.0 / alpha) * zbar0 + (1.0 - sigma_gamma) / (5.0 * m * L * gamma) * max_s
    last = len(rows) - 1
    return ([(t * gamma + 1, rows[t * gamma + 1].gap, bracket / (t * gamma + 1) ** 2)
             for t in range(0, (last - 1) // gamma + 1)],
            [(t * gamma, rows[t * gamma].cons_x, 9.0 * bracket / (2.0 * L * (t * gamma + 1) ** 2))
             for t in range(0, last // gamma + 1)])


def _t4_points(rows, problem, alpha, sigma_gamma, gamma):
    L, mu, m = problem.L, problem.mu, problem.m
    theta = np.sqrt(mu * alpha) / 2.0
    coeff = theta * theta / (2.0 * alpha) + mu * theta / 2.0
    r0 = rows[0]
    head = rows[1:gamma + 1]
    max_s = m * max(r.cons_s for r in head)
    max_x = m * max(r.cons_x for r in head)
    max_z = theta * theta * m * max(r.cons_z for r in head)
    one = 1.0 - sigma_gamma
    C = (r0.gap + coeff * r0.zbar_dist
         + one / (49.0 * m * L * gamma * (1.0 - theta)) * max_s
         + 1459.0 * L * gamma ** 3 / (m * (1.0 - theta) * one ** 3) * max_z
         + 6.6 * L * gamma / (m * (1.0 - theta) * one) * max_x)
    decay = 1.0 - theta
    last = len(rows) - 1
    return ([(t * gamma + 1,
              rows[t * gamma + 1].gap + coeff * rows[t * gamma + 1].zbar_dist,
              decay ** (t * gamma + 1) * C)
             for t in range(0, (last - 1) // gamma + 1)],
            [(t * gamma, rows[t * gamma].cons_x, decay ** (t * gamma + 1) * 4.0 * C / L)
             for t in range(0, last // gamma + 1)])


_POINTS = {1: _t1_points, 2: _t2_points, 3: _t3_points, 4: _t4_points}


def reference_certificates(theorem: int, trace, problem: ProblemInstance, alpha: float,
                           *constants) -> tuple[BoundCertificate, BoundCertificate]:
    """(gap, consensus) certificates of Theorem ``theorem`` (1-4) built from the
    trace's rows one record at a time; ``constants`` are sigma for T1/T2 and
    (sigma_gamma, gamma) for T3/T4.  Mode and length checks are left to the
    caller."""
    rows = list(trace.rows)
    gap_points, cons_points = _POINTS[theorem](rows, problem, alpha, *constants)
    return (certify_points(f"T{theorem}_gap", gap_points),
            certify_points(f"T{theorem}_consensus", cons_points))
