"""Graph schedules, Metropolis mixing matrices, and spectral mixing constants.

A network of ``m`` agents communicates through a (possibly time-varying)
sequence of undirected graphs.  Each instant ``k`` contributes an edge set
``E^k`` from which a doubly stochastic mixing matrix ``W^k`` is built with the
Metropolis rule

    W_ij = 1 / (1 + max(d_i, d_j))   for (i, j) in E^k,
    W_ii = 1 - sum_{j in N_i} W_ij.

Mixing quality is measured by the deflated spectral norm
``sigma = ||W - (1/m) 1 1^T||_2`` and, for time-varying schedules, by its
``gamma``-step analogue ``sigma_gamma = sup_k ||W^{k,gamma} - (1/m) 1 1^T||_2``
where ``W^{k,gamma} = W^k W^{k-1} ... W^{k-gamma+1}``.  Consensus is possible
whenever the union of any ``gamma`` consecutive edge sets is connected.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

# Double-stochasticity tolerances: tight for matrices we build ourselves,
# looser when accepting user-supplied matrices.
DS_BUILD_TOL = 1e-12
DS_INPUT_TOL = 1e-9

# Largest gamma resolve_gamma searches, and the number of recent matrices a
# seeded_random schedule caches so windows of up to MAX_GAMMA reuse them.
MAX_GAMMA = 50

EdgeSet = tuple[tuple[int, int], ...]


def _canonical_edges(edges, m: int) -> EdgeSet:
    """Validate, orient as (min, max), and deduplicate an undirected edge set."""
    canon = set()
    for edge in edges:
        i, j = int(edge[0]), int(edge[1])
        if i == j:
            raise ValueError(f"self-loop ({i}, {j}) not allowed; self-weights are implicit")
        if not (0 <= i < m and 0 <= j < m):
            raise ValueError(f"edge ({i}, {j}) out of range for {m} agents")
        canon.add((min(i, j), max(i, j)))
    return tuple(sorted(canon))


@dataclass(frozen=True)
class GraphSchedule:
    """A total function ``k -> E^k`` over m agents with a replay rule.

    ``schedule_kind`` is one of ``static`` (one edge set forever), ``cyclic``
    (a finite list replayed with its period), or ``seeded_random`` (each
    instant draws an Erdos-Renyi edge set reproducibly from ``(seed, k)``).
    """

    agent_count: int
    schedule_kind: str
    edge_sets: tuple[EdgeSet, ...] | None = None
    edge_probability: float | None = None
    seed: int | None = None
    _matrices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.agent_count <= 0:
            raise ValueError("agent_count must be positive")
        if self.schedule_kind not in ("static", "cyclic", "seeded_random"):
            raise ValueError(f"unknown schedule_kind {self.schedule_kind!r}")
        if self.schedule_kind in ("static", "cyclic"):
            if not self.edge_sets:
                raise ValueError(f"{self.schedule_kind} schedule requires explicit edge sets")
            if self.schedule_kind == "static" and len(self.edge_sets) != 1:
                raise ValueError("static schedule takes exactly one edge set")
        else:
            if self.edge_probability is None or not (0.0 <= self.edge_probability <= 1.0):
                raise ValueError("seeded_random schedule requires edge_probability in [0, 1]")
            if self.seed is None:
                raise ValueError("seeded_random schedule requires a seed")

    @classmethod
    def static(cls, m: int, edges) -> "GraphSchedule":
        return cls(m, "static", ( _canonical_edges(edges, m), ))

    @classmethod
    def cyclic(cls, m: int, edge_sets) -> "GraphSchedule":
        sets = tuple(_canonical_edges(e, m) for e in edge_sets)
        return cls(m, "cyclic", sets)

    @classmethod
    def seeded_random(cls, m: int, edge_probability: float, seed: int) -> "GraphSchedule":
        return cls(m, "seeded_random", None, edge_probability, seed)

    @property
    def period(self) -> int | None:
        """Replay period: 1 for static, len(edge_sets) for cyclic, None for random."""
        if self.schedule_kind == "static":
            return 1
        if self.schedule_kind == "cyclic":
            return len(self.edge_sets)
        return None

    def edge_set(self, k: int) -> EdgeSet:
        """The edge set active at instant k (total for all k >= 0)."""
        if k < 0:
            raise ValueError("instant index must be nonnegative")
        if self.schedule_kind == "static":
            return self.edge_sets[0]
        if self.schedule_kind == "cyclic":
            return self.edge_sets[k % len(self.edge_sets)]
        # Reproducible per-instant draw: the stream is keyed by (seed, k) so
        # edge_set(k) never depends on evaluation order.
        rng = np.random.default_rng((self.seed, k))
        m = self.agent_count
        iu, ju = np.triu_indices(m, 1)
        mask = rng.random(iu.shape[0]) < self.edge_probability
        return tuple(zip(iu[mask].tolist(), ju[mask].tolist()))

    def matrix(self, k: int) -> np.ndarray:
        """The read-only Metropolis matrix W^k of instant k.

        Periodic schedules build each of their ``period`` matrices once;
        seeded_random schedules keep the ``MAX_GAMMA`` most recently built.
        """
        if k < 0:
            raise ValueError("instant index must be nonnegative")
        period = self.period
        key = k % period if period is not None else k
        W = self._matrices.get(key)
        if W is None:
            W = metropolis_weights(self.edge_set(k), self.agent_count)
            W.setflags(write=False)
            if period is None and len(self._matrices) >= MAX_GAMMA:
                del self._matrices[next(iter(self._matrices))]  # oldest first
            self._matrices[key] = W
        return W


@dataclass(frozen=True)
class SpectralReport:
    """Computed mixing constants for a schedule.

    ``sigma`` is the single-step constant (max over the examined instants);
    ``sigma_gamma`` the gamma-step product constant.  ``is_estimate`` flags a
    finite-horizon sample of a supremum that is exact only for periodic
    schedules.
    """

    sigma: float
    sigma_gamma: float
    gamma: int
    horizon_used: int
    is_estimate: bool


def _check_doubly_stochastic(W: np.ndarray, tol: float):
    m = W.shape[0]
    if W.shape != (m, m):
        raise ValueError("mixing matrix must be square")
    dev = max(np.abs(W.sum(axis=0) - 1.0).max(), np.abs(W.sum(axis=1) - 1.0).max())
    if dev > tol:
        raise ValueError(f"matrix is not doubly stochastic (max row/col sum deviation {dev:.3e})")


def metropolis_weights(edge_set, m: int) -> np.ndarray:
    """Build the Metropolis mixing matrix for one edge set.

    Off-diagonal weights are ``1 / (1 + max(d_i, d_j))`` for neighbors and the
    diagonal absorbs the remainder, which yields a symmetric doubly stochastic
    matrix with positive diagonal for any undirected graph.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    edges = _canonical_edges(edge_set, m)
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
    _check_doubly_stochastic(W, DS_BUILD_TOL)
    return W


def sigma(W) -> float:
    """Deflated spectral norm ``||W - (1/m) 1 1^T||_2`` of a doubly stochastic W.

    Equals the second largest singular value of W; strictly below 1 exactly
    when one round of gossip contracts disagreement.
    """
    M = np.asarray(W, dtype=float)
    _check_doubly_stochastic(M, DS_INPUT_TOL)
    m = M.shape[0]
    val = np.linalg.norm(M - np.ones((m, m)) / m, 2)
    # Doubly stochastic matrices have singular values at most 1; trim rounding.
    return float(min(max(val, 0.0), 1.0))


def matrix_product_window(schedule: GraphSchedule, k: int, gamma: int) -> np.ndarray:
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


def _union_connected(edge_sets, m: int) -> bool:
    """Breadth-first connectivity of the union graph over the given edge sets."""
    if m == 1:
        return True
    adj = [[] for _ in range(m)]
    for edges in edge_sets:
        for i, j in edges:
            adj[i].append(j)
            adj[j].append(i)
    seen = np.zeros(m, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return bool(seen.all())


def gamma_connectivity(schedule: GraphSchedule, gamma: int, horizon: int | None = None) -> bool:
    """Whether the union of every gamma consecutive edge sets is connected.

    For static and cyclic schedules one period of window starts is checked and
    the verdict is exact; for seeded_random schedules window starts up to
    ``horizon - gamma`` are sampled (default horizon 1000).  Each instant's
    edge set is drawn once per call and shared by the windows that cover it.
    """
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    period = schedule.period
    if horizon is None:
        horizon = gamma + (period - 1 if period is not None else 1000 - gamma)
    if horizon < gamma:
        raise ValueError("horizon must be at least gamma")
    last_start = horizon - gamma
    if period is not None:
        last_start = min(last_start, period - 1)
    window = deque((schedule.edge_set(r) for r in range(gamma - 1)), maxlen=gamma)
    for k in range(last_start + 1):
        window.append(schedule.edge_set(k + gamma - 1))
        if not _union_connected(window, schedule.agent_count):
            return False
    return True


def sigma_gamma(schedule: GraphSchedule, gamma: int,
                horizon: int | None = None) -> SpectralReport:
    """Gamma-step mixing constant ``sup_k ||W^{k,gamma} - (1/m) 1 1^T||_2``.

    Static schedules give the exact ``||W^gamma - J/m||_2``; cyclic schedules
    take the exact max over one full period of start instants; seeded_random
    schedules sample ``k in [gamma-1, horizon]`` and flag the result as an
    estimate.  Each instant's W^k is built once per call (windows of up to
    ``MAX_GAMMA`` instants share the schedule's cache).
    """
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    m = schedule.agent_count
    J = np.ones((m, m)) / m
    period = schedule.period

    if schedule.schedule_kind == "static":
        W = schedule.matrix(0)
        sig_g = np.linalg.norm(np.linalg.matrix_power(W, gamma) - J, 2)
        sig_1 = sigma(W)
        return SpectralReport(sig_1, float(min(max(sig_g, 0.0), 1.0)), gamma,
                              horizon_used=gamma - 1, is_estimate=False)

    if schedule.schedule_kind == "cyclic":
        ks = range(gamma - 1, gamma - 1 + period)
        is_estimate = False
        horizon_used = gamma - 2 + period
    else:
        if horizon is None:
            horizon = 1000
        if horizon < gamma:
            raise ValueError("horizon must be at least gamma")
        ks = range(gamma - 1, horizon + 1)
        is_estimate = True
        horizon_used = horizon

    sig_g = 0.0
    sig_1 = 0.0
    for k in ks:
        P = matrix_product_window(schedule, k, gamma)
        sig_g = max(sig_g, np.linalg.norm(P - J, 2))
        sig_1 = max(sig_1, sigma(schedule.matrix(k)))
    return SpectralReport(float(min(sig_1, 1.0)), float(min(max(sig_g, 0.0), 1.0)),
                          gamma, horizon_used, is_estimate)
