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

The layer works on arrays.  An edge list is validated once, where it enters:
endpoints must be integers (bools and floats are rejected, never truncated)
in ``[0, m)`` with no self-loops.  The result is an ``EdgeSet``, a validated
value that carries its endpoints as arrays; every schedule instant is one, and
``metropolis_weights`` and ``gamma_connectivity`` take its arrays without
parsing the pairs again.  Any other edge list given to ``metropolis_weights``
is validated in full.  A build is one vectorized pass, and one kernel builds a
whole stack of instants as readily as one: ``GraphSchedule.matrix(k)`` is the
cached per-instant path, while ``GraphSchedule.matrices`` returns a stack of
consecutive instants, which a seeded_random schedule draws and builds in one
batch, for multiple consensus.  ``sigma`` takes a whole stack of matrices in
one batched SVD; ``sigma_gamma`` forms its window products in bounded chunks;
``gamma_connectivity`` tests reachability on each window's union, kept as a
matrix of edge counts.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

# Double-stochasticity tolerances: tight for matrices we build ourselves,
# looser when accepting user-supplied matrices.
DS_BUILD_TOL = 1e-12
DS_INPUT_TOL = 1e-9

# Largest gamma resolve_gamma searches, and the number of recent matrices a
# seeded_random schedule caches so windows of up to MAX_GAMMA reuse them.
MAX_GAMMA = 50

# Window products sigma_gamma forms and decomposes per batch: its memory is
# O((SPECTRAL_CHUNK + gamma) m^2) whatever the horizon.
SPECTRAL_CHUNK = 64

_BOOL_TYPES = frozenset((bool, np.bool_))


class EdgeSet(tuple):
    """A validated undirected edge set.

    As a tuple it holds the canonical pairs ``(i, j)``: ``i < j``, sorted,
    each pair once, so it hashes, compares and prints like the plain tuple of
    those pairs.  ``.i`` and ``.j`` hold the same endpoints as read-only
    ``intp`` arrays.  Only this module makes one, from endpoints it has
    validated or drawn itself.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"EdgeSet is immutable; cannot set {name!r}")

    def __reduce__(self):
        return _edge_set_of, (self.i, self.j)


def _edge_set_of(i: np.ndarray, j: np.ndarray) -> EdgeSet:
    """The EdgeSet of canonical endpoint arrays, which it makes read-only."""
    edges = tuple.__new__(EdgeSet, zip(i.tolist(), j.tolist()))
    i.setflags(write=False)
    j.setflags(write=False)
    edges.__dict__.update(i=i, j=j)
    return edges


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and type(v) not in _BOOL_TYPES


def _edge_arrays(edges, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated endpoints ``(i, j)`` of an undirected edge list, ``i < j``.

    Each edge appears once, sorted by ``(i, j)``.  Raises ValueError for an
    endpoint that is not an integer (bools and floats included), a self-loop,
    or an endpoint outside ``[0, m)``.
    """
    if not isinstance(edges, np.ndarray):
        try:
            edges = list(edges)
        except TypeError:
            raise ValueError("an edge set is a list of (i, j) pairs") from None
    arr = np.asarray(edges) if len(edges) else np.empty((0, 2), dtype=np.intp)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("an edge set is a list of (i, j) pairs")
    integral = arr.dtype.kind in "iu"
    if integral and not isinstance(edges, np.ndarray):
        # numpy turns a bool among ints into an int, so look at the Python types too.
        integral = _BOOL_TYPES.isdisjoint(map(type, chain.from_iterable(edges)))
    if not integral:
        bad = next((e for e in edges if not all(map(_is_int, e))), edges)
        raise ValueError(f"edge {bad!r} has a non-integer endpoint; endpoints are agent indices")
    lo, hi = np.minimum(arr[:, 0], arr[:, 1]), np.maximum(arr[:, 0], arr[:, 1])
    if len(lo) and (lo.min() < 0 or hi.max() >= m or (lo == hi).any()):
        for i, j in arr.tolist():  # report the first bad edge
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) not allowed; self-weights are implicit")
            if not (0 <= i < m and 0 <= j < m):
                raise ValueError(f"edge ({i}, {j}) out of range for {m} agents")
    upper = np.zeros((m, m), dtype=bool)
    upper[lo, hi] = True
    return np.nonzero(upper)


def _canonical_edges(edges, m: int) -> EdgeSet:
    """Validate, orient as (min, max), and deduplicate an undirected edge set.

    An EdgeSet whose endpoints lie below m is all of that already and is
    returned as it is.
    """
    if isinstance(edges, EdgeSet) and (not edges or edges.j.max() < m):
        return edges
    return _edge_set_of(*_edge_arrays(edges, m))


@lru_cache(maxsize=8)
def _upper_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(m, 1)``, read-only: the candidate edges of one draw."""
    pairs = np.triu_indices(m, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


@dataclass(frozen=True)
class GraphSchedule:
    """A total function ``k -> E^k`` over m agents with a replay rule.

    ``schedule_kind`` is one of ``static`` (one edge set forever), ``cyclic``
    (a finite list replayed with its period), or ``seeded_random`` (each
    instant draws an Erdos-Renyi edge set reproducibly from ``(seed, k)``).
    Construction validates every given edge set and stores it as an
    ``EdgeSet``; a seeded_random seed is a non-negative integer.
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
            sets = tuple(_canonical_edges(e, self.agent_count) for e in self.edge_sets)
            object.__setattr__(self, "edge_sets", sets)
        else:
            if self.edge_probability is None or not (0.0 <= self.edge_probability <= 1.0):
                raise ValueError("seeded_random schedule requires edge_probability in [0, 1]")
            if not (_is_int(self.seed) and self.seed >= 0):
                raise ValueError("seeded_random schedule requires a non-negative integer "
                                 f"seed, got {self.seed!r}")

    @classmethod
    def static(cls, m: int, edges) -> "GraphSchedule":
        return cls(m, "static", (edges,))

    @classmethod
    def cyclic(cls, m: int, edge_sets) -> "GraphSchedule":
        return cls(m, "cyclic", tuple(edge_sets))

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
        iu, ju = _upper_pairs(self.agent_count)
        mask = self._uniforms(k, np.empty(iu.shape[0])) < self.edge_probability
        return _edge_set_of(iu[mask], ju[mask])

    def _uniforms(self, k: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with instant k's uniforms, one per candidate pair of
        ``_upper_pairs``; the pair is an edge when its uniform is below p.

        The stream is keyed by (seed, k), so a draw never depends on
        evaluation order.  SeedSequence reads an int below 2**32 as one uint32
        word, so the uint32 key gives the tuple's stream and is cheaper to
        convert; larger values keep the tuple key.
        """
        key = (self.seed, k)
        if self.seed < 1 << 32 and k < 1 << 32:
            key = np.array(key, dtype=np.uint32)
        return np.random.default_rng(key).random(out=out)

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

    def matrices(self, start: int, count: int) -> np.ndarray:
        """The read-only ``(count, m, m)`` stack W^start, ..., W^(start+count-1).

        Periodic schedules stack their cached ``matrix(k)``.  Seeded_random
        schedules draw each instant as ``edge_set`` does and build the whole
        stack in one Metropolis pass, without making edge sets or touching
        the per-instant cache; W^k is bit-identical to ``matrix(k)``.
        """
        if start < 0:
            raise ValueError("instant index must be nonnegative")
        if count < 1:
            raise ValueError("count must be at least 1")
        if self.period is not None:
            Ws = np.stack([self.matrix(k) for k in range(start, start + count)])
        else:
            iu, ju = _upper_pairs(self.agent_count)
            u = np.empty((count, iu.shape[0]))
            for c in range(count):
                self._uniforms(start + c, u[c])
            b, pair = np.nonzero(u < self.edge_probability)
            Ws = _metropolis_stack(count, self.agent_count, b, iu[pair], ju[pair])
        Ws.setflags(write=False)
        return Ws


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
    is_estimate: bool


def _check_doubly_stochastic(W: np.ndarray, tol: float):
    """Raise unless W, or every matrix of a ``(..., m, m)`` stack, is doubly stochastic."""
    if W.ndim < 2 or W.shape[-1] != W.shape[-2]:
        raise ValueError("mixing matrix must be square")
    sums = np.concatenate((W.sum(axis=-2), W.sum(axis=-1)), axis=-1)
    dev = np.abs(sums - 1.0).max()
    if dev > tol:
        raise ValueError(f"matrix is not doubly stochastic (max row/col sum deviation {dev:.3e})")


def metropolis_weights(edge_set, m: int) -> np.ndarray:
    """Build the Metropolis mixing matrix for one edge set.

    Off-diagonal weights are ``1 / (1 + max(d_i, d_j))`` for neighbors and the
    diagonal absorbs the remainder, which yields a symmetric doubly stochastic
    matrix with positive diagonal for any undirected graph.  An ``EdgeSet``
    whose endpoints lie below m is used as it is; any other edge list is
    validated like a schedule's (integer endpoints in ``[0, m)``, no
    self-loops), and duplicates and orientation do not matter.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    edges = _canonical_edges(edge_set, m)
    return _metropolis_stack(1, m, 0, edges.i, edges.j)[0]


def _metropolis_stack(count: int, m: int, b, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The ``(count, m, m)`` Metropolis matrices of ``count`` edge sets.

    Edge e is ``(i[e], j[e])`` of edge set ``b[e]``, with ``i < j < m`` and
    each edge of an edge set given once; ``b`` may be one index for all.
    Degrees come from ``np.bincount`` over (edge set, agent) rows and each
    diagonal is one minus its row's off-diagonal sum; the stack's double
    stochasticity is checked once.
    """
    rows_i, rows_j = b * m + i, b * m + j  # row of W[b] in the (count * m, m) view
    deg = np.bincount(rows_i, minlength=count * m) + np.bincount(rows_j, minlength=count * m)
    w = 1.0 / (1.0 + np.maximum(deg[rows_i], deg[rows_j]))
    W = np.zeros((count, m, m))
    flat = W.reshape(count * m, m)
    flat[rows_i, j] = w
    flat[rows_j, i] = w
    W.reshape(count, m * m)[:, ::m + 1] = 1.0 - W.sum(axis=-1)
    _check_doubly_stochastic(W, DS_BUILD_TOL)
    return W


def sigma(W) -> float:
    """Deflated spectral norm ``||W - (1/m) 1 1^T||_2`` of a doubly stochastic W.

    Equals the second largest singular value of W; strictly below 1 exactly
    when one round of gossip contracts disagreement.  ``W`` may also be a
    ``(..., m, m)`` stack of matrices: the result is the largest of their
    norms, from one batched SVD.
    """
    M = np.asarray(W, dtype=float)
    _check_doubly_stochastic(M, DS_INPUT_TOL)
    m = M.shape[-1]
    val = np.linalg.svd(M - np.ones((m, m)) / m, compute_uv=False).max()
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


def _reaches_all(links: np.ndarray) -> bool:
    """Whether agent 0 reaches every agent in the graph whose symmetric,
    nonnegative ``links`` are positive exactly on its edges and diagonal."""
    reached = links[0] > 0
    count = np.count_nonzero(reached)
    while count < len(links):
        reached = links @ reached > 0  # one more hop
        grown = np.count_nonzero(reached)
        if grown == count:
            return False
        count = grown
    return True


def gamma_connectivity(schedule: GraphSchedule, gamma: int, horizon: int | None = None) -> bool:
    """Whether the union of every gamma consecutive edge sets is connected.

    For static and cyclic schedules one period of window starts is checked and
    the verdict is exact; for seeded_random schedules window starts up to
    ``horizon - gamma`` are sampled (default horizon 1000).  Each instant's
    edge set is drawn once per call, in order, and the call returns at the
    first window whose union is disconnected.  The window's union is kept as
    a symmetric matrix of per-pair edge counts (add the entering instant,
    subtract the leaving one), and connectivity is array reachability from
    agent 0 on it.
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
    # links[i, j]: instants of the window with edge (i, j); the unit diagonal
    # keeps reached agents reached.
    m = schedule.agent_count
    links = np.eye(m)
    cells_of = links.reshape(-1)  # a view: flat index i * m + j is links[i, j]
    window = deque()
    for k in range(last_start + gamma):
        edges = schedule.edge_set(k)
        cells = np.concatenate((edges.i * m + edges.j, edges.j * m + edges.i))  # (i, j) and (j, i)
        cells_of[cells] += 1.0  # an edge set holds each edge once
        window.append(cells)
        if len(window) == gamma:
            if not _reaches_all(links):
                return False
            cells_of[window.popleft()] -= 1.0
    return True


def sigma_gamma(schedule: GraphSchedule, gamma: int,
                horizon: int | None = None) -> SpectralReport:
    """Gamma-step mixing constant ``sup_k ||W^{k,gamma} - (1/m) 1 1^T||_2``.

    Periodic schedules (static ones have period 1) take the exact max over
    one full period of start instants; seeded_random schedules sample
    ``k in [gamma-1, horizon]`` and flag the result as an estimate.  Each
    instant's W^k is built once per call (windows of up to ``MAX_GAMMA``
    instants share the schedule's cache).

    Windows are handled ``SPECTRAL_CHUNK`` at a time: their matrices are
    stacked, the products are formed with batched ``@`` in
    ``matrix_product_window``'s order, and ``sigma`` takes each stack in one
    batched SVD.  Memory is O((SPECTRAL_CHUNK + gamma) m^2), not O(horizon m^2).
    """
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    period = schedule.period

    if period is not None:
        ks = range(gamma - 1, gamma - 1 + period)
        is_estimate = False
    else:
        if horizon is None:
            horizon = 1000
        if horizon < gamma:
            raise ValueError("horizon must be at least gamma")
        ks = range(gamma - 1, horizon + 1)
        is_estimate = True

    sig_g = 0.0
    sig_1 = 0.0
    for first in range(ks.start, ks.stop, SPECTRAL_CHUNK):
        count = min(SPECTRAL_CHUNK, ks.stop - first)
        # Ws[c + s] = W^{k - gamma + 1 + s} for the window ending at k = first + c.
        Ws = np.stack([schedule.matrix(r) for r in range(first - gamma + 1, first + count)])
        P = Ws[:count]
        for s in range(1, gamma):
            P = Ws[s:s + count] @ P
        chunk_1 = sigma(Ws[gamma - 1:])
        sig_1 = max(sig_1, chunk_1)
        sig_g = max(sig_g, sigma(P) if gamma > 1 else chunk_1)
    return SpectralReport(sig_1, sig_g, gamma, is_estimate)
