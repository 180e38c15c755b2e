"""Host speed sampled during a repetition, to put its wall time on a fixed scale.

On a shared virtual machine the processor runs the same code at different
speeds from one second to the next and in phases lasting up to a minute or
two: on a 2-vCPU x86-64 VM a fixed pure-Python loop took between 0.19 and
0.31 s, and one multiple-consensus repetition between 3.9 and 7.6 s, with
nothing else running.  The median wall time of a 40 s run then moves by
15-30 % between runs of the same code, more than a useful regression bound.

``Sampler`` times a short fixed ``kernel`` once before a repetition, every
``PERIOD_S`` during it (from a timer signal) and once after it.  The mean
kernel time says how fast the host ran the repetition, and
``Sampler.scale(seconds, spent)`` removes the kernel's own time from a wall
time and multiplies the rest by ``REFERENCE_S / mean``: the seconds the
repetition would have taken on a host on which the kernel takes
``REFERENCE_S``.  The kernel uses Python and numpy only, never agtrack, so a
change to agtrack cannot move the yardstick.  It mixes the kinds of work
agtrack's layers do: Python loops over edge tuples and dicts, per-instant
random draws, small dense products, a spectral norm, logistic losses.  Each
kernel run lasts 7-12 ms, long enough that refilling the caches the
repetition evicted is a small part of it.  In one process on that VM the
multiple-consensus repetitions took 4.0-7.1 s raw and 6.5-7.6 s scaled, and
the medians of 40 s windows spread (interquartile range over median) 0.18
raw and 0.02 scaled.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
# The kernel's time on the 2-vCPU x86-64 VM the benchmark was written on, in
# its fast state, so scaled times read close to that host's wall seconds.
REFERENCE_S = 0.007

M = 20
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((M, M)) / M
_X = _rng.standard_normal((M, 4))
_DATA = _rng.standard_normal((30, 4))
_LABELS = np.sign(_rng.standard_normal(30))
_IU, _JU = np.triu_indices(M, 1)
_J = np.ones((M, M)) / M


def _python_part(rounds: int) -> float:
    """Degree counts, weights and a connectivity sweep over edge tuples."""
    total = 0.0
    for r in range(rounds):
        edges = [(i, (i * 7 + r) % M) for i in range(M) if i != (i * 7 + r) % M]
        deg = {}
        for i, j in edges:
            deg[i] = deg.get(i, 0) + 1
            deg[j] = deg.get(j, 0) + 1
        weights = {(i, j): 1.0 / (1.0 + max(deg[i], deg[j])) for i, j in edges}
        adj = [[] for _ in range(M)]
        for i, j in edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        total += sum(weights.values()) + len(seen)
    return total


def _numpy_part(rounds: int) -> float:
    """Per-instant edge draws, a Metropolis-like matrix, products and norms."""
    total = 0.0
    for r in range(rounds):
        mask = np.random.default_rng((7, r)).random(_IU.shape[0]) < 0.1
        W = np.eye(M) + 0.5 * _A * _A.T
        W[_IU[mask], _JU[mask]] += 0.01
        x = W @ _X
        margins = _LABELS * (_DATA @ x[:4, 0])
        total += np.linalg.norm(W - _J, 2) + float(np.logaddexp(0.0, -margins).mean())
        total += float(np.einsum("pi,ij,pj->p", x.T, _A, x.T).sum())
    return total


def kernel() -> float:
    """One fixed unit of work; returns a checksum that never changes."""
    return _python_part(200) + _numpy_part(16)


class Sampler:
    """Kernel times before, during (every ``PERIOD_S``) and after a ``with`` block.

    ``spent_s`` is the time the samples taken inside the block have cost so
    far; read it at a point inside the block to know how much of a wall time
    measured up to there was the sampler's.
    """

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._previous = None
        self._busy = False

    def _sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside a sample would nest and count twice
            return
        self._busy = True
        start = time.perf_counter()
        self._sample()
        self.spent_s += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def kernel_s(self) -> float:
        """The mean kernel time: how fast the host ran the block."""
        return statistics.fmean(self.samples)

    def scale(self, seconds: float, spent: float) -> float:
        """``seconds`` of wall time, ``spent`` of it sampling, at reference speed."""
        return (seconds - spent) * REFERENCE_S / self.kernel_s()
