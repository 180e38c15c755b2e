"""Mixing operators for aggregate states: gossip, Chebyshev acceleration, multiple consensus.

One gossip round replaces each agent's row by a weighted neighbor average,
``x <- W x``.  Two accelerated wrappers trade extra rounds per call for a much
smaller effective contraction constant:

* Chebyshev acceleration (static symmetric W only) applies a degree-t
  Chebyshev polynomial of the Laplacian ``L = I - W`` so that
  ``t = ceil(1/sqrt(nu))`` rounds contract disagreement to a constant factor
  at most 0.65 independent of how close sigma is to 1.
* Multiple consensus (time-varying schedules) chains ``zeta`` consecutive
  schedule matrices ``GraphSchedule.matrix(k)``; with
  ``zeta = ceil(gamma / (1 - sigma_gamma))`` the disagreement shrinks by at
  least 1/e per call.

Each call costs a fixed number of communication rounds (1 for gossip, t for
Chebyshev, zeta for multiple consensus); the run loop that makes the calls
counts them, so the operators stay pure.

A multiple-consensus round is one ``ndarray.dot``, not ``@``: both reach the
same BLAS product, so the result is bitwise ``W @ x`` (tests pin this for
the sizes and layouts the rounds see), but on a 20 x 20 matrix numpy's call
overhead makes ``@`` two to three times as slow as ``.dot``, and a
multiple-consensus run makes thousands of such rounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (DS_INPUT_TOL, GraphSchedule, _all_connected, _check_doubly_stochastic,
                    _integer, _is_real, _upper_pairs, metropolis_weights, sigma as sigma_of)

SYMMETRY_TOL = 1e-12
# sigma below this is treated as exact consensus in one round: the Chebyshev
# constants degenerate (nu = 1 makes c2 blow up) and acceleration is pointless.
SIGMA_BYPASS_TOL = 1e-12


@dataclass(frozen=True)
class ChebyshevOperator:
    """Degree-t Chebyshev polynomial accelerator for a symmetric mixing matrix.

    With ``L = I - W``, ``lambda1`` its largest eigenvalue, and
    ``nu = (1 - sigma) / lambda1``, the constants are

        c1 = (1 - sqrt(nu)) / (1 + sqrt(nu)),
        c2 = (1 + nu) / (1 - nu),
        c3 = 2 / (lambda1 + 1 - sigma),

    and applying the operator computes ``(I - P_t(c3 L)) x`` whose restriction
    to the disagreement subspace has norm at most ``2 c1^t / (1 + c1^(2t))``.
    ``bypass`` marks the degenerate sigma = 0 case where plain gossip with W
    already achieves consensus in a single round; each of the operator's t
    rounds is then one such gossip.
    """

    base_matrix: np.ndarray
    t: int
    nu: float
    c1: float
    c2: float
    c3: float
    lambda1: float
    bypass: bool = False


def chebyshev_operator(W, t: int | None = None, sigma: float | None = None) -> ChebyshevOperator:
    """Construct a ChebyshevOperator; t defaults to ``ceil(1/sqrt(nu))``.

    ``sigma``, if given, is ``graph.sigma(W)`` already taken (the run passes
    the value ``resolve_constants`` computed, so W is decomposed once per
    run); otherwise it is computed here.  W is one nonempty square matrix;
    any other shape is a ValueError, raised before the symmetry test.  So
    is a W that is not doubly stochastic to ``DS_INPUT_TOL``, tested after
    the symmetry test whether or not sigma is given.  ValueError when W's
    support graph (its nonzero off-diagonal entries) is disconnected,
    tested before any decomposition: sigma alone cannot tell,
    since it rounds to 1 or just below 1 there, and the operator would take
    some 10^7 rounds per call.  A t that is not an integer of at least 1 is a
    ValueError, never truncated; so are a given sigma that is not a number at
    least 0 (a bool is not a number), a W that numpy cannot read as a real
    array or that has an infinite entry, and a given sigma above
    ``SIGMA_BYPASS_TOL`` for a W = I (one agent), whose sigma is 0.
    When sigma <= ``SIGMA_BYPASS_TOL`` the operator is plain gossip with W,
    t rounds of it (one when t is None).
    """
    t = None if t is None else _integer(t, "t", 1)
    if not (sigma is None or (_is_real(sigma) and sigma >= 0.0)):
        raise ValueError(f"sigma must be a number in [0, 1), got {sigma!r}")
    try:
        M = np.asarray(W, dtype=float)
    except (TypeError, OverflowError):  # e.g. a dict, or an integer past the float range
        raise ValueError(f"mixing matrix must be a real (m, m) array, got {W!r}") from None
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"mixing matrix must be square, one (m, m) matrix, got shape {M.shape}")
    if M.size == 0:
        raise ValueError(f"mixing matrix is empty (shape {M.shape}): a matrix needs at least "
                         "one agent")
    if np.isinf(M).any():  # inf - inf would warn in the symmetry test; NaN fails below
        raise ValueError("mixing matrix has an infinite entry")
    asym = np.abs(M - M.T).max()
    if asym > SYMMETRY_TOL:
        raise ValueError(f"Chebyshev acceleration needs a symmetric matrix (asymmetry {asym:.3e})")
    _check_doubly_stochastic(M, DS_INPUT_TOL)  # a given sigma says nothing of W's sums
    m = M.shape[0]
    iu, ju = _upper_pairs(m)
    support = (M[iu, ju] != 0) | (M[ju, iu] != 0)  # the graph of W's off-diagonal entries
    if not _all_connected(support[None], m):
        sig = 1.0
    else:
        sig = sigma_of(M) if sigma is None else sigma
    if not sig < 1.0:
        raise ValueError("Chebyshev acceleration needs sigma < 1; the graph is not connected")
    lam = np.linalg.eigvalsh(np.eye(m) - M)
    # lambda1 <= 2 for doubly stochastic W; clip rounding overshoot.
    lambda1 = float(min(lam[-1], 2.0))
    if sig <= SIGMA_BYPASS_TOL:
        return ChebyshevOperator(M, 1 if t is None else t, 1.0, 0.0, float("inf"), 1.0,
                                 lambda1, bypass=True)
    if not lambda1 > 0.0:  # W = I (one agent), whose sigma 0 bypasses above
        raise ValueError(f"sigma = {sig} does not fit W: I - W has no positive eigenvalue")
    nu = (1.0 - sig) / lambda1
    if t is None:
        t = math.ceil(1.0 / math.sqrt(nu))
    c1 = (1.0 - math.sqrt(nu)) / (1.0 + math.sqrt(nu))
    c2 = (1.0 + nu) / (1.0 - nu)
    c3 = 2.0 / (lambda1 + 1.0 - sig)
    return ChebyshevOperator(M, t, nu, c1, c2, c3, lambda1)


def gossip(W, x: np.ndarray) -> np.ndarray:
    """One communication round: returns W x."""
    M = np.asarray(W, dtype=float)
    x = np.asarray(x, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"W must be a matrix, got shape {M.shape}")
    if M.shape[1] != x.shape[0]:
        raise ValueError(f"shape mismatch: W is {M.shape}, state has {x.shape[0]} rows")
    return M @ x


def chebyshev_apply(op: ChebyshevOperator, x: np.ndarray) -> np.ndarray:
    """Apply ``(I - P_t(c3 L)) x`` via the three-term Chebyshev recurrence.

    Runs ``a0 = 1, a1 = c2, z0 = x, z1 = c2 (I - c3 L) x`` and then
    ``a_{s+1} = 2 c2 a_s - a_{s-1}``, ``z^{s+1} = 2 c2 (I - c3 L) z^s - z^{s-1}``
    for s = 1..t-1, returning ``z^t / a_t``.  Costs t communication rounds and
    preserves the column means of x exactly.  Each round's operations run in
    the textbook order, in place in the array its product ``W z^s`` returns,
    so a round allocates that one array; x is only read.  A bypass operator
    gossips with W t times, one product per round it costs.
    """
    x = np.asarray(x, dtype=float)
    if op.base_matrix.shape[1] != x.shape[0]:
        raise ValueError("state row count does not match the operator")
    if op.bypass:
        for _ in range(op.t):
            x = op.base_matrix @ x
        return x
    W, c3 = op.base_matrix, op.c3

    def damped(v):
        # (I - c3 L) v = v - c3 (v - W v); one neighbor exchange per call.
        out = W @ v
        np.subtract(v, out, out=out)
        np.multiply(c3, out, out=out)
        return np.subtract(v, out, out=out)

    two_c2 = 2.0 * op.c2
    a_prev, a_cur = 1.0, op.c2
    z_prev, z_cur = x, damped(x)
    np.multiply(op.c2, z_cur, out=z_cur)
    for _ in range(1, op.t):
        a_prev, a_cur = a_cur, two_c2 * a_cur - a_prev
        z_next = damped(z_cur)
        np.multiply(two_c2, z_next, out=z_next)
        z_prev, z_cur = z_cur, np.subtract(z_next, z_prev, out=z_next)
    return np.divide(z_cur, a_cur, out=z_cur)


def default_zeta(gamma: int, sigma_gamma: float) -> int:
    """Rounds per multiple-consensus call: ``ceil(gamma / (1 - sigma_gamma))``;
    ValueError unless gamma is an integer at least 1 and sigma_gamma a number
    in [0, 1) (bools are neither), or when the quotient is past the float
    range."""
    gamma = _integer(gamma, "gamma", 1)
    if not _is_real(sigma_gamma):
        raise ValueError(f"sigma_gamma must be a number, got {sigma_gamma!r}")
    if not (0.0 <= sigma_gamma < 1.0):
        raise ValueError("sigma_gamma must lie in [0, 1)")
    try:
        return math.ceil(gamma / (1.0 - sigma_gamma))
    except OverflowError:
        raise ValueError(f"gamma = {gamma} is too large: gamma / (1 - sigma_gamma) is past "
                         "the float range") from None


def multiple_consensus(schedule: GraphSchedule, weight_rule, start_round: int,
                       zeta: int, x: np.ndarray) -> np.ndarray:
    """Chain zeta gossip rounds ``u^{t+1} = W^{start_round + t} u^t``; returns u^zeta.

    With ``zeta = ceil(gamma / (1 - sigma_gamma))`` on a gamma-connected
    schedule the disagreement norm contracts by at least a factor 1/e per
    call.  Round k is one product ``schedule.matrix(k).dot(x)``, bitwise
    ``schedule.matrix(k) @ x`` and cheaper to call on small matrices (see the
    module docstring), the rounds in order, so a run of calls on a
    seeded_random schedule draws and builds every instant once, and memory is
    the schedule's one chunk stack whatever zeta is.  ``weight_rule`` must be
    None or ``metropolis_weights``, the only rule the schedule builds.  A
    start_round that is not an integer, or a zeta that is not an integer of
    at least 1 (bools included), is a ValueError; a numpy integer is taken as
    a Python int, so the rounds cannot wrap.
    """
    start_round, zeta = _integer(start_round, "start_round"), _integer(zeta, "zeta", 1)
    if weight_rule not in (None, metropolis_weights):
        raise ValueError("multiple consensus mixes with the schedule's Metropolis matrices only")
    x = np.asarray(x, dtype=float)
    for k in range(start_round, start_round + zeta):
        x = schedule.matrix(k).dot(x)
    return x
