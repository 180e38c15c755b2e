"""Local objectives stacked over agents, aggregate states, and the quantities measured on them.

The global objective is ``F(x) = (1/m) sum_i f_(i)(x)`` where agent i privately
holds ``f_(i)``, assumed L_i-smooth and mu_i-strongly convex (mu_i = 0
allowed).  Aggregate matrices stack one row per agent, so a state is m-by-n
and the consensus violation of x is measured through the projector
``Pi = I - (1/m) 1 1^T`` as ``||Pi x||^2``.  A ``ProblemInstance`` stores
every agent's data once, stacked over agents, and evaluates all agents in one
array expression.  Quadratics keep ``A`` (m, n, n), every A_i symmetric, and
``b`` (m, n); F is the quadratic of their means.  Logistic agents share one
``data`` matrix (N, n) and ``labels`` (N,), rows grouped by agent, with integer
``counts`` and ``ridge`` (m,) per agent; an owner index (N,) maps each row to
its agent, and per-agent sums over rows are ``np.add.reduceat`` at the group
starts.  Constructing an instance checks these stacks, every entry finite
and every logistic label -1 or +1 (ValueError before any arithmetic on
them), and solves its optimum ``x_star`` / ``F_star``; a quadratic whose mean
Hessian is singular to working precision (smallest eigenvalue not above n eps
times the largest magnitude, so a rank-deficient one that rounding leaves
invertible too) has no unique minimizer and is a ValueError.
``quadratic_problem`` and ``logistic_problem`` build an instance from stacks
and derive its L and mu, and ``quadratic_problem`` rejects an agent that is
not convex (an A_i with a negative eigenvalue); the seeded generators draw
random ones.  Besides values and gradients the module provides the Bregman
distance and the inexact value the verification harness checks, and the
optimum oracle.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .graph import _integer, _is_finite, _is_int

OPTIMUM_TOL_LOGISTIC = 1e-10
OPTIMUM_MAX_ITERS = 1_000_000
OPTIMUM_RESIDUAL = 1e-10
_EPS = float(np.finfo(float).eps)


def _check_sizes(m: int, n: int) -> tuple[int, int]:
    """m and n as Python ints, so no size arithmetic wraps; ValueError unless
    both are integers at least 1."""
    if not (_is_int(m) and _is_int(n) and m >= 1 and n >= 1):
        raise ValueError(f"need at least one agent and one dimension, as integers "
                         f"(got m = {m!r}, n = {n!r})")
    return operator.index(m), operator.index(n)


def _check_stacks(kind, A=None, b=None, data=None, labels=None, counts=None, ridge=None):
    """Sizes ``(m, n)`` of stacks laid out as the module docstring says;
    ValueError naming the first check they fail, a given stack that the kind
    does not read, or one it reads that is missing or not a real numpy array
    of one or more axes.  Every entry of A, b, data, labels and ridge must be finite:
    a NaN would otherwise pass the optimum's residual test (``nan > tol`` is
    False) or stall its solver."""
    if kind not in ("quadratic", "logistic"):
        raise ValueError(f"unknown objective kind {kind!r}")
    given = {"A": A, "b": b, "data": data, "labels": labels, "counts": counts, "ridge": ridge}
    read = ("A", "b") if kind == "quadratic" else ("data", "labels", "counts", "ridge")
    stray = [name for name, stack in given.items() if name not in read and stack is not None]
    if stray:
        raise ValueError(f"a {kind} instance does not read {', '.join(stray)}")
    for name in read:
        stack = given[name]
        if not (isinstance(stack, np.ndarray) and stack.ndim and stack.dtype.kind in "iuf"):
            raise ValueError(f"a {kind} instance needs {name} as a real numpy array of one or "
                             f"more axes, got {stack!r:.40}")
    m, n = (len(b), b.shape[-1]) if kind == "quadratic" else (len(counts), data.shape[-1])
    _check_sizes(m, n)
    if kind == "quadratic":
        stacks = {"A": A, "b": b}
        if A.shape != (m, n, n) or b.shape != (m, n):
            raise ValueError(f"need A (m, n, n) and b (m, n), got {A.shape} and {b.shape}")
    elif counts.ndim != 1 or counts.dtype.kind not in "iu" or (counts < 1).any():
        raise ValueError("every logistic agent needs at least one sample (integer counts >= 1)")
    elif data.shape != (counts.sum(), n) or labels.shape != (counts.sum(),):
        raise ValueError(f"counts must cover the rows of data {data.shape}, labels {labels.shape}")
    elif ridge.shape != (m,) or not (ridge >= 0.0).all():
        raise ValueError(f"need ridge >= 0 per agent or the objective is not convex (got {ridge})")
    else:
        stacks = {"data": data, "labels": labels, "ridge": ridge}
    for name, stack in stacks.items():
        if not np.isfinite(stack).all():
            raise ValueError(f"every entry of {name} must be finite (no NaN or infinity)")
    # L = lambda_max(D_i^T D_i) / (4 counts_i) + ridge_i holds for labels of
    # magnitude 1; a label y scales its row's curvature by y^2.
    if kind == "logistic" and not (np.abs(labels) == 1.0).all():
        raise ValueError("every label must be -1 or +1")
    # Products such as Q_i D_i Q_i^T are symmetric only up to rounding, hence a
    # relative tolerance; A_i - A_i^T is antisymmetric, so its maximum is its
    # largest magnitude.
    if kind == "quadratic" and not ((A - A.transpose(0, 2, 1)).max()
                                    <= 1e-10 * max(A.max(), -A.min())):
        raise ValueError("every A_i must be symmetric")
    return m, n


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """m local objectives of one kind, stacked as the module docstring says;
    ``L = max_i L_i`` and ``mu = min_i mu_i`` are the constants the step-size
    rules and certificates use.  Construction checks the stacks, sets the
    sizes ``m``, ``n`` and solves the optimum ``x_star``, ``F_star`` with
    ``solve_optimum``, so ``||mean_gradient(x_star)|| <= 1e-10``.  It holds
    only its kind's stacks.  Two instances are equal only when they are the
    same object, and an instance hashes by identity: comparing the arrays
    field by field would raise, as numpy's ``==`` has no single truth value."""

    kind: str
    L: float
    mu: float
    A: np.ndarray | None = None       # quadratic (m, n, n)
    b: np.ndarray | None = None       # quadratic (m, n)
    data: np.ndarray | None = None    # logistic (N, n), rows grouped by agent
    labels: np.ndarray | None = None  # logistic (N,)
    counts: np.ndarray | None = None  # logistic (m,) rows per agent
    ridge: np.ndarray | None = None   # logistic (m,)

    def __post_init__(self):
        m, n = _check_stacks(self.kind, self.A, self.b, self.data, self.labels, self.counts,
                             self.ridge)
        derived = vars(self)  # a frozen instance's derived values go straight to its dict
        derived.update(m=m, n=n)
        if self.kind == "quadratic":
            derived.update(_Abar=self.A.mean(axis=0), _bbar=self.b.mean(axis=0))
        else:
            derived.update(_owner=np.repeat(np.arange(m), self.counts),
                           _starts=np.cumsum(self.counts) - self.counts)
        derived["x_star"], derived["F_star"] = solve_optimum(self)

    def _F(self, X: np.ndarray) -> np.ndarray:
        """F at each row of X (P-by-n) -> (P,)."""
        if self.kind == "quadratic":
            return np.einsum("pj,pj->p", X, 0.5 * (X @ self._Abar) + self._bbar)
        loss = self.data @ X.T  # (N, P): products, then margins and losses in place
        np.multiply(-self.labels[:, None], loss, out=loss)
        np.logaddexp(0.0, loss, out=loss)
        per_agent = np.add.reduceat(loss, self._starts) / self.counts[:, None]
        return (per_agent + 0.5 * self.ridge[:, None] * (X * X).sum(axis=1)).mean(axis=0)

    def _local(self, Y: np.ndarray):
        """Per-agent values ``f_(i)(Y_i)`` (m,) and gradients ``grad f_(i)(Y_i)`` (m, n)."""
        return self._values(Y), self._gradients(Y)

    def _values(self, Y: np.ndarray) -> np.ndarray:
        """Per-agent values ``f_(i)(Y_i)`` (m,)."""
        if self.kind == "quadratic":
            return np.einsum("ij,ij->i", Y, 0.5 * np.einsum("ijk,ik->ij", self.A, Y) + self.b)
        loss = np.add.reduceat(np.logaddexp(0.0, -self._margins(Y)), self._starts) / self.counts
        return loss + 0.5 * self.ridge * np.einsum("ij,ij->i", Y, Y)

    def _gradients(self, Y: np.ndarray) -> np.ndarray:
        """Per-agent gradients ``grad f_(i)(Y_i)`` (m, n)."""
        if self.kind == "quadratic":
            return np.einsum("ijk,ik->ij", self.A, Y) + self.b
        # d/dm log(1+e^{-m}) = -sigmoid(-m)
        coeff = -self.labels / (1.0 + np.exp(self._margins(Y)))
        grads = np.add.reduceat(coeff[:, None] * self.data, self._starts) / self.counts[:, None]
        return grads + self.ridge[:, None] * Y

    def _margins(self, Y: np.ndarray) -> np.ndarray:
        """Logistic margins ``label_r <data_r, Y_owner(r)>`` per row (N,)."""
        return self.labels * np.einsum("rj,rj->r", self.data, Y[self._owner])

    def value(self, w: np.ndarray) -> float:
        return float(self._F(np.asarray(w, dtype=float)[None, :])[0])

    def value_many(self, X: np.ndarray) -> np.ndarray:
        """F at each row of X -> (P,)."""
        return self._F(np.asarray(X, dtype=float))

    def mean_gradient(self, w: np.ndarray) -> np.ndarray:
        w = np.broadcast_to(np.asarray(w, dtype=float), (self.m, self.n))
        return self._gradients(w).mean(axis=0)


def aggregate_gradient(problem: ProblemInstance, y: np.ndarray) -> np.ndarray:
    """Row i = grad f_(i)(y_i); one parallel gradient round."""
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.m, problem.n):
        raise ValueError(f"state shape {y.shape} does not match problem ({problem.m}, {problem.n})")
    return problem._gradients(y)


def consensus_error(x: np.ndarray, xbar: np.ndarray | None = None) -> float:
    """Squared disagreement ``||Pi x||^2`` (Frobenius, rows demeaned).

    ``xbar``, if given, is x's column mean ``x.mean(axis=0)``, already taken.
    """
    x = np.asarray(x, dtype=float)
    centered = x - (x.mean(axis=0, keepdims=True) if xbar is None else xbar)
    return float((centered * centered).sum())


def bregman_distance(problem: ProblemInstance, x: np.ndarray, y: np.ndarray, *,
                     local=None, F_x: float | None = None) -> float:
    """Averaged first-order residual D_f(x, y) = F(x) - f(x, y); nonnegative by convexity.

    ``local`` is passed on to ``inexact_value``; ``F_x``, if given, is F(x)
    as ``problem.value(x)`` computes it.
    """
    x = np.asarray(x, dtype=float)
    if F_x is None:
        F_x = float(problem._F(x[None, :])[0])
    return F_x - inexact_value(problem, x, y, local=local)


def inexact_value(problem: ProblemInstance, ybar: np.ndarray, y: np.ndarray, *,
                  local=None) -> float:
    """Linearized surrogate value ``(1/m) sum_i [f_(i)(y_i) + <grad_i, ybar - y_i>]``.

    ``local``, if given, is ``problem._local(y)``: the per-agent values and
    gradients at y, already evaluated.
    """
    y = np.asarray(y, dtype=float)
    values, grads = problem._local(y) if local is None else local
    return float((values + np.einsum("ij,ij->i", grads, np.asarray(ybar, dtype=float) - y)).mean())


def solve_optimum(problem: ProblemInstance):
    """High-precision minimizer ``(x_star, F_star)`` of F, with mean-gradient norm
    at most 1e-10: direct solve for quadratic sums (ValueError when the mean
    Hessian is singular to working precision, its smallest eigenvalue not
    above ``n eps`` times its largest magnitude), accelerated gradient descent
    for logistic (RuntimeError when it fails to reach
    ``OPTIMUM_TOL_LOGISTIC``, ValueError when ridge-free data turn out
    separable, see ``_agd_minimize``)."""
    if problem.kind == "quadratic":
        # numpy's matrix_rank tolerance, n eps times the largest magnitude: a
        # rank-deficient Hessian that rounding leaves with a nonzero LU pivot
        # is caught, as is one with no positive eigenvalue (F unbounded below).
        eigs = np.linalg.eigvalsh(problem._Abar)
        lo, hi = eigs[0], eigs[-1]  # ascending
        if not lo > problem.n * _EPS * max(-lo, hi):
            raise ValueError("the mean Hessian (1/m) sum_i A_i is singular, so F has no "
                             "unique minimizer")
        x_star = np.linalg.solve(problem._Abar, -problem._bbar)
    else:
        x_star = _agd_minimize(problem)
    resid = float(np.linalg.norm(problem.mean_gradient(x_star)))
    if resid > OPTIMUM_RESIDUAL:
        raise RuntimeError(f"optimum residual {resid:.3e} exceeds {OPTIMUM_RESIDUAL:.0e}; "
                           "instance may be ill-conditioned")
    return x_star, problem.value(x_star)


def _agd_minimize(problem: ProblemInstance) -> np.ndarray:
    """Centralized Nesterov descent on F until the gradient norm reaches
    ``OPTIMUM_TOL_LOGISTIC``.

    Ridge-free separable data have no minimizer (the iterate norm diverges,
    Soudry et al., arXiv 1710.10345): ValueError once the margins
    ``labels * (data @ v)`` of an iterate v are all >= 0 with at least one
    > 0.  Then every x has F(x + v) < F(x), so F only approaches its infimum
    along v; strictly separable data (every margin > 0) are the case where
    that infimum is 0.  The test reads the rounded margins, so a tie broken by
    rounding (a margin that is 0 in exact arithmetic but rounds below 0) is
    still not caught, nor are weakly separable data that no iterate separates."""
    L, mu = problem.L, problem.mu
    x = v = np.zeros(problem.n)
    if mu > 0:
        beta = (np.sqrt(L) - np.sqrt(mu)) / (np.sqrt(L) + np.sqrt(mu))
    ridge_free = not problem.ridge.any()
    theta = 1.0
    for _ in range(OPTIMUM_MAX_ITERS):
        if ridge_free:
            margins = problem.labels * (problem.data @ v)
            if margins.min() >= 0.0 and margins.max() > 0.0:
                raise ValueError("separable data, F has no minimizer without a ridge; set ridge > 0")
        g = problem.mean_gradient(v)
        if np.linalg.norm(g) <= OPTIMUM_TOL_LOGISTIC:
            return v
        x_next = v - g / L
        if mu > 0:
            v = x_next + beta * (x_next - x)
        else:
            theta_next = theta * (np.sqrt(theta**2 + 4.0) - theta) / 2.0
            v = x_next + theta_next * (1.0 / theta - 1.0) * (x_next - x)
            theta = theta_next
        x = x_next
    raise RuntimeError(f"optimum solver did not reach tolerance {OPTIMUM_TOL_LOGISTIC:.0e} "
                       f"within {OPTIMUM_MAX_ITERS} iterations")


def quadratic_problem(A, b) -> ProblemInstance:
    """Quadratic agents ``f_(i)(x) = 0.5 x^T A_i x + b_i^T x`` from A (m, n, n)
    and b (m, n), every A_i symmetric, with L and mu the extreme eigenvalues
    over the A_i; ValueError for stacks ``ProblemInstance`` rejects and for an
    A_i with an eigenvalue below ``-1e-10 max(1, |L|)``: such an agent is not
    convex, and F's stationary point can be its maximizer."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    _check_stacks("quadratic", A, b)
    eigs = np.linalg.eigvalsh((A + A.transpose(0, 2, 1)) / 2.0)
    if eigs.min() < -1e-10 * max(1.0, abs(eigs.max())):
        raise ValueError("every A_i must be positive semidefinite (a convex agent), got the "
                         f"eigenvalue {float(eigs.min())!r}")
    return ProblemInstance("quadratic", float(eigs.max()), float(eigs.min()), A=A, b=b)


def logistic_problem(data, labels, counts, ridge) -> ProblemInstance:
    """Logistic agents over the rows of data (N, n) and labels (N,), grouped by
    agent in ``counts`` (m,) rows each, with a ridge (m,) per agent;
    ``L = max_i lambda_max(D_i^T D_i) / (4 counts_i) + ridge_i`` and
    ``mu = min_i ridge_i``; ValueError for stacks ``ProblemInstance`` rejects,
    before any arithmetic on the rows."""
    data, labels = np.asarray(data, dtype=float), np.asarray(labels, dtype=float)
    counts, ridge = np.asarray(counts), np.asarray(ridge, dtype=float)
    _check_stacks("logistic", data=data, labels=labels, counts=counts, ridge=ridge)
    grams = np.stack([d.T @ d for d in np.split(data, np.cumsum(counts)[:-1])])
    L = np.linalg.eigvalsh(grams)[:, -1] / (4.0 * counts) + ridge
    return ProblemInstance("logistic", float(L.max()), float(ridge.min()), data=data,
                           labels=labels, counts=counts, ridge=ridge)


def random_quadratic_problem(m: int, n: int, L: float = 1.0, mu: float = 0.0,
                             seed: int = 0, shared_basis: bool = False) -> ProblemInstance:
    """Seeded random quadratic instance with exact global constants.

    Per-agent spectra are drawn and affinely mapped so that ``max_i L_i = L``
    and ``min_i mu_i = mu`` hold exactly; ValueError unless ``m, n >= 1``
    and the seed are integers, L and mu are finite numbers (a bool, a string
    or None is not one) with ``0 <= mu <= L`` and ``0 < L``, when one drawn
    eigenvalue (m = n = 1) cannot be both, or when L is so large that
    mapping the drawn spectra onto [mu, L] overflows.
    ``shared_basis=True`` rotates every agent by the same orthogonal matrix,
    which keeps the averaged objective as ill-conditioned as the per-agent
    constants say (independent rotations average out toward isotropy); with
    ``mu = 0`` one agent's Hessian is rank-deficient, the average invertible.

    The rotations come from one ``standard_normal((m, n, n))`` draw (one
    ``(n, n)`` draw when shared), which takes the stream exactly as m
    per-agent draws would, and one batched ``qr``.  ``Q_i D_i`` scales Q_i's
    columns by the spectrum elementwise, which gives bitwise the product with
    the diagonal matrix (its other terms are zeros), and ``A_i = (Q_i D_i)
    Q_i^T`` is one batched matmul in that product order, so every instance is
    bitwise what a per-agent loop builds.
    """
    m, n = _check_sizes(m, n)
    if not (_is_finite(L) and _is_finite(mu) and 0.0 < L and 0.0 <= mu <= L):
        raise ValueError(f"need L > 0 and 0 <= mu <= L, both finite (got L = {L!r}, mu = {mu!r})")
    rng = np.random.default_rng(_integer(seed, "seed"))
    spectra = np.geomspace(1.0, 100.0, n) * rng.uniform(0.3, 1.7, (m, n))
    lo, hi = spectra.min(), spectra.max()
    if hi == lo and L != mu:
        raise ValueError(f"a single drawn eigenvalue cannot take both L = {L} and mu = {mu}")
    with np.errstate(over="ignore"):  # (spectra - lo) * (L - mu) can overflow; checked below
        spectra = (mu + (spectra - lo) * (L - mu) / (hi - lo) if hi > lo
                   else np.full_like(spectra, L))
    if not np.isfinite(spectra).all():
        raise ValueError(f"L = {L!r} is too large: mapping the drawn spectra onto [mu, L] "
                         "overflows")
    Q = np.linalg.qr(rng.standard_normal((1 if shared_basis else m, n, n)))[0]
    A = (Q * spectra[:, None, :]) @ Q.transpose(0, 2, 1)  # Q_i diag(spectra_i) Q_i^T
    return ProblemInstance("quadratic", float(spectra.max()), float(spectra.min()),
                           A=A, b=rng.standard_normal((m, n)))


def random_logistic_problem(m: int, n: int, samples_per_agent: int = 20,
                            ridge: float = 0.0, seed: int = 0) -> ProblemInstance:
    """Two-class logistic instance on synthetic Gaussian blobs; ValueError for
    an empty size, a sample count or seed that is not an integer, or a ridge
    that is not a finite number at least 0 (a bool is not a number)."""
    m, n = _check_sizes(m, n)
    p = _integer(samples_per_agent, "samples_per_agent")
    if not _is_finite(ridge):
        raise ValueError(f"need ridge >= 0 as a finite number, got {ridge!r}")
    rng = np.random.default_rng(_integer(seed, "seed"))
    center = rng.standard_normal(n)
    center *= 1.5 / np.linalg.norm(center)
    data, labels = np.empty((m, p, n)), np.empty((m, p))
    for i in range(m):
        labels[i] = np.where(rng.random(p) < 0.5, -1.0, 1.0)
        data[i] = labels[i][:, None] * center + rng.standard_normal((p, n))
    return logistic_problem(data.reshape(m * p, n), labels.reshape(m * p), np.full(m, p),
                            np.full(m, float(ridge)))
