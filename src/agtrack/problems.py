"""Local objectives stacked over agents, aggregate states, and the quantities measured on them.

The global objective is ``F(x) = (1/m) sum_i f_(i)(x)`` where agent i privately
holds ``f_(i)``, assumed L_i-smooth and mu_i-strongly convex (mu_i = 0
allowed).  Aggregate matrices stack one row per agent, so a state is m-by-n
and the consensus violation of x is measured through the projector
``Pi = I - (1/m) 1 1^T`` as ``||Pi x||^2``.  A ``ProblemInstance`` stores
every agent's data once, stacked over agents, and evaluates all agents in one
array expression.  Quadratics keep ``A`` (m, n, n) and ``b`` (m, n); F is the
quadratic of their means.  Logistic agents share one ``data`` matrix (N, n)
and ``labels`` (N,), rows grouped by agent, with ``counts`` and ``ridge`` (m,)
per agent; an owner index (N,) maps each row to its agent, and per-agent sums
over rows are ``np.add.reduceat`` at the group starts.  Besides values and
gradients the module provides the Bregman distance and the inexact value the
verification harness checks, and the optimum oracle.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .mixing import RoundCounter

OPTIMUM_TOL_LOGISTIC = 1e-10
OPTIMUM_MAX_ITERS = 1_000_000
OPTIMUM_RESIDUAL = 1e-10


@dataclass(frozen=True)
class LocalObjective:
    """One agent's objective, an input record of ``make_problem``: ``quadratic``
    (quad_A, quad_b) or ``logistic`` (data, labels, ridge), curvature L_i..mu_i."""

    kind: str
    L_i: float
    mu_i: float
    quad_A: np.ndarray | None = None
    quad_b: np.ndarray | None = None
    data: np.ndarray | None = None
    labels: np.ndarray | None = None
    ridge: float = 0.0


def quadratic_objective(A: np.ndarray, b: np.ndarray) -> LocalObjective:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    eigs = np.linalg.eigvalsh((A + A.T) / 2.0)
    return LocalObjective("quadratic", float(eigs[-1]), float(eigs[0]), quad_A=A, quad_b=b)


def logistic_objective(data: np.ndarray, labels: np.ndarray, ridge: float = 0.0) -> LocalObjective:
    data = np.asarray(data, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if data.shape[0] == 0:
        raise ValueError("every logistic agent needs at least one sample")
    top = float(np.linalg.eigvalsh(data.T @ data)[-1])
    return LocalObjective("logistic", top / (4.0 * data.shape[0]) + ridge, float(ridge),
                          data=data, labels=labels, ridge=ridge)


@dataclass(frozen=True)
class ProblemInstance:
    """m local objectives of one kind, stacked as the module docstring says;
    ``L = max_i L_i`` and ``mu = min_i mu_i`` are the constants the step-size
    rules and certificates use, and ``||mean_gradient(x_star)|| <= 1e-10``."""

    kind: str
    L: float
    mu: float
    A: np.ndarray | None = None       # quadratic (m, n, n)
    b: np.ndarray | None = None       # quadratic (m, n)
    data: np.ndarray | None = None    # logistic (N, n), rows grouped by agent
    labels: np.ndarray | None = None  # logistic (N,)
    counts: np.ndarray | None = None  # logistic (m,) rows per agent
    ridge: np.ndarray | None = None   # logistic (m,)
    x_star: np.ndarray | None = None
    F_star: float | None = None

    def __post_init__(self):
        put = object.__setattr__  # derived arrays of a frozen instance
        if self.kind == "quadratic":
            put(self, "_Abar", self.A.mean(axis=0))
            put(self, "_bbar", self.b.mean(axis=0))
        elif self.kind == "logistic":
            if (self.counts < 1).any():
                raise ValueError("every logistic agent needs at least one sample")
            put(self, "_owner", np.repeat(np.arange(self.counts.shape[0]), self.counts))
            put(self, "_starts", np.cumsum(self.counts) - self.counts)
        else:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        put(self, "m", (self.b if self.kind == "quadratic" else self.counts).shape[0])
        put(self, "n", (self.b if self.kind == "quadratic" else self.data).shape[1])

    def _F(self, X: np.ndarray) -> np.ndarray:
        """F at each row of X (P-by-n) -> (P,)."""
        if self.kind == "quadratic":
            return np.einsum("pj,pj->p", X, 0.5 * (X @ self._Abar) + self._bbar)
        loss = np.logaddexp(0.0, -self.labels[:, None] * (self.data @ X.T))  # (N, P)
        per_agent = np.add.reduceat(loss, self._starts) / self.counts[:, None]
        return (per_agent + 0.5 * self.ridge[:, None] * (X * X).sum(axis=1)).mean(axis=0)

    def _local(self, Y: np.ndarray):
        """Per-agent values ``f_(i)(Y_i)`` (m,) and gradients ``grad f_(i)(Y_i)`` (m, n)."""
        if self.kind == "quadratic":
            AY = np.einsum("ijk,ik->ij", self.A, Y)
            return np.einsum("ij,ij->i", Y, 0.5 * AY + self.b), AY + self.b
        margins = self.labels * np.einsum("rj,rj->r", self.data, Y[self._owner])
        loss = np.add.reduceat(np.logaddexp(0.0, -margins), self._starts) / self.counts
        # d/dm log(1+e^{-m}) = -sigmoid(-m)
        coeff = -self.labels / (1.0 + np.exp(margins))
        grads = np.add.reduceat(coeff[:, None] * self.data, self._starts) / self.counts[:, None]
        return (loss + 0.5 * self.ridge * np.einsum("ij,ij->i", Y, Y),
                grads + self.ridge[:, None] * Y)

    def value(self, w: np.ndarray) -> float:
        return float(self._F(np.asarray(w, dtype=float)[None, :])[0])

    def value_many(self, X: np.ndarray) -> np.ndarray:
        """F at each row of X -> (P,)."""
        return self._F(np.asarray(X, dtype=float))

    def mean_gradient(self, w: np.ndarray) -> np.ndarray:
        w = np.broadcast_to(np.asarray(w, dtype=float), (self.m, self.n))
        return self._local(w)[1].mean(axis=0)


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


def aggregate_gradient(problem: ProblemInstance, y: np.ndarray,
                       counter: RoundCounter | None = None) -> np.ndarray:
    """Row i = grad f_(i)(y_i); one parallel gradient round."""
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.m, problem.n):
        raise ValueError(f"state shape {y.shape} does not match problem ({problem.m}, {problem.n})")
    if counter is not None:
        counter.add_grad(1)
    return problem._local(y)[1]


def averages(state: AggregateState):
    """Column means (xbar, ybar, zbar, sbar) of the four aggregate matrices."""
    return (state.x.mean(axis=0), state.y.mean(axis=0),
            state.z.mean(axis=0), state.s.mean(axis=0))


def consensus_error(x: np.ndarray) -> float:
    """Squared disagreement ``||Pi x||^2`` (Frobenius, rows demeaned)."""
    x = np.asarray(x, dtype=float)
    centered = x - x.mean(axis=0, keepdims=True)
    return float((centered * centered).sum())


def bregman_distance(problem: ProblemInstance, x: np.ndarray, y: np.ndarray) -> float:
    """Averaged first-order residual D_f(x, y) = F(x) - f(x, y); nonnegative by convexity."""
    x = np.asarray(x, dtype=float)
    return float(problem._F(x[None, :])[0]) - inexact_value(problem, x, y)


def inexact_value(problem: ProblemInstance, ybar: np.ndarray, y: np.ndarray) -> float:
    """Linearized surrogate value ``(1/m) sum_i [f_(i)(y_i) + <grad_i, ybar - y_i>]``."""
    y = np.asarray(y, dtype=float)
    values, grads = problem._local(y)
    return float((values + np.einsum("ij,ij->i", grads, np.asarray(ybar, dtype=float) - y)).mean())


def solve_optimum(problem: ProblemInstance):
    """High-precision minimizer ``(x_star, F_star)`` of F, with mean-gradient norm
    at most 1e-10: direct solve for quadratic sums, accelerated gradient descent
    for logistic (RuntimeError when it fails to reach ``OPTIMUM_TOL_LOGISTIC``)."""
    x_star = (np.linalg.solve(problem._Abar, -problem._bbar) if problem.kind == "quadratic"
              else _agd_minimize(problem))
    resid = float(np.linalg.norm(problem.mean_gradient(x_star)))
    if resid > OPTIMUM_RESIDUAL:
        raise RuntimeError(f"optimum residual {resid:.3e} exceeds {OPTIMUM_RESIDUAL:.0e}; "
                           "instance may be ill-conditioned")
    return x_star, problem.value(x_star)


def _agd_minimize(problem: ProblemInstance) -> np.ndarray:
    """Centralized Nesterov descent on F until the gradient norm reaches
    ``OPTIMUM_TOL_LOGISTIC``."""
    L, mu = problem.L, problem.mu
    x = v = np.zeros(problem.n)
    if mu > 0:
        beta = (np.sqrt(L) - np.sqrt(mu)) / (np.sqrt(L) + np.sqrt(mu))
    theta = 1.0
    for _ in range(OPTIMUM_MAX_ITERS):
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


def _solved(inst: ProblemInstance) -> ProblemInstance:
    x_star, F_star = solve_optimum(inst)
    return dataclasses.replace(inst, x_star=x_star, F_star=F_star)


def make_problem(locals_list) -> ProblemInstance:
    """Stack records of one kind into a ProblemInstance with its optimum oracle."""
    locs = tuple(locals_list)
    kinds = sorted({f.kind for f in locs})
    if len(kinds) != 1:
        raise ValueError(f"need at least one local objective, all of one kind (got {kinds})")
    L, mu = max(f.L_i for f in locs), min(f.mu_i for f in locs)
    if kinds == ["quadratic"]:
        inst = ProblemInstance("quadratic", L, mu, A=np.stack([f.quad_A for f in locs]),
                               b=np.stack([f.quad_b for f in locs]))
    else:
        inst = ProblemInstance("logistic", L, mu, data=np.concatenate([f.data for f in locs]),
                               labels=np.concatenate([f.labels for f in locs]),
                               counts=np.array([f.labels.shape[0] for f in locs]),
                               ridge=np.array([f.ridge for f in locs], dtype=float))
    return _solved(inst)


def random_quadratic_problem(m: int, n: int, L: float = 1.0, mu: float = 0.0,
                             seed: int = 0, shared_basis: bool = False) -> ProblemInstance:
    """Seeded random quadratic instance with exact global constants.

    Per-agent spectra are drawn and affinely mapped so that ``max_i L_i = L``
    and ``min_i mu_i = mu`` hold exactly; ValueError unless ``0 <= mu <= L``
    and ``L > 0``, or when one drawn eigenvalue (m = n = 1) cannot be both.
    ``shared_basis=True`` rotates every agent by the same orthogonal matrix,
    which keeps the averaged objective as ill-conditioned as the per-agent
    constants say (independent rotations average out toward isotropy); with
    ``mu = 0`` one agent's Hessian is rank-deficient, the average invertible.
    """
    if not (L > 0.0 and 0.0 <= mu <= L):
        raise ValueError(f"need L > 0 and 0 <= mu <= L (got L = {L}, mu = {mu})")
    rng = np.random.default_rng(seed)
    spectra = np.geomspace(1.0, 100.0, n) * rng.uniform(0.3, 1.7, (m, n))
    lo, hi = spectra.min(), spectra.max()
    if hi == lo and L != mu:
        raise ValueError(f"a single drawn eigenvalue cannot take both L = {L} and mu = {mu}")
    spectra = mu + (spectra - lo) * (L - mu) / (hi - lo) if hi > lo else np.full_like(spectra, L)
    shared = np.linalg.qr(rng.standard_normal((n, n)))[0] if shared_basis else None
    A = np.empty((m, n, n))
    for i in range(m):
        Q = shared if shared_basis else np.linalg.qr(rng.standard_normal((n, n)))[0]
        A[i] = Q @ np.diag(spectra[i]) @ Q.T
    return _solved(ProblemInstance("quadratic", float(spectra.max()), float(spectra.min()),
                                   A=A, b=rng.standard_normal((m, n))))


def random_logistic_problem(m: int, n: int, samples_per_agent: int = 20,
                            ridge: float = 0.0, seed: int = 0) -> ProblemInstance:
    """Two-class logistic instance on synthetic Gaussian blobs."""
    rng = np.random.default_rng(seed)
    center = rng.standard_normal(n)
    center *= 1.5 / np.linalg.norm(center)
    p = samples_per_agent
    data, labels = np.empty((m, p, n)), np.empty((m, p))
    for i in range(m):
        labels[i] = np.where(rng.random(p) < 0.5, -1.0, 1.0)
        data[i] = labels[i][:, None] * center + rng.standard_normal((p, n))
    L = max(logistic_objective(d, y, ridge).L_i for d, y in zip(data, labels))
    return _solved(ProblemInstance("logistic", L, float(ridge), data=data.reshape(m * p, n),
                                   labels=labels.reshape(m * p), counts=np.full(m, p),
                                   ridge=np.full(m, float(ridge))))
