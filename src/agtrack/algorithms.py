"""Gradient tracking, accelerated gradient tracking, and the run loop.

Both methods are one recursion over rows y, s, z, x; at instant k every row
mixes with the same doubly stochastic matrix W^k of the graph schedule:

    y^k     = theta_k z^k + (1 - theta_k) x^k,
    s^k     = W^k s^{k-1} + grad f(y^k) - grad f(y^{k-1}),
    z^{k+1} = (1 + mu alpha / theta_k)^{-1}
              (W^k (mu alpha / theta_k y^k + z^k) - alpha / theta_k s^k),
    x^{k+1} = theta_k z^{k+1} + (1 - theta_k) W^k x^k,

initialized at a consensual x^0 = y^0 = z^0 with s^0 = grad f(y^0).  The
generic k = 0 step then already reproduces the special-cased first iterates
z^1 = W z^0 - alpha/(theta_0 + mu alpha) s^0, so the loop is uniform.

Plain gradient tracking is the case theta_k = 1, mu = 0 without the momentum
row: x = y = z, and the recursion reduces to

    s^k     = W^{k-1} s^{k-1} + grad f(x^k) - grad f(x^{k-1}),
    x^{k+1} = W^k x^k - alpha s^k,

two communication rounds per iteration.  Its tracking row mixes with the
matrix of the previous instant, the one that also produced x^k.

For mu = 0 the momentum sequence follows theta_0 = 1 and
(1 - theta_k)/theta_k^2 = 1/theta_{k-1}^2, giving F(xbar^K) - F* = O(1/K^2);
for mu > 0 a constant theta = sqrt(mu alpha)/2 gives a linear rate.  The
step-size rules proved for the four settings are exposed as
``default_alpha``; column means of the distributed iterates follow the
inexact centralized accelerated recursion ``averaged_reference_step``.

``run`` is the one implementation of the step and drives every variant
through that one loop; there is no single-step API for the accelerated
method (``probe`` observes each instant instead).  ``gt_init`` / ``gt_step``
are the textbook gradient-tracking recursion, kept as a reference the loop's
gt case is checked against.  A single mixing function ``mix(k, v)``, built
once per run, applies the instant-k operator (W^k from the schedule's cache,
or its Chebyshev / multiple-consensus wrapper) and counts its communication
rounds.  The loop records one TraceRow per instant, counting the rounds
consumed up to it; with diagnostics on, a ``_Margins`` object beside the loop
adds the inexact-bound (Lemma 1) and master-inequality (Lemma 4) margins.
"""
from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .graph import MAX_GAMMA, GraphSchedule, gamma_connectivity, sigma as sigma_of, sigma_gamma as sigma_gamma_of
from .graph import metropolis_weights  # noqa: F401 -- a call site the benchmark tracer wraps
from .mixing import RoundCounter, chebyshev_apply, chebyshev_operator, default_zeta, gossip, multiple_consensus
from .problems import (AggregateState, ProblemInstance, aggregate_gradient,
                       bregman_distance, consensus_error, inexact_value)

VARIANTS = ("gt", "acc_gt_static", "acc_gt_tv", "acc_gt_chebyshev", "acc_gt_multiconsensus")

# Effective contraction constants the accelerated wrappers guarantee,
# used by their step-size rules in place of sigma / sigma_gamma.
CHEBYSHEV_EFFECTIVE_SIGMA = 0.65
MULTICONSENSUS_EFFECTIVE_SIGMA = 1.0 / math.e

NAN = float("nan")

CSV_COLUMNS = ("k", "gap", "per_agent_gap_max", "cons_x", "cons_y", "cons_s",
               "zbar_dist", "comm_rounds", "grad_rounds", "lemma4_margin",
               "lemma1_lower_margin", "lemma1_upper_margin")


class DivergenceError(RuntimeError):
    """Raised when an iterate turns non-finite (step size too large)."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


def theta_next(theta_prev: float) -> float:
    """Next momentum parameter: the positive root of (1 - t)/t^2 = 1/theta_prev^2.

    Explicitly ``t = theta_prev (sqrt(theta_prev^2 + 4) - theta_prev) / 2``,
    which always lies in (0, theta_prev).
    """
    if theta_prev <= 0.0:
        raise ValueError("theta_prev must be positive")
    return theta_prev * (math.sqrt(theta_prev * theta_prev + 4.0) - theta_prev) / 2.0


class ThetaSchedule:
    """Momentum sequence: decreasing recursion for mu = 0, constant for mu > 0.

    ``mode`` is ``nonstrongly_convex`` (theta_0 = 1, then theta_next) or
    ``strongly_convex`` (theta = sqrt(mu alpha)/2, which requires
    alpha mu <= 1).  ``history`` records theta_0..theta_k as queried.
    """

    def __init__(self, mode: str, alpha: float | None = None, mu: float | None = None):
        if mode not in ("nonstrongly_convex", "strongly_convex"):
            raise ValueError(f"unknown theta mode {mode!r}")
        self.mode = mode
        if mode == "strongly_convex":
            if alpha is None or mu is None or mu <= 0.0:
                raise ValueError("strongly_convex schedule needs alpha and mu > 0")
            if alpha * mu > 1.0:
                raise ValueError("strongly_convex schedule requires alpha * mu <= 1")
            self._constant = math.sqrt(mu * alpha) / 2.0
            self.history = []
        else:
            self._constant = None
            self.history = [1.0]

    def theta(self, k: int) -> float:
        if k < 0:
            raise ValueError("iteration index must be nonnegative")
        if self.mode == "strongly_convex":
            while len(self.history) <= k:
                self.history.append(self._constant)
            return self._constant
        while len(self.history) <= k:
            nxt = theta_next(self.history[-1])
            # The analysis needs theta monotonically nonincreasing in (0, 1].
            assert 0.0 < nxt <= self.history[-1] <= 1.0
            self.history.append(nxt)
        return self.history[k]


@dataclass(frozen=True)
class AlgorithmConfig:
    """Which variant to run, with what step size, momentum mode, and budget."""

    variant: str
    alpha: float | str = "theorem_default"
    mu_mode: str = "zero"
    max_iterations: int = 100
    zeta: int | None = None
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.mu_mode not in ("zero", "strongly_convex"):
            raise ValueError(f"unknown mu_mode {self.mu_mode!r}")
        if isinstance(self.alpha, str):
            if self.alpha != "theorem_default":
                raise ValueError(f"alpha must be positive or 'theorem_default', got {self.alpha!r}")
        elif self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if self.zeta is not None and self.zeta < 1:
            raise ValueError("zeta must be at least 1")
        if not self.seeds:
            raise ValueError("at least one seed is required")


def default_alpha(variant: str, L: float, sigma_or_sigma_gamma: float,
                  gamma: int = 1, mu_mode: str = "zero") -> float:
    """The proved step-size upper bound for each variant, taken with equality.

    static:          (1-sigma)^4 / (537 L)            [mu = 0]
                     (1-sigma)^3 / (119 L)            [mu > 0]
    time-varying:    (1-sigma_gamma)^4 / (21675 L gamma^4)   [mu = 0]
                     (1-sigma_gamma)^3 / (4244 L gamma^3)    [mu > 0]

    The Chebyshev and multiple-consensus wrappers use the same rules with
    sigma replaced by their guaranteed effective contraction (0.65 and 1/e,
    with gamma = 1 for multiple consensus, since every wrapped call contracts
    regardless of the underlying graph).
    """
    if variant == "gt":
        raise ValueError("no default step-size rule is defined for the gt variant; "
                         "pass alpha explicitly")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if L <= 0.0:
        raise ValueError("L must be positive")
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    sc = mu_mode == "strongly_convex"
    if variant == "acc_gt_chebyshev":
        sig = CHEBYSHEV_EFFECTIVE_SIGMA
    elif variant == "acc_gt_multiconsensus":
        sig, gamma = MULTICONSENSUS_EFFECTIVE_SIGMA, 1
    else:
        sig = sigma_or_sigma_gamma
    if not (0.0 <= sig < 1.0):
        raise ValueError(f"mixing constant must lie in [0, 1), got {sig}; "
                         "the schedule does not mix in the required sense")
    if variant in ("acc_gt_static", "acc_gt_chebyshev"):
        if sc:
            return (1.0 - sig) ** 3 / (119.0 * L)
        return (1.0 - sig) ** 4 / (537.0 * L)
    if sc:
        return (1.0 - sig) ** 3 / (4244.0 * L * gamma ** 3)
    return (1.0 - sig) ** 4 / (21675.0 * L * gamma ** 4)


def gt_init(problem: ProblemInstance, x0_row: np.ndarray,
            counter: RoundCounter | None = None) -> AggregateState:
    """Consensual start for gradient tracking: x^0 = 1 x0^T, s^0 = grad f(x^0)."""
    x0 = np.tile(np.asarray(x0_row, dtype=float), (problem.m, 1))
    g0 = aggregate_gradient(problem, x0, counter)
    return AggregateState(x0, x0, x0, g0.copy(), grad=g0)


def gt_step(state: AggregateState, W, alpha: float, problem: ProblemInstance,
            counter: RoundCounter | None = None) -> AggregateState:
    """One gradient-tracking step (2 communication rounds, 1 gradient round).

    Requires ``state.s`` to track from ``s^0 = grad f(x^0)``; y and z mirror x
    since the baseline method has no momentum rows.  ``run`` reaches the same
    iterates as the theta = 1 case of the accelerated loop.
    """
    x_next = gossip(W, state.x, counter) - alpha * state.s
    g_next = aggregate_gradient(problem, x_next, counter)
    s_next = gossip(W, state.s, counter) + g_next - state.grad
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


@dataclass(frozen=True)
class TraceRow:
    """One recorded instant.  Error quantities:

    gap = F(xbar^k) - F*; per_agent_gap_max = max_i F(x_i^k) - F*;
    cons_* = ||Pi (.)^k||^2 / m; zbar_dist = ||zbar^k - x*||^2.  Round counters
    are cumulative through instant k.  Margin columns are inequality slack
    (bound side minus checked side) normalized by max(1, |checked side|);
    nonnegative means the inequality held.  NaN marks a margin that is not
    defined at this row (no successor iterate yet, or not applicable).
    """

    k: int
    gap: float
    per_agent_gap_max: float
    cons_x: float
    cons_y: float
    cons_s: float
    zbar_dist: float
    comm_rounds: int
    grad_rounds: int
    lemma4_margin: float
    lemma1_lower_margin: float
    lemma1_upper_margin: float
    cons_z: float = float("nan")
    theta: float = float("nan")


_ROW_FIELDS = tuple(f.name for f in fields(TraceRow))
_INT_FIELDS = ("k", "comm_rounds", "grad_rounds")


def _row(values: list) -> TraceRow:
    return TraceRow(*(int(v) if name in _INT_FIELDS else v
                      for name, v in zip(_ROW_FIELDS, values)))


class _Rows(Sequence):
    """Read-only TraceRow view of a trace table, one record built per access."""

    def __init__(self, table: np.ndarray):
        self._table = table

    def __len__(self) -> int:
        return self._table.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [_row(v) for v in self._table[i].tolist()]
        return _row(self._table[i].tolist())

    def __iter__(self):
        return map(_row, self._table.tolist())


class RunTrace:
    """Per-iteration records plus run metadata (constants the certificates need).

    The records are stored as one float64 table with a column per TraceRow
    field (the integer counters are exact below 2**53), 8 bytes per number
    instead of a Python object per value; ``rows`` reads them back as
    TraceRow records.
    """

    def __init__(self, rows=(), meta: dict | None = None):
        self.table = np.array([[getattr(r, name) for name in _ROW_FIELDS] for r in rows],
                              dtype=float).reshape(-1, len(_ROW_FIELDS))
        self.meta = {} if meta is None else meta

    @property
    def rows(self) -> Sequence[TraceRow]:
        return _Rows(self.table)

    def column(self, name: str) -> np.ndarray:
        col = self.table[:, _ROW_FIELDS.index(name)]
        return col.astype(int) if name in _INT_FIELDS else col.copy()

    def to_csv(self, path, timestamp: str | None = None):
        """Write the fixed 12-column CSV; floats carry 17 significant digits."""
        with open(path, "w", newline="") as fh:
            if timestamp is not None:
                fh.write(f"# generated {timestamp}\n")
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in self.rows:
                writer.writerow([
                    r.k,
                    *(format(getattr(r, c), ".17g") for c in CSV_COLUMNS[1:7]),
                    r.comm_rounds, r.grad_rounds,
                    *(format(getattr(r, c), ".17g") for c in CSV_COLUMNS[9:]),
                ])


def resolve_gamma(schedule: GraphSchedule) -> int:
    """Smallest gamma <= MAX_GAMMA for which the schedule is gamma-connected."""
    for g in range(1, MAX_GAMMA + 1):
        if gamma_connectivity(schedule, g):
            return g
    raise ValueError(f"schedule is not gamma-connected for any gamma <= {MAX_GAMMA}")


def resolve_constants(config: AlgorithmConfig, problem: ProblemInstance,
                      schedule: GraphSchedule) -> dict:
    """Mixing constants, step size, and wrapper parameters for one run.

    Returns a dict with sigma / sigma_gamma / gamma as applicable, the
    resolved alpha (theorem default or explicit), and zeta / t for the
    wrapped variants.
    """
    out: dict = {"variant": config.variant, "mu_mode": config.mu_mode}

    if config.variant in ("acc_gt_static", "acc_gt_chebyshev"):
        if schedule.schedule_kind != "static":
            raise ValueError(f"variant {config.variant} requires a static schedule")
        out["sigma"] = sigma_of(schedule.matrix(0))
        out["gamma"] = 1
        sig_for_alpha = out["sigma"]
    elif config.variant in ("acc_gt_tv", "acc_gt_multiconsensus"):
        gamma = resolve_gamma(schedule)
        report = sigma_gamma_of(schedule, gamma)
        out["sigma"] = report.sigma
        out["sigma_gamma"] = report.sigma_gamma
        out["sigma_gamma_is_estimate"] = report.is_estimate
        out["gamma"] = gamma
        sig_for_alpha = report.sigma_gamma
    else:  # gt
        out["gamma"] = 1
        sig_for_alpha = None

    if config.alpha == "theorem_default":
        out["alpha"] = default_alpha(config.variant, problem.L, sig_for_alpha,
                                     out["gamma"], config.mu_mode)
    else:
        out["alpha"] = float(config.alpha)

    if config.variant == "acc_gt_multiconsensus":
        out["zeta"] = config.zeta if config.zeta is not None else default_zeta(
            out["gamma"], out["sigma_gamma"])
    return out


def run(config: AlgorithmConfig, problem: ProblemInstance, schedule: GraphSchedule,
        diagnostics: bool = True,
        x0_row: np.ndarray | None = None, probe=None) -> RunTrace:
    """Execute a configured run and record its trace.

    Every row mixes at instant k with the schedule's one matrix W^k (or the
    Chebyshev / multiple-consensus wrapper of the variant); gt tracks s with
    W^{k-1}.  The start is consensual: x^0 = y^0 = z^0 = 1 x0_row^T with
    s^0 = grad f(y^0); ``x0_row`` (finite) defaults to a standard normal row
    drawn from seeds[0], and everything else is pure.  Raises ValueError if
    strongly_convex mode meets a problem with mu = 0 or an explicit alpha
    with alpha * mu > 1, and DivergenceError (with the iteration index) if an
    iterate or a recorded metric turns non-finite.

    ``probe``, if given, is called as ``probe(k, x, y, z, s)`` with the
    aggregate matrices of instant k (read-only), once per instant --
    an observation hook for property checks that need more than the trace
    columns (e.g. the mean of s against the mean gradient).
    """
    if config.mu_mode == "strongly_convex":
        if problem.mu <= 0.0:
            raise ValueError("strongly_convex mode requires a problem with mu > 0")
        if not isinstance(config.alpha, str) and config.alpha * problem.mu > 1.0:
            raise ValueError("the strongly-convex momentum rule theta = sqrt(mu*alpha)/2 "
                             "requires alpha * mu <= 1")

    consts = resolve_constants(config, problem, schedule)
    alpha = consts["alpha"]
    mu_used = problem.mu if config.mu_mode == "strongly_convex" else 0.0
    K = config.max_iterations

    if x0_row is None:
        x0_row = np.random.default_rng(config.seeds[0]).standard_normal(problem.n)
    elif not np.isfinite(x0_row).all():
        raise ValueError("x0_row must be finite")

    counter = RoundCounter()
    mix = _mixer(config.variant, schedule, consts, counter)

    meta = {**consts, "m": problem.m, "n": problem.n, "max_iterations": K,
            "seeds": tuple(config.seeds), "mu_used": mu_used, "diagnostics": diagnostics}
    rows = []

    # gt is the theta = 1, mu = 0 case without the momentum row; it tracks s
    # with W^{k-1}, the matrix that produced x^k, so each W^k serves two
    # consecutive mixing calls.
    momentum = config.variant != "gt"
    track_lag = 0 if momentum else 1
    if not momentum:
        theta, mu = (lambda k: 1.0), 0.0
    elif config.mu_mode == "strongly_convex":
        theta, mu = ThetaSchedule("strongly_convex", alpha, mu_used).theta, mu_used
    else:
        theta, mu = ThetaSchedule("nonstrongly_convex").theta, 0.0

    x = z = np.tile(np.asarray(x0_row, dtype=float), (problem.m, 1))
    s = grad = aggregate_gradient(problem, x, counter)
    F_x = problem.value(x.mean(axis=0))
    margins = (_Margins(problem, alpha, mu, momentum, theta(0), F_x, z)
               if diagnostics else _no_margins)

    # Overflow while diverging is reported as DivergenceError; numpy warnings
    # about it on the way there would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K + 1):
            theta_k = theta(k)
            y = theta_k * z + (1.0 - theta_k) * x
            if k > 0:  # s^0 = grad f(y^0) comes from the start
                g = aggregate_gradient(problem, y, counter)
                s, grad = mix(k - track_lag, s) + g - grad, g
            comm, grads = counter.comm_rounds, counter.grad_rounds
            if probe is not None:
                probe(k, x, y, z, s)
            nxt = None
            if k < K:
                ratio = mu * alpha / theta_k
                z_next = (mix(k, ratio * y + z) - (alpha / theta_k) * s) / (1.0 + ratio)
                # Without the momentum row (gt) x^{k+1} = z^{k+1} and x is not mixed.
                x_next = theta_k * z_next + (1.0 - theta_k) * mix(k, x) if momentum else z_next
                nxt = (x_next, z_next, problem.value(x_next.mean(axis=0)))
            row = _measure(problem, k, x, y, z, s, F_x, comm, grads, theta_k,
                           *margins(x, y, z, s, theta_k, nxt))
            _check_finite(config.variant, row, nxt)
            rows.append(row)
            if nxt is not None:
                x, z, F_x = nxt
    return RunTrace(rows, meta)


def _mixer(variant: str, schedule: GraphSchedule, consts: dict, counter: RoundCounter):
    """The run's one mixing function ``mix(k, v)``: apply the instant-k
    operator to v, counting its rounds on ``counter``.

    The Chebyshev operator is built here once (its degree goes into
    ``consts["t"]``); multiple consensus keeps its round pointer here; every
    other variant gossips with the schedule's cached W^k.
    """
    if variant == "acc_gt_chebyshev":
        op = chebyshev_operator(schedule.matrix(0))
        consts["t"] = op.t
        return lambda k, v: chebyshev_apply(op, v, counter)
    if variant == "acc_gt_multiconsensus":
        zeta = consts["zeta"]
        next_round = 0

        def mix(k, v):
            nonlocal next_round
            out, used = multiple_consensus(schedule, None, next_round, zeta, v, counter)
            next_round += used
            return out
        return mix
    return lambda k, v: gossip(schedule.matrix(k), v, counter)


def _no_margins(*_):
    return NAN, NAN, NAN


class _Margins:
    """Lemma-1 and Lemma-4 diagnostic margins, kept beside the run loop.

    Called once per instant k with that instant's iterates x, y, z, s and
    ``nxt = (x^{k+1}, z^{k+1}, F(xbar^{k+1}))`` (None at the last instant), it
    returns trace row k's (lemma4, lemma1_lower, lemma1_upper) margins, each
    a normalized slack.  Lemma 1 brackets F by the inexact value at (ybar, y):
    the lower margin at w = x*, the upper one at w = xbar^{k+1}.  The
    master inequality (Lemma 4) applies to the momentum variants only; its
    accumulators are kept in damped form (multiplied through by theta_K^2,
    resp. (1-theta)^{K+1}) so nothing overflows on long runs, and the margin
    computed at instant k belongs to row k+1.
    """

    def __init__(self, problem: ProblemInstance, alpha: float, mu: float,
                 momentum: bool, theta0: float, F0: float, z0: np.ndarray):
        self.problem, self.alpha, self.mu, self.momentum = problem, alpha, mu, momentum
        self.lemma4 = NAN
        self.acc_y = 0.0     # damped sum of (L/2m)||Pi y^k||^2 weights
        self.acc_drop = 0.0  # damped sum of the dropped (nonnegative) terms
        self.sum_dz = 0.0    # plain sum (1/2a - L/2)||dzbar||^2 (mu = 0 form only)
        self.zbar0_dist = float(np.sum((z0.mean(axis=0) - problem.x_star) ** 2))
        # (1-theta)^{K+1} (gap(0) + coeff ||zbar^0 - x*||^2), updated multiplicatively.
        coeff = theta0 * theta0 / (2.0 * alpha) + mu * theta0 / 2.0
        self.base = F0 - problem.F_star + coeff * self.zbar0_dist

    def __call__(self, x, y, z, s, theta, nxt):
        P = self.problem
        ybar = y.mean(axis=0)
        sbar = s.mean(axis=0)
        fhat = inexact_value(P, ybar, y)
        cons_y = consensus_error(y)
        dstar = P.x_star - ybar
        lower_side = fhat + sbar @ dstar + 0.5 * self.mu * (dstar @ dstar)
        lower = float((P.F_star - lower_side) / max(1.0, abs(P.F_star)))
        lemma4 = self.lemma4
        if nxt is None:
            return lemma4, lower, NAN
        x_next, z_next, F_next = nxt
        d = x_next.mean(axis=0) - ybar
        bound = fhat + sbar @ d + 0.5 * P.L * (d @ d) + P.L / (2.0 * P.m) * cons_y
        upper = (bound - F_next) / max(1.0, abs(F_next))
        if self.momentum:
            self._next_lemma4(x, y, z, z_next, theta, F_next, cons_y)
        return lemma4, lower, upper

    def _next_lemma4(self, x, y, z, z_next, theta, F_next, cons_y):
        """The master-inequality margin of the next row."""
        P, alpha, L = self.problem, self.alpha, self.problem.L
        dzbar = z_next.mean(axis=0) - z.mean(axis=0)
        dz2 = float(dzbar @ dzbar)
        breg = bregman_distance(P, x.mean(axis=0), y)
        zdist = float(np.sum((z_next.mean(axis=0) - P.x_star) ** 2))
        self.acc_y = (1.0 - theta) * self.acc_y + (L / (2.0 * P.m)) * cons_y
        if self.mu > 0.0:
            self.acc_drop = (1.0 - theta) * self.acc_drop \
                + (theta * theta / (2.0 * alpha) - L * theta * theta / 2.0) * dz2 \
                + (1.0 - theta) * breg
            self.base *= (1.0 - theta)
            coeff = theta * theta / (2.0 * alpha) + self.mu * theta / 2.0
            lhs = F_next - P.F_star + coeff * zdist
            rhs = self.base + self.acc_y - self.acc_drop
        else:
            # theta_k^2 / theta_{k-1}^2 = 1 - theta_k telescopes the weights.
            self.acc_drop = (1.0 - theta) * (self.acc_drop + breg)
            self.sum_dz += (1.0 / (2.0 * alpha) - L / 2.0) * dz2
            th2 = theta * theta
            lhs = F_next - P.F_star + th2 / (2.0 * alpha) * zdist
            rhs = th2 / (2.0 * alpha) * self.zbar0_dist + self.acc_y - th2 * self.sum_dz - self.acc_drop
        self.lemma4 = (rhs - lhs) / max(1.0, abs(lhs))


def _measure(problem, k, x, y, z, s, F_x, comm, grad, theta_k, lemma4, lower, upper):
    m = problem.m
    per_agent = float((problem.value_many(x) - problem.F_star).max())
    zbar = z.mean(axis=0)
    return TraceRow(
        k=k, gap=float(F_x - problem.F_star), per_agent_gap_max=per_agent,
        cons_x=consensus_error(x) / m, cons_y=consensus_error(y) / m,
        cons_s=consensus_error(s) / m,
        zbar_dist=float(np.sum((zbar - problem.x_star) ** 2)),
        comm_rounds=comm, grad_rounds=grad,
        lemma4_margin=lemma4, lemma1_lower_margin=lower, lemma1_upper_margin=upper,
        cons_z=consensus_error(z) / m, theta=theta_k)


def _check_finite(variant: str, row: TraceRow, nxt):
    """Raise DivergenceError at instant k if a recorded metric of row k, or
    the next x / z, is non-finite.  The row's metrics cover x, y, z and s of
    instant k, and catch divergence the iterates alone can hide (the mean
    stays bounded while squared norms overflow)."""
    metrics = (row.gap, row.per_agent_gap_max, row.cons_x, row.cons_y, row.cons_s,
               row.zbar_dist)
    if not (all(math.isfinite(v) for v in metrics)
            and (nxt is None or (np.isfinite(nxt[0]).all() and np.isfinite(nxt[1]).all()))):
        raise DivergenceError(f"{variant} diverged at iteration {row.k}", iteration=row.k)
