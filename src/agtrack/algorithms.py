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
``default_alpha``.

A variant is a setting plus a mixing (``VARIANT_TABLE``): the setting names
the theorems that cover its step rules and certificates (static graphs,
Theorems 1-2; time-varying ones, Theorems 3-4; none for gt), and the mixing
is plain gossip or one of the wrappers, whose guaranteed contraction
(``WRAPPER_SIGMA``) replaces sigma in the step rule.  ``THEOREMS`` holds one
record per (setting, mu_mode): the theorem number and its step rule.  Every
rule that depends on the variant reads these tables, not variant names.

``run`` is the one implementation of the step; ``probe`` observes each
instant.  Its one mixing function ``mix(k, v)`` applies the instant-k
operator (the schedule's ``matrix(k)``, or its Chebyshev / multiple-consensus
wrapper) at a fixed cost of 1, t or zeta rounds per call, so ``run`` counts
rounds itself: row k has used 3 calls per iteration (2 for gt) and k + 1
gradient rounds.  With diagnostics on, ``_Margins`` beside the loop adds the
inexact-bound (Lemma 1) and master-inequality (Lemma 4) margins.  They reuse
the row's output: the loop's gradient at y^k, F(xbar^k) and the column means
and consensus errors the row measures, so each row adds one evaluation of
the per-agent values f_(i)(y_i).
"""
from __future__ import annotations

import csv
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .graph import MAX_GAMMA, GraphSchedule, gamma_connectivity, sigma as sigma_of, sigma_gamma as sigma_gamma_of
from .graph import _integer, _is_finite, _is_int, _is_real
from .graph import metropolis_weights  # noqa: F401 -- a call site the benchmark tracer wraps
from .mixing import chebyshev_apply, chebyshev_operator, default_zeta, gossip, multiple_consensus
from .problems import ProblemInstance, aggregate_gradient, bregman_distance, consensus_error, inexact_value

# variant -> (setting, mixing).  The setting is "static" (Theorems 1-2),
# "time_varying" (Theorems 3-4) or None (gt, which no theorem covers and
# which has no momentum row).
VARIANT_TABLE = {"gt": (None, "gossip"),
                 "acc_gt_static": ("static", "gossip"),
                 "acc_gt_tv": ("time_varying", "gossip"),
                 "acc_gt_chebyshev": ("static", "chebyshev"),
                 "acc_gt_multiconsensus": ("time_varying", "multiple_consensus")}
VARIANTS = tuple(VARIANT_TABLE)
MU_MODES = ("zero", "strongly_convex")

# The contraction each wrapper guarantees per call; its step rule reads it in
# place of sigma / sigma_gamma, with gamma = 1.
WRAPPER_SIGMA = {"chebyshev": 0.65, "multiple_consensus": 1.0 / math.e}

# (setting, mu_mode) -> (theorem, p, c): the step rule
# alpha = (1 - sigma)^p / (c L gamma^p) that the theorem proves.
THEOREMS = {("static", "zero"): (1, 4, 537.0), ("static", "strongly_convex"): (2, 3, 119.0),
            ("time_varying", "zero"): (3, 4, 21675.0),
            ("time_varying", "strongly_convex"): (4, 3, 4244.0)}

NAN = float("nan")

class DivergenceError(RuntimeError):
    """Raised when an iterate turns non-finite (step size too large)."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class NotGammaConnectedError(ValueError):
    """Raised when no gamma <= MAX_GAMMA connects a schedule's union graphs."""


def theta_next(theta_prev: float) -> float:
    """Next momentum parameter: the positive root of (1 - t)/t^2 = 1/theta_prev^2.

    Explicitly ``t = theta_prev (sqrt(theta_prev^2 + 4) - theta_prev) / 2``,
    which always lies in (0, theta_prev).
    """
    if not _is_finite(theta_prev):
        raise ValueError(f"theta_prev must be a finite number, got {theta_prev!r}")
    if theta_prev <= 0.0:
        raise ValueError("theta_prev must be positive")
    return theta_prev * (math.sqrt(theta_prev * theta_prev + 4.0) - theta_prev) / 2.0


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
        if self.mu_mode not in MU_MODES:
            raise ValueError(f"unknown mu_mode {self.mu_mode!r}")
        setting, mixing = VARIANT_TABLE[self.variant]
        if setting is None and self.mu_mode == "strongly_convex":
            raise ValueError("gt has no momentum row and runs mu = 0 only; use mu_mode 'zero'")
        if isinstance(self.alpha, str):
            if self.alpha != "theorem_default":
                raise ValueError(f"alpha must be positive or 'theorem_default', got {self.alpha!r}")
        elif not _is_finite(self.alpha):
            raise ValueError(f"alpha must be a finite number or 'theorem_default', "
                             f"got {self.alpha!r}")
        elif self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        # Python ints, here and below: a numpy integer would wrap in the run's arithmetic.
        object.__setattr__(self, "max_iterations", _integer(self.max_iterations, "max_iterations"))
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if self.zeta is not None:
            object.__setattr__(self, "zeta", _integer(self.zeta, "zeta", 1))
            if mixing != "multiple_consensus":
                raise ValueError(f"zeta sets the rounds of acc_gt_multiconsensus only; "
                                 f"variant {self.variant} does not read it")
        seeds = self.seeds if isinstance(self.seeds, (list, tuple)) else ()
        if len(seeds) != 1:  # run() draws x0 from seeds[0] and reads no other
            raise ValueError(f"seeds must hold exactly one seed, got {self.seeds!r}")
        if not (_is_int(seeds[0]) and seeds[0] >= 0):
            raise ValueError(f"the run seed must be a non-negative integer, got {seeds[0]!r}")
        object.__setattr__(self, "seeds", (operator.index(seeds[0]),))


def default_alpha(variant: str, L: float, sigma_or_sigma_gamma: float,
                  gamma: int = 1, mu_mode: str = "zero") -> float:
    """The proved step-size upper bound for each variant, taken with equality:
    ``(1 - sigma)^p / (c L gamma^p)`` with (p, c) from the ``THEOREMS`` record
    of the variant's setting (``VARIANT_TABLE``) and ``mu_mode``:

    static:          (1-sigma)^4 / (537 L)            [mu = 0]
                     (1-sigma)^3 / (119 L)            [mu > 0]
    time-varying:    (1-sigma_gamma)^4 / (21675 L gamma^4)   [mu = 0]
                     (1-sigma_gamma)^3 / (4244 L gamma^3)    [mu > 0]

    A static rule ignores gamma.  The Chebyshev and multiple-consensus
    wrappers use their setting's rule with sigma replaced by their guaranteed
    contraction (``WRAPPER_SIGMA``: 0.65 and 1/e) and gamma = 1, since every
    wrapped call contracts regardless of the underlying graph.  A gamma that
    is not an integer of at least 1 (bools included) and an unknown
    ``mu_mode`` are ValueErrors, never truncated or read as mu = 0; so are an
    L that is not a finite number (NaN, infinity and an integer past the
    float range included), a gamma whose power is past the float range and,
    for a gossip variant, a mixing constant that is not a number in [0, 1).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    setting, mixing = VARIANT_TABLE[variant]
    if setting is None:
        raise ValueError("no default step-size rule is defined for the gt variant; "
                         "pass alpha explicitly")
    if mu_mode not in MU_MODES:
        raise ValueError(f"unknown mu_mode {mu_mode!r}")
    if not _is_finite(L):
        raise ValueError(f"L must be a finite number, got {L!r}")
    if L <= 0.0:
        raise ValueError("L must be positive")
    gamma = _integer(gamma, "gamma", 1)  # a numpy integer would wrap in gamma ** p
    if setting != "time_varying" or mixing != "gossip":
        gamma = 1
    sig = WRAPPER_SIGMA.get(mixing, sigma_or_sigma_gamma)
    if not (_is_real(sig) and 0.0 <= sig < 1.0):
        raise ValueError(f"mixing constant must lie in [0, 1), got {sig!r}; "
                         "the schedule does not mix in the required sense")
    _, p, c = THEOREMS[setting, mu_mode]
    try:
        return (1.0 - sig) ** p / (c * L * gamma ** p)
    except OverflowError:
        raise ValueError(f"gamma = {gamma} is too large: gamma ** {p} is past the float range") \
            from None


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
CSV_COLUMNS = _ROW_FIELDS[:12]  # cons_z and theta are kept in the table only


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

    ``table`` holds one row per instant and one float64 column per TraceRow
    field, in field order (the integer counters are exact below 2**53); ``run``
    writes each row into it once.  ``column`` reads one field as an array;
    ``rows`` is a read-only TraceRow view for callers that want records.
    """

    def __init__(self, table: np.ndarray, meta: dict | None = None):
        if table.ndim != 2 or table.shape[1] != len(_ROW_FIELDS):
            raise ValueError(f"a trace table has {len(_ROW_FIELDS)} columns, "
                             f"got shape {table.shape}")
        self.table = table
        self.meta = {} if meta is None else meta

    @property
    def rows(self) -> Sequence[TraceRow]:
        return _Rows(self.table)

    def column(self, name: str) -> np.ndarray:
        """One field over all rows: an int array for k and the round counters,
        else a float copy."""
        if name not in _ROW_FIELDS:
            raise ValueError(f"unknown trace column {name!r}; the columns are "
                             f"{', '.join(_ROW_FIELDS)}")
        col = self.table[:, _ROW_FIELDS.index(name)]
        return col.astype(int) if name in _INT_FIELDS else col.copy()

    def to_csv(self, path, timestamp: str | None = None):
        """Write the fixed 12-column CSV; floats carry 17 significant digits."""
        cells = [int if name in _INT_FIELDS else "{:.17g}".format for name in CSV_COLUMNS]
        with open(path, "w", newline="") as fh:
            if timestamp is not None:
                fh.write(f"# generated {timestamp}\n")
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows([cell(v) for cell, v in zip(cells, row)]
                             for row in self.table[:, :len(CSV_COLUMNS)].tolist())


def resolve_gamma(schedule: GraphSchedule) -> int:
    """Smallest gamma <= MAX_GAMMA for which the schedule is gamma-connected."""
    for g in range(1, MAX_GAMMA + 1):
        if gamma_connectivity(schedule, g):
            return g
    raise NotGammaConnectedError(f"schedule is not gamma-connected for any gamma <= {MAX_GAMMA}")


def resolve_constants(config: AlgorithmConfig, problem: ProblemInstance,
                      schedule: GraphSchedule) -> dict:
    """Mixing constants, step size, and wrapper parameters for one run.

    Returns a dict with sigma (static variants) or sigma_gamma and its
    estimate flag (time-varying ones; not for multiple consensus with zeta
    given, which reads neither), gamma, the resolved alpha (theorem default
    or explicit), and zeta for multiple consensus.  The Chebyshev degree t is
    not returned: ``_mixer`` builds the operator and puts t in the run's
    meta.  Raises
    NotGammaConnectedError when the schedule never connects; for the static
    variants, when the static graph is disconnected (sigma = 1).
    """
    out: dict = {"variant": config.variant, "mu_mode": config.mu_mode}
    setting, mixing = VARIANT_TABLE[config.variant]
    sig_for_alpha, gamma = None, 1
    if setting == "static":
        if schedule.schedule_kind != "static":
            raise ValueError(f"variant {config.variant} requires a static schedule")
        # A disconnected graph has sigma = 1 up to rounding, so it is found by
        # graph search, before the SVD, rather than from sigma.
        if not gamma_connectivity(schedule, 1):
            raise NotGammaConnectedError(f"variant {config.variant} needs a connected "
                                         "static graph (sigma < 1); this one is disconnected")
        out["sigma"] = sig_for_alpha = sigma_of(schedule.matrix(0))
    elif setting == "time_varying":
        gamma = resolve_gamma(schedule)  # also rejects a schedule that never connects
        # sigma_gamma sets the gossip step rule and the default zeta; the
        # multiple-consensus step rule reads its wrapper's constant instead.
        if mixing == "gossip" or config.zeta is None:
            out["sigma_gamma"] = sig_for_alpha = sigma_gamma_of(schedule, gamma)
            # sigma_gamma samples a schedule with no period up to its horizon.
            out["sigma_gamma_is_estimate"] = schedule.period is None
    out["gamma"] = gamma

    out["alpha"] = (default_alpha(config.variant, problem.L, sig_for_alpha, gamma, config.mu_mode)
                    if config.alpha == "theorem_default" else float(config.alpha))

    if mixing == "multiple_consensus":
        out["zeta"] = config.zeta if config.zeta is not None else default_zeta(
            gamma, out["sigma_gamma"])
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
    the schedule's agent count is not the problem's, if strongly_convex mode
    meets a problem with mu = 0 or an explicit alpha with alpha * mu > 1
    (the theorem default meets alpha * mu <= 1), and
    DivergenceError (with the iteration index) if an iterate or a recorded
    metric turns non-finite.

    ``probe``, if given, is called as ``probe(k, x, y, z, s)`` with the
    aggregate matrices of instant k (read-only), once per instant --
    an observation hook for property checks that need more than the trace
    columns (e.g. the mean of s against the mean gradient).

    ``trace.meta`` holds ``resolve_constants``' dict and the run's sizes and
    settings.  The certificates read from it the constants the run used:
    ``L`` (``problem.L``, which the theorem-default step reads), ``m``,
    ``mu_used`` (``problem.mu`` in strongly_convex mode, else 0), ``alpha``,
    and ``sigma`` (static variants) or ``sigma_gamma`` and ``gamma``
    (time-varying ones).
    """
    if schedule.agent_count != problem.m:
        raise ValueError(f"the schedule has {schedule.agent_count} agents "
                         f"but the problem has {problem.m}")
    if config.mu_mode == "strongly_convex":
        if problem.mu <= 0.0:
            raise ValueError("strongly_convex mode requires a problem with mu > 0")
        if not isinstance(config.alpha, str) and config.alpha * problem.mu > 1.0:
            raise ValueError("the strongly-convex momentum rule theta = sqrt(mu*alpha)/2 "
                             "requires alpha * mu <= 1")

    consts = resolve_constants(config, problem, schedule)
    alpha = consts["alpha"]
    mu = problem.mu if config.mu_mode == "strongly_convex" else 0.0
    K = config.max_iterations

    if x0_row is None:
        x0_row = np.random.default_rng(config.seeds[0]).standard_normal(problem.n)
    elif not np.isfinite(x0_row).all():
        raise ValueError("x0_row must be finite")

    setting, mixing = VARIANT_TABLE[config.variant]
    mix, rounds_per_mix = _mixer(mixing, schedule, consts)

    meta = {**consts, "L": problem.L, "m": problem.m, "n": problem.n, "max_iterations": K,
            "seeds": tuple(config.seeds), "mu_used": mu, "diagnostics": diagnostics}
    table = np.empty((K + 1, len(_ROW_FIELDS)))

    # gt (no setting) is the theta = 1, mu = 0 case without the momentum row; it tracks s
    # with W^{k-1}, the matrix that produced x^k, so each W^k serves two
    # consecutive mixing calls.
    momentum = setting is not None
    track_lag = 0 if momentum else 1
    comm_per_iteration = (3 if momentum else 2) * rounds_per_mix
    # theta_k: 1 for gt, sqrt(mu alpha)/2 for mu > 0, else 1 and then theta_next.
    decreasing = momentum and mu == 0.0
    theta_k = math.sqrt(mu * alpha) / 2.0 if mu > 0.0 else 1.0

    x = z = np.tile(np.asarray(x0_row, dtype=float), (problem.m, 1))
    s = grad = aggregate_gradient(problem, x)
    xbar = x.mean(axis=0)
    F_x = problem.value(xbar)
    margins = (_Margins(problem, alpha, mu, momentum, theta_k, F_x, z)
               if diagnostics else _no_margins)

    # Overflow while diverging is reported as DivergenceError; numpy warnings
    # about it on the way there would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K + 1):
            if k > 0 and decreasing:
                theta_k = theta_next(theta_k)
            y = theta_k * z + (1.0 - theta_k) * x
            if k > 0:  # s^0 = grad f(y^0) comes from the start
                g = aggregate_gradient(problem, y)
                s, grad = mix(k - track_lag, s) + g - grad, g
            if probe is not None:
                probe(k, x, y, z, s)
            nxt = None
            if k < K:
                ratio = mu * alpha / theta_k
                z_next = (mix(k, ratio * y + z) - (alpha / theta_k) * s) / (1.0 + ratio)
                # Without the momentum row (gt) x^{k+1} = z^{k+1} and x is not mixed.
                x_next = theta_k * z_next + (1.0 - theta_k) * mix(k, x) if momentum else z_next
                xbar_next = x_next.mean(axis=0)
                nxt = (x_next, z_next, xbar_next, problem.value(xbar_next))
            # Each column mean and squared disagreement is taken once per row,
            # for the trace row and the margins alike.
            bars = (xbar, y.mean(axis=0), z.mean(axis=0), s.mean(axis=0))
            cons = tuple(map(consensus_error, (x, y, z, s), bars))
            table[k] = _measure(problem, k, x, F_x, bars, cons, comm_per_iteration * k, k + 1,
                                theta_k, *margins(y, grad if k > 0 else None, F_x, bars,
                                                  cons[1], theta_k, nxt))
            _check_finite(config.variant, table[k], nxt)
            if nxt is not None:
                x, z, xbar, F_x = nxt
    return RunTrace(table, meta)


def _mixer(mixing: str, schedule: GraphSchedule, consts: dict):
    """The run's one mixing function ``mix(k, v)`` and the rounds each call costs:
    the Chebyshev degree t (also put in ``consts["t"]``; the operator reuses
    ``consts["sigma"]``, so W^0 takes one SVD per run), zeta for multiple
    consensus (which keeps its round pointer here), or 1 for gossip with the
    schedule's ``matrix(k)``."""
    if mixing == "chebyshev":
        op = chebyshev_operator(schedule.matrix(0), sigma=consts["sigma"])
        consts["t"] = op.t
        return (lambda k, v: chebyshev_apply(op, v)), op.t
    if mixing == "multiple_consensus":
        zeta = consts["zeta"]
        next_round = 0

        def mix(k, v):
            nonlocal next_round
            out = multiple_consensus(schedule, None, next_round, zeta, v)
            next_round += zeta
            return out
        return mix, zeta
    return (lambda k, v: gossip(schedule.matrix(k), v)), 1


def _no_margins(*_):
    return NAN, NAN, NAN


class _Margins:
    """Lemma-1 and Lemma-4 diagnostic margins, kept beside the run loop.

    Called once per instant k with what row k has already computed -- y^k,
    the loop's gradient at y^k, F(xbar^k), the column means ``bars = (xbar,
    ybar, zbar, sbar)``, ``cons_y = ||Pi y^k||^2`` and ``nxt = (x^{k+1},
    z^{k+1}, xbar^{k+1}, F(xbar^{k+1}))`` (None at the last instant) -- it
    returns the row's (lemma4, lemma1_lower, lemma1_upper) margins, each a
    normalized slack.  It evaluates only the per-agent values f_(i)(y_i),
    and the Bregman term's F(xbar^k) is the row's.  Row 0 passes no gradient
    and takes the whole local oracle: s^0 was taken at x^0, which y^0 equals
    only up to rounding.  Lemma 1 brackets F by the inexact value at
    (ybar, y): the lower margin at w = x*, the upper one at w = xbar^{k+1}.
    The master inequality (Lemma 4) applies to the momentum variants only;
    its accumulators are kept in damped form (multiplied through by
    theta_K^2, resp. (1-theta)^{K+1}) so nothing overflows on long runs, and
    the margin computed at instant k belongs to row k+1.
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

    def __call__(self, y, grad_y, F_x, bars, cons_y, theta, nxt):
        P = self.problem
        xbar, ybar, zbar, sbar = bars
        local = P._local(y) if grad_y is None else (P._values(y), grad_y)
        fhat = inexact_value(P, ybar, y, local=local)
        dstar = P.x_star - ybar
        lower_side = fhat + sbar @ dstar + 0.5 * self.mu * (dstar @ dstar)
        lower = float((P.F_star - lower_side) / max(1.0, abs(P.F_star)))
        lemma4 = self.lemma4
        if nxt is None:
            return lemma4, lower, NAN
        _, z_next, xbar_next, F_next = nxt
        d = xbar_next - ybar
        bound = fhat + sbar @ d + 0.5 * P.L * (d @ d) + P.L / (2.0 * P.m) * cons_y
        upper = (bound - F_next) / max(1.0, abs(F_next))
        if self.momentum:
            breg = bregman_distance(P, xbar, y, local=local, F_x=F_x)
            self._next_lemma4(zbar, z_next, theta, F_next, cons_y, breg)
        return lemma4, lower, upper

    def _next_lemma4(self, zbar, z_next, theta, F_next, cons_y, breg):
        """The master-inequality margin of the next row."""
        P, alpha, L = self.problem, self.alpha, self.problem.L
        zbar_next = z_next.mean(axis=0)
        dzbar = zbar_next - zbar
        dz2 = float(dzbar @ dzbar)
        zdist = float(np.sum((zbar_next - P.x_star) ** 2))
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


def _measure(problem, k, x, F_x, bars, cons, comm, grad, theta_k, lemma4, lower, upper):
    """Row k of the trace table, in TraceRow field order, from the row's column
    means ``bars`` and squared disagreements ``cons``, both ordered (x, y, z, s)."""
    m = problem.m
    cons_x, cons_y, cons_z, cons_s = cons
    return (k, F_x - problem.F_star, (problem.value_many(x) - problem.F_star).max(),
            cons_x / m, cons_y / m, cons_s / m, np.sum((bars[2] - problem.x_star) ** 2),
            comm, grad, lemma4, lower, upper, cons_z / m, theta_k)


def _check_finite(variant: str, row: np.ndarray, nxt):
    """Raise DivergenceError at instant k if a recorded metric of table row k
    (its gap..zbar_dist cells), or the next x / z, is non-finite.  The row's
    metrics cover x, y, z and s of instant k, and catch divergence the iterates
    alone can hide (the mean stays bounded while squared norms overflow)."""
    if not (np.isfinite(row[1:7]).all()
            and (nxt is None or (np.isfinite(nxt[0]).all() and np.isfinite(nxt[1]).all()))):
        k = int(row[0])
        raise DivergenceError(f"{variant} diverged at iteration {k}", iteration=k)
