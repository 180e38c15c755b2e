"""Post-run verification: executable certificates for the convergence bounds.

Each certificate replays one proved bound against a recorded trace.  With a
consensual start (Pi x^0 = 0) and the theorem's step size the bounds are

T1 (mu = 0, static):
    gap(K+1) <= (1/(K+1)^2) [ (2/a)||zbar0 - x*||^2 + ((1-s)/2L) S0 ]
    cons_x(K) <= (1/(K+1)^2) [ (5/La)||zbar0 - x*||^2 + (9(1-s)/4L^2) S0 ]
    with S0 = (1/m) sum_i ||s_i^0 - sbar^0||^2.

T2 (mu > 0, static), theta = sqrt(mu a)/2, c = theta^2/2a + mu theta/2:
    gap(K+1) + c ||zbar^{K+1} - x*||^2 <= (1-theta)^{K+1} C
    cons_x(K) <= (1-theta)^{K+1} 4C/L
    with C = gap(0) + c ||zbar0 - x*||^2 + (4(1-s)/(59L(1-theta))) S0.

T3 / T4 are the gamma-step analogues checked at instants K = T gamma, with
initialization maxima taken over the first gamma(+1) recorded iterates
(the z-maximum weighted by theta^2 per its definition).

Each certificate takes the trace alone and reads the constants the run used
from ``trace.meta``, as ``run`` records them: L, m, ``mu_used`` (mu in the
strongly convex mode), the step ``alpha``, and ``sigma`` (static variants) or
``sigma_gamma`` and ``gamma`` (time-varying ones).  A trace without one of them
is a ValueError that names it.

The certificates read the trace by column (``trace.column``).  T1 / T2
check every recorded row; T3 / T4 share the gamma grid: gap rows 1, 1 + gamma,
... and consensus rows 0, gamma, ..., on a trace that holds at least the first
gamma iterates beyond row 0.  Each bound is one array expression over its
rows; the powers (1-theta)^k are scalar powers, one per instant, since numpy's
array power can differ from them in the last bit.

Margins are evaluated pointwise with a relative tolerance of
1e-7 * max(1, |checked side|): the inequalities are exact in real arithmetic,
so only rounding may intrude.  A NaN margin counts as a violation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import RunTrace

REL_TOL = 1e-7

@dataclass(frozen=True)
class BoundCertificate:
    """Verdict of one bound over a whole trace.

    ``worst_margin`` is the minimum of (bound - checked value) over the
    examined instants (NaN if any margin is NaN); ``holds`` applies the relative tolerance pointwise;
    ``first_violation_k`` is the first instant that failed, if any.
    """

    theorem_id: str
    holds: bool
    worst_margin: float
    first_violation_k: int | None = None


def _certify(theorem_id: str, ks: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> BoundCertificate:
    """Verdict of ``lhs <= rhs`` at the instants ``ks``; a NaN margin fails."""
    if not len(ks):
        raise ValueError(f"no instants to check for {theorem_id}")
    margin = rhs - lhs
    failed = np.flatnonzero(~(margin >= -REL_TOL * np.maximum(1.0, np.abs(lhs))))
    first_violation = int(ks[failed[0]]) if failed.size else None
    return BoundCertificate(theorem_id, first_violation is None, float(margin.min()),
                            first_violation)


def _powers(base, exponents: np.ndarray) -> np.ndarray:
    """``base ** k`` for each k, one scalar power at a time: numpy's array power
    can differ from it in the last bit."""
    return np.array([base ** k for k in exponents.tolist()])


def _constants(trace: RunTrace, mode: str, theorem: str, *names: str):
    """The run's constants ``names`` from ``trace.meta``, once the trace is
    known to be a non-empty run in ``mode``."""
    got = trace.meta.get("mu_mode")
    if got is not None and got != mode:
        raise ValueError(f"{theorem} applies to mu_mode={mode!r} runs, trace has {got!r}")
    if not len(trace.table):
        raise ValueError("empty trace")
    missing = [name for name in names if name not in trace.meta]
    if missing:
        raise ValueError(f"{theorem} reads the run's {missing[0]!r}, which the trace's "
                         "meta does not hold")
    return tuple(trace.meta[name] for name in names)


def _gamma_grid(trace: RunTrace, gamma: int):
    """The rows T3 / T4 check: gap rows 1, 1 + gamma, ... and consensus rows
    0, gamma, ...  Their initialization maxima read rows 0..gamma, so a
    shorter trace is an error."""
    last = len(trace.table) - 1
    if last < gamma:
        raise ValueError(f"trace too short: the initialization maximum needs the "
                         f"first {gamma} iterates beyond row 0")
    return np.arange(1, last + 1, gamma), np.arange(0, last + 1, gamma)


def certify_theorem1(trace: RunTrace):
    """Sublinear bounds for the static mu = 0 setting; returns (gap, consensus)."""
    L, alpha, sigma = _constants(trace, "zero", "the static mu=0 bound", "L", "alpha", "sigma")
    k = trace.column("k")
    zbar0, s0 = trace.column("zbar_dist")[0], trace.column("cons_s")[0]
    b_gap = (2.0 / alpha) * zbar0 + (1.0 - sigma) / (2.0 * L) * s0
    b_cons = 5.0 / (L * alpha) * zbar0 + 9.0 * (1.0 - sigma) / (4.0 * L * L) * s0
    on = k >= 1
    return (_certify("T1_gap", k[on], trace.column("gap")[on], b_gap / k[on] ** 2),
            _certify("T1_consensus", k, trace.column("cons_x"), b_cons / (k + 1) ** 2))


def certify_theorem2(trace: RunTrace):
    """Linear-rate bounds for the static mu > 0 setting; returns (gap, consensus)."""
    L, mu, alpha, sigma = _constants(trace, "strongly_convex", "the static mu>0 bound",
                                     "L", "mu_used", "alpha", "sigma")
    theta = np.sqrt(mu * alpha) / 2.0
    coeff = theta * theta / (2.0 * alpha) + mu * theta / 2.0
    k, gap, zbar = trace.column("k"), trace.column("gap"), trace.column("zbar_dist")
    C = (gap[0] + coeff * zbar[0]
         + 4.0 * (1.0 - sigma) / (59.0 * L * (1.0 - theta)) * trace.column("cons_s")[0])
    decay = 1.0 - theta
    return (_certify("T2_gap", k, gap + coeff * zbar, _powers(decay, k) * C),
            _certify("T2_consensus", k, trace.column("cons_x"),
                     _powers(decay, k + 1) * 4.0 * C / L))


def certify_theorem3(trace: RunTrace):
    """Sublinear bounds for the time-varying mu = 0 setting, checked at the
    gamma-grid instants K = T gamma; returns (gap, consensus)."""
    L, m, alpha, sigma_gamma, gamma = _constants(trace, "zero", "the time-varying mu=0 bound",
                                                 "L", "m", "alpha", "sigma_gamma", "gamma")
    gap_k, cons_k = _gamma_grid(trace, gamma)
    max_s = m * trace.column("cons_s")[:gamma + 1].max()
    bracket = ((2.0 / alpha) * trace.column("zbar_dist")[0]
               + (1.0 - sigma_gamma) / (5.0 * m * L * gamma) * max_s)
    return (_certify("T3_gap", gap_k, trace.column("gap")[gap_k], bracket / gap_k ** 2),
            _certify("T3_consensus", cons_k, trace.column("cons_x")[cons_k],
                     9.0 * bracket / (2.0 * L * (cons_k + 1) ** 2)))


def certify_theorem4(trace: RunTrace):
    """Linear-rate bounds for the time-varying mu > 0 setting; returns
    (gap, consensus).  The constant C uses the trajectory maxima over the
    first gamma iterates: raw ||Pi s^r||^2 and ||Pi x^r||^2, and the
    theta^2-weighted ||Pi z^r||^2."""
    L, mu, m, alpha, sigma_gamma, gamma = _constants(
        trace, "strongly_convex", "the time-varying mu>0 bound",
        "L", "mu_used", "m", "alpha", "sigma_gamma", "gamma")
    gap_k, cons_k = _gamma_grid(trace, gamma)
    theta = np.sqrt(mu * alpha) / 2.0
    coeff = theta * theta / (2.0 * alpha) + mu * theta / 2.0
    gap, zbar, cons_x = trace.column("gap"), trace.column("zbar_dist"), trace.column("cons_x")
    max_s = m * trace.column("cons_s")[1:gamma + 1].max()
    max_x = m * cons_x[1:gamma + 1].max()
    max_z = theta * theta * m * trace.column("cons_z")[1:gamma + 1].max()
    one = 1.0 - sigma_gamma
    C = (gap[0] + coeff * zbar[0]
         + one / (49.0 * m * L * gamma * (1.0 - theta)) * max_s
         + 1459.0 * L * gamma ** 3 / (m * (1.0 - theta) * one ** 3) * max_z
         + 6.6 * L * gamma / (m * (1.0 - theta) * one) * max_x)
    decay = 1.0 - theta
    return (_certify("T4_gap", gap_k, gap[gap_k] + coeff * zbar[gap_k], _powers(decay, gap_k) * C),
            _certify("T4_consensus", cons_k, cons_x[cons_k],
                     _powers(decay, cons_k + 1) * 4.0 * C / L))


def fit_rate(trace: RunTrace, window: tuple[int, int] | None = None) -> float:
    """Least-squares slope of the empirical gap decay.

    For mu = 0 runs: slope of log(gap) against log(k) (about -2 when the
    O(1/K^2) rate is achieved).  For mu > 0 runs: slope of log(gap) against k
    (at most log(1-theta) when the linear rate is achieved).  The default
    window drops the first 10% of iterations as transient; gaps at or below
    1e-14 truncate the window.
    """
    if not len(trace.table):
        raise ValueError("empty trace")
    k, gap = trace.column("k"), trace.column("gap")
    if window is None:
        window = (max(1, int(np.ceil(0.1 * k[-1]))), k[-1])
    lo, hi = window
    sc = trace.meta.get("mu_mode") == "strongly_convex"
    if not sc:
        lo = max(lo, 1)  # log k needs k >= 1
    inside = (k >= lo) & (k <= hi)
    k, gap = k[inside], gap[inside]
    underflow = np.flatnonzero(gap <= 1e-14)  # truncates the window
    if underflow.size:
        k, gap = k[:underflow[0]], gap[:underflow[0]]
    if len(k) < 2:
        raise ValueError("window too small (or gap underflowed immediately)")
    xs = k.astype(float) if sc else np.log(k.astype(float))
    return float(np.polyfit(xs, np.log(gap), 1)[0])


def certificates_to_report(certs) -> list[dict]:
    """JSON-ready rows (theorem id, verdict, worst margin, first violation)."""
    return [{"theorem_id": c.theorem_id, "holds": c.holds,
             "worst_margin": c.worst_margin,
             "first_violation_k": c.first_violation_k} for c in certs]
