"""Decentralized gradient tracking and accelerated gradient tracking.

A library plus CLI simulator for convex decentralized optimization over
static and time-varying gossip networks, with Metropolis mixing, Chebyshev
acceleration, multiple consensus, and an executable verification harness for
the proved convergence bounds.
"""
from .graph import (EdgeSet, GraphSchedule, gamma_connectivity, metropolis_weights,
                    sigma, sigma_gamma)
from .mixing import (ChebyshevOperator, chebyshev_apply, chebyshev_operator,
                     default_zeta, gossip, multiple_consensus)
from .problems import (ProblemInstance, aggregate_gradient, bregman_distance,
                       consensus_error, inexact_value, logistic_problem,
                       quadratic_problem, random_logistic_problem,
                       random_quadratic_problem, solve_optimum)
from .algorithms import (AlgorithmConfig, DivergenceError, NotGammaConnectedError,
                         RunTrace, TraceRow, default_alpha, resolve_constants,
                         resolve_gamma, run, theta_next)
from .analysis import (BoundCertificate, certificates_to_report,
                       certify_theorem1, certify_theorem2, certify_theorem3,
                       certify_theorem4, fit_rate)

# The imported classes and functions; importing them also binds the
# submodules (agtrack.graph, ...), which star-imports leave out.
__all__ = sorted(name for name, obj in globals().items() if name[0] != "_" and callable(obj))
__version__ = "0.1.0"
