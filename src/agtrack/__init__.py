"""Decentralized gradient tracking and accelerated gradient tracking.

A library plus CLI simulator for convex decentralized optimization over
static and time-varying gossip networks, with Metropolis mixing, Chebyshev
acceleration, multiple consensus, and an executable verification harness for
the proved convergence bounds.
"""
from .graph import (EdgeSet, GraphSchedule, SpectralReport,
                    gamma_connectivity, matrix_product_window,
                    metropolis_weights, sigma, sigma_gamma)
from .mixing import (ChebyshevOperator, RoundCounter, chebyshev_apply,
                     chebyshev_operator, default_zeta, gossip,
                     multiple_consensus)
from .problems import (AggregateState, LocalObjective, ProblemInstance,
                       aggregate_gradient, averages, bregman_distance,
                       consensus_error, inexact_value, logistic_objective,
                       make_problem, quadratic_objective,
                       random_logistic_problem, random_quadratic_problem,
                       solve_optimum)
from .algorithms import (AlgorithmConfig, AveragedState, DivergenceError,
                         RunTrace, ThetaSchedule, TraceRow,
                         averaged_reference_step, default_alpha, gt_init,
                         gt_step, resolve_constants, resolve_gamma, run,
                         theta_next)
from .analysis import (BoundCertificate, certificates_to_report,
                       certify_theorem1, certify_theorem2, certify_theorem3,
                       certify_theorem4, fit_rate)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
