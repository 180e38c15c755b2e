import json
import math
from pathlib import Path

import numpy as np
import pytest

from agtrack import (AlgorithmConfig, BoundCertificate, algorithms,
                     certificates_to_report, certify_theorem1,
                     certify_theorem2, certify_theorem3, certify_theorem4,
                     fit_rate, random_quadratic_problem, resolve_constants,
                     run)
from agtrack.algorithms import _ROW_FIELDS, RunTrace
from agtrack.cli import build_schedule
from reference_steps import reference_certificates

CERTIFY = {1: certify_theorem1, 2: certify_theorem2, 3: certify_theorem3, 4: certify_theorem4}
SEEDED_RANDOM_CONFIG = Path(__file__).parent / "data" / "seeded_random_config.json"


def synthetic_trace(gaps, mu_mode, problem=None, alpha=None, sigma=None, gamma=None, *,
                    start_k=0, zbar_dist=0.0, cons_x=0.0, cons_s=0.0):
    """Trace with a prescribed gap sequence and constant everything else.  Given
    a problem, its meta carries the constants a run records for the
    certificates: ``sigma``, or ``sigma_gamma`` and ``gamma`` when gamma is given."""
    table = np.full((len(gaps), len(_ROW_FIELDS)), float("nan"))
    for name, value in (("k", start_k + np.arange(len(gaps))), ("gap", gaps),
                        ("per_agent_gap_max", gaps), ("cons_x", cons_x), ("cons_y", 0.0),
                        ("cons_s", cons_s), ("zbar_dist", zbar_dist), ("cons_z", 0.0),
                        ("comm_rounds", 0), ("grad_rounds", 0)):
        table[:, _ROW_FIELDS.index(name)] = value
    meta = {"mu_mode": mu_mode}
    if problem is not None:
        meta.update(L=problem.L, m=problem.m, alpha=alpha,
                    mu_used=problem.mu if mu_mode == "strongly_convex" else 0.0)
        meta.update({"sigma": sigma} if gamma is None else
                    {"sigma_gamma": sigma, "gamma": gamma})
    return RunTrace(table, meta=meta)


def run_case(variant, mu_mode, problem, schedule, iterations):
    cfg = AlgorithmConfig(variant=variant, mu_mode=mu_mode,
                          max_iterations=iterations)
    return run(cfg, problem, schedule, diagnostics=False)


# ---------------------------------------------------------------- fit_rate

def test_fit_rate_inverse_square_decay():
    gaps = [1.0] + [1.0 / k ** 2 for k in range(1, 401)]
    trace = synthetic_trace(gaps, "zero")
    assert fit_rate(trace, (1, 400)) == pytest.approx(-2.0, abs=1e-9)


def test_fit_rate_geometric_decay():
    gaps = [0.9 ** k for k in range(201)]
    trace = synthetic_trace(gaps, "strongly_convex")
    assert fit_rate(trace, (0, 200)) == pytest.approx(math.log(0.9), abs=1e-12)


def test_fit_rate_default_window_drops_transient():
    # Flat head for the first 10%, clean power law after: the default window
    # must skip the head entirely.
    gaps = [5.0 if k < 40 else 1.0 / k ** 2 for k in range(401)]
    trace = synthetic_trace(gaps, "zero")
    assert fit_rate(trace) == pytest.approx(-2.0, abs=1e-9)


def test_fit_rate_underflow_truncates_window():
    # 10^-k crosses 1e-14 at k = 14; the fit must use k = 1..13 only and
    # still see the exact log-linear slope.
    gaps = [10.0 ** (-k) for k in range(31)]
    trace = synthetic_trace(gaps, "strongly_convex")
    assert fit_rate(trace, (1, 30)) == pytest.approx(-math.log(10), rel=1e-12)


def test_fit_rate_rejects_degenerate_window():
    trace = synthetic_trace([1.0, 0.5, 0.25], "strongly_convex")
    with pytest.raises(ValueError):
        fit_rate(trace, (1, 1))


def test_fit_rate_rejects_empty_trace():
    with pytest.raises(ValueError):
        fit_rate(RunTrace(np.empty((0, len(_ROW_FIELDS))), meta={}))


def test_fit_rate_on_accelerated_run(ring10):
    # A practical (non-worst-case) step size reaches the fast regime within
    # 2000 iterations; the measured slope beats the -2 target comfortably.
    problem = random_quadratic_problem(10, 4, L=1.0, mu=0.0, seed=0)
    cfg = AlgorithmConfig(variant="acc_gt_static", mu_mode="zero",
                          alpha=0.05, max_iterations=2000)
    trace = run(cfg, problem, ring10, diagnostics=False)
    assert fit_rate(trace, (100, 2000)) <= -1.8


# ------------------------------------------------- certificate semantics

def test_certificate_violation_is_located():
    # One wildly infeasible row: holds must flip, the first offending instant
    # must be reported, and the worst margin is the raw (unnormalized) slack.
    gaps = [0.0, 1e9, 0.0, 0.0]
    problem = random_quadratic_problem(3, 2, L=1.0, mu=0.0, seed=0)
    trace = synthetic_trace(gaps, "zero", problem, 0.1, 0.0, zbar_dist=1.0)
    gap_cert, cons_cert = certify_theorem1(trace)
    b_gap = 2.0 / 0.1  # zbar_dist = 1, cons_s = 0
    assert not gap_cert.holds
    assert gap_cert.first_violation_k == 1
    assert gap_cert.worst_margin == pytest.approx(b_gap - 1e9)
    assert cons_cert.holds  # cons_x is identically zero


def test_certificate_worst_margin_is_pointwise_minimum():
    problem = random_quadratic_problem(3, 2, L=1.0, mu=0.0, seed=0)
    trace = synthetic_trace([0.0, 0.0, 0.0, 0.0], "zero", problem, 0.1, 0.0, zbar_dist=1.0)
    gap_cert, _ = certify_theorem1(trace)
    # gap rows are k = 1, 2, 3 with lhs = 0, so the minimum slack is the
    # bound at the last instant.
    assert gap_cert.holds
    assert gap_cert.worst_margin == pytest.approx((2.0 / 0.1) / 9.0)
    assert gap_cert.first_violation_k is None


def test_certificate_tolerates_rounding_noise():
    # A margin that is negative but within the relative tolerance must not
    # count as a violation (the bounds are exact in real arithmetic; only
    # rounding can push the slack slightly below zero).
    b_gap = 2.0 / 0.1
    gaps = [0.0, b_gap * (1 + 1e-9), 0.0]
    problem = random_quadratic_problem(3, 2, L=1.0, mu=0.0, seed=0)
    trace = synthetic_trace(gaps, "zero", problem, 0.1, 0.0, zbar_dist=1.0)
    gap_cert, _ = certify_theorem1(trace)
    assert gap_cert.holds
    assert gap_cert.worst_margin < 0.0


def test_certificate_requires_checkable_instants():
    # Only row 0 exists, and the gap bound starts at k = 1: nothing to check.
    problem = random_quadratic_problem(3, 2, L=1.0, mu=0.0, seed=0)
    trace = synthetic_trace([1.0], "zero", problem, 0.1, 0.0, zbar_dist=1.0)
    with pytest.raises(ValueError):
        certify_theorem1(trace)


def test_certificate_rejects_mismatched_mode():
    problem = random_quadratic_problem(3, 2, L=1.0, mu=0.1, seed=0)
    trace = synthetic_trace([1.0, 0.5], "strongly_convex", problem, 0.1, 0.0)
    with pytest.raises(ValueError, match="mu_mode"):
        certify_theorem1(trace)
    zero_trace = synthetic_trace([1.0, 0.5], "zero", problem, 0.1, 0.0)
    with pytest.raises(ValueError, match="mu_mode"):
        certify_theorem2(zero_trace)


def test_certificate_rejects_empty_trace():
    with pytest.raises(ValueError, match="empty"):
        certify_theorem1(RunTrace(np.empty((0, len(_ROW_FIELDS))), meta={"mu_mode": "zero"}))


@pytest.mark.parametrize("theorem,variant,missing", [(1, "acc_gt_tv", "sigma"),
                                                     (2, "acc_gt_tv", "sigma"),
                                                     (3, "acc_gt_static", "sigma_gamma"),
                                                     (4, "acc_gt_static", "sigma_gamma")])
def test_certificates_refuse_a_trace_without_the_run_constants(ring10, theorem, variant,
                                                               missing):
    # The constants come from the trace alone: a run of another variant lacks
    # the mixing constant, and a table-only trace lacks them all.
    mode = "strongly_convex" if theorem in (2, 4) else "zero"
    problem = random_quadratic_problem(10, 4, L=1.0, mu=0.05, seed=2)
    trace = run_case(variant, mode, problem, ring10, 12)
    assert trace.meta["mu_mode"] == mode and missing not in trace.meta
    with pytest.raises(ValueError, match=f"the run's '{missing}'"):
        CERTIFY[theorem](trace)
    with pytest.raises(ValueError, match="the run's 'L'"):
        CERTIFY[theorem](RunTrace(trace.table))


def test_nan_bound_is_a_violation():
    # A bound that evaluates to NaN cannot certify its instant: it counts as a
    # violation there, and the worst margin reads NaN rather than skipping it.
    problem = random_quadratic_problem(3, 2, L=1.0, mu=0.0, seed=0)
    trace = synthetic_trace([0.0, 0.0, 0.0], "zero", problem, 0.1, float("nan"), zbar_dist=1.0)
    gap_cert, cons_cert = certify_theorem1(trace)
    assert not gap_cert.holds and gap_cert.first_violation_k == 1
    assert math.isnan(gap_cert.worst_margin)
    assert not cons_cert.holds and cons_cert.first_violation_k == 0


# ------------------------------------------------- certificates on runs

def test_static_sublinear_bounds_hold(ring10):
    problem = random_quadratic_problem(10, 4, L=1.0, mu=0.0, seed=0)
    trace = run_case("acc_gt_static", "zero", problem, ring10, 300)
    gap_cert, cons_cert = certify_theorem1(trace)
    assert gap_cert.theorem_id == "T1_gap"
    assert cons_cert.theorem_id == "T1_consensus"
    assert gap_cert.holds and cons_cert.holds
    assert gap_cert.worst_margin > 0 and cons_cert.worst_margin > 0
    assert gap_cert.first_violation_k is None


def test_static_linear_bounds_hold(ring10):
    problem = random_quadratic_problem(10, 4, L=1.0, mu=0.01, seed=1)
    trace = run_case("acc_gt_static", "strongly_convex", problem, ring10, 300)
    gap_cert, cons_cert = certify_theorem2(trace)
    assert gap_cert.holds and cons_cert.holds
    assert gap_cert.theorem_id == "T2_gap"
    assert cons_cert.theorem_id == "T2_consensus"


def test_time_varying_sublinear_bounds_hold(m9_schedule):
    problem = random_quadratic_problem(9, 4, L=1.0, mu=0.0, seed=2)
    trace = run_case("acc_gt_tv", "zero", problem, m9_schedule, 60)
    gap_cert, cons_cert = certify_theorem3(trace)
    assert trace.meta["gamma"] == 3
    assert gap_cert.holds and cons_cert.holds
    assert gap_cert.theorem_id == "T3_gap"
    assert cons_cert.theorem_id == "T3_consensus"


def test_time_varying_linear_bounds_hold(m9_schedule):
    problem = random_quadratic_problem(9, 4, L=1.0, mu=0.02, seed=3)
    trace = run_case("acc_gt_tv", "strongly_convex", problem, m9_schedule, 60)
    gap_cert, cons_cert = certify_theorem4(trace)
    assert gap_cert.holds and cons_cert.holds
    assert gap_cert.theorem_id == "T4_gap"
    assert cons_cert.theorem_id == "T4_consensus"


def test_time_varying_bounds_on_static_schedule(ring10):
    # A static graph is the gamma = 1 special case of the joint-connectivity
    # machinery, so the gamma-grid certificate degenerates to every instant.
    problem = random_quadratic_problem(10, 4, L=1.0, mu=0.0, seed=0)
    trace = run_case("acc_gt_tv", "zero", problem, ring10, 100)
    assert trace.meta["gamma"] == 1
    gap_cert, cons_cert = certify_theorem3(trace)
    assert gap_cert.holds and cons_cert.holds


def test_time_varying_certificates_need_full_first_window(m9_schedule):
    problem = random_quadratic_problem(9, 4, L=1.0, mu=0.0, seed=2)
    trace = run_case("acc_gt_tv", "zero", problem, m9_schedule, 2)
    with pytest.raises(ValueError, match="too short"):
        certify_theorem3(trace)
    sc_problem = random_quadratic_problem(9, 4, L=1.0, mu=0.02, seed=3)
    sc_trace = run_case("acc_gt_tv", "strongly_convex", sc_problem, m9_schedule, 2)
    with pytest.raises(ValueError, match="too short"):
        certify_theorem4(sc_trace)


def test_certification_is_deterministic(ring10):
    problem = random_quadratic_problem(10, 4, L=1.0, mu=0.0, seed=0)
    trace = run_case("acc_gt_static", "zero", problem, ring10, 200)
    first = certify_theorem1(trace)
    second = certify_theorem1(trace)
    assert first == second


def test_oversized_step_is_detected_or_diverges(ring10):
    # Negative control: at 100x the prescribed step the proof no longer
    # applies.  The run may diverge outright; if it survives, the certificate
    # pair must still be structurally coherent (violation located iff the
    # verdict flipped).  Whether it fails is not asserted.
    from agtrack import DivergenceError
    problem = random_quadratic_problem(10, 4, L=1.0, mu=0.0, seed=0)
    consts = resolve_constants(
        AlgorithmConfig(variant="acc_gt_static", mu_mode="zero"),
        problem, ring10)
    cfg = AlgorithmConfig(variant="acc_gt_static", mu_mode="zero",
                          alpha=100 * consts["alpha"], max_iterations=300)
    try:
        trace = run(cfg, problem, ring10, diagnostics=False)
    except DivergenceError:
        return
    for cert in certify_theorem1(trace):
        assert cert.holds == (cert.first_violation_k is None)


# ---------------------------------------------------------------- report

def test_certificates_to_report_shape(ring10):
    problem = random_quadratic_problem(10, 4, L=1.0, mu=0.0, seed=0)
    trace = run_case("acc_gt_static", "zero", problem, ring10, 100)
    certs = certify_theorem1(trace)
    report = certificates_to_report(certs)
    assert [row["theorem_id"] for row in report] == ["T1_gap", "T1_consensus"]
    for row in report:
        assert set(row) == {"theorem_id", "holds", "worst_margin",
                            "first_violation_k"}
        assert isinstance(row["holds"], bool)
        assert row["first_violation_k"] is None
        assert row["worst_margin"] > 0


def test_certificates_to_report_carries_violation():
    cert = BoundCertificate("T1_gap", False, -3.5, 7)
    (row,) = certificates_to_report([cert])
    assert row == {"theorem_id": "T1_gap", "holds": False,
                   "worst_margin": -3.5, "first_violation_k": 7}


# ------------------------------------- column certificates vs the row reference

def assert_same_certificates(got, want):
    """Equal verdicts, bit for bit, with the JSON report's Python types."""
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert (g.theorem_id, g.holds, g.first_violation_k) == \
            (w.theorem_id, w.holds, w.first_violation_k)
        assert g.worst_margin.hex() == w.worst_margin.hex(), g.theorem_id
        assert type(g.holds) is bool and type(g.worst_margin) is float
        assert g.first_violation_k is None or type(g.first_violation_k) is int


@pytest.fixture(scope="module")
def seeded_random_schedule():
    return build_schedule(json.loads(SEEDED_RANDOM_CONFIG.read_text())["graph"])


@pytest.mark.parametrize("alpha", ["theorem_default", 0.3])
@pytest.mark.parametrize("mu_mode", ["zero", "strongly_convex"])
@pytest.mark.parametrize("variant,schedule_name,gamma", [
    ("acc_gt_static", "ring10", 1),
    ("acc_gt_tv", "ring10", 1),
    ("acc_gt_tv", "m9_schedule", 3),
    ("acc_gt_tv", "seeded_random_schedule", 4),
])
def test_column_certificates_match_the_row_reference_on_runs(request, variant, schedule_name,
                                                             gamma, mu_mode, alpha):
    schedule = request.getfixturevalue(schedule_name)
    problem = random_quadratic_problem(schedule.agent_count, 4, L=1.0, mu=0.05, seed=2)
    trace = run(AlgorithmConfig(variant=variant, alpha=alpha, mu_mode=mu_mode,
                                max_iterations=60), problem, schedule, diagnostics=False)
    meta = trace.meta
    assert meta["gamma"] == gamma
    if variant == "acc_gt_static":
        theorem, constants = 1, (meta["sigma"],)
    else:
        theorem, constants = 3, (meta["sigma_gamma"], gamma)
    theorem += mu_mode == "strongly_convex"
    assert_same_certificates(CERTIFY[theorem](trace),
                             reference_certificates(theorem, trace, problem, meta["alpha"],
                                                    *constants))


def test_time_varying_certificates_locate_violations_of_an_oversized_step(m9_schedule):
    # One of the alpha = 0.3 cases above: a run trace whose T3 bounds fail,
    # so the comparison covers located violations, not only None.
    problem = random_quadratic_problem(9, 4, L=1.0, mu=0.05, seed=2)
    trace = run(AlgorithmConfig(variant="acc_gt_tv", alpha=0.3, max_iterations=60),
                problem, m9_schedule, diagnostics=False)
    certs = certify_theorem3(trace)
    assert [c.first_violation_k for c in certs] == [19, 9]


@pytest.mark.parametrize("gaps", [[0.0, 1e9, 0.0, 0.0], [0.0, (2.0 / 0.1) * (1 + 1e-9), 0.0]],
                         ids=["violation", "tolerance"])
@pytest.mark.parametrize("theorem,constants", [(1, (0.0,)), (2, (0.0,)),
                                               (3, (0.0, 1)), (3, (0.5, 2)),
                                               (4, (0.0, 1)), (4, (0.5, 2))])
def test_column_certificates_match_the_row_reference_on_synthetic_traces(theorem, constants,
                                                                         gaps):
    mode = "strongly_convex" if theorem in (2, 4) else "zero"
    # The traces of test_certificate_violation_is_located and
    # test_certificate_tolerates_rounding_noise.
    problem = random_quadratic_problem(3, 2, L=1.0, mu=0.1, seed=0)
    trace = synthetic_trace(gaps, mode, problem, 0.1, *constants, zbar_dist=1.0)
    assert_same_certificates(CERTIFY[theorem](trace),
                             reference_certificates(theorem, trace, problem, 0.1, *constants))


def test_run_csv_and_certificates_build_no_trace_row(monkeypatch, ring10, m9_schedule,
                                                     tmp_path):
    built = []
    record_class, read_row = algorithms.TraceRow, algorithms._row

    def counting_record(*args, **kwargs):
        built.append("TraceRow")
        return record_class(*args, **kwargs)

    def counting_row(values):
        built.append("_row")
        return read_row(values)

    monkeypatch.setattr(algorithms, "TraceRow", counting_record)
    monkeypatch.setattr(algorithms, "_row", counting_row)
    for variant, schedule, theorem in (("acc_gt_static", ring10, 1),
                                       ("acc_gt_tv", m9_schedule, 3)):
        problem = random_quadratic_problem(schedule.agent_count, 4, L=1.0, mu=0.05, seed=2)
        for mode in ("zero", "strongly_convex"):
            trace = run(AlgorithmConfig(variant=variant, mu_mode=mode, max_iterations=12),
                        problem, schedule)
            trace.to_csv(tmp_path / "trace.csv")
            CERTIFY[theorem + (mode == "strongly_convex")](trace)
    assert built == []
    assert trace.rows[-1].k == 12  # the read-only view still builds records
    assert built == ["_row", "TraceRow"]
