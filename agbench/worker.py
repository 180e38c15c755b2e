"""Measure one workload in this process and print the result as one JSON line.

Started by ``run.py`` in a fresh process with one BLAS thread.  Repeats the
workload (setup, then execution) until the next repetition would overrun
``--seconds``, with at least two repetitions, and reports medians.  The
end-to-end times are at the reference host speed of ``reference.py``; the
raw wall-time medians and the reference kernel's median time are reported
beside them.  With ``--trace 1`` untraced and traced repetitions alternate:
per-layer metrics are medians over the traced ones, and the tracing
overhead compares the raw wall times of the two.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import agtrack
from reference import Sampler
from tracer import LAYERS, MIXING_ROUNDS, Tracer
from workloads import workloads

MIN_REPS = 2

# Per-layer metrics: (span, quantities) in report order.
SPAN_METRICS = (
    ("graph.metropolis_weights", ("calls", "self_s", "unique_ratio")),
    ("graph.edge_set", ("calls", "self_s", "unique_ratio")),
    ("graph.sigma_gamma", ("self_s",)),
    ("graph.gamma_connectivity", ("self_s",)),
    ("graph.sigma", ("self_s",)),
    ("mixing.gossip", ("calls", "self_s")),
    ("mixing.chebyshev_apply", ("calls", "self_s")),
    ("mixing.multiple_consensus", ("calls", "self_s")),
    ("problems.aggregate_gradient", ("calls", "self_s")),
    ("problems.value", ("calls", "self_s")),
    ("problems.inexact_value", ("self_s",)),
    ("problems.bregman_distance", ("self_s",)),
    ("problems.consensus_error", ("calls", "self_s")),
    ("problems.solve_optimum", ("self_s",)),
    ("algorithms.run", ("self_s",)),
    ("algorithms.resolve_constants", ("calls", "self_s")),
    ("analysis.certify", ("calls", "self_s")),
    ("cli.to_csv", ("self_s",)),
)
LAYER_UNITS = {"mixing.flops_computed": "flop", "mixing.gflops": "GFLOP/s",
               "cli.cells": "count", "cli.cells_failed": "count",
               "trace.overhead_frac": "frac",
               **{f"layer_share.{layer}": "frac" for layer in LAYERS},
               **{f"{span}.{q}": {"calls": "count", "self_s": "s", "unique_ratio": "ratio"}[q]
                  for span, quantities in SPAN_METRICS for q in quantities}}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                      "MKL_NUM_THREADS")}}


def layer_metrics(tracer: Tracer, wall_s: float, cells) -> dict:
    """Per-layer values of one traced repetition."""
    out = {}
    for span, quantities in SPAN_METRICS:
        for q in quantities:
            out[f"{span}.{q}"] = getattr(tracer, q)(span)
    mixing_s = sum(tracer.self_s(s) for s in MIXING_ROUNDS)
    out["mixing.flops_computed"] = tracer.flops
    out["mixing.gflops"] = tracer.flops / mixing_s / 1e9 if mixing_s > 0 else 0.0
    out["cli.cells"], out["cli.cells_failed"] = cells
    for layer in LAYERS:
        out[f"layer_share.{layer}"] = tracer.layer_self_s(layer) / wall_s
    return out


class Run:
    """Repetitions at one seed, and the operation counts of their checks."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = []

    def rep(self, workload, traced: bool = False) -> dict:
        """One repetition: setup and execution, then checks.

        Untraced, the host speed is sampled throughout (``reference.Sampler``)
        and ``setup_s`` / ``total_s`` are at reference speed, with the raw
        wall times, less the sampling, kept as ``wall_setup_s`` /
        ``wall_total_s``.  Traced, every span is installed and nothing is
        sampled, so self times and wall times stay raw.
        """
        wall_start = time.perf_counter()
        tracer = Tracer() if traced else None
        sampler = None if traced else Sampler()
        with tracer.installed() if traced else sampler:
            start = time.perf_counter()
            inputs = workload.setup(self.seed)
            setup_s = time.perf_counter() - start
            setup_spent = 0.0 if traced else sampler.spent_s
            result, elapsed = workload.execute(inputs, self.workdir)
            spent = 0.0 if traced else sampler.spent_s
        for name, ok in workload.check(result):
            self.attempted += 1
            if not ok:
                self.failed.append(name)
        total_s = elapsed + (setup_s if workload.setup_in_total else 0.0)
        total_spent = spent - (0.0 if workload.setup_in_total else setup_spent)
        rep = {"wall_setup_s": setup_s - setup_spent, "wall_total_s": total_s - total_spent,
               "wall_s": time.perf_counter() - wall_start, "result": result}
        if traced:
            missing = [s for s in workload.spans if tracer.calls(s) == 0]
            if missing:
                raise RuntimeError(f"{workload.name}: entry points recorded no calls: {missing}")
            rep["layers"] = layer_metrics(tracer, setup_s + elapsed, workload.cells(result))
        else:
            rep["kernel_s"] = sampler.kernel_s()
            rep["setup_s"] = sampler.scale(setup_s, setup_spent)
            rep["total_s"] = sampler.scale(total_s, total_spent)
        return rep


def measure(run: Run, workload, seconds: float, trace: bool) -> dict:
    reps = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run.rep(workload, traced))
        elapsed = time.perf_counter() - start
        longest = max(r["wall_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + longest > seconds:
            break
    untraced = [r for r in reps if "layers" not in r]
    if not trace:
        comm, grad = workload.rounds(reps[-1]["result"])
        metrics = {
            "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
            "total_s": (statistics.median(r["total_s"] for r in reps), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "comm_rounds": (comm, "count"),
            "grad_rounds": (grad, "count"),
        }
    else:
        traced = [r for r in reps if "layers" in r]
        metrics = {name: (statistics.median(r["layers"][name] for r in traced), LAYER_UNITS[name])
                   for name in traced[0]["layers"]}
        overhead = (statistics.median(r["wall_total_s"] for r in traced)
                    / statistics.median(r["wall_total_s"] for r in untraced) - 1.0)
        metrics["trace.overhead_frac"] = (overhead, "frac")
    return {"correct": not run.failed, "attempted": run.attempted, "failed": len(run.failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "reps": len(reps), "failed_checks": sorted(set(run.failed)),
            "wall": {key: statistics.median(r[f"wall_{key}"] for r in untraced)
                     for key in ("setup_s", "total_s")},
            "kernel_s": statistics.median(r["kernel_s"] for r in untraced),
            "env": environment()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    source = Path(agtrack.__file__).resolve().parent
    if source != (Path(__file__).resolve().parent.parent / "src" / "agtrack"):
        print(f"agtrack imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    run = Run(args.seed, args.workdir)
    if args.size == "full":
        # Warm-up at toy size: lazy numpy set-up and first-call costs.  Its
        # checks count; its timings are discarded.
        run.rep(workloads("smoke")[args.workload])
    result = measure(run, workloads(args.size)[args.workload], args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
