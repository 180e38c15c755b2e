"""The benchmark's workloads: inputs from a seed, one measured execution, checks.

Each workload separates the layers differently (see ``layers.json`` for the
measured shares):

* ``cheb-torus-m196``: the per-agent objective layer (``problems``) dominates;
  Chebyshev mixing on a static torus is a small share.
* ``mc-random-m20``: graph and mixing work dominates: Metropolis rebuilds for
  every multiple-consensus round and the spectral constants over a
  1000-instant horizon, on a small problem.
* ``sweep-cyclic-logistic``: the CLI end to end, the only workload that runs
  the diagnostic margins, the certificates and the CSV/JSON writers.

A workload exposes ``setup(seed)`` (problem and schedule construction),
``execute(inputs, workdir)``, which times only what the user waits for and
returns ``(result, seconds)``, and
``check(result)``, which returns ``(name, passed)`` pairs.  Every check counts
as one attempted operation; none is skipped.
"""
from __future__ import annotations

import csv
import io
import json
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import agtrack
from agtrack import cli

# Spans every workload must reach: setup builds a problem and its optimum,
# the run resolves constants, builds mixing matrices and takes gradients.
COMMON_SPANS = ("problems.generate", "problems.solve_optimum", "algorithms.run",
                "algorithms.resolve_constants", "graph.metropolis_weights",
                "graph.edge_set", "graph.sigma", "problems.aggregate_gradient",
                "problems.value", "problems.consensus_error")


def torus_edges(side: int):
    """Edges of the side-by-side two-dimensional torus (each agent has degree 4)."""
    edges = []
    for r in range(side):
        for c in range(side):
            u = r * side + c
            edges.append((u, r * side + (c + 1) % side))
            edges.append((u, ((r + 1) % side) * side + c))
    return edges


def ring_matchings(m: int):
    """A ring of m agents (m divisible by 3) split into three perfect matchings."""
    ring = [(i, (i + 1) % m) for i in range(m)]
    return [[list(e) for i, e in enumerate(ring) if i % 3 == j] for j in range(3)]


@dataclass(frozen=True)
class LibraryWorkload:
    """``agtrack.run`` of one accelerated variant on a quadratic problem, diagnostics off.

    ``expected_meta`` pins the wrapper constants the schedule implies (the
    Chebyshev degree t, or gamma and the multiple-consensus length zeta);
    ``rounds_per_mix`` is the communication rounds one mixing slot costs.
    Each iteration uses three mixing slots and one gradient round, so the last
    row must read ``3 * rounds_per_mix * K`` and ``K + 1``.
    """

    name: str
    variant: str
    m: int
    n: int
    alpha: float
    iterations: int
    target_gap: float
    graph: dict
    expected_meta: dict
    rounds_per_mix: int
    spans: tuple = ()
    setup_in_total = True

    def setup(self, seed: int):
        problem = agtrack.random_quadratic_problem(self.m, self.n, L=1.0, mu=0.0, seed=seed)
        if self.graph["kind"] == "torus":
            schedule = agtrack.GraphSchedule.static(self.m, torus_edges(self.graph["side"]))
        else:
            schedule = agtrack.GraphSchedule.seeded_random(
                self.m, self.graph["edge_probability"], self.graph["seed"])
        config = agtrack.AlgorithmConfig(self.variant, alpha=self.alpha,
                                         max_iterations=self.iterations, seeds=(seed,))
        return config, problem, schedule

    def execute(self, inputs, workdir: Path):
        start = time.perf_counter()
        try:
            trace = agtrack.run(*inputs, diagnostics=False)
        except agtrack.DivergenceError as err:
            trace = err
        return trace, time.perf_counter() - start

    def check(self, trace):
        if isinstance(trace, agtrack.DivergenceError):
            return [("no_divergence", False)]
        last = trace.rows[-1]
        checks = [("no_divergence", True),
                  ("final_gap", last.gap <= self.target_gap),
                  ("comm_rounds", last.comm_rounds == 3 * self.rounds_per_mix * self.iterations),
                  ("grad_rounds", last.grad_rounds == self.iterations + 1)]
        checks += [(f"meta.{key}", trace.meta.get(key) == value)
                   for key, value in self.expected_meta.items()]
        return checks

    def rounds(self, trace):
        if isinstance(trace, agtrack.DivergenceError):
            return 0, 0
        last = trace.rows[-1]
        return last.comm_rounds, last.grad_rounds

    def cells(self, trace):
        return 0, 0


@dataclass
class SweepWorkload:
    """``agtrack sweep --deterministic`` through ``agtrack.cli.main``, serial.

    Four cells, ``algorithm.mu_mode`` x ``problem.seed``, each an
    ``acc_gt_tv`` run with the theorem-default step and diagnostics on, so
    every cell is certified (T3 for mu_mode zero, T4 for strongly convex).
    The first execution's ``trace.csv`` / ``summary.csv`` bytes are kept and
    every later execution must reproduce them exactly.
    """

    name: str
    m: int
    n: int
    samples_per_agent: int
    ridge: float
    iterations: int
    spans: tuple = ()
    setup_in_total = False
    reference: dict | None = field(default=None, repr=False)

    MODES = ("zero", "strongly_convex")
    CERTIFICATES = {"zero": ("T3_gap", "T3_consensus"),
                    "strongly_convex": ("T4_gap", "T4_consensus")}

    def config(self, seed: int) -> dict:
        return {
            "problem": {"kind": "logistic", "m": self.m, "n": self.n, "seed": 2 * seed,
                        "samples_per_agent": self.samples_per_agent, "ridge": self.ridge},
            "graph": {"m": self.m, "kind": "cyclic", "period": 3,
                      "edge_sets": ring_matchings(self.m)},
            "algorithm": {"variant": "acc_gt_tv", "alpha": "theorem_default",
                          "mu_mode": "zero", "max_iterations": self.iterations},
            "diagnostics": "on",
            "sweep": {"algorithm.mu_mode": list(self.MODES),
                      "problem.seed": [2 * seed, 2 * seed + 1]},
        }

    def setup(self, seed: int):
        """Build every cell's problem and schedule with the CLI builders."""
        config = self.config(seed)
        for problem_seed in config["sweep"]["problem.seed"]:
            for _ in self.MODES:
                cli.build_problem({**config["problem"], "seed": problem_seed})
                cli.build_schedule(config["graph"])
        return config

    def execute(self, config, workdir: Path):
        out = workdir / "sweep"
        shutil.rmtree(out, ignore_errors=True)
        workdir.mkdir(parents=True, exist_ok=True)
        config_path = workdir / "sweep.json"
        config_path.write_text(json.dumps(config))
        argv = ["sweep", "--config", str(config_path), "--out", str(out), "--deterministic"]
        with redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*.csv"))}
        certificates = {p.parent.name: json.loads(p.read_text())["certificates"]
                        for p in sorted(out.glob("cell_*/certificates.json"))}
        return {"code": code, "files": files, "certificates": certificates}, elapsed

    def _summary(self, result):
        data = result["files"].get("summary.csv", b"")
        return list(csv.DictReader(io.StringIO(data.decode())))

    def _last_rows(self, result):
        return [list(csv.DictReader(io.StringIO(data.decode())))[-1]
                for name, data in result["files"].items() if name.endswith("/trace.csv")]

    def check(self, result):
        checks = [("exit_code", result["code"] == 0)]
        summary = self._summary(result)
        checks.append(("cells", len(summary) == 2 * len(self.MODES)))
        for row in summary:
            cell = f"cell_{int(row['cell']):03d}"
            certs = result["certificates"].get(cell, [])
            expected = self.CERTIFICATES[row["algorithm.mu_mode"]]
            checks.append((f"{cell}.status", row["status"] == "ok"))
            checks.append((f"{cell}.certificates",
                           tuple(c["theorem_id"] for c in certs) == expected
                           and all(c["holds"] for c in certs)))
        comm, grad = self.rounds(result)
        checks.append(("comm_rounds", comm == len(summary) * 3 * self.iterations))
        checks.append(("grad_rounds", grad == len(summary) * (self.iterations + 1)))
        if self.reference is None:
            self.reference = result["files"]
        else:
            checks.append(("deterministic_outputs", result["files"] == self.reference))
        return checks

    def rounds(self, result):
        rows = self._last_rows(result)
        return (sum(int(r["comm_rounds"]) for r in rows),
                sum(int(r["grad_rounds"]) for r in rows))

    def cells(self, result):
        summary = self._summary(result)
        return len(summary), sum(row["status"] != "ok" for row in summary)


MC_SPANS = COMMON_SPANS + ("graph.sigma_gamma", "graph.gamma_connectivity",
                           "mixing.multiple_consensus")
SWEEP_SPANS = COMMON_SPANS + ("cli.main", "graph.sigma_gamma", "graph.gamma_connectivity",
                              "mixing.gossip", "problems.inexact_value",
                              "problems.bregman_distance", "analysis.certify", "cli.to_csv")


def workloads(size: str):
    """The workloads by name, at ``full`` size or at the ``smoke`` toy size.

    Full-size constants were measured on the schedules below: the 14x14
    torus has sigma = 0.960, so the Chebyshev degree is t = 7; the seeded
    Erdos-Renyi schedule (p = 0.1, graph seed 3) is 6-connected with
    sigma_gamma = 0.798, so zeta = 30.  Gap targets hold with a margin of at
    least three over the seeds tried.
    """
    full = size == "full"
    return {
        "cheb-torus-m196": LibraryWorkload(
            "cheb-torus-m196", "acc_gt_chebyshev",
            m=196 if full else 16, n=20 if full else 4, alpha=0.1,
            iterations=40 if full else 60, target_gap=0.1,
            graph={"kind": "torus", "side": 14 if full else 4},
            expected_meta={"t": 7 if full else 2}, rounds_per_mix=7 if full else 2,
            spans=COMMON_SPANS + ("mixing.chebyshev_apply",)),
        "mc-random-m20": LibraryWorkload(
            "mc-random-m20", "acc_gt_multiconsensus",
            m=20 if full else 6, n=4 if full else 2, alpha=0.2,
            iterations=100 if full else 60, target_gap=1e-3 if full else 0.1,
            graph={"kind": "seeded_random", "edge_probability": 0.1 if full else 0.5,
                   "seed": 3 if full else 0},
            expected_meta={"gamma": 6, "zeta": 30} if full else {"gamma": 3, "zeta": 13},
            rounds_per_mix=30 if full else 13, spans=MC_SPANS),
        "sweep-cyclic-logistic": SweepWorkload(
            "sweep-cyclic-logistic", m=30 if full else 6, n=10 if full else 3,
            samples_per_agent=30 if full else 8, ridge=0.01,
            iterations=75 if full else 12, spans=SWEEP_SPANS),
    }
