"""Span tracer for the traced benchmark run.

Every span wraps one public agtrack function at the name its caller looks
up: a module global (``agtrack.algorithms.aggregate_gradient`` is what the run
loop binds), a class attribute (``ProblemInstance.value``,
``GraphSchedule.edge_set``), or a package attribute the benchmark itself
calls through (``agtrack.run``).  Nothing inside ``src/agtrack`` is edited;
the wrappers are installed for one traced repetition and removed after it.

Per span the tracer keeps calls and self time, where self time is
the span's duration minus the time of its direct child spans.  Spans are
aggregated in memory as they close rather than stored one by one, so the
tracer's footprint does not grow with the run length.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import agtrack
from agtrack import algorithms, cli, graph, mixing, problems

LAYERS = ("graph", "mixing", "problems", "algorithms", "analysis", "cli")


# span name -> (call sites, observer).  A call site is (owner, attribute).
# Observers: "unique_arg" / "unique_result" collect distinct edge sets for
# the unique ratio; "flops" adds the computed flops of the mixing call.
SPANS = {
    "graph.metropolis_weights": ([(algorithms, "metropolis_weights"), (graph, "metropolis_weights"),
                                  (mixing, "metropolis_weights"), (cli, "metropolis_weights")],
                                 "unique_arg"),
    "graph.edge_set": ([(graph.GraphSchedule, "edge_set")], "unique_result"),
    "graph.sigma_gamma": ([(algorithms, "sigma_gamma_of"), (cli, "sigma_gamma_of")], None),
    "graph.gamma_connectivity": ([(algorithms, "gamma_connectivity")], None),
    "graph.sigma": ([(algorithms, "sigma_of"), (graph, "sigma"), (mixing, "sigma_of"),
                     (cli, "sigma_of")], None),
    "mixing.gossip": ([(algorithms, "gossip")], "flops"),
    "mixing.chebyshev_apply": ([(algorithms, "chebyshev_apply")], "flops"),
    "mixing.multiple_consensus": ([(algorithms, "multiple_consensus")], "flops"),
    "problems.generate": ([(agtrack, "random_quadratic_problem"),
                           (cli, "random_quadratic_problem"),
                           (cli, "random_logistic_problem")], None),
    "problems.solve_optimum": ([(problems, "solve_optimum")], None),
    "problems.aggregate_gradient": ([(algorithms, "aggregate_gradient")], None),
    "problems.value": ([(problems.ProblemInstance, "value"),
                        (problems.ProblemInstance, "value_many")], None),
    "problems.inexact_value": ([(algorithms, "inexact_value")], None),
    "problems.bregman_distance": ([(algorithms, "bregman_distance")], None),
    "problems.consensus_error": ([(algorithms, "consensus_error")], None),
    "algorithms.run": ([(agtrack, "run"), (cli, "run")], None),
    "algorithms.resolve_constants": ([(algorithms, "resolve_constants")], None),
    "analysis.certify": ([(cli, f"certify_theorem{i}") for i in range(1, 5)], None),
    "cli.to_csv": ([(algorithms.RunTrace, "to_csv")], None),
    "cli.main": ([(cli, "main")], None),
}

# Gossip rounds and state of one mixing call, from its positional arguments:
# gossip(W, x), chebyshev_apply(op, x), multiple_consensus(schedule, rule, start, zeta, x).
MIXING_ROUNDS = {
    "mixing.gossip": lambda args: (1, args[1]),
    "mixing.chebyshev_apply": lambda args: (args[0].t, args[1]),
    "mixing.multiple_consensus": lambda args: (args[3], args[4]),
}


class Tracer:
    """Calls and self time per span, plus the counters observers feed."""

    def __init__(self):
        self.stats = {name: [0, 0.0] for name in SPANS}  # calls, self_s
        self.distinct = {name: set() for name, (_, kind) in SPANS.items()
                         if kind in ("unique_arg", "unique_result")}
        self.flops = 0
        self._child_time = [0.0]  # one accumulator per open span, root first

    def _observer(self, name, kind):
        if kind == "unique_arg":
            seen = self.distinct[name]
            return lambda args, out: seen.add((tuple(args[0]), args[1]))
        if kind == "unique_result":
            seen = self.distinct[name]
            return lambda args, out: seen.add(out)
        if kind == "flops":
            def count(args, out):
                rounds, x = MIXING_ROUNDS[name](args)
                m, n = x.shape
                self.flops += 2 * m * m * n * rounds  # one W @ x per gossip round
            return count
        return None

    def wrap(self, name, fn, kind):
        stat = self.stats[name]
        child_time = self._child_time
        observe = self._observer(name, kind)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = child_time.pop()
                child_time[-1] += duration
                stat[0] += 1
                stat[1] += duration - children
            if observe is not None:
                observe(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Install every span wrapper, restoring the originals on exit.

        A missing call site raises KeyError: a refactor that renames or
        rebinds an entry point must be followed by this table.
        """
        saved = []
        try:
            for name, (sites, kind) in SPANS.items():
                for owner, attr in sites:
                    original = vars(owner)[attr]
                    setattr(owner, attr, self.wrap(name, original, kind))
                    saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def calls(self, name):
        return self.stats[name][0]

    def self_s(self, name):
        return self.stats[name][1]

    def layer_self_s(self, layer):
        return sum(s[1] for name, s in self.stats.items() if name.split(".")[0] == layer)

    def unique_ratio(self, name):
        calls = self.calls(name)
        return len(self.distinct[name]) / calls if calls else 0.0
