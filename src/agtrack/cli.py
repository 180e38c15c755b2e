"""Command-line front end: run experiments, inspect schedules, sweep parameters.

Subcommands (all take ``--config PATH`` with a JSON experiment file):

    run         execute one configured run; write trace.csv + certificates.json
    sweep       cross-product over the config's sweep axes; one trace and
                certificate report per cell plus a summary.csv
    graph-info  print the schedule's connectivity and mixing constants and the
                default step size of each variant

Exit codes: 0 success, 2 config validation error, 3 divergence,
4 certificate failure under --strict.

Config schema (JSON object)::

    {
      "problem":   {"kind": "quadratic"|"logistic", "m": int, "n": int,
                    "seed": int, "L": float, "mu": float,
                    "shared_basis": bool,               # quadratic only
                    "samples_per_agent": int, "ridge": float},  # logistic only
      "graph":     {"m": int, "kind": "static"|"cyclic"|"seeded_random",
                    "period": int|null, "seed": int|null,
                    "edge_sets": [[[i, j], ...], ...],
                    "edge_probability": float|null},
      "algorithm": {"variant": str, "alpha": float|"theorem_default",
                    "mu_mode": "zero"|"strongly_convex",
                    "max_iterations": int, "zeta": int|null, "seeds": [int]},
      "diagnostics": "on"|"off",
      "target_gap": float,          # sweep summary threshold (default 1e-6)
      "sweep": {"algorithm.alpha": [...], ...}   # dotted paths to lists
    }

All floats in emitted CSVs carry 17 significant digits; outputs are
byte-identical across repeat runs except for a timestamp comment line, which
``--deterministic`` suppresses.
"""
from __future__ import annotations

import argparse
import copy
import csv
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .graph import MAX_GAMMA, GraphSchedule, sigma as sigma_of, sigma_gamma as sigma_gamma_of
from .graph import metropolis_weights  # noqa: F401 -- a call site the benchmark tracer wraps
from .problems import ProblemInstance, random_logistic_problem, random_quadratic_problem
from .algorithms import (AlgorithmConfig, DivergenceError, RunTrace,
                         default_alpha, resolve_gamma, run)
from .analysis import (certificates_to_report, certify_theorem1,
                       certify_theorem2, certify_theorem3, certify_theorem4)


class ConfigError(ValueError):
    """Validation failure with the offending config field in the message."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; round-trips losslessly through JSON."""

    problem: dict
    graph: dict
    algorithm: dict
    diagnostics: bool = True
    target_gap: float = 1e-6
    sweep: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"problem": dict(self.problem), "graph": dict(self.graph),
                "algorithm": dict(self.algorithm),
                "diagnostics": "on" if self.diagnostics else "off",
                "target_gap": self.target_gap, "sweep": dict(self.sweep)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        for section in ("problem", "graph", "algorithm"):
            if section not in data or not isinstance(data[section], dict):
                raise ConfigError(f"{section}: required object is missing")
        diag = data.get("diagnostics", "on")
        if diag not in ("on", "off"):
            raise ConfigError(f"diagnostics: expected 'on' or 'off', got {diag!r}")
        sweep = data.get("sweep", {})
        if not isinstance(sweep, dict) or not all(isinstance(v, list) for v in sweep.values()):
            raise ConfigError("sweep: expected an object mapping dotted paths to lists")
        return cls(dict(data["problem"]), dict(data["graph"]), dict(data["algorithm"]),
                   diag == "on", float(data.get("target_gap", 1e-6)), dict(sweep))


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    return ExperimentConfig.from_dict(data)


def _field(section: dict, section_name: str, key: str, required: bool = True, default=None):
    if key not in section:
        if required:
            raise ConfigError(f"{section_name}.{key}: required field is missing")
        return default
    return section[key]


def build_problem(spec: dict) -> ProblemInstance:
    kind = _field(spec, "problem", "kind")
    m = int(_field(spec, "problem", "m"))
    n = int(_field(spec, "problem", "n"))
    seed = int(_field(spec, "problem", "seed", required=False, default=0))
    try:
        if kind == "quadratic":
            return random_quadratic_problem(
                m, n, L=float(_field(spec, "problem", "L", required=False, default=1.0)),
                mu=float(_field(spec, "problem", "mu", required=False, default=0.0)),
                seed=seed, shared_basis=bool(spec.get("shared_basis", False)))
        if kind == "logistic":
            return random_logistic_problem(
                m, n, samples_per_agent=int(spec.get("samples_per_agent", 20)),
                ridge=float(spec.get("ridge", 0.0)), seed=seed)
    except ValueError as err:  # constants or sizes the generator cannot meet
        raise ConfigError(f"problem: {err}") from err
    raise ConfigError(f"problem.kind: unknown kind {kind!r}")


def build_schedule(spec: dict) -> GraphSchedule:
    m = int(_field(spec, "graph", "m"))
    kind = _field(spec, "graph", "kind")
    try:
        if kind == "static":
            sets = _field(spec, "graph", "edge_sets")
            if len(sets) != 1:
                raise ConfigError("graph.edge_sets: static schedule takes exactly one edge set")
            return GraphSchedule.static(m, [tuple(e) for e in sets[0]])
        if kind == "cyclic":
            sets = _field(spec, "graph", "edge_sets")
            period = spec.get("period")
            if period is not None and int(period) != len(sets):
                raise ConfigError(f"graph.period: {period} does not match "
                                  f"{len(sets)} edge sets")
            return GraphSchedule.cyclic(m, [[tuple(e) for e in s] for s in sets])
        if kind == "seeded_random":
            return GraphSchedule.seeded_random(
                m, float(_field(spec, "graph", "edge_probability")),
                int(_field(spec, "graph", "seed")))
    except ValueError as err:
        raise ConfigError(f"graph: {err}") from err
    raise ConfigError(f"graph.kind: unknown kind {kind!r}")


def build_algorithm(spec: dict) -> AlgorithmConfig:
    try:
        return AlgorithmConfig(
            variant=_field(spec, "algorithm", "variant"),
            alpha=_field(spec, "algorithm", "alpha", required=False, default="theorem_default"),
            mu_mode=_field(spec, "algorithm", "mu_mode", required=False, default="zero"),
            max_iterations=int(_field(spec, "algorithm", "max_iterations", required=False, default=100)),
            zeta=spec.get("zeta"),
            seeds=tuple(spec.get("seeds", (0,))))
    except ValueError as err:
        raise ConfigError(f"algorithm: {err}") from err


def _apply_overrides(config: ExperimentConfig, seed: int | None,
                     diagnostics: str | None) -> ExperimentConfig:
    problem = dict(config.problem)
    graph = dict(config.graph)
    algorithm = dict(config.algorithm)
    if seed is not None:
        problem["seed"] = seed
        algorithm["seeds"] = [seed]
        if graph.get("kind") == "seeded_random":
            graph["seed"] = seed
    diag = config.diagnostics if diagnostics is None else diagnostics == "on"
    return ExperimentConfig(problem, graph, algorithm, diag, config.target_gap, config.sweep)


def _certify(trace: RunTrace, problem: ProblemInstance):
    """The bound certificates applicable to this run's variant and mode, and
    notes for the report: why none were checked, or whether the T3/T4 mixing
    constant was only estimated."""
    meta = trace.meta
    variant, mode = meta["variant"], meta["mu_mode"]
    try:
        if variant == "acc_gt_static":
            theorem = certify_theorem1 if mode == "zero" else certify_theorem2
            return list(theorem(trace, problem, meta["alpha"], meta["sigma"])), {}
        if variant == "acc_gt_tv":
            theorem = certify_theorem3 if mode == "zero" else certify_theorem4
            certs = list(theorem(trace, problem, meta["alpha"], meta["sigma_gamma"],
                                 meta["gamma"]))
            return certs, {"sigma_gamma_is_estimate": meta["sigma_gamma_is_estimate"]}
    except ValueError as err:  # e.g. a trace too short for the initialization maxima
        return [], {"not_checked": str(err)}
    return [], {"not_checked": f"no convergence theorem covers variant {variant}"}


def _timestamp(deterministic: bool) -> str | None:
    if deterministic:
        return None
    return datetime.now(timezone.utc).isoformat()


def _write_outputs(out_dir: Path, config: ExperimentConfig, trace: RunTrace,
                   certs, notes: dict, deterministic: bool):
    out_dir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out_dir / "trace.csv", timestamp=_timestamp(deterministic))
    report = {"certificates": certificates_to_report(certs), **notes}
    if not deterministic:
        report["generated"] = _timestamp(False)
    with open(out_dir / "certificates.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    with open(out_dir / "config.json", "w") as fh:
        json.dump(config.to_dict(), fh, indent=2)
        fh.write("\n")


def _execute(config: ExperimentConfig, out_dir: Path, deterministic: bool):
    """Build, run, certify, and write one experiment cell."""
    problem = build_problem(config.problem)
    schedule = build_schedule(config.graph)
    alg = build_algorithm(config.algorithm)
    try:
        trace = run(alg, problem, schedule, diagnostics=config.diagnostics)
    except ValueError as err:  # the variant, step rule or mode does not fit the schedule or problem
        raise ConfigError(f"algorithm: {err}") from err
    certs, notes = _certify(trace, problem)
    _write_outputs(out_dir, config, trace, certs, notes, deterministic)
    return trace, certs, notes


def cmd_run(config_path, out_dir="out", seed=None, strict=False,
            deterministic=False, diagnostics=None) -> int:
    try:
        config = _apply_overrides(load_config(config_path), seed, diagnostics)
        trace, certs, notes = _execute(config, Path(out_dir), deterministic)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return 3
    last = trace.rows[-1]
    print(f"run complete: {len(trace.rows)} rows, final gap {last.gap:.6e}, "
          f"{last.comm_rounds} comm rounds, {last.grad_rounds} gradient rounds")
    for cert in certs:
        print(f"  {cert.theorem_id}: {'holds' if cert.holds else 'VIOLATED'} "
              f"(worst margin {cert.worst_margin:.6e})")
    if "not_checked" in notes:
        print(f"  certificates not checked: {notes['not_checked']}")
    if strict and any(not c.holds for c in certs):
        return 4
    return 0


def cmd_graph_info(config_path) -> int:
    try:
        config = load_config(config_path)
        schedule = build_schedule(config.graph)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    m = schedule.agent_count
    print(f"agents: {m}")
    print(f"schedule: {schedule.schedule_kind}"
          + (f", period {schedule.period}" if schedule.period else ""))
    try:
        gamma = resolve_gamma(schedule)
    except ValueError:
        print(f"gamma-connected: false (no gamma <= {MAX_GAMMA} connects the union graphs)")
        return 0
    print(f"gamma-connected: true (smallest gamma = {gamma})")
    if schedule.schedule_kind == "static":
        sig = sigma_of(schedule.matrix(0))
        print(f"sigma = {sig:.17g}")
        sig_for = {"acc_gt_static": sig, "acc_gt_chebyshev": sig,
                   "acc_gt_tv": sig, "acc_gt_multiconsensus": sig}
        gammas = {"acc_gt_tv": 1, "acc_gt_multiconsensus": 1}
    else:
        report = sigma_gamma_of(schedule, gamma)
        flag = " (estimate)" if report.is_estimate else " (exact)"
        print(f"sigma_gamma = {report.sigma_gamma:.17g}{flag} at gamma = {gamma}")
        sig_for = {"acc_gt_tv": report.sigma_gamma,
                   "acc_gt_multiconsensus": report.sigma_gamma}
        gammas = {"acc_gt_tv": gamma, "acc_gt_multiconsensus": gamma}
    L = float(config.problem.get("L", 1.0))
    print(f"default step sizes (L = {L:g}):")
    for variant, sig in sig_for.items():
        for mode in ("zero", "strongly_convex"):
            try:
                a = default_alpha(variant, L, sig, gammas.get(variant, 1), mode)
                print(f"  {variant:24s} {mode:16s} alpha = {a:.17g}")
            except ValueError:
                print(f"  {variant:24s} {mode:16s} assumption violated: "
                      "mixing constant below 1 required")
    return 0


def _set_path(data: dict, dotted: str, value):
    keys = dotted.split(".")
    node = data
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            raise ConfigError(f"sweep: path {dotted!r} does not exist in the config")
        node = node[key]
    if keys[-1] not in node and keys[-1] not in ("alpha", "mu_mode", "zeta", "seed",
                                                 "max_iterations", "variant", "mu", "L"):
        raise ConfigError(f"sweep: path {dotted!r} does not exist in the config")
    node[keys[-1]] = value


def _rounds_to_target(trace: RunTrace, target: float):
    for r in trace.rows:
        if r.gap <= target:
            return r.comm_rounds, r.grad_rounds
    return None, None


def cmd_sweep(config_path, out_dir="out", seed=None, strict=False,
              deterministic=False, diagnostics=None) -> int:
    try:
        config = _apply_overrides(load_config(config_path), seed, diagnostics)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    if not config.sweep:
        return cmd_run(config_path, out_dir, seed, strict, deterministic, diagnostics)

    axes = sorted(config.sweep.keys())
    cells = list(itertools.product(*(config.sweep[a] for a in axes)))
    base = config.to_dict()
    out_root = Path(out_dir)

    def run_cell(index, values):
        row = {"cell": index, **{a: v for a, v in zip(axes, values)}}
        try:
            data = copy.deepcopy(base)
            data.pop("sweep")
            for axis, value in zip(axes, values):
                _set_path(data, axis, value)
            cell_cfg = ExperimentConfig.from_dict(data)
            trace, certs, _ = _execute(cell_cfg, out_root / f"cell_{index:03d}",
                                       deterministic)
        except ConfigError as err:
            return {**row, "status": f"config error: {err}"}
        except DivergenceError as err:
            return {**row, "status": "diverged", "detail": str(err)}
        comm, grad = _rounds_to_target(trace, config.target_gap)
        return {**row, "status": "ok",
                "final_gap": trace.rows[-1].gap,
                "comm_rounds_to_target": comm, "grad_rounds_to_target": grad,
                "certificates": ";".join(
                    f"{c.theorem_id}:{'pass' if c.holds else 'FAIL'}" for c in certs)}

    results = [run_cell(index, values) for index, values in enumerate(cells)]

    out_root.mkdir(parents=True, exist_ok=True)
    columns = ["cell", *axes, "status", "final_gap",
               "comm_rounds_to_target", "grad_rounds_to_target", "certificates"]
    with open(out_root / "summary.csv", "w", newline="") as fh:
        ts = _timestamp(deterministic)
        if ts is not None:
            fh.write(f"# generated {ts}\n")
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in results:
            out = dict(row)
            if isinstance(out.get("final_gap"), float):
                out["final_gap"] = format(out["final_gap"], ".17g")
            writer.writerow(out)
    print(f"sweep complete: {len(results)} cells -> {out_root / 'summary.csv'}")

    if any(r["status"] == "diverged" for r in results):
        return 3
    if strict and any("FAIL" in r.get("certificates", "") for r in results):
        return 4
    if any(r["status"].startswith("config error") for r in results):
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="agtrack",
        description="Decentralized gradient-tracking simulator and bound checker")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "graph-info"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment file")
        if name != "graph-info":
            p.add_argument("--out", default="out", help="output directory")
            p.add_argument("--seed", type=int, default=None,
                           help="override problem/graph/run seeds")
            p.add_argument("--strict", action="store_true",
                           help="exit 4 if any certificate is violated")
            p.add_argument("--deterministic", action="store_true",
                           help="suppress timestamps for byte-identical outputs")
            p.add_argument("--diagnostics", choices=("on", "off"), default=None,
                           help="override the config's diagnostics switch")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.seed, args.strict,
                       args.deterministic, args.diagnostics)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.out, args.seed, args.strict,
                         args.deterministic, args.diagnostics)
    return cmd_graph_info(args.config)


if __name__ == "__main__":
    sys.exit(main())
