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
      "problem":   {"kind": "quadratic"|"logistic", "m": int, "n": int, "seed": int,
                    "L": float, "mu": float, "shared_basis": bool,  # quadratic only
                    "samples_per_agent": int, "ridge": float},      # logistic only
      "graph":     {"m": int, "kind": "static"|"cyclic"|"seeded_random",
                    "edge_sets": [[[i, j], ...], ...],  # static, cyclic
                    "period": int|null,                 # cyclic only
                    "edge_probability": float, "seed": int},  # seeded_random only
      "algorithm": {"variant": str, "alpha": float|"theorem_default",
                    "mu_mode": "zero"|"strongly_convex",
                    "max_iterations": int, "zeta": int|null, "seeds": [int]},
      "diagnostics": "on"|"off",
      "target_gap": float,          # sweep summary threshold (default 1e-6)
      "sweep": {"algorithm.alpha": [...], ...}   # dotted paths to lists
    }

Each section takes only the keys its builder reads (the problem and graph
keys depend on ``kind``); any other key, top-level or in a section, and any
sweep axis that names one, is a config error (exit 2) rather than a setting
that silently does nothing.  Edge endpoints and the fields typed ``int``
above must be JSON integers: ``5.9``, ``5.0`` and ``true`` are config errors,
never truncated.  The fields typed ``float`` must be finite JSON numbers
(integers allowed; ``true``, ``"0.5"``, ``null``, ``NaN`` and ``Infinity``
are config errors) and ``shared_basis`` must be ``true`` or ``false``.

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
from .algorithms import (AlgorithmConfig, DivergenceError, NotGammaConnectedError,
                         RunTrace, default_alpha, resolve_gamma, run)
from .analysis import (certificates_to_report, certify_theorem1,
                       certify_theorem2, certify_theorem3, certify_theorem4)


class ConfigError(ValueError):
    """Validation failure with the offending config field in the message."""


# The keys each reader takes; every other key is rejected.
TOP_LEVEL_KEYS = frozenset({"problem", "graph", "algorithm", "diagnostics", "target_gap", "sweep"})
PROBLEM_KEYS = {"quadratic": frozenset({"kind", "m", "n", "seed", "L", "mu", "shared_basis"}),
                "logistic": frozenset({"kind", "m", "n", "seed", "samples_per_agent", "ridge"})}
GRAPH_KEYS = {"static": frozenset({"m", "kind", "edge_sets"}),
              "cyclic": frozenset({"m", "kind", "edge_sets", "period"}),
              "seeded_random": frozenset({"m", "kind", "edge_probability", "seed"})}
ALGORITHM_KEYS = frozenset({"variant", "alpha", "mu_mode", "max_iterations", "zeta", "seeds"})


def _reject_unknown_keys(spec: dict, where: str, allowed: frozenset, prefix: str):
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown key; {where} reads "
                          f"{', '.join(sorted(allowed))}")


def _checked_kind(spec: dict, section: str, table: dict) -> str:
    """The section's ``kind``, once every key is one a section of that kind reads."""
    kind = _field(spec, section, "kind")
    allowed = table.get(kind) if isinstance(kind, str) else None
    if allowed is None:
        raise ConfigError(f"{section}.kind: unknown kind {kind!r}")
    _reject_unknown_keys(spec, f"a {kind} {section}", allowed, f"{section}.")
    return kind


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
        _reject_unknown_keys(data, "the config", TOP_LEVEL_KEYS, "")
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
                   diag == "on", _finite(data.get("target_gap", 1e-6), "target_gap"),
                   dict(sweep))


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


def _int_field(section: dict, section_name: str, key: str, required: bool = True, default=None):
    """An integer field; a float (even 5.0), a bool or a string is a config error.
    An optional field whose default is None may also be null."""
    value = _field(section, section_name, key, required, default)
    if value is None and not required and default is None:
        return None
    if not _is_int(value):
        raise ConfigError(f"{section_name}.{key}: expected an integer, got {value!r}")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _float_field(section: dict, section_name: str, key: str, required: bool = True,
                 default=None) -> float:
    return _finite(_field(section, section_name, key, required, default), f"{section_name}.{key}")


def _finite(value, where: str) -> float:
    """A finite JSON number, integers included, as a float; a bool, a string,
    null, NaN or Infinity is a config error."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ConfigError(f"{where}: expected a finite number, got {value!r}")


def build_problem(spec: dict) -> ProblemInstance:
    kind = _checked_kind(spec, "problem", PROBLEM_KEYS)
    m = _int_field(spec, "problem", "m")
    n = _int_field(spec, "problem", "n")
    seed = _int_field(spec, "problem", "seed", required=False, default=0)
    if kind == "quadratic":
        L = _float_field(spec, "problem", "L", required=False, default=1.0)
        mu = _float_field(spec, "problem", "mu", required=False, default=0.0)
        shared_basis = _field(spec, "problem", "shared_basis", required=False, default=False)
        if not isinstance(shared_basis, bool):
            raise ConfigError(f"problem.shared_basis: expected true or false, got {shared_basis!r}")
    else:
        samples = _int_field(spec, "problem", "samples_per_agent", required=False, default=20)
        ridge = _float_field(spec, "problem", "ridge", required=False, default=0.0)
    try:
        if kind == "quadratic":
            return random_quadratic_problem(m, n, L=L, mu=mu, seed=seed,
                                            shared_basis=shared_basis)
        return random_logistic_problem(m, n, samples_per_agent=samples, ridge=ridge, seed=seed)
    except ValueError as err:  # constants or sizes the generator cannot meet
        raise ConfigError(f"problem: {err}") from err


def build_schedule(spec: dict) -> GraphSchedule:
    kind = _checked_kind(spec, "graph", GRAPH_KEYS)
    m = _int_field(spec, "graph", "m")
    if kind == "seeded_random":
        probability = _float_field(spec, "graph", "edge_probability")
        seed = _int_field(spec, "graph", "seed")
    else:
        sets = _field(spec, "graph", "edge_sets")
        if not isinstance(sets, list):
            raise ConfigError("graph.edge_sets: expected a list of edge sets")
        if kind == "static" and len(sets) != 1:
            raise ConfigError("graph.edge_sets: static schedule takes exactly one edge set")
        period = _int_field(spec, "graph", "period", required=False)
        if period is not None and period != len(sets):
            raise ConfigError(f"graph.period: {period} does not match {len(sets)} edge sets")
    try:
        if kind == "seeded_random":
            return GraphSchedule.seeded_random(m, probability, seed)
        return GraphSchedule(m, kind, tuple(sets))
    except ValueError as err:
        raise ConfigError(f"graph: {err}") from err


def build_algorithm(spec: dict) -> AlgorithmConfig:
    _reject_unknown_keys(spec, "algorithm", ALGORITHM_KEYS, "algorithm.")
    max_iterations = _int_field(spec, "algorithm", "max_iterations", required=False, default=100)
    zeta = _int_field(spec, "algorithm", "zeta", required=False)
    seeds = _field(spec, "algorithm", "seeds", required=False, default=[0])
    if not isinstance(seeds, list) or not all(map(_is_int, seeds)):
        raise ConfigError(f"algorithm.seeds: expected a list of integers, got {seeds!r}")
    alpha = _field(spec, "algorithm", "alpha", required=False, default="theorem_default")
    if not isinstance(alpha, str):  # a string other than theorem_default fails below
        alpha = _finite(alpha, "algorithm.alpha")
    try:
        return AlgorithmConfig(
            variant=_field(spec, "algorithm", "variant"),
            alpha=alpha,
            mu_mode=_field(spec, "algorithm", "mu_mode", required=False, default="zero"),
            max_iterations=max_iterations, zeta=zeta,
            seeds=tuple(seeds))
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
        L = build_problem(config.problem).L  # data-derived for logistic problems
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    m = schedule.agent_count
    print(f"agents: {m}")
    print(f"schedule: {schedule.schedule_kind}"
          + (f", period {schedule.period}" if schedule.period else ""))
    try:
        gamma = resolve_gamma(schedule)
    except NotGammaConnectedError:
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
    """Set one sweep axis in a cell's config.  A key no reader takes is left
    for the readers to reject, so axes are checked against the same key sets."""
    *sections, key = dotted.split(".")
    node = data
    for section in sections:
        node = node.get(section)
        if not isinstance(node, dict):
            raise ConfigError(f"sweep: path {dotted!r} does not exist in the config")
    node[key] = value


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
