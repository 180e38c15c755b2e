"""Command-line front end: run experiments, inspect schedules, sweep parameters.

Subcommands (all take ``--config PATH`` with a JSON experiment file):

    run         execute one configured run; write trace.csv + certificates.json
    sweep       cross-product over the config's sweep axes; one trace and
                certificate report per cell plus a summary.csv
    graph-info  print the schedule's connectivity and mixing constants and the
                default step size of each variant

Exit codes: 0 success, 2 config validation error (an ``--out`` that cannot
be a directory included, checked before anything is built or run),
3 divergence, 4 certificate failure under --strict.  The commands raise
``ConfigError`` and ``DivergenceError``; ``main`` is the one place that maps
them, printing ``config error: ...`` (exit 2) or ``divergence: ...`` (exit
3).  A sweep cell's failure is a result, its ``summary.csv`` status, not an
exit; the sweep then exits 3 if any cell diverged, else 4 under --strict if
any certificate failed, else 2 if any cell had a config error.

Sweep cells run concurrently, on one thread per usable CPU and at most one
per cell; cells with the same problem section share one build of it.  The
outputs, stdout and exit code are byte-identical to a serial sweep's, and
``taskset -c 0`` makes the sweep serial.

Config schema (JSON object; ``*`` marks a required key)::

    {
      "problem"*:   {"kind"*: "quadratic"|"logistic", "m"*: int, "n"*: int, "seed": int,
                     "L": float, "mu": float, "shared_basis": bool,  # quadratic only
                     "samples_per_agent": int, "ridge": float},      # logistic only
      "graph"*:     {"m"*: int, "kind"*: "static"|"cyclic"|"seeded_random",
                     "edge_sets"*: [[[i, j], ...], ...],  # static, cyclic
                     "period": int|null,                  # cyclic only
                     "edge_probability"*: float, "seed"*: int},  # seeded_random only
      "algorithm"*: {"variant"*: str, "alpha": float|"theorem_default",
                     "mu_mode": "zero"|"strongly_convex",
                     "max_iterations": int, "zeta": int|null, "seeds": [int]},  # one seed
      "diagnostics": "on"|"off",    # default "on"
      "target_gap": float,          # sweep summary threshold (default 1e-6)
      "sweep": {"algorithm.alpha": [...], ...}   # dotted paths to non-empty lists
    }

``CONFIG_FIELDS``, ``PROBLEM_FIELDS``, ``GRAPH_FIELDS`` and
``ALGORITHM_FIELDS`` below declare these keys with their types; a problem or
algorithm key left out takes the default of the function its section feeds.
Each section takes only the keys its table names (the problem and graph keys
depend on ``kind``); any other key, top-level or in a section, and any sweep
axis that names one, is a config error (exit 2) rather than a setting that
silently does nothing.  Edge endpoints and the fields typed ``int`` above
must be JSON integers: ``5.9``, ``5.0`` and ``true`` are config errors, never
truncated.  The fields typed ``float`` must be finite JSON numbers (integers
allowed; ``true``, ``"0.5"``, ``null``, ``NaN`` and ``Infinity`` are config
errors) and ``shared_basis`` must be ``true`` or ``false``.  ``graph.m``
must equal ``problem.m``, and ``zeta`` is for ``acc_gt_multiconsensus`` only.

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
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .graph import MAX_GAMMA, GraphSchedule, sigma as sigma_of, sigma_gamma as sigma_gamma_of
from .graph import _is_finite, _is_int
from .graph import metropolis_weights  # noqa: F401 -- a call site the benchmark tracer wraps
from .problems import ProblemInstance, random_logistic_problem, random_quadratic_problem
from .algorithms import (MU_MODES, THEOREMS, VARIANT_TABLE, AlgorithmConfig, DivergenceError,
                         NotGammaConnectedError, RunTrace, default_alpha, resolve_gamma, run)
from .analysis import (certificates_to_report, certify_theorem1,
                       certify_theorem2, certify_theorem3, certify_theorem4)


class ConfigError(ValueError):
    """Validation failure with the offending config field in the message."""


# Field checks.  Each returns the value its reader passes on, or raises a
# ConfigError that the reader prefixes with the field's dotted name.
def _expect(test, message: str):
    """The check that passes a value ``test`` accepts and rejects any other
    with ``message``, formatted with the value."""
    def check(value):
        if test(value):
            return value
        raise ConfigError(message.format(value))
    return check


def _finite(value) -> float:
    """A finite JSON number, integers included, as a float; a bool, a string,
    null, NaN or Infinity is a config error."""
    if _is_finite(value):
        return float(value)
    raise ConfigError(f"expected a finite number, got {value!r}")


def _seeds(value) -> tuple:
    if isinstance(value, list) and all(map(_is_int, value)):
        return tuple(value)
    raise ConfigError(f"expected a list of integers, got {value!r}")


def _alpha(value):
    return value if isinstance(value, str) else _finite(value)  # AlgorithmConfig checks a string


def _as_is(value):  # a value the library validates
    return value


_int = _expect(_is_int, "expected an integer, got {!r}")
_int_or_null = _expect(lambda value: value is None or _is_int(value),
                       "expected an integer, got {!r}")
_bool = _expect(lambda value: isinstance(value, bool), "expected true or false, got {!r}")
_edge_sets = _expect(lambda value: isinstance(value, list), "expected a list of edge sets")
_section = _expect(lambda value: isinstance(value, dict), "required object is missing")
_on_off = _expect(lambda value: value in ("on", "off"), "expected 'on' or 'off', got {!r}")
_axes = _expect(lambda value: isinstance(value, dict)
                and all(isinstance(axis, list) and axis for axis in value.values()),
                "expected an object mapping dotted paths to non-empty lists")


# Field tables: key -> (check, default), in the order the keys are checked.  A key
# left out takes its default: REQUIRED is a config error, OPTIONAL is not passed on
# (the callee's own default applies), and a top-level section's None fails _section.
REQUIRED, OPTIONAL = object(), object()
CONFIG_FIELDS = {"problem": (_section, None), "graph": (_section, None),
                 "algorithm": (_section, None), "diagnostics": (_on_off, "on"),
                 "target_gap": (_finite, 1e-6), "sweep": (_axes, {})}
# random_quadratic_problem / random_logistic_problem keywords, by problem kind.
_PROBLEM_SIZE = {"m": (_int, REQUIRED), "n": (_int, REQUIRED), "seed": (_int, OPTIONAL)}
PROBLEM_FIELDS = {
    "quadratic": {**_PROBLEM_SIZE, "L": (_finite, OPTIONAL), "mu": (_finite, OPTIONAL),
                  "shared_basis": (_bool, OPTIONAL)},
    "logistic": {**_PROBLEM_SIZE, "samples_per_agent": (_int, OPTIONAL),
                 "ridge": (_finite, OPTIONAL)}}
# GraphSchedule's agent count and edge sets or draw parameters, by schedule kind.
_AGENTS = {"m": (_int, REQUIRED)}
_LISTED = {**_AGENTS, "edge_sets": (_edge_sets, REQUIRED)}
GRAPH_FIELDS = {"static": _LISTED, "cyclic": {**_LISTED, "period": (_int_or_null, OPTIONAL)},
                "seeded_random": {**_AGENTS, "edge_probability": (_finite, REQUIRED),
                                  "seed": (_int, REQUIRED)}}
# AlgorithmConfig's fields.
ALGORITHM_FIELDS = {"max_iterations": (_int, OPTIONAL), "zeta": (_int_or_null, OPTIONAL),
                    "seeds": (_seeds, OPTIONAL), "alpha": (_alpha, OPTIONAL),
                    "variant": (_as_is, REQUIRED), "mu_mode": (_as_is, OPTIONAL)}


def _read(spec: dict, section: str, fields: dict, reader: str) -> dict:
    """The checked values of ``spec``'s fields in table order, with the defaults
    of keys left out, once every key of ``spec`` is one the table names."""
    prefix = f"{section}." if section else ""
    unknown = sorted(set(spec) - set(fields))
    if unknown:
        key = unknown[0] if unknown[0].isprintable() else repr(unknown[0])  # one line
        raise ConfigError(f"{prefix}{key}: unknown key; {reader} reads "
                          f"{', '.join(sorted(fields))}")
    values = {}
    for key, (check, default) in fields.items():
        value = spec.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"{prefix}{key}: required field is missing")
        if value is not OPTIONAL:
            try:
                values[key] = check(value)
            except ConfigError as err:
                raise ConfigError(f"{prefix}{key}: {err}") from None
    return values


def _read_kind(spec: dict, section: str, tables: dict) -> tuple[str, dict]:
    """The section's ``kind`` and ``_read`` of the rest by that kind's table."""
    if "kind" not in spec:
        raise ConfigError(f"{section}.kind: required field is missing")
    kind = spec["kind"]
    if not (isinstance(kind, str) and kind in tables):
        raise ConfigError(f"{section}.kind: unknown kind {kind!r}")
    values = _read(spec, section, {"kind": (_as_is, REQUIRED), **tables[kind]},
                   f"a {kind} {section}")
    del values["kind"]
    return kind, values


def check_config(data) -> dict:
    """The validated config: its sections (checked by the builders), and
    ``diagnostics``, ``target_gap`` and ``sweep`` with defaults filled in."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    return _read(data, "", CONFIG_FIELDS, "the config")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return check_config(data)


def build_problem(spec: dict) -> ProblemInstance:
    kind, kwargs = _read_kind(spec, "problem", PROBLEM_FIELDS)
    generate = random_quadratic_problem if kind == "quadratic" else random_logistic_problem
    try:
        return generate(**kwargs)
    except ValueError as err:  # constants or sizes the generator cannot meet
        raise ConfigError(f"problem: {err}") from err


def build_schedule(spec: dict) -> GraphSchedule:
    kind, fields = _read_kind(spec, "graph", GRAPH_FIELDS)
    sets, period = fields.get("edge_sets"), fields.get("period")
    if kind == "static" and len(sets) != 1:
        raise ConfigError("graph.edge_sets: static schedule takes exactly one edge set")
    if period is not None and period != len(sets):
        raise ConfigError(f"graph.period: {period} does not match {len(sets)} edge sets")
    try:
        if kind == "seeded_random":
            return GraphSchedule.seeded_random(fields["m"], fields["edge_probability"],
                                               fields["seed"])
        return GraphSchedule(fields["m"], kind, tuple(sets))
    except ValueError as err:
        raise ConfigError(f"graph: {err}") from err


def build_algorithm(spec: dict) -> AlgorithmConfig:
    kwargs = _read(spec, "algorithm", ALGORITHM_FIELDS, "algorithm")
    try:
        return AlgorithmConfig(**kwargs)
    except ValueError as err:
        raise ConfigError(f"algorithm: {err}") from err


def _check_agents(schedule: GraphSchedule, problem: ProblemInstance):
    """Raise the config error of a graph whose agent count is not the problem's,
    before any constant of it is computed."""
    if schedule.agent_count != problem.m:
        raise ConfigError(f"graph.m: {schedule.agent_count} does not match "
                          f"problem.m {problem.m}")


def _configured(args) -> dict:
    """The config at ``--config`` with ``--seed`` / ``--diagnostics`` written
    into it, where the builders check them as they check the file's values.
    An ``--out`` that cannot be a directory (it, or its nearest existing
    parent, is not one) is a ConfigError here, before anything is built,
    rather than an OSError once the run is done."""
    out = Path(args.out)
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"--out {out}: {nearest} exists and is not a directory")
    config = load_config(args.config)
    if args.seed is not None:
        config["problem"]["seed"] = args.seed
        config["algorithm"]["seeds"] = [args.seed]
        if config["graph"].get("kind") == "seeded_random":
            config["graph"]["seed"] = args.seed
    if args.diagnostics is not None:
        config["diagnostics"] = args.diagnostics
    return config


def _certify(trace: RunTrace):
    """The bound certificates of the theorem that covers this run's setting and
    mode, and notes for the report: why none were checked, or whether the
    T3/T4 mixing constant was only estimated.  A theorem applies to a variant
    that has a setting and mixes by plain gossip (``VARIANT_TABLE``).  The
    theorems are looked up here at call time, so a wrapper put on this
    module's names is the one called."""
    meta = trace.meta
    setting, mixing = VARIANT_TABLE[meta["variant"]]
    if setting is None or mixing != "gossip":
        return [], {"not_checked": f"no convergence theorem covers variant {meta['variant']}"}
    number = THEOREMS[setting, meta["mu_mode"]][0]
    theorem = (certify_theorem1, certify_theorem2, certify_theorem3, certify_theorem4)[number - 1]
    try:
        certs = list(theorem(trace))
    except ValueError as err:  # e.g. a trace too short for the initialization maxima
        return [], {"not_checked": str(err)}
    return certs, ({} if setting == "static"
                   else {"sigma_gamma_is_estimate": meta["sigma_gamma_is_estimate"]})


def _timestamp(deterministic: bool) -> str | None:
    return None if deterministic else datetime.now(timezone.utc).isoformat()


def _execute(config: dict, problem: ProblemInstance, out_dir: Path, deterministic: bool):
    """Run, certify, and write one experiment cell on its built problem."""
    schedule = build_schedule(config["graph"])
    _check_agents(schedule, problem)
    alg = build_algorithm(config["algorithm"])
    try:
        trace = run(alg, problem, schedule, diagnostics=config["diagnostics"] == "on")
    except ValueError as err:  # the variant, step rule or mode does not fit the schedule or problem
        raise ConfigError(f"algorithm: {err}") from err
    certs, notes = _certify(trace)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out_dir / "trace.csv", timestamp=_timestamp(deterministic))
    report = {"certificates": certificates_to_report(certs), **notes}
    if not deterministic:
        report["generated"] = _timestamp(False)
    for name, data in (("certificates.json", report), ("config.json", config)):
        with open(out_dir / name, "w") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    return trace, certs, notes


def cmd_run(args) -> int:
    config = _configured(args)
    trace, certs, notes = _execute(config, build_problem(config["problem"]),
                                   Path(args.out), args.deterministic)
    last = trace.rows[-1]
    print(f"run complete: {len(trace.rows)} rows, final gap {last.gap:.6e}, "
          f"{last.comm_rounds} comm rounds, {last.grad_rounds} gradient rounds")
    for cert in certs:
        print(f"  {cert.theorem_id}: {'holds' if cert.holds else 'VIOLATED'} "
              f"(worst margin {cert.worst_margin:.6e})")
    if "not_checked" in notes:
        print(f"  certificates not checked: {notes['not_checked']}")
    if args.strict and any(not c.holds for c in certs):
        return 4
    return 0


def cmd_graph_info(args) -> int:
    config = load_config(args.config)
    schedule = build_schedule(config["graph"])
    problem = build_problem(config["problem"])
    _check_agents(schedule, problem)
    print(f"agents: {schedule.agent_count}")
    print(f"schedule: {schedule.schedule_kind}"
          + (f", period {schedule.period}" if schedule.period else ""))
    try:
        gamma = resolve_gamma(schedule)
    except NotGammaConnectedError:
        print(f"gamma-connected: false (no gamma <= {MAX_GAMMA} connects the union graphs)")
        return 0
    print(f"gamma-connected: true (smallest gamma = {gamma})")
    if schedule.schedule_kind == "static":  # connected, so gamma = 1
        sig = sigma_of(schedule.matrix(0))
        print(f"sigma = {sig:.17g}")
        settings = ("static", "time_varying")
    else:
        sig = sigma_gamma_of(schedule, gamma)
        flag = " (estimate)" if schedule.period is None else " (exact)"
        print(f"sigma_gamma = {sig:.17g}{flag} at gamma = {gamma}")
        settings = ("time_varying",)
    L = problem.L  # data-derived for logistic problems
    print(f"default step sizes (L = {L:g}):")
    # The variants of each setting the schedule meets, static ones first.
    variants = [v for want in settings for v, (got, _) in VARIANT_TABLE.items() if got == want]
    for variant, mode in itertools.product(variants, MU_MODES):
        try:
            a = default_alpha(variant, L, sig, gamma, mode)
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
    """The cumulative (comm, grad) rounds of the first row whose gap is at most
    ``target``, or (None, None)."""
    reached = np.flatnonzero(trace.column("gap") <= target)
    if not reached.size:
        return None, None
    comm, grad = trace.column("comm_rounds"), trace.column("grad_rounds")
    return int(comm[reached[0]]), int(grad[reached[0]])


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set (``taskset``
    narrows it), or every CPU where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cmd_sweep(args) -> int:
    # Imported here: it loads logging (about 0.5 MB) that no other command needs.
    from concurrent.futures import ThreadPoolExecutor

    config = _configured(args)
    if not config["sweep"]:
        return cmd_run(args)

    axes = sorted(config["sweep"])
    cells = list(itertools.product(*(config["sweep"][a] for a in axes)))
    out_root = Path(args.out)

    def check_cell(values):
        """The cell's checked config and its problem key, or its ConfigError."""
        data = copy.deepcopy(config)
        del data["sweep"]
        try:
            for axis, value in zip(axes, values):
                _set_path(data, axis, value)
            cell = check_config(data)
        except ConfigError as err:
            return err
        return cell, json.dumps(cell["problem"], sort_keys=True)

    def run_cell(index, values, checked):
        row = {"cell": index, **dict(zip(axes, values))}
        try:
            if isinstance(checked, ConfigError):
                raise checked
            cell, key = checked
            trace, certs, _ = _execute(cell, problems[key].result(),
                                       out_root / f"cell_{index:03d}", args.deterministic)
        except ConfigError as err:
            return {**row, "status": f"config error: {err}"}
        except DivergenceError as err:
            return {**row, "status": "diverged", "detail": str(err)}
        comm, grad = _rounds_to_target(trace, cell["target_gap"])
        return {**row, "status": "ok",
                "final_gap": format(float(trace.column("gap")[-1]), ".17g"),
                "comm_rounds_to_target": comm, "grad_rounds_to_target": grad,
                "certificates": ";".join(
                    f"{c.theorem_id}:{'pass' if c.holds else 'FAIL'}" for c in certs)}

    checked = [check_cell(values) for values in cells]
    pool = ThreadPoolExecutor(min(len(cells), _usable_cpus()))
    try:
        # One build per distinct problem section, queued before every cell, so a
        # cell waits only on a build already running; its ConfigError is raised
        # again in each cell that takes its result.
        problems = {}
        for entry in checked:
            if not isinstance(entry, ConfigError):
                cell, key = entry
                if key not in problems:
                    problems[key] = pool.submit(build_problem, cell["problem"])
        # Results come back in cell order; an unexpected exception propagates
        # and the cells not yet started are cancelled.
        results = list(pool.map(run_cell, range(len(cells)), cells, checked))
    finally:
        pool.shutdown(cancel_futures=True)

    out_root.mkdir(parents=True, exist_ok=True)
    columns = ["cell", *axes, "status", "final_gap",
               "comm_rounds_to_target", "grad_rounds_to_target", "certificates"]
    with open(out_root / "summary.csv", "w", newline="") as fh:
        ts = _timestamp(args.deterministic)
        if ts is not None:
            fh.write(f"# generated {ts}\n")
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(results)
    print(f"sweep complete: {len(results)} cells -> {out_root / 'summary.csv'}")

    if any(r["status"] == "diverged" for r in results):
        return 3
    if args.strict and any("FAIL" in r.get("certificates", "") for r in results):
        return 4
    if any(r["status"].startswith("config error") for r in results):
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="agtrack",
        description="Decentralized gradient-tracking simulator and bound checker")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {"run": cmd_run, "sweep": cmd_sweep, "graph-info": cmd_graph_info}
    for name in commands:
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
    try:
        return commands[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
