"""Compare the traces of two source trees, case by case, in units in the last place.

    python tools/trace_equivalence.py PARENT_TREE CHANGE_TREE [--seed N]

Each tree is a checkout whose ``src/agtrack`` is run; each side runs in its
own subprocess with one BLAS thread.  Both sides run the same cases, taken
from this checkout:

* the run-loop golden cases of ``tests/test_run_loop.py``, diagnostics on and off;
* every ``tests/data/*_config.json``, through ``agtrack run --deterministic``;
* the benchmark's three workloads (``agbench/workloads.py``, full size) at
  one seed (default 0), each sweep cell a case of its own.

For each case it prints the row count, the largest ulp distance and relative
difference between the sides, every trace column (and certificate worst
margin) that differs with its maximum ulp, whether the certificate verdicts
are equal and whether the final round counts are equal.  A table of the
maximum ulp per column over all cases follows.  The exit status is 0 when
every case is bit for bit, with equal verdicts, rounds and exit outcomes,
and 1 otherwise.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THEOREMS = ("certify_theorem1", "certify_theorem2", "certify_theorem3", "certify_theorem4")


def _record(table: dict, verdicts: list, margins: dict, outcome: str) -> dict:
    """One case as JSON: floats as ``float.hex`` so the sides compare bitwise."""
    rounds = ([int(table[c][-1]) for c in ("comm_rounds", "grad_rounds")]
              if table.get("k") else None)
    columns = {**table, **{f"worst_margin:{k}": [v] for k, v in margins.items()}}
    return {"columns": {c: [float(v).hex() for v in vs] for c, vs in columns.items()},
            "verdicts": verdicts, "rounds": rounds, "outcome": outcome}


def _csv_table(text: str) -> dict:
    rows = list(csv.reader(line for line in io.StringIO(text) if not line.startswith("#")))
    return {name: [float(r[c]) for r in rows[1:]] for c, name in enumerate(rows[0])}


def _report_record(table: dict, certificates: list, notes: str, outcome: str) -> dict:
    """A case from an ``agtrack`` output: its trace table and certificate rows."""
    verdicts = [[c["theorem_id"], c["holds"], c["first_violation_k"]] for c in certificates]
    margins = {c["theorem_id"]: c["worst_margin"] for c in certificates}
    return _record(table, verdicts + ([notes] if notes else []), margins, outcome)


def _trace_record(agtrack, trace, workdir: Path) -> dict:
    """A case from a ``RunTrace``: its CSV, and the verdicts of every theorem
    (a theorem that does not cover the run gives its ValueError text)."""
    if isinstance(trace, agtrack.DivergenceError):
        return _record({}, [], {}, f"divergence: {trace}")
    trace.to_csv(workdir / "trace.csv")
    verdicts, margins = [], {}
    for theorem in THEOREMS:
        try:
            certs = list(getattr(agtrack, theorem)(trace))
        except ValueError as err:
            verdicts.append(f"{theorem}: {err}")
            continue
        verdicts += [[c.theorem_id, c.holds, c.first_violation_k] for c in certs]
        margins.update((c.theorem_id, c.worst_margin) for c in certs)
    return _record(_csv_table((workdir / "trace.csv").read_text()), verdicts, margins, "ok")


def run_side(tree: Path, seed: int) -> dict:
    """Every case on the ``agtrack`` of ``tree``; runs in the side's subprocess."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "tests"), str(ROOT / "agbench")]
    import agtrack
    from agtrack import cli
    import test_run_loop as golden
    from workloads import LibraryWorkload, workloads
    if Path(agtrack.__file__).resolve().parent != (tree / "src" / "agtrack").resolve():
        raise SystemExit(f"imported {agtrack.__file__}, not the agtrack of {tree}")
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in sorted(golden.CASES):
            for diag in ("on", "off"):
                trace = agtrack.run(*golden.build(name), diagnostics=diag == "on")
                cases[f"golden/{name}/{diag}"] = _trace_record(agtrack, trace, work)
        for path in sorted((ROOT / "tests" / "data").glob("*_config.json")):
            out, err = work / path.stem, io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = cli.main(["run", "--config", str(path), "--out", str(out),
                                 "--deterministic"])
            table, report = {}, {"certificates": []}
            if code in (0, 4):
                table = _csv_table((out / "trace.csv").read_text())
                report = json.loads((out / "certificates.json").read_text())
            cases[f"config/{path.stem}"] = _report_record(
                table, report["certificates"], report.get("not_checked"),
                f"exit {code} {err.getvalue().strip()}".strip())
        for name, workload in workloads("full").items():
            result, _ = workload.execute(workload.setup(seed), work / name)
            if isinstance(workload, LibraryWorkload):
                cases[f"bench/{name}"] = _trace_record(agtrack, result, work)
                continue
            for cell, certificates in sorted(result["certificates"].items()):
                table = _csv_table(result["files"][f"{cell}/trace.csv"].decode())
                cases[f"bench/{name}/{cell}"] = _report_record(
                    table, certificates, None, f"exit {result['code']}")
    return cases


def _ordinal(x: float) -> int:
    """x's place among the float64s, so that neighbours differ by one."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _distance(a: float, b: float) -> tuple[float, float]:
    """(ulp distance, relative difference) of two floats; NaN against a
    number is infinitely far, NaN against NaN is equal."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0, 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf, math.inf
    return abs(_ordinal(a) - _ordinal(b)), abs(a - b) / max(abs(a), abs(b))


def compare(parent: dict, change: dict) -> dict:
    """Per column the maximum ulp between the sides' values; a column that one
    side lacks or whose row count differs is infinitely far."""
    ulps, rel = {}, 0.0
    for column in parent["columns"].keys() | change["columns"].keys():
        a = [float.fromhex(v) for v in parent["columns"].get(column, [])]
        b = [float.fromhex(v) for v in change["columns"].get(column, [])]
        if len(a) != len(b):
            ulps[column] = math.inf
            continue
        pairs = [_distance(x, y) for x, y in zip(a, b)]
        ulps[column] = max((u for u, _ in pairs), default=0)
        rel = max([rel, *(r for _, r in pairs)])
    rows = {len(parent["columns"].get("k", [])), len(change["columns"].get("k", []))}
    return {"ulps": ulps, "rel": rel, "rows": "/".join(map(str, sorted(rows))),
            "verdicts": parent["verdicts"] == change["verdicts"],
            "rounds": parent["rounds"] == change["rounds"],
            "outcome": parent["outcome"] == change["outcome"]}


def _side(tree: Path, seed: int, out: Path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": ""}
    subprocess.run([sys.executable, __file__, "--side", str(tree), "--seed", str(seed),
                    "--json", str(out)], env=env, check=True)
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, metavar="TREE",
                        help="the parent tree, then the change tree")
    parser.add_argument("--seed", type=int, default=0, help="seed of the benchmark workloads")
    parser.add_argument("--side", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--json", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side is not None:
        args.json.write_text(json.dumps(run_side(args.side.resolve(), args.seed)))
        return 0
    if len(args.trees) != 2:
        parser.error("give two trees: the parent, then the change")
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = (_side(tree.resolve(), args.seed, Path(tmp) / f"{i}.json")
                          for i, tree in enumerate(args.trees))
    names = sorted(parent.keys() | change.keys())
    print(f"trace equivalence: {args.trees[0]} -> {args.trees[1]}, {len(names)} cases, "
          f"benchmark seed {args.seed}")
    print(f"{'case':<44} {'rows':>7} {'max ulp':>8} {'max rel':>9}  verdicts  rounds  "
          "columns that differ (max ulp)")
    worst, same = {}, True
    for name in names:
        if name not in parent or name not in change:
            print(f"{name:<44} only on the {'change' if name in change else 'parent'} side")
            same = False
            continue
        c = compare(parent[name], change[name])
        for column, ulp in c["ulps"].items():
            worst[column] = max(worst.get(column, 0), ulp)
        off = ", ".join(f"{col}={u}" for col, u in sorted(c["ulps"].items()) if u)
        if not c["outcome"]:
            off = f"exit outcome differs: {parent[name]['outcome']!r} / " \
                  f"{change[name]['outcome']!r}; {off}"
        top = max(c["ulps"].values(), default=0)
        same &= not off and c["verdicts"] and c["rounds"]
        print(f"{name:<44} {c['rows']:>7} {top:>8} {c['rel']:>9.2e}  "
              f"{'equal' if c['verdicts'] else 'DIFFER':<8}  "
              f"{'equal' if c['rounds'] else 'DIFFER':<6}  {off or '-'}")
    print("max ulp per column over every case:")
    for column in sorted(worst, key=lambda col: (col.startswith("worst_margin:"), col)):
        print(f"  {column:<40} {worst[column]}")
    print("result:", "bit for bit" if same else "the sides differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
