"""agtrack benchmark: end-to-end timings per workload and a traced run per module.

Run from the root of a checkout:

    python3 agbench/run.py --workload cheb-torus-m196 --seed 1 --seconds 40 --trace 0
    python3 agbench/run.py                # every workload in turn
    python3 agbench/run.py --smoke        # every workload at toy size

Each workload runs in a fresh child process (``worker.py``) with one BLAS
thread, against the agtrack sources in ``src/`` of the same checkout.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics are
the end-to-end ones, with ``--trace 1`` the per-layer ones (see
``BENCHMARK.json``).  For one workload they are keyed by metric name; for
several, by ``<workload>/trace<0|1>/<metric>``.  ``setup_s`` and ``total_s``
are at reference host speed (``reference.py``).  The lines before it give
each workload's metrics with units and check counts, its raw wall-time
medians and the reference kernel's median time, and the environment:
processor count, Python, numpy and BLAS versions and the thread settings.

``--smoke`` runs every workload at toy size through the same code path,
untraced and traced, and exits 0 only if every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("cheb-torus-m196", "mc-random-m20", "sweep-cyclic-logistic")
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_child(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Measure one workload in a fresh process; raise RuntimeError on any failure."""
    workdir = ROOT / ".agbench_work" / f"{workload}-{os.getpid()}"
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size,
           "--workdir", str(workdir)]
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def describe(key: str, res: dict) -> str:
    metrics = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
    wall = " ".join(f"wall_{k}={v:.6g} s" for k, v in res["wall"].items())
    return (f"# {key}: correct={res['correct']} attempted={res['attempted']} "
            f"reps={res['reps']} failed_checks={res['failed_checks']} {metrics} | {wall} "
            f"kernel_s={res['kernel_s']:.6g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="the workload to measure (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at toy size, untraced and traced")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "agtrack" / "__init__.py").is_file():
        print(f"agtrack sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.smoke:
        jobs = [(w, t) for w in WORKLOADS for t in (0, 1)]
        size, seconds = "smoke", 0.01
    else:
        jobs = [(w, args.trace) for w in ([args.workload] if args.workload else WORKLOADS)]
        size, seconds = "full", args.seconds
    try:
        results = {f"{w}/trace{t}": run_child(w, args.seed, seconds, t, size) for w, t in jobs}
    except RuntimeError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    for key, res in results.items():
        print(describe(key, res))
    print("# env " + json.dumps(next(iter(results.values()))["env"]))
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{key}/{name}": value for key, res in results.items()
                   for name, value in res["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
