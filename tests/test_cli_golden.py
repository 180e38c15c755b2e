"""Byte-level golden of the CLI: ``--deterministic`` outputs stay identical.

``cli_golden.json`` pins, for each case, the exit code, stdout (with the
output directory replaced by ``OUT``) and the sha256 of every file written
under ``--out``.  The cases are README's config (``data/readme_config.json``)
at K = 300 for all five variants -- the four accelerated ones in both mu
modes (``problem.mu`` 0.1 for the strongly-convex runs), gt in zero mode with
alpha 0.1 -- each with diagnostics on and off, plus a four-cell sweep
(mu_mode x problem seed) of acc_gt_tv on a cyclic schedule with a logistic
problem.  A seeded-random schedule (``data/seeded_random_config.json``, gamma
4, zeta 26) adds ``graph-info`` and, with diagnostics on, a run of
acc_gt_multiconsensus at the theorem-default step, whose rounds cross many
64-instant chunks, and one of acc_gt_tv at alpha 0.05.  Regenerate it only
for an intended change of the outputs:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.json
"""
import contextlib
import copy
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from agtrack import problems
from agtrack.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
README_CONFIG = json.loads((DATA / "readme_config.json").read_text())
SEEDED_RANDOM_CONFIG = json.loads((DATA / "seeded_random_config.json").read_text())
K = 300


def _run_config(variant, mu_mode, diagnostics):
    cfg = copy.deepcopy(README_CONFIG)
    cfg["algorithm"].update(variant=variant, mu_mode=mu_mode, max_iterations=K)
    if variant == "gt":
        cfg["algorithm"]["alpha"] = 0.1
    if mu_mode == "strongly_convex":
        cfg["problem"]["mu"] = 0.1
    cfg["diagnostics"] = diagnostics
    return cfg


def _sweep_config():
    m = 9
    ring = [(i, (i + 1) % m) for i in range(m)]
    return {
        "problem": {"kind": "logistic", "m": m, "n": 3, "seed": 0,
                    "samples_per_agent": 8, "ridge": 0.01},
        "graph": {"m": m, "kind": "cyclic", "period": 3,
                  "edge_sets": [[list(e) for i, e in enumerate(ring) if i % 3 == j]
                                for j in range(3)]},
        "algorithm": {"variant": "acc_gt_tv", "alpha": "theorem_default",
                      "mu_mode": "zero", "max_iterations": 20},
        "diagnostics": "on",
        "sweep": {"algorithm.mu_mode": ["zero", "strongly_convex"], "problem.seed": [0, 1]},
    }


def _cases():
    cases = {}
    for variant in ("gt", "acc_gt_static", "acc_gt_tv", "acc_gt_chebyshev",
                    "acc_gt_multiconsensus"):
        for mu_mode in ("zero",) if variant == "gt" else ("zero", "strongly_convex"):
            for diagnostics in ("on", "off"):
                cases[f"run-{variant}-{mu_mode}-diag_{diagnostics}"] = (
                    "run", _run_config(variant, mu_mode, diagnostics))
    cases["sweep-cyclic-logistic"] = ("sweep", _sweep_config())
    tv = copy.deepcopy(SEEDED_RANDOM_CONFIG)
    tv["algorithm"].update(variant="acc_gt_tv", alpha=0.05)
    cases["graph-info-seeded-random"] = ("graph-info", SEEDED_RANDOM_CONFIG)
    cases["run-seeded-random-acc_gt_multiconsensus"] = ("run", SEEDED_RANDOM_CONFIG)
    cases["run-seeded-random-acc_gt_tv"] = ("run", tv)
    return cases


CASES = _cases()


def _outcome(command, config):
    """Exit code, normalized stdout, and sha256 per written file of one CLI call."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config_path = root / "config.json"
        config_path.write_text(json.dumps(config))
        out = root / "out"
        outputs = [] if command == "graph-info" else ["--out", str(out), "--deterministic"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([command, "--config", str(config_path), *outputs])
        files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit_code": code, "stdout": stdout.getvalue().replace(str(out), "OUT"),
            "files": files}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden(golden, name):
    assert _outcome(*CASES[name]) == golden[name]


def test_sweep_cells_share_a_problem_they_have_in_common(golden, monkeypatch):
    # Cells that differ only in algorithm.mu_mode build, and solve, one problem.
    solves = []
    solve = problems.solve_optimum

    def counted(inst):
        solves.append(inst)
        return solve(inst)

    monkeypatch.setattr(problems, "solve_optimum", counted)
    assert _outcome(*CASES["sweep-cyclic-logistic"]) == golden["sweep-cyclic-logistic"]
    assert len(solves) == 2  # problem.seed 0 and 1, not one per cell


if __name__ == "__main__":
    json.dump({name: _outcome(*case) for name, case in CASES.items()}, sys.stdout, indent=1)
    sys.stdout.write("\n")
