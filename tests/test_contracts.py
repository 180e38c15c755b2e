"""Property tests of the two error contracts.

* The CLI: ``cli.main`` returns 0, 2, 3 or 4 and never raises.  After exit 2
  the last stderr line starts ``config error: ``, after exit 3
  ``divergence: ``.  A sweep's cells report their own config errors and
  divergences in ``summary.csv`` (results, not exits), so a sweep that exits
  2 or 3 without such a line has a cell of that status instead.
* The library: each public entry point given a bad argument returns or raises
  ValueError, never a TypeError, AttributeError, IndexError or any other
  exception.

Each case mutates a valid input at one place: a value (a leaf or a whole
section) replaced by a bool, null, NaN, an infinity, any other float, a small,
negative or huge integer, a string, a list or an object; for the CLI also a
key deleted or an unknown key added.  Lists are entered at their first and
last item only, so an edge list's many pairs do not outweigh the other fields.

Caps, so that no case allocates much or runs long: a size field
(``SIZE_KEYS``) never takes a positive value above ``SIZE_CAP``, and the CLI's
base configs run at most ``MAX_ITERATIONS`` iterations.  The two sizes that
cannot be allocated (``problem.n = 10**12``, ``max_iterations = 10**15``) end
in numpy's ``_ArrayMemoryError``; what they should be is an open decision.
``seeded_random_m200_config.json`` is left out of the CLI bases: one
``graph-info`` of it takes about 2 s.
"""
import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

from agtrack import (AlgorithmConfig, GraphSchedule, chebyshev_operator, cli, default_alpha,
                     default_zeta, metropolis_weights, random_logistic_problem,
                     random_quadratic_problem, theta_next)

DATA = Path(__file__).parent / "data"
SIZE_KEYS = frozenset({"m", "n", "max_iterations", "samples_per_agent", "zeta"})
SIZE_CAP = 12
MAX_ITERATIONS = 20
CLI_EXAMPLES = 150
LIBRARY_EXAMPLES = 300
DEADLINE_MS = 5000  # typical cases take 3 to 55 ms (2-vCPU VM): this catches a hang, not noise

_INNER = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)
_HUGE = st.integers(min_value=2 ** 31) | st.sampled_from([10 ** 30, 10 ** 400])


def bad_values(size: bool = False):
    """The replacement values; a size field takes no large positive one."""
    return st.one_of(
        st.booleans(), st.none(), st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(),
        st.integers(max_value=-1) | st.just(-10 ** 400), st.integers(0, SIZE_CAP),
        *(() if size else (_HUGE,)),
        st.text(max_size=6), st.lists(_INNER, max_size=3),
        st.dictionaries(st.text(max_size=4), _INNER, max_size=3))


def _paths(tree, path=()):
    """The path of every node of a JSON tree, the root first; a list's first
    and last items only."""
    yield path
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = [(0, tree[0]), (-1, tree[-1])] if tree else []
    else:
        return
    for key, value in items:
        yield from _paths(value, path + (key,))


def _node(tree, path):
    for key in path:
        tree = tree[key]
    return tree


@st.composite
def mutated(draw, tree, keys_too=True):
    """A copy of ``tree`` with one node replaced by a bad value or, with
    ``keys_too``, one dict key deleted or one unknown key added."""
    tree = copy.deepcopy(tree)
    paths = list(_paths(tree))
    how = draw(st.sampled_from(("replace", "delete", "add") if keys_too else ("replace",)))
    if how == "replace":
        path = draw(st.sampled_from(paths if keys_too else paths[1:]))  # kwargs stay a dict
        value = draw(bad_values(bool(path) and path[-1] in SIZE_KEYS))
        if not path:
            return value
        _node(tree, path[:-1])[path[-1]] = value
    elif how == "delete":
        path = draw(st.sampled_from([p for p in paths
                                     if p and isinstance(_node(tree, p[:-1]), dict)]))
        del _node(tree, path[:-1])[path[-1]]
    else:  # no field name starts with "x"
        parent = _node(tree, draw(st.sampled_from([p for p in paths
                                                  if isinstance(_node(tree, p), dict)])))
        parent["x" + draw(st.text(max_size=6))] = draw(bad_values())
    return tree


def _base_configs():
    bases = {}
    for path in sorted(DATA.glob("*_config.json")):
        if path.stem != "seeded_random_m200_config":
            config = json.loads(path.read_text())
            algorithm = config["algorithm"]
            algorithm["max_iterations"] = min(algorithm["max_iterations"], MAX_ITERATIONS)
            bases[path.stem] = config
    return bases


BASES = _base_configs()


@given(st.sampled_from(sorted(BASES)), st.sampled_from(("run", "sweep", "graph-info")),
       st.data())
@settings(max_examples=CLI_EXAMPLES, deadline=DEADLINE_MS)
def test_cli_exit_codes_on_mutated_configs(name, command, data):
    base = BASES[name]
    if command == "sweep":
        base = {**base, "sweep": {"algorithm.alpha": [0.05, 0.1]}}
    config = data.draw(mutated(base), label="config")
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path)]
        if command != "graph-info":
            argv += ["--out", str(out_dir), "--deterministic"]
            argv += ["--strict"] if data.draw(st.booleans(), label="strict") else []
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        summary = out_dir / "summary.csv"
        statuses = ([row["status"] for row in csv.DictReader(summary.read_text().splitlines())]
                    if command == "sweep" and summary.exists() else [])
    event(f"{command} exit {code}")
    assert code in (0, 2, 3, 4)
    last = stderr.getvalue().rstrip("\n").split("\n")[-1]
    if code == 2:
        assert last.startswith("config error: ") or any(
            s.startswith("config error: ") for s in statuses)
    elif code == 3:
        assert last.startswith("divergence: ") or "diverged" in statuses
    else:
        assert last == ""


# Each entry point with valid arguments, as JSON-like values where they can be.
_W = metropolis_weights([(0, 1), (1, 2)], 3).tolist()
ENTRY_POINTS = {
    "random_quadratic_problem": (random_quadratic_problem,
                                 {"m": 3, "n": 2, "L": 1.0, "mu": 0.1, "seed": 0,
                                  "shared_basis": False}),
    "random_logistic_problem": (random_logistic_problem,
                                {"m": 3, "n": 2, "samples_per_agent": 5, "ridge": 0.1,
                                 "seed": 0}),
    "GraphSchedule.static": (GraphSchedule.static, {"m": 4, "edges": [[0, 1], [1, 2], [2, 3]]}),
    "GraphSchedule.cyclic": (GraphSchedule.cyclic,
                             {"m": 4, "edge_sets": [[[0, 1]], [[1, 2], [2, 3]]]}),
    "GraphSchedule.seeded_random": (GraphSchedule.seeded_random,
                                    {"m": 4, "edge_probability": 0.5, "seed": 1}),
    "AlgorithmConfig": (AlgorithmConfig,
                        {"variant": "acc_gt_multiconsensus", "alpha": 0.1, "mu_mode": "zero",
                         "max_iterations": 10, "zeta": 2, "seeds": [0]}),
    "default_alpha": (default_alpha, {"variant": "acc_gt_tv", "L": 1.0,
                                      "sigma_or_sigma_gamma": 0.5, "gamma": 2,
                                      "mu_mode": "zero"}),
    "default_zeta": (default_zeta, {"gamma": 2, "sigma_gamma": 0.5}),
    "theta_next": (theta_next, {"theta_prev": 0.5}),
    "metropolis_weights": (metropolis_weights, {"edge_set": [[0, 1], [1, 2]], "m": 3}),
    "chebyshev_operator": (chebyshev_operator, {"W": _W, "t": 2, "sigma": 0.5}),
}


@given(st.sampled_from(sorted(ENTRY_POINTS)), st.data())
@settings(max_examples=LIBRARY_EXAMPLES, deadline=DEADLINE_MS)
def test_library_entry_points_raise_value_error_on_bad_arguments(name, data):
    function, kwargs = ENTRY_POINTS[name]
    kwargs = data.draw(mutated(kwargs, keys_too=False), label="kwargs")
    try:
        function(**kwargs)
    except ValueError:
        pass
