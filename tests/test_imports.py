"""Every module-level import of an ``agtrack`` module is read in that module.

An import that nothing reads hides what a module really depends on.
``__init__.py`` is exempt: its imports are the package's re-exports.
"""
import ast
from pathlib import Path

import pytest

import agtrack

MODULES = sorted(p for p in Path(agtrack.__file__).parent.glob("*.py") if p.name != "__init__.py")

# (module, name): imports that the module never reads but must keep bound.
# The benchmark tracer (agbench/tracer.py) wraps metropolis_weights at these
# names, so they stay until it binds to the graph layer itself (ROADMAP item
# 1b); an entry whose import is gone, or read after all, fails as stale.
ALLOWED = {("algorithms", "metropolis_weights"), ("cli", "metropolis_weights")}


def unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of ``source`` bind and that
    no expression in it reads, sorted; ``__future__`` imports bind none."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_unused_imports_are_found():
    source = "import os.path\nimport json as j\nfrom x import a, b as c\nprint(a, j)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_reads_every_import(path):
    allowed = sorted(name for module, name in ALLOWED if module == path.stem)
    assert unused_imports(path.read_text()) == allowed
