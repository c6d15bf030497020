"""Layout guard: every function, class and method in `src/lyapcert` is used by the
library itself, so no entry point lives on for tests alone.

A use is any read of the bare name (or attribute of that name) in `src/` outside
the definition's own body; names are matched without their owner, so a use of
a same-named attribute elsewhere also counts.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lyapcert"

# definitions nothing in src/ references, each with the reason it stays
ALLOWED = {
    "net.hvp": "perfbench/traced_cli.py wraps it by name",
    "loss.empirical_loss": "perfbench/traced_cli.py wraps it by name",
    "verify.GridSpec.row_of": "lattice-point lookup the tests place nodes with; "
                              "perfbench/checks.py keeps its own copy",
    "dynamics.nominal_system": "the nominal system with its equilibrium and Hurwitz "
                               "checks, the tests' reference system",
    "cli.main": "the console entry point",
}


def _references(tree) -> Counter:
    """Every name read or attribute accessed in an AST, counted."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def _definitions():
    """(qualified name, bare name, node) of every top-level def/class and method."""
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def test_every_definition_is_used_in_src():
    total = Counter()
    for path in SRC.glob("*.py"):
        total += _references(ast.parse(path.read_text()))
    unused = [qualified for qualified, name, node in _definitions()
              if total[name] - _references(node)[name] <= 0 and qualified not in ALLOWED]
    assert not unused, f"defined in src/ but used only outside it: {unused}"


def test_allowlist_names_existing_definitions():
    defined = {qualified for qualified, _, _ in _definitions()}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
