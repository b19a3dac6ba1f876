"""Every function, method and class of the package has a caller outside tests.

A definition in src/meswarm counts as used when the package or the
benchmark (perfbench/) references its name outside the definition itself:
as a Name, an Attribute, an import alias, or one of the target strings by
which perfbench/tracer.py wraps functions.  Dunder names are exempt.  Tests
do not count as callers: a function that only tests call is a test oracle
and lives with the tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "meswarm"
BENCH = ROOT / "perfbench"
TRACER = BENCH / "tracer.py"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node):
    """Every name referenced at or below node, once per reference."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
            if sub.asname:
                yield sub.asname


def _tracer_targets(tree):
    """The strings of the tracer's TARGETS table, which name what it wraps."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [sub.value for sub in ast.walk(node.value)
                    if isinstance(sub, ast.Constant)
                    and isinstance(sub.value, str)]
    raise AssertionError("perfbench/tracer.py has no TARGETS table")


def unreferenced(package, bench):
    """Definitions in `package` ({path: source}) that no code in `package`
    or `bench` references outside the definition, as 'file:line name'."""
    trees = {path: ast.parse(text) for path, text in package.items()}
    counts = Counter()
    for tree in trees.values():
        counts.update(_references(tree))
    for path, text in bench.items():
        tree = ast.parse(text)
        counts.update(_references(tree))
        if path == TRACER:
            counts.update(_tracer_targets(tree))
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, _DEFS) or node.name.startswith("__"):
                continue
            inside = sum(1 for name in _references(node) if name == node.name)
            if counts[node.name] == inside:
                found.append(f"{path.name}:{node.lineno} {node.name}")
    return found


def _sources(paths):
    return {path: path.read_text() for path in sorted(paths)}


def test_every_definition_has_a_caller_outside_tests():
    package = _sources(PACKAGE.glob("*.py"))
    bench = _sources(BENCH.rglob("*.py"))
    assert unreferenced(package, bench) == []


def test_a_test_only_function_is_flagged():
    package = _sources(PACKAGE.glob("*.py"))
    bench = _sources(BENCH.rglob("*.py"))
    lie = PACKAGE / "lie.py"
    # its own recursive call does not count as a caller
    package[lie] += "\n\ndef inverse(x):\n    return inverse(x)\n"
    line = package[lie].count("\n") - 1
    assert unreferenced(package, bench) == [f"lie.py:{line} inverse"]
