"""The package keeps no code that only its tests run, and one fold over a
group's direct factors.

Every function and class defined at module level or in a class body of
src/fatdiag (dunders excluded) must be named somewhere in the package
outside its own body: by a name, an attribute or an import.  A function
whose only caller is its own unit test should go, unless it is listed
below with the reason it stays.

Only permgroup names direct_factors: every invariant that splits over
the factors goes through PermutationGroupModel.fold_factors, so that no
module writes a fold of its own.
"""

from __future__ import annotations

import ast
from pathlib import Path

import fatdiag

PACKAGE = Path(fatdiag.__file__).parent

# module.name -> why it stays without a caller in the package
ALLOWED = {
    "strata.all_subgroups": "perfbench/tracer.py wraps it to count subgroups",
    "combinatorics.set_partitions_cached": "perfbench/tracer.py wraps it; it goes with the "
                                           "benchmark's tracer change (ROADMAP item 1b)",
}


def _definitions(tree: ast.Module):
    """The module-level and class-level functions and classes of tree."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (child for child in node.body
                        if isinstance(child, (ast.FunctionDef, ast.ClassDef)))


def _references(tree: ast.Module):
    """(name, line) of every name, attribute and imported name in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def unreferenced() -> set[str]:
    trees = _trees()
    references = {stem: list(_references(tree)) for stem, tree in trees.items()}
    missing = set()
    for stem, tree in trees.items():
        for node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(ref == name and (other != stem or line not in own)
                       for other, refs in references.items() for ref, line in refs):
                missing.add(f"{stem}.{name}")
    return missing


def test_every_definition_has_a_caller_in_the_package():
    assert unreferenced() == set(ALLOWED)


def test_only_permgroup_names_the_direct_factors():
    naming = {stem for stem, tree in _trees().items()
              if any(name == "direct_factors" for name, _ in _references(tree))}
    assert naming <= {"permgroup"}, naming
