"""Every closed formula has an oracle that shares no code with it.

ORACLES names, for each formula, where its oracles are compared with it
and the package definitions each oracle runs.  A static call graph of
src/fatdiag resolves each definition's callees through its module's own
definitions and imports, so a local name does not count; an attribute
counts as every package method of that name.  A formula is checked when
some oracle reaches no definition that the formula reaches, apart from
PRIMITIVES, which compute no value of a formula.  The formulas with no
such oracle today are ALLOWED, each with the ROADMAP item that gives it
one; the list only shrinks.

A static test cannot see that an oracle covers only some inputs: chi_sp
checks chi_gamma_product only on products of symmetric groups.  A census
of small groups (ROADMAP item 17) is the other half.
"""

from __future__ import annotations

import ast

from test_layout import _trees

from fatdiag import eulerchar, selfcheck

# formula -> (where its oracles are compared, {oracle: the definitions it
# runs}): a chi row names its kind, whose oracles chi_oracles runs, and
# every other row the verify criterion that compares it: 1, 4 and 8 for the
# group formulas, 7 for the graph formula and 9 for the pi1 formulas
ORACLES = {
    "eulerchar.chi_bd": ("bd", {
        "cycle_type_average": ["eulerchar.oracle_bd_burnside"],
        "stratification_sum": ["eulerchar.stratification_sum_bd"],
        "closed_d2_form": ["eulerchar.chi_b2"],
    }),
    "eulerchar.chi_fd": ("fd", {
        "set_partition_sum": ["eulerchar.oracle_fd_setpartitions"],
        "closed_d2_form": ["eulerchar.chi_f2"],
    }),
    "eulerchar.chi_b_upper": ("bupper", {
        "complement": ["eulerchar.chi_sp", "eulerchar.stratification_sum_bd"],
    }),
    "eulerchar.chi_gamma_product": ("macdonald-burnside", {"chi_sp": ["eulerchar.chi_sp"]}),
    "invariants.invariant_poincare": ("invariant-poincare", {
        "macdonald_poincare_sp": ["invariants.macdonald_poincare_sp"],
    }),
    "strata.group_length": ("depth-length", {"length_sn": ["strata.length_sn"]}),
    "strata.depth": ("depth-length", {}),
    "graphconf.farber_chi_f2": ("graph-configuration", {
        "discretized": ["graphconf.discretized_chi_f2"],
    }),
    "fundgroup.pi1_bd": ("pi1-descriptors", {"splitting": ["fundgroup.pi1_gamma_product"]}),
    "fundgroup.pi1_gamma_product": ("pi1-descriptors", {}),
}

# definitions a formula and its oracle may share -> why
PRIMITIVES = {
    "errors.": "guards, work counts, exact division and integer reading compute no value",
    "algebra.GradedPolynomial": "polynomial arithmetic, the value type of Betti numbers",
    "graphconf.Graph": "the graph, input to both graph formulas",
}

# formula with no independent oracle -> the ROADMAP item that gives it one
ALLOWED = {
    "strata.depth": "item 12: criterion 8 compares it with the pinned sum of m - 1",
    "fundgroup.pi1_bd": "item 9: criterion 9 compares it with pi1_gamma_product on S_n or"
                        " S_(n-d), and both fold Pi1 into H1 through GroupExpression.for_space;"
                        " the engine gives it an oracle that shares nothing",
    "fundgroup.pi1_gamma_product": "item 9: criterion 9 checks it only on orbit counts",
}


def _walk(node: ast.AST):
    """The nodes under node, leaving out annotations and a class's methods."""
    skip = (getattr(node, "annotation", None), getattr(node, "returns", None))
    for child in ast.iter_child_nodes(node):
        if not (child in skip
                or isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef)):
            yield child
            yield from _walk(child)


def _definitions(stem: str, tree: ast.Module):
    """(qualified name, node) of the module-level functions, classes and
    assigned names of tree, and of the methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{stem}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, ast.FunctionDef):
                    yield f"{stem}.{node.name}.{child.name}", child
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((f"{stem}.{target.id}", node) for target in targets
                        if isinstance(target, ast.Name))


def call_graph() -> dict[str, set[str]]:
    """Each package definition -> the package definitions it names."""
    trees = _trees()
    definitions = {stem: dict(_definitions(stem, tree)) for stem, tree in trees.items()}
    methods: dict[str, set[str]] = {}
    for stem_defs in definitions.values():
        for name in stem_defs:
            if name.count(".") == 2 and not name.endswith("__"):
                methods.setdefault(name.rsplit(".", 1)[1], set()).add(name)
    graph = {}
    for stem, tree in trees.items():
        scope = {name.split(".", 1)[1]: name for name in definitions[stem] if name.count(".") == 1}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                scope.update((alias.asname or alias.name, f"{node.module}.{alias.name}")
                             for alias in node.names)
        for name, node in definitions[stem].items():
            nodes = list(_walk(node))
            local = {child.arg for child in nodes if isinstance(child, ast.arg)}
            local |= {child.id for child in nodes
                      if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Load)}
            local |= {child.name for child in nodes if isinstance(child, ast.FunctionDef)}
            callees = set()
            if isinstance(node, ast.ClassDef):  # constructing it runs its dunders
                callees |= {other for other in definitions[stem]
                            if other.startswith(f"{name}.") and other.endswith("__")}
            for child in nodes:
                if isinstance(child, ast.Name) and child.id not in local and child.id in scope:
                    callees.add(scope[child.id])
                elif isinstance(child, ast.Attribute):
                    callees |= methods.get(child.attr, set())
                elif isinstance(child, ast.ImportFrom) and child.level == 1:
                    callees |= {f"{child.module}.{alias.name}" for alias in child.names}
            graph[name] = callees
    return graph


def _reach(graph: dict[str, set[str]], roots) -> set[str]:
    """roots and every definition they reach."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph[name])
    return seen


def shared(graph: dict[str, set[str]], formula: str, defs: list[str]) -> set[str]:
    """The definitions, other than primitives, that both the formula and an
    oracle running defs reach."""
    both = _reach(graph, [formula]) & _reach(graph, defs)
    return {name for name in both if not name.startswith(tuple(PRIMITIVES))}


def test_every_formula_has_an_independent_oracle():
    graph = call_graph()
    dependent = {formula for formula, (_, oracles) in ORACLES.items()
                 if all(shared(graph, formula, defs) for defs in oracles.values())}
    assert dependent == set(ALLOWED)


def test_the_table_names_the_oracles_that_run(monkeypatch):
    # the battery compares every kind with its oracles in chi_oracles
    kinds = set()

    def recorded(kind, chi, n, d):
        kinds.add(kind)
        return eulerchar.chi_oracles(kind, chi, n, d)

    monkeypatch.setattr(selfcheck, "chi_oracles", recorded)
    selfcheck.run_suite()
    assert kinds == set(eulerchar.KINDS)
    graph = call_graph()
    checks = {name: f"selfcheck.{check.__name__}" for name, check in selfcheck.CHECKS}
    for formula, (where, oracles) in ORACLES.items():
        if where in eulerchar.KINDS:
            # the chi rows: exactly the oracles chi_oracles runs for the kind
            names = {name for d in (2, 3) for name in eulerchar.chi_oracles(where, 2, 4, d)}
            assert set(oracles) == names, formula
            compares = graph["eulerchar.chi_oracles"]
        else:
            compares = graph[checks[where]]
            assert formula in compares, formula
        assert {name for defs in oracles.values() for name in defs} <= compares, formula
