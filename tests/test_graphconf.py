from __future__ import annotations

import random

import pytest

from fatdiag import graphconf
from fatdiag.graphconf import (
    Graph,
    _cell_pair_count,
    chi_graph,
    discretized_chi_f2,
    farber_chi_f2,
    fixture,
    graph_from_json,
    subdivide,
)
from fatdiag.selfcheck import random_connected_graphs


def cycle_graph(k: int) -> Graph:
    verts = [f"v{i}" for i in range(k)]
    return Graph.from_parts(verts, [(verts[i], verts[(i + 1) % k]) for i in range(k)])


def path_graph(k: int) -> Graph:
    verts = [f"v{i}" for i in range(k)]
    return Graph.from_parts(verts, [(verts[i], verts[i + 1]) for i in range(k - 1)])


def complete_graph(k: int) -> Graph:
    verts = [f"v{i}" for i in range(k)]
    edges = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]]
    return Graph.from_parts(verts, edges)


def test_graph_canonicalization():
    g = Graph.from_parts(["b", "a"], [("b", "a"), ("a", "b")])
    assert g.vertices == ("a", "b")
    assert g.edges == (("a", "b"),)
    assert g.num_vertices == 2 and g.num_edges == 1


def test_graph_rejects_loops_and_unknown_vertices():
    with pytest.raises(ValueError):
        Graph.from_parts(["a"], [("a", "a")])
    with pytest.raises(ValueError):
        Graph.from_parts(["a"], [("a", "b")])


def test_fixture_shapes():
    g1 = fixture("gamma1")
    assert g1.num_vertices == 6 and g1.num_edges == 7
    g2 = fixture("gamma2")
    assert g2.num_vertices == 5 and g2.num_edges == 6
    with pytest.raises(ValueError):
        fixture("gamma3")


def test_chi_graph():
    assert chi_graph(fixture("gamma1")) == -1
    assert chi_graph(fixture("gamma2")) == -1
    assert chi_graph(cycle_graph(5)) == 0
    assert chi_graph(path_graph(4)) == 1


def test_farber_fixed_values():
    assert farber_chi_f2(fixture("gamma1")) == -4
    assert farber_chi_f2(fixture("gamma2")) == -6


def test_farber_needs_connected():
    g = Graph.from_parts(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with pytest.raises(ValueError):
        farber_chi_f2(g)


def test_discretized_fixed_values():
    assert discretized_chi_f2(fixture("gamma1")) == -4
    assert discretized_chi_f2(fixture("gamma2")) == -6


def test_cycle_two_point_space():
    # config space of 2 points on a circle is an annulus: chi 0
    for k in (3, 4, 5, 6, 8):
        g = cycle_graph(k)
        assert farber_chi_f2(g) == 0
        assert discretized_chi_f2(g) == 0


def test_path_two_point_space():
    # two distinct points on an arc: two contractible pieces, chi 2
    for k in (2, 3, 5):
        g = path_graph(k)
        assert farber_chi_f2(g) == 2
        assert discretized_chi_f2(g) == 2


def test_star_and_complete_graphs():
    star = Graph.from_parts(
        ["c", "x", "y", "z"], [("c", "x"), ("c", "y"), ("c", "z")]
    )
    assert farber_chi_f2(star) == discretized_chi_f2(star) == 0
    k4 = complete_graph(4)
    assert farber_chi_f2(k4) == discretized_chi_f2(k4)
    k5 = complete_graph(5)
    assert farber_chi_f2(k5) == discretized_chi_f2(k5)


def test_subdivision_invariance():
    g = fixture("gamma2")
    for k in (1, 2, 3):
        s = subdivide(g, k)
        assert s.num_vertices == g.num_vertices + (k - 1) * g.num_edges
        assert s.num_edges == k * g.num_edges
        assert chi_graph(s) == chi_graph(g)
        assert farber_chi_f2(s) == farber_chi_f2(g)


def test_random_graphs_agree():
    rng = random.Random(987)
    checked = 0
    while checked < 12:
        size = rng.randint(2, 7)
        verts = [f"v{i}" for i in range(size)]
        edges = [
            (a, b)
            for i, a in enumerate(verts)
            for b in verts[i + 1 :]
            if rng.random() < 0.5
        ]
        g = Graph.from_parts(verts, edges)
        if not g.is_connected():
            continue
        checked += 1
        assert farber_chi_f2(g) == discretized_chi_f2(g)


def test_graph_from_json():
    g = graph_from_json({"vertices": ["a", "b"], "edges": [["a", "b"]]})
    assert g.num_edges == 1
    g2 = graph_from_json({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]})
    assert chi_graph(g2) == 1
    with pytest.raises(ValueError):
        graph_from_json({"vertices": ["a"]})
    # it takes decoded JSON only: a string is not decoded a second time
    with pytest.raises(ValueError):
        graph_from_json('{"vertices": ["a", "b"], "edges": [["a", "b"]]}')


def test_fixtures_differ():
    # same chi, different local structure, different configuration spaces
    assert chi_graph(fixture("gamma1")) == chi_graph(fixture("gamma2"))
    assert farber_chi_f2(fixture("gamma1")) != farber_chi_f2(fixture("gamma2"))


def star_graph(leaves: int) -> Graph:
    return Graph.from_parts(["c"] + [f"x{i}" for i in range(leaves)],
                            [("c", f"x{i}") for i in range(leaves)])


def oracle_battery() -> list[Graph]:
    return (random_connected_graphs(50) + [fixture("gamma1"), fixture("gamma2")]
            + [path_graph(k) for k in range(1, 7)] + [cycle_graph(k) for k in range(3, 7)]
            + [star_graph(k) for k in range(1, 6)] + [complete_graph(4), complete_graph(5)])


def test_threefold_subdivision_cell_count_is_known_in_advance():
    # the guard counts V + 5E cells before subdividing: each edge gains two
    # vertices and becomes three edges
    for g in oracle_battery():
        s = subdivide(g, 3)
        assert s.num_vertices + s.num_edges == g.num_vertices + 5 * g.num_edges, g


def frozenset_pair_count(graph: Graph) -> int:
    """The cell count as sets: ordered pairs of cells (vertex or edge,
    with its vertex set as closure) whose closures are disjoint, signed
    (-1)^(dim1 + dim2)."""
    cells = [(0, frozenset([v])) for v in graph.vertices]
    cells.extend((1, frozenset(e)) for e in graph.edges)
    return sum((-1) ** (dim1 + dim2) for dim1, cl1 in cells for dim2, cl2 in cells
               if not cl1 & cl2)


def test_mask_count_matches_the_set_count():
    for g in oracle_battery():
        for k in (1, 2, 3):
            s = subdivide(g, k)
            assert _cell_pair_count(s) == frozenset_pair_count(s), (g, k)


def test_oracle_subdivides_once(monkeypatch):
    calls = []

    def counted(graph, k):
        calls.append(k)
        return subdivide(graph, k)

    monkeypatch.setattr(graphconf, "subdivide", counted)
    for g in oracle_battery():
        calls.clear()
        assert discretized_chi_f2(g) == farber_chi_f2(g)
        assert calls == [3], g
