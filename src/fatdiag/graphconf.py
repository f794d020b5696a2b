"""Euler characteristics of ordered two-point configuration spaces of
graphs.

Two computations that must agree:

  farber_chi_f2      closed formula chi^2 + chi - sum_v (deg v - 1)(deg v - 2)
                     over a connected simple graph
  discretized_chi_f2 cell count in the discretized model, whose cells are
                     ordered pairs of closed cells (vertices and edges) with
                     disjoint closures

The discretized model is homotopy equivalent to the actual configuration
space once the graph is subdivided enough; the conservative sufficient
condition used here is that every cycle has at least 5 edges and every path
between vertices of degree other than 2 has at least 3 edges.  The oracle
subdivides automatically until the condition holds (uniform 3-fold
subdivision always suffices), which is harmless because the answer is a
homotopy invariant and subdivision does not change the homeomorphism type.

Only two-point configurations are handled.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalConsistencyError


class Graph(NamedTuple):
    """Finite simple graph with string vertex labels, canonically sorted."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    @classmethod
    def from_parts(cls, vertices, edges) -> "Graph":
        verts = tuple(sorted({str(v) for v in vertices}))
        vert_set = set(verts)
        canon: set[tuple[str, str]] = set()
        for e in edges:
            u, v = (str(x) for x in e)
            if u == v:
                raise ValueError(f"loop at {u!r}")
            if u not in vert_set or v not in vert_set:
                raise ValueError(f"edge ({u!r}, {v!r}) uses unknown vertex")
            canon.add((u, v) if u < v else (v, u))
        return cls(verts, tuple(sorted(canon)))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> dict[str, int]:
        deg = {v: 0 for v in self.vertices}
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj = self.adjacency()
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == len(self.vertices)


def chi_graph(graph: Graph) -> int:
    """Euler characteristic: vertices minus edges.

    >>> chi_graph(fixture("gamma1"))
    -1
    """
    return graph.num_vertices - graph.num_edges


def farber_chi_f2(graph: Graph) -> int:
    """Closed formula for the Euler characteristic of the space of ordered
    pairs of distinct points on a connected graph.

    >>> farber_chi_f2(fixture("gamma1"))
    -4
    >>> farber_chi_f2(fixture("gamma2"))
    -6
    """
    if not graph.is_connected():
        raise ValueError("formula needs a connected graph")
    chi = chi_graph(graph)
    penalty = sum((d - 1) * (d - 2) for d in graph.degrees().values())
    return chi * chi + chi - penalty


def _fresh_separator(graph: Graph) -> str:
    sep = "~"
    while any(sep in v for v in graph.vertices):
        sep += "~"
    return sep


def subdivide(graph: Graph, k: int) -> Graph:
    """Replace every edge by a path of k edges, keeping the original
    vertices; the new interior vertices get fresh derived labels.

    >>> subdivide(Graph.from_parts("ab", [("a", "b")]), 3).num_vertices
    4
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        return graph
    sep = _fresh_separator(graph)
    vertices = list(graph.vertices)
    edges = []
    for u, v in graph.edges:
        path = [u] + [f"{u}{sep}{v}{sep}{i}" for i in range(1, k)] + [v]
        vertices.extend(path[1:-1])
        edges.extend(zip(path, path[1:]))
    return Graph.from_parts(vertices, edges)


def _girth(graph: Graph) -> int | None:
    """Length of the shortest cycle, None for a forest."""
    adj = graph.adjacency()
    best: int | None = None
    for start in graph.vertices:
        dist = {start: 0}
        parent = {start: None}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        nxt.append(y)
                    elif parent[x] != y:
                        cycle = dist[x] + dist[y] + 1
                        if best is None or cycle < best:
                            best = cycle
            frontier = nxt
    return best


def _essential_path_lengths(graph: Graph) -> list[int]:
    """Edge counts of maximal paths whose interior vertices have degree 2
    and whose endpoints do not."""
    adj = graph.adjacency()
    deg = graph.degrees()
    branch = [v for v in graph.vertices if deg[v] != 2]
    lengths = []
    for u in branch:
        for first in adj[u]:
            length = 1
            prev, cur = u, first
            while deg[cur] == 2:
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
                length += 1
            lengths.append(length)
    # each path is walked once from each endpoint (twice from the same
    # endpoint when it is a loop back to it), so the minimum is unaffected
    return lengths


def _discretization_ok(graph: Graph) -> bool:
    girth = _girth(graph)
    if girth is not None and girth < 5:
        return False
    return all(length >= 3 for length in _essential_path_lengths(graph))


def _cell_pair_count(graph: Graph) -> int:
    """Alternating count of ordered pairs of cells with disjoint closures."""
    # cells: (dim, closure vertex set)
    cells = [(0, frozenset([v])) for v in graph.vertices]
    cells.extend((1, frozenset(e)) for e in graph.edges)
    total = 0
    for dim1, cl1 in cells:
        for dim2, cl2 in cells:
            if not cl1 & cl2:
                total += (-1) ** (dim1 + dim2)
    return total


def discretized_chi_f2(graph: Graph) -> int:
    """Independent oracle for farber_chi_f2: subdivide until the
    discretized two-point model is faithful, then count its cells with
    signs.

    >>> discretized_chi_f2(fixture("gamma2"))
    -6
    """
    for k in (1, 2, 3):
        candidate = subdivide(graph, k)
        if _discretization_ok(candidate):
            return _cell_pair_count(candidate)
    raise InternalConsistencyError(
        "3-fold subdivision did not reach the discretization condition"
    )


def fixture(name: str) -> Graph:
    """Built-in test graphs.

    gamma1: two squares sharing an edge (6 vertices, 7 edges).
    gamma2: two triangles wedged at a vertex (5 vertices, 6 edges).
    """
    if name == "gamma1":
        return Graph.from_parts(
            "abcdef",
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
             ("d", "e"), ("e", "f"), ("f", "c")],
        )
    if name == "gamma2":
        return Graph.from_parts(
            "abcde",
            [("a", "b"), ("b", "c"), ("c", "a"),
             ("c", "d"), ("d", "e"), ("e", "c")],
        )
    raise ValueError(f"unknown graph fixture {name!r}")


def graph_from_json(data) -> Graph:
    """Build a graph from {"vertices": [...], "edges": [["a","b"], ...]}:
    the vertices a list of labels (strings or integers), the edges a list of
    two-vertex lists.

    A vertex or an edge (in either orientation) listed twice is an error:
    two parallel edges form a circle, not one edge, and a simple graph
    cannot hold them, so merging them would answer for another space.
    """
    if isinstance(data, str):
        import json

        data = json.loads(data)
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ValueError('graph JSON needs "vertices" and "edges"')
    vertices, edges = data["vertices"], data["edges"]
    if not isinstance(vertices, list) or not all(isinstance(v, (str, int)) for v in vertices):
        raise ValueError('"vertices" must be a list of labels')
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2
                                              for e in edges):
        raise ValueError('"edges" must be a list of two-vertex lists')
    graph = Graph.from_parts(vertices, edges)
    if graph.num_vertices < len(vertices):
        raise ValueError("a vertex is listed twice")
    if graph.num_edges < len(edges):
        raise ValueError("an edge is listed twice (parallel edges are not supported)")
    return graph
