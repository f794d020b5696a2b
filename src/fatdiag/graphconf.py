"""Euler characteristics of ordered two-point configuration spaces of
graphs.

Two computations that must agree:

  farber_chi_f2      closed formula chi^2 + chi - sum_v (deg v - 1)(deg v - 2)
                     over a connected simple graph
  discretized_chi_f2 cell count in the discretized model, whose cells are
                     ordered pairs of closed cells (vertices and edges) with
                     disjoint closures

The discretized model is homotopy equivalent to the actual configuration
space once the graph is subdivided enough (Abrams, PhD thesis, 2000); the
conservative sufficient condition used here is that every cycle has at
least 5 edges and every path between vertices of degree other than 2 has
at least 3 edges.  Subdivision is harmless, because the answer is a
homotopy invariant and subdivision does not change the homeomorphism type.
A factor of 3 always meets the condition: a simple graph has girth >= 3
and every path between vertices of degree other than 2 has at least one
edge, and k-fold subdivision multiplies both lengths by k (the new
vertices all have degree 2, the old ones keep theirs), so after 3-fold
subdivision every cycle has >= 9 edges and every such path >= 3, whatever
the graph.

Graph.from_parts numbers a graph's vertices once, in the sorted order of
their labels as strings, and read_graph is the one reader of a --graph;
past them the code sees vertex numbers only.

Only two-point configurations are handled.
"""

from .errors import check_guard

# pair tests of the discretized oracle: K_35 makes 4.5 * 10^6 (about 0.4 s), while
# criterion 7 and the benchmark's graphs stay under 11,000
MAX_CELL_PAIRS = 5 * 10**6


class Graph:
    """Finite simple graph on the vertices 0, ..., num_vertices - 1, each edge
    a pair (u, v), u < v.  A plain class: a NamedTuple costs about 0.2 ms
    to create at import, which every graph command pays."""

    __slots__ = ("num_vertices", "edges")

    def __init__(self, num_vertices: int, edges: tuple[tuple[int, int], ...]) -> None:
        self.num_vertices = num_vertices
        self.edges = edges

    def __repr__(self) -> str:
        return f"Graph(num_vertices={self.num_vertices!r}, edges={self.edges!r})"

    @classmethod
    def from_parts(cls, vertices, edges) -> "Graph":
        """The graph on labels compared as strings, each numbered by its
        place in sorted order, its edges sorted."""
        number = {label: i for i, label in enumerate(sorted({str(v) for v in vertices}))}
        canon: set[tuple[int, int]] = set()
        for e in edges:
            u, v = (str(x) for x in e)
            if u == v:
                raise ValueError(f"loop at {u!r}")
            if u not in number or v not in number:
                raise ValueError(f"edge ({u!r}, {v!r}) uses unknown vertex")
            canon.add((number[u], number[v]) if u < v else (number[v], number[u]))
        return cls(len(number), tuple(sorted(canon)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.num_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_connected(self) -> bool:
        if not self.num_vertices:
            return True
        adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen, frontier = {0}, [0]
        while frontier:
            for y in adj[frontier.pop()]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == self.num_vertices


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
    penalty = sum((d - 1) * (d - 2) for d in graph.degrees())
    return chi * chi + chi - penalty


def subdivide(graph: Graph, k: int) -> Graph:
    """Replace every edge by a path of k edges, keeping the original
    vertices: edge i's k - 1 new vertices are V + i(k - 1) through
    V + (i + 1)(k - 1) - 1, V the number of vertices, in order from its
    smaller end.

    >>> subdivide(Graph.from_parts("ab", [("a", "b")]), 3).edges
    ((0, 2), (2, 3), (1, 3))
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        return graph
    n, edges = graph.num_vertices, []
    for i, (u, v) in enumerate(graph.edges):
        path = [u, *range(n + i * (k - 1), n + (i + 1) * (k - 1)), v]
        edges.extend((a, b) if a < b else (b, a) for a, b in zip(path, path[1:]))
    return Graph(n + (k - 1) * graph.num_edges, tuple(edges))


def _cell_pair_count(graph: Graph) -> int:
    """Alternating count of ordered pairs of cells with disjoint closures.

    A cell is a vertex or an edge, its closure the set of its vertices as
    an integer bit mask, so two closures are disjoint when their masks
    share no bit.  Disjointness is symmetric and no cell is disjoint from
    itself, so each unordered pair is tested once and counts for both
    orders: +2 for two vertices or two edges, -2 for a vertex and an edge."""
    points = [1 << i for i in range(graph.num_vertices)]
    edges = [points[u] | points[v] for u, v in graph.edges]
    total = 0
    for i, mask in enumerate(points):
        total += 2 * len([m for m in points[i + 1:] if not m & mask])
        total -= 2 * len([m for m in edges if not m & mask])
    for i, mask in enumerate(edges):
        total += 2 * len([m for m in edges[i + 1:] if not m & mask])
    return total


def discretized_chi_f2(graph: Graph) -> int:
    """Independent oracle for farber_chi_f2: subdivide by 3, which always
    makes the discretized two-point model faithful (see the module
    docstring), then count the model's cells with signs.

    The subdivided graph has V + 2E vertices and 3E edges, so V + 5E cells
    and C(V + 5E, 2) pair tests, known before anything is built; that count
    is guarded.

    >>> discretized_chi_f2(fixture("gamma2"))
    -6
    """
    cells = graph.num_vertices + 5 * graph.num_edges
    check_guard(cells * (cells - 1) // 2, MAX_CELL_PAIRS, "discretized cell pairs")
    return _cell_pair_count(subdivide(graph, 3))


# The built-in test graphs, as vertex labels and edges: gamma1 is two squares
# sharing an edge, gamma2 two triangles wedged at a vertex.
FIXTURES = {"gamma1": ("abcdef", ["ab", "bc", "cd", "da", "de", "ef", "fc"]),
            "gamma2": ("abcde", ["ab", "bc", "ca", "cd", "de", "ec"])}


def fixture(name: str) -> Graph:
    """The built-in test graph name of FIXTURES."""
    if name not in FIXTURES:
        raise ValueError(f"unknown graph fixture {name!r}")
    return Graph.from_parts(*FIXTURES[name])


def read_graph(ref: str) -> Graph:
    """The graph a --graph ref names: a fixture, or else a JSON document,
    inline or in a file, read by jsonread.load (loaded only then)."""
    if ref in FIXTURES:
        return fixture(ref)
    from .jsonread import load

    return graph_from_json(load(ref))


def _is_label(value) -> bool:
    """value is a JSON string or integer, not a bool: labels are compared
    as strings, and true would be the vertex "True"."""
    return isinstance(value, (str, int)) and not isinstance(value, bool)


def graph_from_json(data) -> Graph:
    """Build a graph from decoded JSON {"vertices": [...], "edges": [...]}:
    the vertices a list of labels (strings or integers, not booleans), the
    edges a list of two-vertex lists of labels.

    A vertex or an edge (in either orientation) listed twice is an error:
    two parallel edges form a circle, not one edge, and a simple graph
    cannot hold them, so merging them would answer for another space.
    """
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ValueError('graph JSON needs "vertices" and "edges"')
    vertices, edges = data["vertices"], data["edges"]
    if not isinstance(vertices, list) or not all(map(_is_label, vertices)):
        raise ValueError('"vertices" must be a list of labels')
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2
                                              and all(map(_is_label, e)) for e in edges):
        raise ValueError('"edges" must be a list of two-vertex lists')
    graph = Graph.from_parts(vertices, edges)
    if graph.num_vertices < len(vertices):
        raise ValueError("a vertex is listed twice")
    if graph.num_edges < len(edges):
        raise ValueError("an edge is listed twice (parallel edges are not supported)")
    return graph
