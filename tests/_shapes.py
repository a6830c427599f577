"""Graph families whose size doubles with k, for work-under-doubling tests.

Each family is a function of k that builds one graph, whose vertex and
edge counts grow linearly in k.  A test counts the lines an operation
executes on each size (tests/_linecount.py) and bounds the ratio per
doubling.
"""

from planarrank.graph import Graph


def chain_of_triangles(k: int) -> Graph:
    """k triangles in a path, each sharing one vertex with the next:
    2k + 1 vertices, k blocks, k - 1 cut-vertices.  A search from vertex
    1 walks the whole chain before it pops the first block."""
    edges = []
    for i in range(k):
        a = 2 * i + 1
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
    return Graph(2 * k + 1, edges)


def star_of_bridges(k: int) -> Graph:
    """Vertex 1 joined to k leaves: k one-edge blocks at one cut-vertex."""
    return Graph(k + 1, [(1, v) for v in range(2, k + 2)])


def _k4(a: int, b: int, c: int, d: int) -> list[tuple[int, int]]:
    return [(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)]


def disjoint_k4s(k: int) -> Graph:
    """k components, each a K4."""
    return Graph(4 * k, [e for i in range(k) for e in _k4(4 * i + 1, 4 * i + 2,
                                                            4 * i + 3, 4 * i + 4)])


def hub_of_k4s(k: int) -> Graph:
    """k K4s that share vertex 1: k blocks at one cut-vertex."""
    return Graph(3 * k + 1, [e for i in range(k) for e in _k4(1, 3 * i + 2,
                                                            3 * i + 3, 3 * i + 4)])


def disjoint_bowties(k: int) -> Graph:
    """k components, each two triangles sharing one vertex: 2k blocks and
    k cut-vertices."""
    return Graph(5 * k, [(a + i, a + j) for a in range(1, 5 * k, 5)
                         for i, j in ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4))])
