"""Simple undirected graphs and their connectivity decomposition.

Vertices are the dense integers 1..n.  An edge is the pair (u, v) with
u < v; pairs compare lexicographically, which fixes every "minimum edge"
tie-break used by the ranking layers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import EdgelessComponent, MalformedInput

Edge = tuple[int, int]


def edge_id(u: int, v: int) -> Edge:
    """Normalized identifier of the edge joining u and v."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph on vertices 1..n.

    Neighbor lists are kept sorted so every traversal in the package is
    deterministic.
    """

    __slots__ = ("n", "edges", "adj", "_components")

    def __init__(self, n: int, edges) -> None:
        if n < 1:
            raise MalformedInput("graph must have at least one vertex")
        seen: set[Edge] = set()
        adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
        for u, v in edges:
            if not (type(u) is int and type(v) is int):
                raise MalformedInput(f"edge endpoints must be integers: {(u, v)!r}")
            if u == v:
                raise MalformedInput(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise MalformedInput(f"edge {(u, v)} uses a vertex outside 1..{n}")
            e = edge_id(u, v)
            if e in seen:
                raise MalformedInput(f"parallel edge {e}")
            seen.add(e)
            adj[u].append(v)
            adj[v].append(u)
        for v, nbrs in adj.items():
            if not nbrs:
                raise EdgelessComponent(
                    f"vertex {v} is isolated; every component must contain an edge"
                )
            nbrs.sort()
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(sorted(seen))
        self.adj = adj
        self._components: list[tuple[int, frozenset[int]]] | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- JSON schema: {"vertices": [1..n], "edges": [[u, v], ...]} with u < v --

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
            raise MalformedInput('graph JSON needs "vertices" and "edges" keys')
        vertices, edges = data["vertices"], data["edges"]
        if not isinstance(vertices, list) or not isinstance(edges, list):
            raise MalformedInput('"vertices" and "edges" must be lists')
        # JSON true/false would pass an isinstance(x, int) test as 1/0.
        if (not all(type(x) is int for x in vertices)
                or sorted(vertices) != list(range(1, len(vertices) + 1))):
            raise MalformedInput("vertices must be exactly 1..n")
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2
                    and all(type(x) is int for x in e)):
                raise MalformedInput(f"edge entries must be [u, v] integer pairs: {e!r}")
            if not e[0] < e[1]:
                raise MalformedInput(f"edge {e} must be listed with u < v")
        return cls(len(vertices), [tuple(e) for e in edges])

    def to_json(self) -> str:
        return json.dumps(
            {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges]},
            sort_keys=True,
        )


def connected_components(g: Graph) -> list[tuple[int, frozenset[int]]]:
    """Components as (1-based id, vertex set), ordered by smallest vertex.

    Component 1 always contains vertex 1 because ids are dense, so the
    order is simply the order of discovery from ascending start vertices.
    The graph is immutable, so the search runs once per graph.
    """
    if g._components is not None:
        return list(g._components)
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for start in g.vertices:
        if start in seen:
            continue
        stack = [start]
        comp = {start}
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    g._components = [(i + 1, comp) for i, comp in enumerate(comps)]
    return list(g._components)


@dataclass(frozen=True)
class Block:
    """One biconnected component: its vertices and its edges."""

    vertices: frozenset[int]
    edges: tuple[Edge, ...]

    @property
    def min_edge(self) -> Edge:
        return self.edges[0]

    def local(self) -> tuple[list[int], tuple[int, tuple[Edge, ...]]]:
        """The sorted vertices, and the block-local graph as (n, edges).

        Block-local id i is the i-th smallest vertex (from 1).  The map is
        monotone, so the edges stay sorted and Graph(*key) builds the graph.
        """
        verts = sorted(self.vertices)
        remap = {v: i for i, v in enumerate(verts, start=1)}
        return verts, (len(verts), tuple((remap[u], remap[v]) for u, v in self.edges))


@dataclass
class BlockCutTree:
    """Blocks and cut-vertices of a graph, over all its components.

    blocks are sorted by minimum edge id, so b(v) orderings are
    reproducible.
    """

    blocks: list[Block]
    cut_vertices: list[int]


def lowpoint_dfs(adj: dict[int, list[int]], root: int
                 ) -> tuple[dict[int, int], set[int], list[list[Edge]]]:
    """Iterative DFS with lowpoints from root over a simple graph's
    adjacency lists.

    Returns the discovery index of every vertex reached, the cut-vertices
    of the part reached and its blocks as edge lists.  Linear in the size
    of that part.
    """
    disc: dict[int, int] = {root: 0}
    low: dict[int, int] = {root: 0}
    parent: dict[int, int | None] = {root: None}
    edge_stack: list[Edge] = []
    raw_blocks: list[list[Edge]] = []
    cut: set[int] = set()
    timer = 1

    # Frame: (vertex, iterator over its neighbors); tree-edge pops update
    # lowpoints.
    stack = [(root, iter(adj[root]))]
    root_children = 0
    while stack:
        v, nbrs = stack[-1]
        for w in nbrs:
            if w not in disc:
                parent[w] = v
                disc[w] = low[w] = timer
                timer += 1
                edge_stack.append(edge_id(v, w))
                stack.append((w, iter(adj[w])))
                break
            if w != parent[v] and disc[w] < disc[v]:
                edge_stack.append(edge_id(v, w))
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            u = parent[v]
            if u is None:
                continue
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                # u separates v's subtree: pop one block.
                block: list[Edge] = []
                e = edge_id(u, v)
                while True:
                    top = edge_stack.pop()
                    block.append(top)
                    if top == e:
                        break
                raw_blocks.append(block)
                if u == root:
                    root_children += 1
                    if root_children > 1:
                        cut.add(u)
                else:
                    cut.add(u)
    return disc, cut, raw_blocks


def block_cut_tree(g: Graph) -> BlockCutTree:
    """Blocks and cut-vertices of every component via lowpoint_dfs.

    Each component's DFS starts at its smallest vertex and scans neighbors
    in ascending order, so the result is deterministic.  Linear in n + m.
    """
    blocks = []
    cut: set[int] = set()
    for _, comp in connected_components(g):
        _, comp_cut, raw_blocks = lowpoint_dfs(g.adj, min(comp))
        cut |= comp_cut
        for edges in raw_blocks:
            vs = frozenset(x for e in edges for x in e)
            blocks.append(Block(vs, tuple(sorted(edges))))
    blocks.sort(key=lambda b: b.min_edge)
    return BlockCutTree(blocks, sorted(cut))
