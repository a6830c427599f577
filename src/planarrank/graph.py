"""Simple undirected graphs, connectivity decomposition and union-find.

Vertices are the dense integers 1..n.  An edge is the pair (u, v) with
u < v; pairs compare lexicographically, which fixes every "minimum edge"
tie-break used by the ranking layers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import EdgelessComponent, MalformedInput, NotConnected

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
            if not (isinstance(u, int) and isinstance(v, int)):
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
        vertices = data["vertices"]
        if sorted(vertices) != list(range(1, len(vertices) + 1)):
            raise MalformedInput("vertices must be exactly 1..n")
        for e in data["edges"]:
            if not (isinstance(e, list) and len(e) == 2):
                raise MalformedInput(f"edge entries must be [u, v] pairs: {e!r}")
            if not e[0] < e[1]:
                raise MalformedInput(f"edge {e} must be listed with u < v")
        return cls(len(vertices), [tuple(e) for e in data["edges"]])

    def to_json(self) -> str:
        return json.dumps(
            {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges]},
            sort_keys=True,
        )


class UnionFind:
    """Disjoint sets over 0..size-1 with path compression and union by rank."""

    __slots__ = ("parent", "rank")

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.rank = [0] * size

    def find(self, a: int) -> int:
        if not 0 <= a < len(self.parent):
            raise IndexError(f"element {a} out of range")
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:  # path compression
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return ra


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

    def to_graph(self) -> tuple[Graph, dict[int, int]]:
        """Block as a dense standalone graph plus old->new vertex map."""
        order = sorted(self.vertices)
        remap = {v: i + 1 for i, v in enumerate(order)}
        return Graph(len(order), [(remap[u], remap[v]) for u, v in self.edges]), remap


@dataclass
class BlockCutTree:
    """Blocks, cut-vertices and their incidence for one connected graph.

    blocks are sorted by minimum edge id; ``blocks_at[v]`` lists block
    indices in that same order, so b(v) orderings are reproducible.
    """

    blocks: list[Block]
    cut_vertices: list[int]
    blocks_at: dict[int, list[int]] = field(default_factory=dict)

    def arcs(self) -> list[tuple[int, int]]:
        """(block index, cut vertex) incidence arcs."""
        out = []
        for v in self.cut_vertices:
            for b in self.blocks_at[v]:
                out.append((b, v))
        return sorted(out)


def block_cut_tree(g: Graph) -> BlockCutTree:
    """Blocks and cut-vertices via iterative DFS with lowpoints.

    DFS starts at vertex 1 and scans neighbors in ascending order, so the
    result is deterministic.  Linear in n + m.
    """
    comps = connected_components(g)
    if len(comps) > 1:
        raise NotConnected(f"graph has {len(comps)} components")

    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    parent: dict[int, int | None] = {1: None}
    edge_stack: list[Edge] = []
    raw_blocks: list[list[Edge]] = []
    cut: set[int] = set()
    timer = 0

    # Frame: (vertex, neighbor index); tree-edge pops update lowpoints.
    disc[1] = low[1] = timer
    timer += 1
    stack: list[list[int]] = [[1, 0]]
    root_children = 0
    while stack:
        frame = stack[-1]
        v = frame[0]
        if frame[1] < len(g.adj[v]):
            w = g.adj[v][frame[1]]
            frame[1] += 1
            if w not in disc:
                parent[w] = v
                disc[w] = low[w] = timer
                timer += 1
                edge_stack.append(edge_id(v, w))
                stack.append([w, 0])
            elif w != parent[v] and disc[w] < disc[v]:
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
                if u == 1:
                    root_children += 1
                    if root_children > 1:
                        cut.add(u)
                else:
                    cut.add(u)

    blocks = []
    for edges in raw_blocks:
        vs = frozenset(x for e in edges for x in e)
        blocks.append(Block(vs, tuple(sorted(edges))))
    blocks.sort(key=lambda b: b.min_edge)

    blocks_at: dict[int, list[int]] = {v: [] for v in cut}
    for i, b in enumerate(blocks):
        for v in b.vertices:
            if v in cut:
                blocks_at[v].append(i)
    return BlockCutTree(blocks, sorted(cut), blocks_at)


def is_biconnected(g: Graph) -> bool:
    """True for a connected graph with no cut-vertex (single edge counts)."""
    try:
        t = block_cut_tree(g)
    except NotConnected:
        return False
    return len(t.blocks) == 1
