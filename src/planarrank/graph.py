"""Simple undirected graphs and their connectivity decomposition.

Vertices are the dense integers 1..n.  An edge is the pair (u, v) with
u < v; pairs compare lexicographically, which fixes every "minimum edge"
tie-break used by the ranking layers.

One lowpoint search, lowpoint_dfs (Hopcroft and Tarjan, "Efficient
algorithms for graph manipulation", CACM 1973), gives the blocks and
cut-vertices that block_cut_tree reads, the palm tree (numbers,
parents, lowpt1, lowpt2, ND) from which spqr.build_spqr starts its path
search, and the components that connected_components returns: a
graph's first search fills them in, and no other search finds them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

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

    __slots__ = ("n", "edges", "adj", "_components", "_text")

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
        self._text: tuple[DecimalText, tuple[int, ...]] | None = None

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

    lowpoint_dfs owns them: its forest has one tree per component, rooted
    at the component's smallest vertex, and it fills g._components the
    first time it runs on g.  A graph never searched is searched here.
    """
    if g._components is None:
        lowpoint_dfs(g)
    return list(g._components)


class DecimalText(dict):
    """The JSON text of ints, keyed by int.  vertex_text fills it with a
    graph's vertex ids; any other int is written by json.dumps when it is
    looked up, and not kept, so an id outside 1..n is written exactly as
    well.
    """

    __slots__ = ()

    def __missing__(self, k) -> str:
        return json.dumps(k)


def vertex_text(g: Graph) -> tuple[DecimalText, tuple[int, ...]]:
    """The decimal text of every vertex id, and the vertices in the order
    of that text (1, 10, 11, ..., 2, ...): the key order that json.dumps
    with sort_keys=True gives a dict keyed by vertex ids.

    Both depend only on the graph, which is immutable, so the table is
    built once per graph, when an embedding of it is first written.
    """
    if g._text is None:
        text = DecimalText(zip(g.adj, map(str, g.adj)))
        g._text = (text, tuple(sorted(g.adj, key=text.__getitem__)))
    return g._text


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


class PalmTree(NamedTuple):
    """One depth-first search over a whole graph, as a forest of palm
    trees.  Lists are indexed by vertex; index 0 is unused.

    number is the preorder number, from 1 across the whole forest, and
    parent is 0 at a root.  lowpt1 and lowpt2 are the lowest and second
    lowest of the vertex's own number and the numbers that fronds from
    its subtree reach, and nd is the size of that subtree.  blocks lists
    the edges of each biconnected component, and cut_vertices the
    vertices that separate two of them.
    """

    number: list[int]
    parent: list[int]
    lowpt1: list[int]
    lowpt2: list[int]
    nd: list[int]
    blocks: list[list[Edge]]
    cut_vertices: set[int]


def lowpoint_dfs(g: Graph) -> PalmTree:
    """Hopcroft and Tarjan's lowpoint search over every component of g.

    Each tree is rooted at its component's smallest vertex, and each
    vertex scans its neighbors in ascending order, so the search is
    deterministic.  A block's edges are popped off the stack of edges
    when its lowest vertex finishes the child that opened it.  Iterative
    and linear in n + m.  No edge is oriented here: a tree arc runs from
    parent to child, and a frond from the higher number to the lower.
    The first search of g also fills g._components (connected_components).
    """
    adj, n = g.adj, g.n
    number = [0] * (n + 1)
    parent = [0] * (n + 1)
    low1 = [0] * (n + 1)
    low2 = [0] * (n + 1)
    nd = [1] * (n + 1)
    order = [0] * (n + 1)  # the vertex of each number
    roots: list[int] = []
    blocks: list[list[Edge]] = []
    cut: set[int] = set()
    estack: list[Edge] = []
    count = 0
    for root in g.vertices:
        if number[root]:
            continue
        count += 1
        number[root] = low1[root] = low2[root] = count
        order[count] = root
        roots.append(root)
        # Frame: (vertex, iterator over its neighbors, the estack slot of
        # the tree arc into it).
        stack = [(root, iter(adj[root]), 0)]
        while stack:
            v, nbrs, at = stack[-1]
            for w in nbrs:
                x = number[w]
                if not x:
                    count += 1
                    number[w] = low1[w] = low2[w] = count
                    order[count] = w
                    parent[w] = v
                    stack.append((w, iter(adj[w]), len(estack)))
                    estack.append((v, w) if v < w else (w, v))
                    break
                if x < number[v] and w != parent[v]:  # a frond to an ancestor
                    estack.append((w, v) if w < v else (v, w))
                    if x < low1[v]:
                        low2[v], low1[v] = low1[v], x
                    elif low1[v] < x < low2[v]:
                        low2[v] = x
            else:
                stack.pop()
                u = parent[v]
                if not u:
                    continue
                lo1, lo2 = low1[v], low2[v]
                if lo1 < low1[u]:
                    low2[u] = min(low1[u], lo2)
                    low1[u] = lo1
                elif lo1 == low1[u]:
                    low2[u] = min(low2[u], lo2)
                else:
                    low2[u] = min(low2[u], lo1)
                if lo1 >= number[u]:
                    # u separates v's subtree from the rest: pop one block.
                    # The root does so for every child, and is a
                    # cut-vertex from its second on (nd holds the
                    # subtrees of the children before v).
                    blocks.append(estack[at:])
                    del estack[at:]
                    if u != root or nd[u] > 1:
                        cut.add(u)
                nd[u] += nd[v]
    if g._components is None:  # root r's tree: numbers number[r] .. + nd[r] - 1
        g._components = [(i, frozenset(order[number[r]:number[r] + nd[r]]))
                         for i, r in enumerate(roots, 1)]
    return PalmTree(number, parent, low1, low2, nd, blocks, cut)


def block_cut_tree(g: Graph) -> BlockCutTree:
    """Blocks and cut-vertices of every component, read off lowpoint_dfs.
    Linear in n + m.
    """
    palm = lowpoint_dfs(g)
    blocks = [Block(frozenset(chain.from_iterable(edges)), tuple(sorted(edges)))
              for edges in palm.blocks]
    blocks.sort(key=lambda b: b.min_edge)
    return BlockCutTree(blocks, sorted(palm.cut_vertices))
