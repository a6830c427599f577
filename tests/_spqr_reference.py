"""Reference copies of two earlier SPQR-tree builders and their search.

build_spqr is the builder on per-edge records: every skeleton edge was a
SkelEdge with a uid, every skeleton a _RawNode, and each split took one
split component at a time: the first valid one in ascending pair order,
components sorted by their minimum uid.

pair_build_spqr is the builder on twin-pair ids that followed it: a
skeleton under construction is its vertex set and a list of pair ids, and
a split pair is split once, every component that splits off there at
once.  Its split search, pair_find_split, runs one lowpoint DFS per
vertex of the skeleton, so each search is O(n*m); reference_find_split
is the all-pairs search before it, which pair_build_spqr takes in its
place.

lowpoint_dfs, which they all run, is the package's earlier lowpoint
search, kept verbatim: one component, from one root, on dicts.
graph.lowpoint_dfs now searches the whole graph at once, and
tests/test_graph.py compares the block-cut tree with one built on this.

The tree is unique, so the builder in planarrank.spqr, one path search
in linear time, must give the same tree as each of them node for node,
with indices aside.  Tests compare them by node identifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from planarrank.errors import NotBiconnected, NotPlanar, PlanarRankError
from planarrank.graph import Edge, Graph, edge_id
from planarrank.spqr import SpqrNode, SpqrTree


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


@dataclass(frozen=True)
class SkelEdge:
    """One edge record of a skeleton under construction; identity is the uid."""

    uid: int
    u: int
    v: int
    real: Edge | None = None  # real edge id, None for virtual edges
    pair: int | None = None  # twin-pair id shared with the adjacent skeleton

    @property
    def eid(self) -> Edge:
        return edge_id(self.u, self.v)


class _RawNode:
    """Mutable skeleton during decomposition."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: set[int], edges: list[SkelEdge]) -> None:
        self.vertices = vertices
        self.edges = edges


def _split_components(vertices: set[int], edges: list[SkelEdge], u: int, v: int):
    """Components of a skeleton with respect to the pair {u, v}.

    Each direct u-v edge is its own component; every connected component
    of the skeleton minus {u, v} forms one component together with its
    edges into u and v.
    """
    comps = []
    rest_edges = []
    for e in edges:
        if {e.u, e.v} == {u, v}:
            comps.append(({u, v}, [e]))
        else:
            rest_edges.append(e)
    others = [x for x in vertices if x not in (u, v)]
    if others:
        idx = {x: i for i, x in enumerate(others)}
        parent = list(range(len(others)))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in rest_edges:
            if e.u in idx and e.v in idx:
                ra, rb = find(idx[e.u]), find(idx[e.v])
                if ra != rb:
                    parent[ra] = rb
        groups: dict[int, tuple[set[int], list[SkelEdge]]] = {}
        for x in others:
            groups.setdefault(find(idx[x]), (set(), []))[0].add(x)
        for e in rest_edges:
            anchor = e.u if e.u in idx else e.v
            groups[find(idx[anchor])][1].append(e)
        for vs, es in groups.values():
            comps.append((vs | {u, v}, es))
    return comps


def _is_single_virtual(comp) -> bool:
    _, es = comp
    return len(es) == 1


def _find_split(node: _RawNode):
    """First valid split (u, v, component) in ascending pair order, or None.

    The skeleton holds virtual edges only: build_spqr moves every real
    edge into its Q-node before the first search.  A pair {u, v} has two
    or more split components only if v is a cut-vertex of the skeleton
    minus u or an edge joins u and v.  If only one edge joins them and v
    is no cut-vertex, one of the two components is that edge alone, which
    no valid split takes.  So for each u the pairs tried are those whose
    v is a cut-vertex of the skeleton minus u (every v if that is
    disconnected) or is joined to u by two or more edges.  One lowpoint
    DFS per u makes the search O(n*m), plus O(m) per pair tried.
    """
    weight: dict[Edge, int] = {}
    for e in node.edges:
        weight[e.eid] = weight.get(e.eid, 0) + 1
    adj: dict[int, list[int]] = {x: [] for x in node.vertices}
    for a, b in weight:
        adj[a].append(b)
        adj[b].append(a)
    order = sorted(node.vertices)
    for u in order[:-1]:
        rest = {x: [w for w in ws if w != u] for x, ws in adj.items() if x != u}
        reached, cut, _ = lowpoint_dfs(rest, order[-1])
        tried = {v for v in (cut if len(reached) == len(rest) else rest) if v > u}
        tried.update(w for w in adj[u] if w > u and weight[edge_id(u, w)] >= 2)
        for v in sorted(tried):
            comps = _split_components(node.vertices, node.edges, u, v)
            if len(comps) < 2:
                continue
            comps.sort(key=lambda c: min(e.uid for e in c[1]))
            for i, comp in enumerate(comps):
                if _is_single_virtual(comp):
                    continue
                if len(comps) == 2 and _is_single_virtual(comps[1 - i]):
                    continue
                return u, v, comp
    return None


def _classify(node: _RawNode) -> str:
    if len(node.vertices) == 2:
        reals = [e for e in node.edges if e.real is not None]
        if len(node.edges) == 2 and len(reals) == 1:
            return "Q"
        if len(node.edges) >= 3 and not reals:
            return "P"
        raise PlanarRankError("unclassifiable 2-vertex skeleton")
    degree: dict[int, int] = {x: 0 for x in node.vertices}
    for e in node.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    if all(d == 2 for d in degree.values()):
        return "S"
    return "R"


def build_spqr(g: Graph) -> SpqrTree:
    """Decompose a biconnected planar graph into its SPQR-tree.

    Raises NotBiconnected or NotPlanar for any other graph.  The ranker
    calls it once per distinct block graph, and a graph is planar exactly
    when its blocks are, so this is where the ranker tests planarity.  That
    one test's witness gives every S- and R-skeleton its first rotation.
    """
    if g.m == 1:
        return SpqrTree(g, [SpqrNode(0, "Q", min_edge=g.edges[0], poles=g.edges[0])], 0,
                        nx.PlanarEmbedding())

    uid_counter = 0

    def new_edge(u: int, v: int, real: Edge | None, pair: int | None) -> SkelEdge:
        nonlocal uid_counter
        uid_counter += 1
        return SkelEdge(uid_counter, u, v, real, pair)

    # Twin pair id -> its ends, which become the child's poles.  Pairs
    # with the same ends share one tuple, the graph's own edge where the
    # ends are adjacent, so a large tree holds few of them.
    ends: dict[int, Edge] = {}
    shared = {e: e for e in g.edges}

    def new_pair(u: int, v: int) -> int:
        e = edge_id(u, v)
        ends[len(ends) + 1] = shared.setdefault(e, e)
        return len(ends)

    reached, cut, _ = lowpoint_dfs(g.adj, 1)
    if len(reached) < g.n or cut:
        raise NotBiconnected("SPQR-trees require a biconnected graph")
    planar, witness = nx.check_planarity(nx.Graph(g.edges))
    if not planar:
        raise NotPlanar("graph admits no planar embedding")

    # Every real edge goes into its own Q-node, twinned with a virtual
    # edge of the root skeleton, so no skeleton the split search sees
    # holds a real edge.
    raw: list[_RawNode] = [_RawNode(set(g.vertices), [])]
    adjacency: dict[int, list[int]] = {}  # pair id -> [node index, node index]
    for u, v in g.edges:
        pair = new_pair(u, v)
        raw[0].edges.append(new_edge(u, v, None, pair))
        q_edges = [new_edge(u, v, (u, v), None), new_edge(u, v, None, pair)]
        raw.append(_RawNode({u, v}, q_edges))
        adjacency[pair] = [0, len(raw) - 1]

    work = [0]
    while work:
        idx = work.pop()
        node = raw[idx]
        # A cycle is an S-node already; splitting it further would only
        # cut it into triangles for the S-S merge to glue back, at one
        # split-pair search per triangle.
        while _classify(node) != "S":
            found = _find_split(node)
            if found is None:
                break
            u, v, (comp_vs, comp_es) = found
            pair = new_pair(u, v)
            taken = set(e.uid for e in comp_es)
            node.edges = [e for e in node.edges if e.uid not in taken]
            node.edges.append(new_edge(u, v, None, pair))
            node.vertices = {x for e in node.edges for x in (e.u, e.v)}
            child = _RawNode(set(comp_vs), comp_es + [new_edge(u, v, None, pair)])
            raw.append(child)
            cidx = len(raw) - 1
            for e in comp_es:
                if e.pair is not None:
                    members = adjacency[e.pair]
                    members[members.index(idx)] = cidx
            adjacency[pair] = [idx, cidx]
            work.append(cidx)

    kinds = [_classify(n) for n in raw]

    # Merge adjacent S-nodes into canonical form.  Two cycles glued along
    # a twin pair make a cycle, so a merge changes no node's kind and one
    # pass over the pairs finds them all.
    for pair, (a, b) in list(adjacency.items()):
        if not kinds[a] == kinds[b] == "S":
            continue
        na, nb = raw[a], raw[b]
        na.edges = [e for e in na.edges if e.pair != pair] + [
            e for e in nb.edges if e.pair != pair
        ]
        na.vertices = {x for e in na.edges for x in (e.u, e.v)}
        for e in nb.edges:
            if e.pair is not None and e.pair != pair:
                members = adjacency[e.pair]
                members[members.index(b)] = a
        del adjacency[pair]
        nb.edges = []

    # Freeze surviving raw nodes; the root is the Q-node of the minimum
    # edge.
    min_edge = g.edges[0]
    remap: dict[int, int] = {}
    nodes: list[SpqrNode] = []
    for i, n in enumerate(raw):
        if n.edges:
            remap[i] = len(nodes)
            if any(e.real == min_edge for e in n.edges):
                root = len(nodes)
            nodes.append(SpqrNode(len(nodes), kinds[i]))
    pair_nodes = {p: (remap[a], remap[b]) for p, (a, b) in adjacency.items()}

    # Orient from the root, which takes its real edge as poles; every
    # other node takes the ends of the twin pair toward its parent.
    incident: dict[int, list[int]] = {n.index: [] for n in nodes}
    for p, (a, b) in pair_nodes.items():
        incident[a].append(p)
        incident[b].append(p)

    order = [root]
    nodes[root].poles = min_edge
    seen = {root}
    qi = 0
    while qi < len(order):
        cur = order[qi]
        qi += 1
        for p in incident[cur]:
            a, b = pair_nodes[p]
            nxt = b if a == cur else a
            if nxt in seen:
                continue
            seen.add(nxt)
            nodes[nxt].parent = cur
            nodes[nxt].poles = ends[p]
            nodes[nxt].depth = nodes[cur].depth + 1
            nodes[cur].children.append(nxt)
            order.append(nxt)

    # e(mu): minimum real edge in the subtree, computed leaves-first.  A
    # Q-node's real edge is its poles.
    for idx in reversed(order):
        nd = nodes[idx]
        best = nd.poles if nd.kind == "Q" else None
        for c in nd.children:
            ce = nodes[c].min_edge
            if best is None or ce < best:
                best = ce
        nd.min_edge = best

    # Deterministic child order, which SpqrTree's preorder follows.
    for nd in nodes:
        nd.children.sort(key=lambda c: nodes[c].min_edge)
    return SpqrTree(g, nodes, root, witness)


# ---------------------------------------------------------------------------
# The builder on twin-pair ids
# ---------------------------------------------------------------------------


def pair_split_components(vertices: set[int], pairs: list[int], ends: dict[int, Edge],
                      u: int, v: int) -> list[tuple[set[int], list[int]]]:
    """Components of a skeleton with respect to the pair {u, v}, u < v.

    Each direct u-v edge is its own component; every connected component
    of the skeleton minus {u, v} forms one component together with its
    edges into u and v.
    """
    comps = []
    rest = []
    for p in pairs:
        if ends[p] == (u, v):
            comps.append(({u, v}, [p]))
        else:
            rest.append(p)
    others = [x for x in vertices if x not in (u, v)]
    if others:
        idx = {x: i for i, x in enumerate(others)}
        parent = list(range(len(others)))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for p in rest:
            a, b = ends[p]
            if a in idx and b in idx:
                ra, rb = find(idx[a]), find(idx[b])
                if ra != rb:
                    parent[ra] = rb
        groups: dict[int, tuple[set[int], list[int]]] = {}
        for x in others:
            groups.setdefault(find(idx[x]), (set(), []))[0].add(x)
        for p in rest:
            a, b = ends[p]
            groups[find(idx[a if a in idx else b])][1].append(p)
        for vs, ps in groups.values():
            comps.append((vs | {u, v}, ps))
    return comps


def pair_find_split(vertices: set[int], pairs: list[int], ends: dict[int, Edge]):
    """First split pair {u, v} in ascending order, with the components
    that split off there: (u, v, [(vertices, pairs), ...]), or None.

    Every skeleton edge is virtual: its real edge sits in a Q-node from
    the start.  A pair with three or more split components splits off
    every component that is not a single edge, which leaves a bond; with
    two, both must be more than an edge, and the one holding the smaller
    pair id splits off.  A pair {u, v} has two or more split components
    only if v is a cut-vertex of the skeleton minus u or an edge joins u
    and v.  If only one edge joins them and v is no cut-vertex, one of the
    two components is that edge alone, so no split is made.  So for each u
    the pairs tried are those whose v is a cut-vertex of the skeleton
    minus u (every v if that is disconnected) or is joined to u by two or
    more edges.  One lowpoint DFS per u makes the search O(n*m), plus O(m)
    per pair tried.
    """
    weight: dict[Edge, int] = {}
    for p in pairs:
        weight[ends[p]] = weight.get(ends[p], 0) + 1
    adj: dict[int, list[int]] = {x: [] for x in vertices}
    for a, b in weight:
        adj[a].append(b)
        adj[b].append(a)
    order = sorted(vertices)
    for u in order[:-1]:
        rest = {x: [w for w in ws if w != u] for x, ws in adj.items() if x != u}
        reached, cut, _ = lowpoint_dfs(rest, order[-1])
        tried = {v for v in (cut if len(reached) == len(rest) else rest) if v > u}
        tried.update(w for w in adj[u] if w > u and weight[edge_id(u, w)] >= 2)
        for v in sorted(tried):
            comps = pair_split_components(vertices, pairs, ends, u, v)
            split = sorted((c for c in comps if len(c[1]) > 1), key=lambda c: min(c[1]))
            if len(comps) > 2 and split:
                return u, v, split
            if len(comps) == 2 and len(split) == 2:
                return u, v, split[:1]
    return None


def reference_find_split(vertices, pairs, ends):
    """The search pair_find_split replaced: every vertex pair in ascending
    order, with the split components recomputed for each pair.  At three
    or more components every one that is more than a single edge splits
    off; at two, both must be, and the one with the smaller pair id does."""
    for u, v in sorted((a, b) for a in vertices for b in vertices if a < b):
        comps = pair_split_components(vertices, pairs, ends, u, v)
        comps.sort(key=lambda c: min(c[1]))
        big = [c for c in comps if len(c[1]) >= 2]
        if len(comps) >= 3 and big:
            return u, v, big
        if len(comps) == 2 and len(big) == 2:
            return u, v, big[:1]
    return None


def pair_classify(vertices: set[int], pairs: list[int], ends: dict[int, Edge]) -> str:
    """Kind of a skeleton that is not a Q-node."""
    if len(vertices) == 2:
        return "P"
    degree = dict.fromkeys(vertices, 0)
    for p in pairs:
        a, b = ends[p]
        degree[a] += 1
        degree[b] += 1
    return "S" if all(d == 2 for d in degree.values()) else "R"


def pair_build_spqr(g: Graph, find_split=pair_find_split) -> SpqrTree:
    """Decompose a biconnected planar graph into its SPQR-tree.

    Raises NotBiconnected or NotPlanar for any other graph.  The ranker
    calls it once per distinct block graph, and a graph is planar exactly
    when its blocks are, so this is where the ranker tests planarity.  That
    one test's witness gives every S- and R-skeleton its first rotation.

    A skeleton under construction is (vertices, twin-pair ids).  Pair i
    (1..m) is real edge i: raw node i is its Q-node, and raw node 0, the
    skeleton the splitting starts from, holds the other twin of every
    pair.  Each split makes one new pair per component it takes.
    """
    if g.m == 1:
        return SpqrTree(g, [SpqrNode(0, "Q", min_edge=g.edges[0], poles=g.edges[0])], 0,
                        nx.PlanarEmbedding())

    reached, cut, _ = lowpoint_dfs(g.adj, 1)
    if len(reached) < g.n or cut:
        raise NotBiconnected("SPQR-trees require a biconnected graph")
    planar, witness = nx.check_planarity(nx.Graph(g.edges))
    if not planar:
        raise NotPlanar("graph admits no planar embedding")

    # Twin pair id -> its ends, which become the child's poles, and the two
    # raw nodes whose skeletons hold its twins.  Pairs with the same ends
    # share one tuple, the graph's own edge where the ends are adjacent, so
    # a large tree holds few of them.
    ends: dict[int, Edge] = dict(enumerate(g.edges, 1))
    twin: dict[int, list[int]] = {p: [0, p] for p in ends}
    shared = {e: e for e in g.edges}
    raw: list[tuple[set[int], list[int]]] = [(set(g.vertices), list(ends))]
    raw += [(set(e), [p]) for p, e in ends.items()]

    work = [0]
    while work:
        idx = work.pop()
        vertices, pairs = raw[idx]
        # A cycle is an S-node already; splitting it further would only
        # cut it into triangles for the S-S merge to glue back, at one
        # split-pair search per triangle.
        while pair_classify(vertices, pairs, ends) != "S":
            found = find_split(vertices, pairs, ends)
            if found is None:
                break
            u, v, comps = found
            taken: set[int] = set()
            for comp_vertices, comp_pairs in comps:
                pair, cidx = len(ends) + 1, len(raw)
                ends[pair] = shared.setdefault((u, v), (u, v))
                twin[pair] = [idx, cidx]
                for p in comp_pairs:
                    members = twin[p]
                    members[members.index(idx)] = cidx
                raw.append((comp_vertices, comp_pairs + [pair]))
                work.append(cidx)
                taken.update(comp_pairs)
                pairs.append(pair)
            pairs = [p for p in pairs if p not in taken]
            vertices = {x for p in pairs for x in ends[p]}
            raw[idx] = vertices, pairs

    kinds = ["Q" if 0 < i <= g.m else pair_classify(vs, ps, ends) for i, (vs, ps) in enumerate(raw)]

    # Merge adjacent S-nodes into canonical form.  Two cycles glued along
    # a twin pair make a cycle, so a merge changes no node's kind and one
    # pass over the pairs finds them all.  Only the pair lists are read
    # from here on.
    for pair, (a, b) in list(twin.items()):
        if not kinds[a] == kinds[b] == "S":
            continue
        pairs = raw[a][1]
        pairs.remove(pair)
        for p in raw[b][1]:
            if p != pair:
                pairs.append(p)
                members = twin[p]
                members[members.index(b)] = a

    # Freeze breadth-first from the root, raw node 1, the Q-node of the
    # minimum edge, which takes its real edge as poles; every other node
    # takes the ends of the twin pair toward its parent.  Frozen node i is
    # raw node order[i].
    nodes = [SpqrNode(0, "Q", poles=ends[1])]
    order = [1]
    for i, cur in enumerate(order):
        up = order[nodes[i].parent] if i else None
        for p in raw[cur][1]:
            a, b = twin[p]
            nxt = b if a == cur else a
            if nxt == up:
                continue
            nodes[i].children.append(len(nodes))
            nodes.append(SpqrNode(len(nodes), kinds[nxt], parent=i,
                                  depth=nodes[i].depth + 1, poles=ends[p]))
            order.append(nxt)

    # e(mu): minimum real edge in the subtree, computed leaves-first, and
    # the deterministic child order SpqrTree's preorder follows.  A
    # Q-node's real edge is its poles.
    for nd in reversed(nodes):
        nd.children.sort(key=lambda c: nodes[c].min_edge)
        nd.min_edge = nd.poles if nd.kind == "Q" else nodes[nd.children[0]].min_edge
    return SpqrTree(g, nodes, 0, witness)
