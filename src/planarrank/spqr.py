"""SPQR-trees: decomposition of a biconnected planar graph.

The tree is produced by repeatedly splitting skeletons along split pairs
until every skeleton is a parallel bundle (P), a cycle (S) or a
triconnected graph (R), then merging adjacent S-nodes into the canonical
form.  A skeleton under construction is its vertex set and a list of
twin-pair ids, with each pair's ends kept once: no record per edge.  Pair
i (1..m) is real edge i, whose Q-node is made once, at the start, so no
skeleton the split search sees holds a real edge.  A cycle skeleton is
never split: it already is an S-node.  A split pair {u, v} is split once:
with three or more split components, every one that is not a single edge
splits off together and leaves a bond (P); with two, the one holding the
smaller pair id splits off.  Adjacent P-nodes cannot occur, because each
component split off is one connected component of the skeleton minus
{u, v}, so the child side of a twin pair never gains a second u-v edge.
The tree is unique (Gutwenger and Mutzel, "A linear time implementation
of SPQR-trees", GD 2000), so the order of the splits does not change it.
Each split is made at the first split pair in ascending order; the search
tries only the pairs {u, v} where v is a cut-vertex of the skeleton minus
u or two edges join them, one lowpoint DFS per u, so each search is
O(n*m).  The linear-time decomposition of Hopcroft and Tarjan is not
used.

The tree is rooted at the Q-node of the graph's minimum edge.  Node
identifiers are (depth, minimum pertinent edge); "conventional order"
sorts P- and R-nodes by that identifier.

The builder hands over the nodes (kind, parent, children sorted by
minimum edge, depth, minimum pertinent edge, poles), the root and the
witness of the block's one planarity test, a planar embedding of the
block.  A node keeps no skeleton.  Every real edge sits in a two-edge
Q-node, so each skeleton edge of a P-, S- or R-node is virtual and leads
to the parent or to one child, and its ends are that neighbour's poles:
SpqrTree.skeleton lists them, child i's edge as name i and the reference
edge as name -1.  A tree is complete when built: SpqrTree derives, once,
the preorder intervals, each real edge's Q-node tin, the conventional
order, each P- and R-node's first embedding, and the fixed rotation of
every S-skeleton and first reflection of every R-skeleton (first_r),
which the witness gives.  One rule, SpqrTree.induced, places skeleton
edges at a vertex: on the witness here, and in chi on the rotation
being ranked.

A tree depends only on its graph, so EmbeddingRanker shares one tree
among all blocks with the same block-local graph.  A tree is read-only
once built; nothing that belongs to one block is stored on it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import networkx as nx

from .errors import NotBiconnected, NotPlanar
from .graph import Edge, Graph, edge_id, lowpoint_dfs


@dataclass
class SpqrNode:
    """Final tree node: kind, tree links, identifiers and poles.

    The skeleton is not stored: SpqrTree.skeleton reads it off the poles
    of the node and of its children.
    """

    index: int
    kind: str  # "S" | "P" | "Q" | "R"
    parent: int | None = None
    children: list[int] = field(default_factory=list)
    depth: int = 0
    min_edge: Edge | None = None  # e(mu): minimum real edge in the subtree
    tin: int = 0
    tout: int = 0
    # The reference edge's ends, lower first; the root Q-node has no
    # reference edge and takes its real edge's.  A Q-node's poles are its
    # real edge.  chi reads a P- or R-node at the lower pole.
    poles: tuple[int, int] = (0, 0)
    # The first embedding, which chi and chi_inverse read; set by SpqrTree.
    first: tuple[int, ...] = ()


class SpqrTree:
    """Rooted SPQR-tree of one biconnected planar graph, complete when built."""

    def __init__(self, graph: Graph, nodes: list[SpqrNode], root: int,
                 witness: nx.PlanarEmbedding) -> None:
        """Derive every fact the tree owns from the built nodes and the
        witness, a planar embedding of the graph.

        chi and chi_inverse read each P- and R-node in conventional order:
        first is the first embedding in skeleton() names, an R-node's
        order at the lower pole and for a P-node each child's position
        after the reference edge.  A P-node's first embedding is the
        reference edge, then the children by descending identifier,
        counter-clockwise around the lower pole; they share one depth, so
        that is descending preorder rank.  Ints and tuples of ints only,
        which the garbage collector stops tracking right away.
        """
        self.graph = graph
        self.nodes = nodes
        self.root = root
        # The only numbering of the preorder intervals: tin..tout are the
        # preorder indices of the node's subtree, both inclusive.
        timer = 0
        stack = [(root, False)]
        while stack:
            idx, done = stack.pop()
            if done:
                nodes[idx].tout = timer - 1
                continue
            nodes[idx].tin = timer
            timer += 1
            stack.append((idx, True))
            stack.extend((c, False) for c in reversed(nodes[idx].children))
        # Real edge -> tin of its Q-node.
        self.q_tin: dict[Edge, int] = {nd.poles: nd.tin for nd in nodes if nd.kind == "Q"}
        # P-nodes and R-nodes sorted by identifier (depth, min pertinent edge).
        key = lambda n: (n.depth, n.min_edge)
        self.conventional = (sorted(self.p_nodes(), key=key), sorted(self.r_nodes(), key=key))
        for nd in self.conventional[0]:
            nd.first = tuple(range(len(nd.children) - 1, -1, -1))

        # Each vertex's real edges, as the tins of their Q-nodes ascending.
        witnessed = {x: self.placement(x, nbrs) for x, nbrs in witness.get_data().items()}
        self.tins = {x: tuple(sorted(place)) for x, place in witnessed.items()}
        # Read-only lists of skeleton names by node index: every S-node's
        # one rotation and every R-node's first reflection.
        self.first_r: dict[int, dict[int, list[int]]] = {
            nd.index: self._first_rotation(nd, witnessed)
            for nd in nodes if nd.kind in ("S", "R")}

    def placement(self, x: int, nbrs) -> dict[int, int]:
        """Position of each real edge at x, by its Q-node's tin, in the
        rotation nbrs at x."""
        return {self.q_tin[edge_id(x, w)]: i for i, w in enumerate(nbrs)}

    def induced(self, nd: SpqrNode, x: int, names, place: dict[int, int]) -> list[int]:
        """The named skeleton edges of nd at x, in the cyclic order that a
        planar rotation with this placement at x induces.  Each is placed
        by one real edge of its run there: for the edge toward a child, the
        first of x's tins inside the child's interval, and for the
        reference edge, one outside the node's."""
        nodes, ts = self.nodes, self.tins[x]

        def position(name: int) -> int:
            if name >= 0:
                t = ts[bisect_left(ts, nodes[nd.children[name]].tin)]
            else:
                t = ts[0] if ts[0] < nd.tin else ts[bisect_right(ts, nd.tout)]
            return place[t]

        return sorted(names, key=position)

    def _first_rotation(self, nd: SpqrNode,
                        witnessed: dict[int, dict[int, int]]) -> dict[int, list[int]]:
        """The rotation the witness induces on an S- or R-skeleton, an
        R-node's reflected by the pole rule and also kept as its first.

        Each skeleton vertex's names are placed by induced, on the
        witness's placement at that vertex.  Pole rule: at the lower pole
        u, let (u,w1) be the minimum-id skeleton edge and w2 its neighbor
        in u's circular list with the smaller edge id; the first embedding
        has w2 as the counter-clockwise predecessor of w1.  An R-skeleton
        is simple, so its ends name each edge.
        """
        at: dict[int, list[int]] = {}
        for i, c in enumerate(nd.children):
            for x in self.nodes[c].poles:
                at.setdefault(x, []).append(i)
        for x in nd.poles:
            at.setdefault(x, []).append(-1)
        rot = {x: self.induced(nd, x, names, witnessed[x]) for x, names in at.items()}
        if nd.kind == "R":
            skel = self.skeleton(nd)
            names = rot[nd.poles[0]]
            i = names.index(min(names, key=skel.__getitem__))
            if skel[names[i - 1]] > skel[names[(i + 1) % len(names)]]:
                rot = {x: lst[::-1] for x, lst in rot.items()}
            nd.first = tuple(rot[nd.poles[0]])
        return rot

    def p_nodes(self) -> list[SpqrNode]:
        return [n for n in self.nodes if n.kind == "P"]

    def r_nodes(self) -> list[SpqrNode]:
        return [n for n in self.nodes if n.kind == "R"]

    def skeleton(self, nd: SpqrNode) -> list[Edge]:
        """The ends of the node's skeleton edges by name: the edge toward
        child i at index i, then the reference edge, so that name -1
        indexes it.  At the root Q-node that last entry is its real edge;
        any other Q-node's real edge has its reference edge's ends and is
        not listed."""
        nodes = self.nodes
        return [*(nodes[c].poles for c in nd.children), nd.poles]

    def dump(self, relabel: tuple[int, ...] | dict[int, int] | None = None) -> str:
        """Debug text: one node per line, "kind depth min-edge [edges]"."""
        name = (lambda x: relabel[x]) if relabel else (lambda x: x)
        lines = []
        for nd in sorted(self.nodes, key=lambda n: (n.depth, n.min_edge)):
            virtual = self.skeleton(nd)
            if nd.parent is None:
                virtual.pop()  # the root's last skeleton edge is its real edge
            real = [nd.poles] if nd.kind == "Q" else []
            edges = " ".join(
                f"{name(u)}-{name(v)}{mark}" for (u, v), mark in
                sorted([(e, "") for e in real] + [(e, "*") for e in virtual])
            )
            a, b = nd.min_edge
            lines.append(f"{nd.kind} {nd.depth} {name(a)}-{name(b)} [{edges}]")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _split_components(vertices: set[int], pairs: list[int], ends: dict[int, Edge],
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


def _find_split(vertices: set[int], pairs: list[int], ends: dict[int, Edge]):
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
            comps = _split_components(vertices, pairs, ends, u, v)
            split = sorted((c for c in comps if len(c[1]) > 1), key=lambda c: min(c[1]))
            if len(comps) > 2 and split:
                return u, v, split
            if len(comps) == 2 and len(split) == 2:
                return u, v, split[:1]
    return None


def _classify(vertices: set[int], pairs: list[int], ends: dict[int, Edge]) -> str:
    """Kind of a skeleton that is not a Q-node."""
    if len(vertices) == 2:
        return "P"
    degree = dict.fromkeys(vertices, 0)
    for p in pairs:
        a, b = ends[p]
        degree[a] += 1
        degree[b] += 1
    return "S" if all(d == 2 for d in degree.values()) else "R"


def build_spqr(g: Graph) -> SpqrTree:
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
        while _classify(vertices, pairs, ends) != "S":
            found = _find_split(vertices, pairs, ends)
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

    kinds = ["Q" if 0 < i <= g.m else _classify(vs, ps, ends) for i, (vs, ps) in enumerate(raw)]

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


# ---------------------------------------------------------------------------
# Skeleton embeddings
# ---------------------------------------------------------------------------


def skeleton_rotation(
    tree: SpqrTree, node: SpqrNode,
    orders: dict[int, tuple[int, ...]], flips: dict[int, int],
) -> dict[int, list[int]]:
    """Rotation lists of skeleton names realizing the chosen skeleton
    embedding; read-only, as they may be the tree's own.

    A P-node takes its order from orders, counter-clockwise around the
    lower pole, reference edge first; an R-node takes its flip bit from
    flips; an S-node has one rotation.
    """
    if node.kind == "Q":
        u, v = node.poles
        names = [*range(len(node.children)), -1]  # skeleton()'s order
        return {u: names, v: names}
    if node.kind == "P":
        u, v = node.poles
        order = orders[node.index]
        return {u: order, v: [order[0], *reversed(order[1:])]}
    rot = tree.first_r[node.index]
    if node.kind == "R" and flips[node.index]:
        return {x: lst[::-1] for x, lst in rot.items()}
    return rot


def compose_embedding(
    tree: SpqrTree, orders: dict[int, tuple[int, ...]], flips: dict[int, int],
) -> dict[int, list[int]]:
    """Rotation system of the block from every P-node's edge order and
    every R-node's flip bit, by node index.

    Twin virtual edges are substituted top-down: a vertex takes the
    rotation of the highest skeleton holding it, and each name i is
    replaced by child i's rotation at that vertex, read counter-clockwise
    from just after the child's reference edge.  A Q-child gives the far
    end of its real edge, and so does name -1 at the root Q-node.
    """
    nodes = tree.nodes
    # Q-nodes below the root are read off their poles instead.
    rots = {nd.index: skeleton_rotation(tree, nd, orders, flips)
            for nd in nodes if nd.kind != "Q" or nd.parent is None}

    out: dict[int, list[int]] = {}
    for idx, rot in rots.items():
        nd = nodes[idx]
        poles = nd.poles if nd.parent is not None else ()
        for x, seq in rot.items():
            if x in poles:
                continue  # x lives higher up, in the parent's skeleton
            nbrs: list[int] = []
            stack = [(nd, iter(seq))]
            while stack:
                at, names = stack[-1]
                for i in names:
                    c = at if i < 0 else nodes[at.children[i]]
                    if i < 0 or c.kind == "Q":  # a real edge
                        a, b = c.poles
                        nbrs.append(b if x == a else a)
                        continue
                    clist = rots[c.index][x]
                    j = clist.index(-1)
                    stack.append((c, iter(clist[j + 1:] + clist[:j])))
                    break
                else:
                    stack.pop()
            out[x] = nbrs
    return out
