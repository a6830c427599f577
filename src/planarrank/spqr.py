"""SPQR-trees: decomposition of a biconnected planar graph.

The split components come from one path search: Hopcroft and Tarjan,
"Dividing a graph into triconnected components" (SIAM J. Comput. 1973),
with the corrections of Gutwenger and Mutzel, "A linear time
implementation of SPQR-trees" (GD 2000).  The palm tree is
graph.lowpoint_dfs, the package's one lowpoint search, which also gives
the block-cut tree: preorder numbers, parents, lowpt1, lowpt2 and ND.
The path search directs each edge from numbers and parents, a bucket
sort orders the arcs by phi, a second DFS renumbers the vertices and
marks where each path starts, and the path search finds the type-1 and
type-2 separation pairs with its stack of triples (TSTACK) and pops each
split component's edges off its stack of edges (ESTACK).  A split
component is a bond (P), a triangle (S) or a triconnected graph (R).
Merging bonds with bonds and polygons with polygons gives the
triconnected components, which are unique, so the tree is.  Set-up is
linear in the size of the graph, and no search recurses.  The builder
keeps a component as a list of twin-pair ids, with each pair's ends kept
once: no record per edge.  Pair i (1..m) is real edge i, whose Q-node is
made once, at the start.

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
from .graph import Edge, Graph, PalmTree, edge_id, lowpoint_dfs


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


def _path_search(g: Graph, palm: PalmTree) -> tuple[list[tuple[str, list[int]]], list[Edge]]:
    """The split components of a biconnected graph g, by Hopcroft and
    Tarjan's path search with Gutwenger and Mutzel's corrections.

    The palm tree's arcs are ordered by phi (bucket sort), a second search
    renumbers the vertices so that the first child's subtree holds the
    highest numbers, and the path search, guided by the triples of TSTACK,
    pops the edges of each split component off ESTACK and leaves one new
    virtual edge in their place.  Edge ids are twin-pair ids: edge i
    (1..m) is g.edges[i - 1], and each virtual edge takes the next id.

    Returns each split component's kind ("P" for a bond of three edges,
    "S" for a triangle, "R" for a triconnected graph) and edge ids, and
    each edge id's ends.  Ends that are equal share one tuple, the
    graph's own edge where they are adjacent, so a large tree holds few.
    """
    n, m = g.n, g.m
    number, parent, low1, low2, nd = palm.number, palm.parent, palm.lowpt1, palm.lowpt2, palm.nd

    # Direct each edge by its ends' numbers: a tree arc from parent to
    # child, a frond from the higher number to the lower.  Edge id i
    # (1..m) is g.edges[i - 1].
    tail = [0] * (m + 1)
    head = [0] * (m + 1)
    tree = [False] * (m + 1)
    for e, (a, b) in enumerate(g.edges, 1):
        if number[a] > number[b]:
            a, b = b, a
        tree[e] = parent[b] == a
        tail[e], head[e] = (a, b) if tree[e] else (b, a)

    # An acceptable adjacency structure: the arcs leaving each vertex in
    # ascending phi, by bucket sort.
    buckets: list[list[int]] = [[] for _ in range(3 * n + 3)]
    for e in range(1, m + 1):
        w = head[e]
        if not tree[e]:
            buckets[3 * number[w] + 1].append(e)
        else:
            buckets[3 * low1[w] + (0 if low2[w] < number[tail[e]] else 2)].append(e)
    out: list[list[int]] = [[] for _ in range(n + 1)]
    for bucket in buckets:
        for e in bucket:
            out[tail[e]].append(e)

    # Renumber: a vertex's number is the highest still free minus its
    # subtree's size, so later children take lower numbers.  Mark the
    # first arc of every path, and collect the fronds into each vertex in
    # the order they are met: the first one's tail is the vertex's highpt.
    newnum = [0] * (n + 1)
    first = [False] * (m + 1)
    fronds_in: list[list[int]] = [[] for _ in range(n + 1)]
    free, new_path = n, True
    newnum[1] = 1
    stack = [iter(out[1])]
    while stack:
        for e in stack[-1]:
            if new_path:
                first[e], new_path = True, False
            w = head[e]
            if tree[e]:
                newnum[w] = free - nd[w] + 1
                stack.append(iter(out[w]))
                break
            fronds_in[w].append(e)
            new_path = True
        else:
            stack.pop()
            free -= 1

    # From here on a vertex is its new number.  The arcs leaving vertex x
    # fill slots start[x]..start[x + 1] - 1 of one flat list; a split may
    # put a virtual edge in a slot or mark the slot dead.
    at = [0] * (n + 1)
    renum = [0] * (n + 1)  # preorder number -> new number
    for v in range(1, n + 1):
        at[newnum[v]] = v
        renum[number[v]] = newnum[v]
    src = [0] + [newnum[tail[e]] for e in range(1, m + 1)]
    dst = [0] + [newnum[head[e]] for e in range(1, m + 1)]
    is_tree = tree[:]
    lowpt1, lowpt2, size, father, degree = ([0] * (n + 1) for _ in range(5))
    tree_arc = [0] * (n + 1)
    for v in range(1, n + 1):
        x = newnum[v]
        lowpt1[x], lowpt2[x], size[x] = renum[low1[v]], renum[low2[v]], nd[v]
        degree[x] = len(g.adj[v])
    for e in range(1, m + 1):
        if tree[e]:
            father[dst[e]], tree_arc[dst[e]] = src[e], e
    start = [0] * (n + 2)
    slots: list[int] = []
    for x in range(1, n + 1):
        start[x] = len(slots)
        slots += out[at[x]]
    start[n + 1] = len(slots)
    path_start = [first[e] for e in slots]
    slot_of = [0] * (m + 1)
    for s, e in enumerate(slots):
        slot_of[e] = s
    dead = [False] * len(slots)
    head_slot = start[:]  # lower bound of each vertex's first live slot

    # highpt lists, front last: entry i has value hval[i] while hlive[i].
    hval: list[int] = []
    hlive: list[bool] = []
    in_high = [-1] * (m + 1)
    highpt: list[list[int]] = [[] for _ in range(n + 1)]
    for w in range(1, n + 1):
        for e in reversed(fronds_in[w]):
            in_high[e] = len(hval)
            highpt[newnum[w]].append(len(hval))
            hval.append(src[e])
            hlive.append(True)

    def high(x: int) -> int:
        entries = highpt[x]
        while entries and not hlive[entries[-1]]:
            entries.pop()
        return hval[entries[-1]] if entries else 0

    def del_high(e: int) -> None:
        if in_high[e] >= 0:
            hlive[in_high[e]] = False
            in_high[e] = -1

    def new_edge(a: int, b: int) -> int:
        src.append(a)
        dst.append(b)
        is_tree.append(False)
        in_high.append(-1)
        slot_of.append(-1)
        return len(src) - 1

    def first_head(x: int) -> int:
        s = head_slot[x]
        while dead[s]:
            s += 1
        head_slot[x] = s
        return dst[slots[s]]

    comps: list[tuple[str, list[int]]] = []
    estack: list[int] = []
    EOS = (0, -1, 0)
    tstack = [EOS]  # triples (h, a, b), a run per path

    def start_path(a: int, h: int, b: int) -> None:
        """Push the triple (h, a, b) of a path whose lowest end is a; the
        triples with a higher a merge into it, and their highest h and
        the last b replace h and b."""
        if tstack[-1][1] > a:
            h = 0
            while tstack[-1][1] > a:
                top, _, b = tstack.pop()
                h = max(h, top)
        tstack.append((h, a, b))

    pos = start[:]
    child = [0] * (n + 1)  # the child whose search is under way
    outv = [0] * (n + 1)  # arcs of v not yet searched, this one included
    outv[1] = start[2] - start[1]
    path = [1]
    while path:
        v = path[-1]
        it = pos[v]
        w = child[v]
        if w:
            child[v] = 0
            estack.append(tree_arc[w])
            # Type-2 pairs {v, b}: TSTACK's triples (h, v, b), and v's
            # child of degree 2.  Each split leaves a virtual tree arc
            # v -> x in the slot of the arc v -> w.
            while v != 1 and (tstack[-1][1] == v or (degree[w] == 2 and first_head(w) > w)):
                h, a, b = tstack[-1]
                if a == v and father[b] == a:
                    tstack.pop()
                    continue
                e_ab = 0  # an edge a-b, which joins the new edge in a bond
                if degree[w] == 2 and first_head(w) > w:
                    # The path v -> w -> x makes a triangle with v-x.
                    e1 = estack.pop()
                    e2 = estack.pop()
                    dead[slot_of[e2]] = True
                    x = dst[e2]
                    ev = new_edge(v, x)
                    degree[x] -= 1
                    degree[v] -= 1
                    comps.append(("S", [e1, e2, ev]))
                    if estack and src[estack[-1]] == x and dst[estack[-1]] == v:
                        e_ab = estack.pop()
                        dead[slot_of[e_ab]] = True
                        del_high(e_ab)
                else:
                    # Every edge with both ends in a..h splits off.
                    tstack.pop()
                    comp = []
                    while True:
                        xy = estack[-1]
                        x, y = src[xy], dst[xy]
                        if not (a <= x <= h and a <= y <= h):
                            break
                        estack.pop()
                        if (x == a and y == b) or (x == b and y == a):
                            e_ab = xy
                            dead[slot_of[xy]] = True
                            del_high(xy)
                        else:
                            if slot_of[xy] != it:
                                dead[slot_of[xy]] = True
                                del_high(xy)
                            comp.append(xy)
                            degree[x] -= 1
                            degree[y] -= 1
                    ev = new_edge(v, b)
                    comp.append(ev)
                    comps.append(("R" if len(comp) > 3 else "S", comp))
                    x = b
                if e_ab:
                    e2 = new_edge(v, x)
                    comps.append(("P", [e_ab, ev, e2]))
                    ev = e2
                    degree[x] -= 1
                    degree[v] -= 1
                estack.append(ev)
                slots[it], slot_of[ev], is_tree[ev] = ev, it, True
                degree[x] += 1
                degree[v] += 1
                father[x], tree_arc[x] = v, ev
                w = x
            # A type-1 pair {lowpt1(w), v}: every edge with an end in w's
            # subtree splits off, and a virtual frond v -> lowpt1(w) takes
            # the place of the arc v -> w.
            lo = lowpt1[w]
            if lowpt2[w] >= v and lo < v and (father[v] != 1 or outv[v] >= 2):
                comp = []
                x = y = 0
                while estack:
                    xy = estack[-1]
                    x, y = src[xy], dst[xy]
                    if not (w <= x < w + size[w] or w <= y < w + size[w]):
                        break
                    comp.append(estack.pop())
                    del_high(xy)
                    degree[x] -= 1
                    degree[y] -= 1
                ev = new_edge(v, lo)
                comp.append(ev)
                comps.append(("R" if len(comp) > 3 else "S", comp))
                if (x == v and y == lo) or (x == lo and y == v):
                    eh = estack.pop()
                    if slot_of[eh] != it:
                        dead[slot_of[eh]] = True
                    e2 = new_edge(v, lo)
                    comps.append(("P", [eh, ev, e2]))
                    in_high[e2] = in_high[eh]
                    ev = e2
                    degree[v] -= 1
                    degree[lo] -= 1
                if lo != father[v]:
                    estack.append(ev)
                    slots[it], slot_of[ev] = ev, it
                    if in_high[ev] < 0 and high(lo) < v:
                        in_high[ev] = len(hval)
                        highpt[lo].append(len(hval))
                        hval.append(v)
                        hlive.append(True)
                    degree[v] += 1
                    degree[lo] += 1
                else:
                    # A bond with the tree arc into v, which the new edge
                    # replaces.
                    dead[it] = True
                    e2 = new_edge(lo, v)
                    eh = tree_arc[v]
                    comps.append(("P", [ev, e2, eh]))
                    tree_arc[v], is_tree[e2] = e2, True
                    slot_of[e2] = slot_of[eh]
                    slots[slot_of[eh]] = e2
            # Drop the triples of the path this arc began, and those whose
            # pair a frond from v passes over.
            if path_start[it]:
                while tstack[-1] is not EOS:
                    tstack.pop()
                tstack.pop()
            while (tstack[-1] is not EOS and tstack[-1][1] != v and tstack[-1][2] != v
                   and high(v) > tstack[-1][0]):
                tstack.pop()
            outv[v] -= 1
            it += 1
        end = start[v + 1]
        while it < end:
            e = slots[it]
            w = dst[e]
            if is_tree[e]:
                if path_start[it]:
                    start_path(lowpt1[w], w + size[w] - 1, v)
                    tstack.append(EOS)
                pos[v], child[v] = it, w
                outv[w] = start[w + 1] - start[w]
                path.append(w)
                break
            if path_start[it]:
                start_path(w, v, v)
            estack.append(e)
            it += 1
        else:
            path.pop()
    comps.append(("R" if len(estack) > 4 else "S", estack))
    shared = {e: e for e in g.edges}
    ends = [(0, 0), *g.edges] + [  # no pair has id 0
        shared.setdefault(e, e) for e in
        (edge_id(at[src[p]], at[dst[p]]) for p in range(m + 1, len(src)))]
    return comps, ends


def build_spqr(g: Graph) -> SpqrTree:
    """Decompose a biconnected planar graph into its SPQR-tree.

    Raises NotBiconnected or NotPlanar for any other graph.  The ranker
    calls it once per distinct block graph, and a graph is planar exactly
    when its blocks are, so this is where the ranker tests planarity.  That
    one test's witness gives every S- and R-skeleton its first rotation.

    Set-up is linear in the size of the graph.  One path search gives
    the split components, and each is a raw node: its kind and its
    twin-pair ids.  Raw node i (0..m-1) is the Q-node of pair i + 1, real
    edge i + 1, and every other pair joins two split components.  Merging
    bonds with bonds and polygons with polygons gives the triconnected
    components, which are the tree's P-, S- and R-nodes.
    """
    if g.m == 1:
        return SpqrTree(g, [SpqrNode(0, "Q", min_edge=g.edges[0], poles=g.edges[0])], 0,
                        nx.PlanarEmbedding())

    palm = lowpoint_dfs(g)
    if len(palm.blocks) > 1:  # every component holds an edge, so a block
        raise NotBiconnected("SPQR-trees require a biconnected graph")
    planar, witness = nx.check_planarity(nx.Graph(g.edges))
    if not planar:
        raise NotPlanar("graph admits no planar embedding")
    comps, ends = _path_search(g, palm)

    kinds = ["Q"] * g.m + [kind for kind, _ in comps]
    raw = [[p] for p in range(1, g.m + 1)] + [pairs for _, pairs in comps]
    # Twin pair id -> the two raw nodes that hold it.
    twin: list[list[int]] = [[p - 1] if p <= g.m else [] for p in range(len(ends))]
    for i in range(g.m, len(raw)):
        for p in raw[i]:
            twin[p].append(i)

    # Merge split components of one kind that share a virtual pair: a
    # bond glued to a bond is a bond, a polygon glued to a polygon a
    # polygon.  Each merged class keeps the pairs of its members that
    # lead out of it, on the node its union-find root names.
    owner = list(range(len(raw)))

    def find(i: int) -> int:
        while owner[i] != i:
            owner[i] = owner[owner[i]]
            i = owner[i]
        return i

    inner = [False] * len(ends)
    for p in range(g.m + 1, len(ends)):
        a, b = twin[p]
        if kinds[a] == kinds[b] != "R":
            owner[find(b)] = find(a)
            inner[p] = True
    merged: dict[int, list[int]] = {}
    for i in range(g.m, len(raw)):
        merged.setdefault(find(i), []).extend(p for p in raw[i] if not inner[p])
    for i, pairs in merged.items():
        raw[i] = pairs
    for p in range(1, len(ends)):
        twin[p] = [find(i) for i in twin[p]]

    # Freeze breadth-first from the root, raw node 0, the Q-node of the
    # minimum edge, which takes its real edge as poles; every other node
    # takes the ends of the twin pair toward its parent.  Frozen node i is
    # raw node order[i].
    nodes = [SpqrNode(0, "Q", poles=ends[1])]
    order = [0]
    for i, cur in enumerate(order):
        up = order[nodes[i].parent] if i else None
        for p in raw[cur]:
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
