"""SPQR-trees: decomposition of a biconnected planar graph.

The tree is produced by repeatedly splitting skeletons along split pairs
until every skeleton is a parallel bundle (P), a cycle (S), a
real-plus-virtual edge pair (Q) or a triconnected graph (R), then merging
adjacent S-nodes (and, defensively, adjacent P-nodes) into the canonical
form.  Every real edge ends up in exactly one Q-node; every virtual edge
has exactly one twin in the adjacent skeleton.

The tree is rooted at the Q-node of the graph's minimum edge.  Node
identifiers are (depth, minimum pertinent edge); "conventional order"
sorts P- and R-nodes by that identifier.

An SpqrTree stores its graph, its nodes (kind, skeleton edges, parent,
children, depth, minimum pertinent edge, preorder interval), the root, the
two nodes of every twin pair and the Q-node of every real edge.  It also
owns the data derived from that fixed structure, each computed on first
use and kept for the life of the tree: the conventional order, the first
embedding of every P- and R-skeleton, and the twin and real-edge maps
that compose_embedding expands virtual edges through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import networkx as nx

from .errors import IncompleteChoices, NotBiconnected, NotPlanar, PlanarRankError
from .graph import Edge, Graph, edge_id, is_biconnected


@dataclass(frozen=True)
class SkelEdge:
    """One edge record in a skeleton; identity is the uid."""

    uid: int
    u: int
    v: int
    real: Edge | None = None  # real edge id, None for virtual edges
    pair: int | None = None  # twin-pair id shared with the adjacent skeleton

    @property
    def eid(self) -> Edge:
        return edge_id(self.u, self.v)

    def other(self, x: int) -> int:
        return self.v if x == self.u else self.u


class _RawNode:
    """Mutable skeleton during decomposition."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: set[int], edges: list[SkelEdge]) -> None:
        self.vertices = vertices
        self.edges = edges


@dataclass
class SpqrNode:
    """Final tree node: kind, skeleton, tree links and identifiers."""

    index: int
    kind: str  # "S" | "P" | "Q" | "R"
    vertices: list[int]
    edges: list[SkelEdge]
    parent: int | None = None
    ref_pair: int | None = None  # pair id of the virtual edge toward the parent
    children: list[int] = field(default_factory=list)
    depth: int = 0
    min_edge: Edge | None = None  # e(mu): minimum real edge in the subtree
    tin: int = 0
    tout: int = 0

    @property
    def poles(self) -> tuple[int, int]:
        if self.ref_pair is None:  # root Q-node
            e = self.edges[0]
            return (min(e.u, e.v), max(e.u, e.v))
        e = next(x for x in self.edges if x.pair == self.ref_pair)
        return (min(e.u, e.v), max(e.u, e.v))

    def edge_of_pair(self, pair: int) -> SkelEdge:
        return next(x for x in self.edges if x.pair == pair)


class SpqrTree:
    """Rooted SPQR-tree of one biconnected planar graph."""

    def __init__(self, graph: Graph, nodes: list[SpqrNode], root: int,
                 pair_nodes: dict[int, tuple[int, int]]) -> None:
        self.graph = graph
        self.nodes = nodes
        self.root = root
        self.pair_nodes = pair_nodes  # pair id -> (node, node)
        self.qnode_of_edge: dict[Edge, int] = {}
        for nd in nodes:
            for e in nd.edges:
                if e.real is not None:
                    self.qnode_of_edge[e.real] = nd.index

    def p_nodes(self) -> list[SpqrNode]:
        return [n for n in self.nodes if n.kind == "P"]

    def r_nodes(self) -> list[SpqrNode]:
        return [n for n in self.nodes if n.kind == "R"]

    @cached_property
    def conventional(self) -> tuple[list[SpqrNode], list[SpqrNode]]:
        """P-nodes and R-nodes sorted by identifier (depth, min pertinent edge)."""
        key = lambda n: (n.depth, n.min_edge)
        return sorted(self.p_nodes(), key=key), sorted(self.r_nodes(), key=key)

    @cached_property
    def first_p(self) -> dict[int, SkeletonEmbedding]:
        """First embedding of every P-node, by node index."""
        return {nd.index: first_embedding_P(self, nd) for nd in self.p_nodes()}

    @cached_property
    def first_r(self) -> dict[int, dict[int, list[int]]]:
        """First embedding (uid rotation lists) of every R-node, by node index."""
        return {nd.index: first_embedding_R(self, nd) for nd in self.r_nodes()}

    @cached_property
    def twins(self) -> dict[int, tuple[int, int]]:
        """Parent-side virtual edge uid -> (child index, child-side twin uid)."""
        uid_at = {(nd.index, e.pair): e.uid
                  for nd in self.nodes for e in nd.edges if e.pair is not None}
        return {uid_at[(nd.parent, nd.ref_pair)]: (nd.index, uid_at[(nd.index, nd.ref_pair)])
                for nd in self.nodes if nd.parent is not None}

    @cached_property
    def real_edge(self) -> dict[int, SkelEdge]:
        """The real edge a skeleton edge uid stands for: the edge itself, or
        for a virtual edge toward a Q-node, that Q-node's real edge."""
        of_q = {nd.index: e for nd in self.nodes if nd.kind == "Q"
                for e in nd.edges if e.real is not None}
        out = {e.uid: e for e in of_q.values()}
        out.update((uid, of_q[c]) for uid, (c, _) in self.twins.items() if c in of_q)
        return out

    def child_via(self, node: SpqrNode, pair: int) -> int:
        a, b = self.pair_nodes[pair]
        return b if a == node.index else a

    def dump(self, relabel: dict[int, int] | None = None) -> str:
        """Debug text: one node per line, "kind depth min-edge [edges]"."""
        name = (lambda x: relabel[x]) if relabel else (lambda x: x)
        lines = []
        for nd in sorted(self.nodes, key=lambda n: (n.depth, n.min_edge)):
            edges = " ".join(
                f"{name(e.u)}-{name(e.v)}{'' if e.real else '*'}" for e in
                sorted(nd.edges, key=lambda e: (e.eid, e.uid))
            )
            a, b = nd.min_edge
            lines.append(f"{nd.kind} {nd.depth} {name(a)}-{name(b)} [{edges}]")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


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
    return len(es) == 1 and es[0].real is None


def _find_split(node: _RawNode):
    """First valid split (u, v, component) in deterministic order, or None."""
    for u, v in sorted(
        (a, b) for a in node.vertices for b in node.vertices if a < b
    ):
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
        if len(node.edges) == 1 and len(reals) == 1:
            return "Q"  # degenerate single-edge graph
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


def build_spqr(g: Graph, pretested: bool = False) -> SpqrTree:
    """Decompose a biconnected planar graph into its SPQR-tree.

    With pretested=True the caller vouches for biconnectivity and
    planarity (blocks of a planarity-checked graph qualify).
    """
    uid_counter = 0
    pair_counter = 0

    def new_edge(u: int, v: int, real: Edge | None, pair: int | None) -> SkelEdge:
        nonlocal uid_counter
        uid_counter += 1
        return SkelEdge(uid_counter, u, v, real, pair)

    if g.m == 1:
        (u, v), = g.edges
        nd = SpqrNode(0, "Q", [u, v], [new_edge(u, v, (u, v), None)])
        nd.min_edge = (u, v)
        nd.tin, nd.tout = 0, 0
        return SpqrTree(g, [nd], 0, {})

    if not pretested:
        if not is_biconnected(g):
            raise NotBiconnected("SPQR-trees require a biconnected graph")
        if not nx.check_planarity(nx.Graph(g.edges))[0]:
            raise NotPlanar("graph is not planar")

    if all(g.degree(v) == 2 for v in g.vertices):
        return _cycle_tree(g, new_edge)

    raw: list[_RawNode] = [
        _RawNode(set(g.vertices), [new_edge(u, v, (u, v), None) for u, v in g.edges])
    ]
    adjacency: dict[int, list[int]] = {}  # pair id -> [node index, node index]

    work = [0]
    while work:
        idx = work.pop()
        node = raw[idx]
        # Peel every real edge into its own Q-node first; skeletons with
        # three or more edges always admit these splits, and doing them in
        # bulk keeps the split-pair search off the common fast path.
        while len(node.edges) >= 3 and any(e.real for e in node.edges):
            e = next(x for x in node.edges if x.real)
            pair_counter += 1
            node.edges.remove(e)
            node.edges.append(new_edge(e.u, e.v, None, pair_counter))
            raw.append(_RawNode({e.u, e.v},
                                [e, new_edge(e.u, e.v, None, pair_counter)]))
            adjacency[pair_counter] = [idx, len(raw) - 1]
        while True:
            found = _find_split(node)
            if found is None:
                break
            u, v, (comp_vs, comp_es) = found
            nonlocal_pair = pair_counter = pair_counter + 1
            taken = set(e.uid for e in comp_es)
            node.edges = [e for e in node.edges if e.uid not in taken]
            node.edges.append(new_edge(u, v, None, nonlocal_pair))
            node.vertices = {x for e in node.edges for x in (e.u, e.v)}
            child = _RawNode(set(comp_vs), comp_es + [new_edge(u, v, None, nonlocal_pair)])
            raw.append(child)
            cidx = len(raw) - 1
            for e in comp_es:
                if e.pair is not None:
                    members = adjacency[e.pair]
                    members[members.index(idx)] = cidx
            adjacency[nonlocal_pair] = [idx, cidx]
            work.append(cidx)

    kinds = {i: _classify(n) for i, n in enumerate(raw) if n.edges}

    # Merge adjacent S-S (and defensively P-P) pairs into canonical form.
    changed = True
    while changed:
        changed = False
        for pair, (a, b) in list(adjacency.items()):
            if a == b or a not in kinds or b not in kinds:
                continue
            ka, kb = kinds[a], kinds[b]
            if not (ka == kb == "S" or ka == kb == "P"):
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
            del kinds[b]
            raw[b].edges = []
            kinds[a] = _classify(na)
            changed = True

    # Freeze surviving raw nodes.
    remap: dict[int, int] = {}
    nodes: list[SpqrNode] = []
    for i, n in enumerate(raw):
        if i in kinds:
            remap[i] = len(nodes)
            nodes.append(SpqrNode(len(nodes), kinds[i], sorted(n.vertices), n.edges))
    pair_nodes = {p: (remap[a], remap[b]) for p, (a, b) in adjacency.items()}

    # Root at the Q-node of the minimum edge, then orient.
    min_edge = g.edges[0]
    root = next(
        n.index for n in nodes
        if n.kind == "Q" and any(e.real == min_edge for e in n.edges)
    )
    incident: dict[int, list[int]] = {n.index: [] for n in nodes}
    for p, (a, b) in pair_nodes.items():
        incident[a].append(p)
        incident[b].append(p)

    order = [root]
    nodes[root].parent = None
    nodes[root].ref_pair = None
    nodes[root].depth = 0
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
            nodes[nxt].ref_pair = p
            nodes[nxt].depth = nodes[cur].depth + 1
            nodes[cur].children.append(nxt)
            order.append(nxt)

    # e(mu): minimum real edge in the subtree, computed leaves-first.
    for idx in reversed(order):
        nd = nodes[idx]
        best = min((e.real for e in nd.edges if e.real is not None), default=None)
        for c in nd.children:
            ce = nodes[c].min_edge
            if best is None or ce < best:
                best = ce
        nd.min_edge = best

    # Deterministic child order, then pertinent-subtree intervals.
    for nd in nodes:
        nd.children.sort(key=lambda c: nodes[c].min_edge)
    timer = 0
    stack = [(root, False)]
    while stack:
        idx, done = stack.pop()
        if done:
            nodes[idx].tout = timer
            continue
        nodes[idx].tin = timer
        timer += 1
        stack.append((idx, True))
        for c in reversed(nodes[idx].children):
            stack.append((c, False))

    return SpqrTree(g, nodes, root, pair_nodes)


def _cycle_tree(g: Graph, new_edge) -> SpqrTree:
    """Direct construction for a cycle: one S-node plus a Q per edge."""
    nodes: list[SpqrNode] = []
    pair_nodes: dict[int, tuple[int, int]] = {}
    s_edges = []
    s_index = len(g.edges)  # Q-nodes come first, then the S-node
    for pid, (u, v) in enumerate(g.edges, start=1):
        virt_q = new_edge(u, v, None, pid)
        nodes.append(SpqrNode(len(nodes), "Q", [u, v],
                              [new_edge(u, v, (u, v), None), virt_q]))
        s_edges.append(new_edge(u, v, None, pid))
        pair_nodes[pid] = (len(nodes) - 1, s_index)
    s_node = SpqrNode(s_index, "S", list(g.vertices), s_edges)
    nodes.append(s_node)

    root = 0  # Q-node of the minimum edge (edges are sorted)
    nodes[root].depth = 0
    nodes[root].min_edge = g.edges[0]
    s_node.parent = root
    s_node.ref_pair = 1
    s_node.depth = 1
    s_node.min_edge = g.edges[0]
    nodes[root].children = [s_index]
    for qi in range(1, len(g.edges)):
        nodes[qi].parent = s_index
        nodes[qi].ref_pair = qi + 1
        nodes[qi].depth = 2
        nodes[qi].min_edge = g.edges[qi]
        s_node.children.append(qi)
    s_node.children.sort(key=lambda c: nodes[c].min_edge)

    nodes[root].tin = 0
    s_node.tin = 1
    t = 2
    for c in s_node.children:
        nodes[c].tin = nodes[c].tout = t
        t += 1
    s_node.tout = t
    nodes[root].tout = t + 1
    return SpqrTree(g, nodes, root, pair_nodes)


def conventional_order(tree: SpqrTree) -> tuple[list[SpqrNode], list[SpqrNode]]:
    """P-nodes and R-nodes sorted by identifier (depth, min pertinent edge)."""
    return tree.conventional


# ---------------------------------------------------------------------------
# Skeleton embeddings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkeletonEmbedding:
    """Choice for one node: P carries an edge order, R carries a flip bit.

    A P order lists skeleton edge uids counter-clockwise around the lower
    pole, starting with the reference edge.
    """

    node: int
    order: tuple[int, ...] | None = None
    flip: int | None = None


def _p_children_sorted(tree: SpqrTree, node: SpqrNode) -> list[SkelEdge]:
    """Non-reference P edges sorted by their subtree identifier (d, e)."""
    out = []
    for e in node.edges:
        if e.pair == node.ref_pair:
            continue
        child = tree.child_via(node, e.pair)
        out.append((tree.nodes[child].depth, tree.nodes[child].min_edge, e))
    out.sort(key=lambda t: (t[0], t[1]))
    return [e for _, _, e in out]


def first_embedding_P(tree: SpqrTree, node: SpqrNode) -> SkeletonEmbedding:
    """Clockwise: reference edge then children by ascending identifier.

    Stored counter-clockwise, i.e. reference first, children reversed.
    """
    ref = node.edge_of_pair(node.ref_pair)
    ordered = _p_children_sorted(tree, node)
    return SkeletonEmbedding(
        node.index, order=(ref.uid, *[e.uid for e in reversed(ordered)])
    )


_R_ROTATION_CACHE: dict[tuple, dict[int, tuple[int, ...]]] = {}


def _r_skeleton_rotation(node: SpqrNode) -> dict[int, list[int]]:
    """One planar rotation of the (simple, triconnected) R-skeleton.

    Identical skeletons (same vertex-pair edge set) recur constantly in
    block-local coordinates, so the result is cached by shape.
    """
    key = tuple(sorted(e.eid for e in node.edges))
    hit = _R_ROTATION_CACHE.get(key)
    if hit is None:
        ok, emb = nx.check_planarity(nx.Graph([(e.u, e.v) for e in node.edges]))
        if not ok:
            raise NotPlanar(f"R-skeleton of node {node.index} is not planar")
        data = emb.get_data()
        hit = {v: tuple(data[v]) for v in sorted(node.vertices)}
        if len(_R_ROTATION_CACHE) < 4096:
            _R_ROTATION_CACHE[key] = hit
    return {v: list(nbrs) for v, nbrs in hit.items()}


def first_embedding_R(tree: SpqrTree, node: SpqrNode) -> dict[int, list[int]]:
    """The reflection selected by the pole rule, as uid rotation lists.

    At the minimum pole u, let (u,w1) be the minimum-id skeleton edge at u
    and w2 its neighbor in u's circular list with the smaller edge id; the
    first embedding has (u,w1) immediately before (u,w2) clockwise, i.e.
    w2 is the counter-clockwise predecessor of w1.
    """
    rot = _r_skeleton_rotation(node)
    u = min(node.poles)
    w1 = min(rot[u], key=lambda w: edge_id(u, w))
    i = rot[u].index(w1)
    a = rot[u][(i - 1) % len(rot[u])]  # ccw predecessor
    b = rot[u][(i + 1) % len(rot[u])]
    w2 = a if edge_id(u, a) < edge_id(u, b) else b
    if w2 != a:
        rot = {v: list(reversed(nbrs)) for v, nbrs in rot.items()}
    by_pair: dict[tuple[int, int], int] = {}
    for e in node.edges:
        by_pair[(e.u, e.v)] = e.uid
        by_pair[(e.v, e.u)] = e.uid
    return {v: [by_pair[(v, w)] for w in nbrs] for v, nbrs in rot.items()}


def skeleton_rotation(
    tree: SpqrTree, node: SpqrNode, choice: SkeletonEmbedding | None,
) -> dict[int, list[int]]:
    """Token (uid) rotation lists realizing the chosen skeleton embedding."""
    if node.kind == "Q":
        uids = [e.uid for e in node.edges]
        u, v = node.poles
        return {u: list(uids), v: list(uids)}
    if node.kind == "S":
        at: dict[int, list[int]] = {x: [] for x in node.vertices}
        for e in node.edges:
            at[e.u].append(e.uid)
            at[e.v].append(e.uid)
        return at
    if node.kind == "P":
        if choice is None or choice.order is None:
            raise IncompleteChoices(f"P-node {node.index} has no edge order")
        u, v = node.poles
        order = list(choice.order)
        return {u: order, v: [order[0], *reversed(order[1:])]}
    # R-node
    if choice is None or choice.flip is None:
        raise IncompleteChoices(f"R-node {node.index} has no flip bit")
    rot = tree.first_r[node.index]
    if choice.flip:
        return {x: list(reversed(lst)) for x, lst in rot.items()}
    return {x: list(lst) for x, lst in rot.items()}


def compose_embedding(
    tree: SpqrTree, choices: dict[int, SkeletonEmbedding],
) -> dict[int, list[int]]:
    """Rotation system of the block from per-skeleton choices.

    Twin virtual edges are substituted top-down: a vertex takes the
    rotation of the highest skeleton holding it, and each virtual edge
    toward a child is replaced by the child's rotation at that vertex,
    read counter-clockwise from just after the child's own twin.
    """
    # Q-nodes below the root are reached through real_edge instead.
    rots = {nd.index: skeleton_rotation(tree, nd, choices.get(nd.index))
            for nd in tree.nodes if nd.kind != "Q" or nd.parent is None}
    real_edge = tree.real_edge
    twins = tree.twins

    out: dict[int, list[int]] = {}
    for idx, rot in rots.items():
        nd = tree.nodes[idx]
        poles = nd.poles if nd.parent is not None else ()
        for x, seq in rot.items():
            if x in poles:
                continue  # x lives higher up, in the parent's skeleton
            nbrs: list[int] = []
            stack = [iter(seq)]
            while stack:
                for uid in stack[-1]:
                    e = real_edge.get(uid)
                    if e is not None:
                        nbrs.append(e.other(x))
                        continue
                    c, cu = twins[uid]
                    clist = rots[c][x]
                    j = clist.index(cu)
                    stack.append(iter(clist[j + 1:] + clist[:j]))
                    break
                else:
                    stack.pop()
            out[x] = nbrs
    return out
