"""Arrangements of block embeddings around a cut-vertex.

Around a cut-vertex v, an embedding of the union of the incident blocks
(each with a fixed embedding) is exactly a planar cyclic merge of the
blocks' rotations at v.  This module ranks such merges into the tuple
<c_1..c_b, d_1..d_{b-2}> and back:

* c_j picks which edge of block j (in edge-id order) starts the block's
  counter-clockwise run,
* d_j steers the j-th merge: it addresses a cell of a fixed edge
  sequence S; the addressed edge either lies in a foreign partial
  embedding (insert right after it) or in the block's own partial
  embedding (wrap the block around block 2's nest).

The inverse direction replays the merges on flat far-endpoint links: the
growing rotation is a doubly linked list held in two dicts (next and
previous far endpoint), the partial embeddings are a union-find over block
indices in a parent list whose roots keep their partial's first and last
edge, and S and its fused pairs are far endpoints too.  A call allocates
no object per edge and merges in O(degree of v * alpha) steps.

The forward direction never replays merges: it rebuilds the merge history
from the nesting structure of block runs (an ordered tree), following
left siblings for ordinary inserts and precomputed jump pointers for
wraps, in O(degree of v) operations.

Edges at v are named by their far endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import BoundViolation, EmbeddingMismatch
from .graph import UnionFind


def arrangement_bounds(deltas: list[int]) -> tuple[list[int], list[int]]:
    """Bounds of <c_1..c_b> and <d_1..d_{b-2}> for blocks of these degrees at v.

    c_j ranges over block j's delta_j edges; d_j over delta_v - j cells,
    where delta_v is the total degree.
    """
    total = sum(deltas)
    return list(deltas), [total - j for j in range(1, len(deltas) - 1)]


def arrangement_count(deltas: list[int]) -> int:
    """E_v: product of block degrees times falling factors of the total."""
    c_bounds, d_bounds = arrangement_bounds(deltas)
    return math.prod(c_bounds) * math.prod(d_bounds)


@dataclass(frozen=True)
class BlocksAtV:
    """The fixed data of one cut-vertex v, built once from the graph.

    Blocks are indexed 1..b(v) by ascending minimum edge id at v.
    ``edges[j-1]`` lists block j's edges at v by far endpoint in edge-id
    order (at a fixed v, edge-id order is far-endpoint order), and
    ``block_of`` maps each far endpoint to its block.  ``deltas``,
    ``delta_v`` and the c/d bounds follow from these.  Per-call data (the
    block rotations, the merged rotation) is passed to phi_v_inverse and
    phi_v instead.
    """

    v: int
    edges: tuple[tuple[int, ...], ...]
    block_of: dict[int, int]
    deltas: tuple[int, ...]
    delta_v: int
    c_bounds: tuple[int, ...]
    d_bounds: tuple[int, ...]

    @classmethod
    def make(cls, v: int, blocks) -> "BlocksAtV":
        """From each block's far endpoints at v, in any order."""
        edges = tuple(sorted(tuple(sorted(ws)) for ws in blocks))
        if len(edges) < 2:
            raise EmbeddingMismatch(f"vertex {v} is incident to fewer than 2 blocks")
        deltas = tuple(len(ws) for ws in edges)
        c_bounds, d_bounds = arrangement_bounds(list(deltas))
        return cls(
            v, edges,
            {w: j for j, ws in enumerate(edges, start=1) for w in ws},
            deltas, sum(deltas), tuple(c_bounds), tuple(d_bounds),
        )

    @property
    def b(self) -> int:
        return len(self.edges)

    def bounds(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-element bounds of (c values, d values)."""
        return self.c_bounds, self.d_bounds


def phi_v_inverse(ctx: BlocksAtV, rotations, c_vals: list[int],
                  d_vals: list[int]) -> list[int]:
    """Merge the block embeddings as dictated by the tuple.

    ``rotations[j-1]`` is block j's counter-clockwise rotation at v (far
    endpoints), in ctx's block order; each must hold exactly block j's
    edges.  Returns the rotation at v (counter-clockwise neighbor list
    starting at first_1).

    The growing rotation is a doubly linked list over far endpoints (the
    ``nxt``/``prv`` dicts), and S and the fused pairs are far endpoints
    too, so a call allocates no object per edge.  The partial embeddings
    form a union-find over block indices (a parent list with union by
    rank); ``head``/``tail`` hold each root's first and last edge.  The
    merge runs in O(delta_v * alpha); checking that each rotation holds
    its block's edges sorts it once.
    """
    b = ctx.b
    # Block count, degrees and far endpoints in one comparison.
    if tuple(map(tuple, map(sorted, rotations))) != ctx.edges:
        raise EmbeddingMismatch("block rotations do not match the blocks at v")
    c_bounds, d_bounds = ctx.bounds()
    if len(c_vals) != len(c_bounds) or len(d_vals) != len(d_bounds):
        raise BoundViolation("tuple layout does not match b(v)")
    for c, limit in zip(c_vals, c_bounds):
        if not 0 <= c < limit:
            raise BoundViolation(f"c={c} outside 0..{limit - 1}")
    for d, limit in zip(d_vals, d_bounds):
        if not 0 <= d < limit:
            raise BoundViolation(f"d={d} outside 0..{limit - 1}")

    # Block runs first_j..last_j: each rotation turned to start at first_j
    # and linked in order; a missing nxt/prv entry ends the list.
    runs = []
    nxt: dict[int, int | None] = {}
    prv: dict[int, int | None] = {}
    head = [0]
    tail = [0]
    for rot, edges, c in zip(rotations, ctx.edges, c_vals):
        i = rot.index(edges[c])
        run = rot[i:] + rot[:i]
        runs.append(run)
        nxt.update(zip(run, run[1:]))
        prv.update(zip(run[1:], run))
        head.append(run[0])
        tail.append(run[-1])
    parent = list(range(b + 1))
    rank = [0] * (b + 1)
    block_of = ctx.block_of

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    # First merge: block 2 appended after last_1, no interleaving.
    first2 = head[2]
    last2 = tail[2]
    nxt[tail[1]] = first2
    prv[first2] = tail[1]
    tail[1] = last2
    parent[2] = 1
    rank[1] = 1

    # S: block 1, block 2, each block 3.. without its first edge, then the
    # first edges in decreasing block order.  Labels are positions in S.
    # Each merge hands one cell to first_j (cell d on an insert, e*'s cell
    # on a wrap).  S is kept as built all the same: the edge that held the
    # cell is in first_j's partial and resolves through the fused pair
    # (edge, first_j), so the partial and the anchor read from the cell do
    # not change, and a wrap reads the cell's original edge.
    s = runs[0] + runs[1]
    for run in runs[2:]:
        s += run[1:]
    s += [run[0] for run in reversed(runs[2:])]

    # "Fused" pairs (anchor, first_j): nothing may ever be inserted
    # between them, so an anchor resolves through them before splicing.
    fused: dict[int, int] = {}

    for j in range(3, b + 1):
        d = d_vals[j - 3]
        root_j = find(j)
        seg_h, seg_t = head[root_j], tail[root_j]
        root = find(block_of[s[d]])
        if root != root_j:
            # Case 1: insert block j's partial right after the addressed
            # edge, resolved through fused pairs.
            anchor = s[d]
            while anchor in fused:
                anchor = fused[anchor]
            after = nxt.get(anchor)
            nxt[anchor] = seg_h
            prv[seg_h] = anchor
            nxt[seg_t] = after
            if after is None:
                tail[root] = seg_t
            else:
                prv[after] = seg_t
            if anchor == last2:
                last2 = seg_t
        else:
            # Case 2: wrap block j around block 2's nest.  The original
            # edge at cell d splits the block's run: the tail part goes
            # right after last_2, the head part right before first_2.
            ed = s[d]
            if ed == seg_h:
                raise EmbeddingMismatch("wrap split lands on first_j")
            head_t = prv[ed]
            root = find(1)
            after = nxt.get(last2)
            nxt[last2] = ed
            prv[ed] = last2
            nxt[seg_t] = after
            if after is None:
                tail[root] = seg_t
            else:
                prv[after] = seg_t
            anchor = prv[first2]  # e*
            nxt[anchor] = seg_h
            prv[seg_h] = anchor
            nxt[head_t] = first2
            prv[first2] = head_t
        # j's partial joins the anchor's, which keeps its head and tail.
        h, t = head[root], tail[root]
        if rank[root] < rank[root_j]:
            root, root_j = root_j, root
        elif rank[root] == rank[root_j]:
            rank[root] += 1
        parent[root_j] = root
        head[root], tail[root] = h, t
        fused[anchor] = seg_h

    out = []
    w = head[find(1)]
    while w is not None:
        out.append(w)
        w = nxt.get(w)
    if len(out) != ctx.delta_v:
        raise EmbeddingMismatch("merge lost or duplicated edges")
    return out


# ---------------------------------------------------------------------------
# Forward direction
# ---------------------------------------------------------------------------


@dataclass
class _TNode:
    """Ordered-tree node: a block's run (component) or one edge."""

    block: int | None = None  # None for edge nodes
    w: int | None = None
    parent: "_TNode | None" = None
    children: list["_TNode"] = field(default_factory=list)
    slot: int = 0  # index within parent's children

    @property
    def is_edge(self) -> bool:
        return self.block is None

    def add(self, child: "_TNode") -> None:
        child.parent = self
        child.slot = len(self.children)
        self.children.append(child)

    def left_sibling(self) -> "_TNode | None":
        if self.parent is None or self.slot == 0:
            return None
        return self.parent.children[self.slot - 1]


class OpCounter:
    """Cheap instrument for the O(degree) forward-work contract."""

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops = 0

    def tick(self, k: int = 1) -> None:
        self.ops += k


def _find_first1(ctx: BlocksAtV, rotation: list[int], counter: OpCounter) -> int:
    """First edge of block 1 after a full pass over block 2's edges."""
    block_of = ctx.block_of
    n = len(rotation)
    i0 = rotation.index(ctx.edges[0][0])
    need = ctx.deltas[1]
    seen2: set[int] = set()
    for k in range(1, 2 * n + 1):
        w = rotation[(i0 + k) % n]
        blk = block_of[w]
        if blk == 2:
            seen2.add(w)
        elif blk == 1 and len(seen2) == need:
            counter.tick(k)
            return w
    counter.tick(2 * n)
    raise EmbeddingMismatch("could not locate first_1; rotation is not a valid merge")


def phi_v(ctx: BlocksAtV, rotation: list[int], counter: OpCounter | None = None
          ) -> tuple[list[int], list[int]]:
    """Tuple <c_1..c_b, d_1..d_{b-2}> of a merged rotation at v.

    Each block's rotation at v is read off the merged rotation itself, so
    it is the restriction of ``rotation`` to the block's edges.
    """
    if counter is None:
        counter = OpCounter()
    b = ctx.b
    block_of = ctx.block_of
    if len(rotation) != ctx.delta_v or block_of.keys() != set(rotation):
        raise EmbeddingMismatch("rotation does not cover the incident edges")

    first1 = _find_first1(ctx, rotation, counter)
    i0 = rotation.index(first1)
    walk = rotation[i0:] + rotation[:i0]

    # One pass splits the walk into block runs first_j..last_j.
    orders: list[list[int]] = [[] for _ in range(b)]
    for w in walk:
        orders[block_of[w] - 1].append(w)
    counter.tick(len(walk))
    firsts = {j: orders[j - 1][0] for j in range(1, b + 1)}
    c_vals = [edges.index(order[0]) for edges, order in zip(ctx.edges, orders)]
    if b == 2:
        return c_vals, []
    lasts = {j: orders[j - 1][-1] for j in range(1, b + 1)}

    # Labels: positions in S (block 1, block 2, blocks 3.. minus firsts,
    # then firsts in decreasing block order).
    ell: dict[int, int] = {}
    k = 0
    for j in (1, 2):
        for w in orders[j - 1]:
            ell[w] = k
            k += 1
    for j in range(3, b + 1):
        for w in orders[j - 1][1:]:
            ell[w] = k
            k += 1
    for j in range(b, 2, -1):
        ell[firsts[j]] = k
        k += 1

    # Ordered tree of nested block runs.
    root = _TNode(block=0)
    gamma = root
    comp_node: dict[int, _TNode] = {}
    counter.tick(len(walk))
    for w in walk:
        j = block_of[w]
        is_first = w == firsts[j]
        is_last = w == lasts[j]
        if is_first:
            node = _TNode(block=j)
            comp_node[j] = node
            gamma.add(node)
            node.add(_TNode(w=w))
            if not is_last:
                gamma = node
        elif is_last:
            if gamma.block != j:
                raise EmbeddingMismatch("block runs are not properly nested")
            gamma.add(_TNode(w=w))
            gamma = gamma.parent
        else:
            if gamma.block != j:
                raise EmbeddingMismatch("block runs are not properly nested")
            gamma.add(_TNode(w=w))
    if gamma is not root:
        raise EmbeddingMismatch("block runs are not properly nested")

    # The nest path: tree nodes whose span contains block 2's run.  A
    # block that wrapped around the nest either sits on this path itself
    # or reaches it through the chain of earlier blocks that rode on it.
    path: list[_TNode] = []
    node = comp_node[2]
    while node is not root:
        path.append(node)
        node = node.parent
    path.reverse()  # top-down, ending at comp_node[2]
    on_path = {nd.block for nd in path}
    path_index = {nd.block: t for t, nd in enumerate(path)}

    # Per path node, the edge its block's run resumes with right of the
    # nest: the first edge-node child to the right of the path child.
    ops = 0  # elementary steps from here on, ticked once at the end
    jump: dict[int, int] = {}
    for t, nd in enumerate(path):
        ops += 1
        if nd.block == 2:
            break
        pi_child = path[t + 1]
        for child in nd.children[pi_child.slot + 1:]:
            ops += 1
            if child.is_edge:
                jump[nd.block] = child.w
                break

    # Replay the merges in placement order (block index order), tracking
    # partial-embedding membership with a union-find keyed by block index.
    # Block j wrapped (case 2) exactly when its structural anchor already
    # belongs to block 1's partial embedding and its ride chain (its own
    # earlier riders, consecutive right siblings in its class) absorbs a
    # nest-path node; otherwise it was inserted after its anchor (case 1)
    # and d is the cell addressing the anchor's gap.
    uf = UnionFind(b + 1)
    uf.union(1, 2)
    fused: dict[int, int] = {}
    gap_owner: dict[int, int] = {w: w for w in walk}

    def resolve(w: int) -> int:
        while w in fused:
            w = fused[w]
        return w

    d_vals = []
    for j in range(3, b + 1):
        ops += 1
        nd = comp_node[j]
        sib = nd.left_sibling()
        if sib is None:
            raise EmbeddingMismatch(f"block {j} has no anchor")
        anchor = sib.w if sib.is_edge else lasts[sib.block]
        anchor_block = block_of[anchor]
        owner = gap_owner.get(anchor)
        if owner is None:
            raise EmbeddingMismatch(f"block {j} anchors a fused gap")

        wrapped = False
        if uf.find(anchor_block) == uf.find(1):
            if j in on_path:
                wrapped = True
            else:
                cur = nd
                while True:
                    ops += 1
                    nxt = (cur.parent.children[cur.slot + 1]
                           if cur.slot + 1 < len(cur.parent.children) else None)
                    if nxt is None or nxt.is_edge:
                        break
                    cur = nxt
                    if uf.find(cur.block) != uf.find(j):
                        continue  # foreign insertion, step over it
                    if cur.block in on_path:
                        wrapped = True
                        break
        if wrapped:
            # The wrap's resumption edge belongs to the deepest path node
            # among j and the straddling riders of its class.
            top = j if j in on_path else cur.block
            t = path_index[top]
            while (t + 1 < len(path) and path[t + 1].block != 2
                   and uf.find(path[t + 1].block) == uf.find(j)):
                ops += 1
                t += 1
            d_vals.append(ell[jump[path[t].block]])
            uf.union(1, j)
        else:
            d_vals.append(ell[owner])
            uf.union(anchor_block, j)
        # The merge retires the owning cell in favor of first_j, fuses the
        # (anchor, first_j) pair, and re-addresses the gap the cell now
        # reaches through the fusion chain.
        ell[firsts[j]] = ell[owner]
        fused[anchor] = firsts[j]
        del gap_owner[anchor]
        gap_owner[resolve(firsts[j])] = firsts[j]
    counter.tick(ops)

    for d, limit in zip(d_vals, ctx.d_bounds):
        if not 0 <= d < limit:
            raise EmbeddingMismatch(f"derived d={d} outside 0..{limit - 1}")
    return c_vals, d_vals
