"""Arrangements of block embeddings around a cut-vertex.

Around a cut-vertex v, an embedding of the union of the incident blocks
(each with a fixed embedding) is exactly a planar cyclic merge of the
blocks' rotations at v.  This module ranks such merges into the tuple
<c_1..c_b, d_1..d_{b-2}> and back:

* c_j picks which edge of block j (in edge-id order) starts the block's
  counter-clockwise run,
* d_j steers the j-th merge: it addresses a cell of a fixed, mutating
  edge sequence S; the addressed edge either lies in a foreign partial
  embedding (insert right after it) or in the block's own partial
  embedding (wrap the block around block 2's nest).

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
from .graph import UnionFind, edge_id


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
    """The fixed data of one cut-vertex: per-block rotations at v.

    Block rotations are counter-clockwise neighbor cycles at v, indexed
    1..b(v) by ascending minimum edge id at v.
    """

    v: int
    rotations: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, v: int, rotations) -> "BlocksAtV":
        rots = sorted(
            (tuple(r) for r in rotations),
            key=lambda r: min(edge_id(v, w) for w in r),
        )
        if len(rots) < 2:
            raise EmbeddingMismatch(f"vertex {v} is incident to fewer than 2 blocks")
        return cls(v, tuple(rots))

    @property
    def b(self) -> int:
        return len(self.rotations)

    @property
    def deltas(self) -> list[int]:
        return [len(r) for r in self.rotations]

    @property
    def delta_v(self) -> int:
        return sum(self.deltas)

    def bounds(self) -> tuple[list[int], list[int]]:
        """Per-element bounds of (c values, d values)."""
        return arrangement_bounds(self.deltas)

    def id_order(self, j: int) -> list[int]:
        """Edges of block j at v sorted by edge id (far endpoints)."""
        return sorted(self.rotations[j - 1], key=lambda w: edge_id(self.v, w))


@dataclass
class _Cell:
    """Doubly linked node: one edge of the growing rotation at v."""

    w: int
    block: int
    prev: "_Cell | None" = None
    next: "_Cell | None" = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"_Cell({self.w}, b{self.block})"


def _linear_orders(ctx: BlocksAtV, c_vals: list[int]) -> list[list[int]]:
    """Block runs first_j..last_j: rotation rotated to start at first_j."""
    orders = []
    for j in range(1, ctx.b + 1):
        rot = list(ctx.rotations[j - 1])
        first = ctx.id_order(j)[c_vals[j - 1]]
        i = rot.index(first)
        orders.append(rot[i:] + rot[:i])
    return orders


def phi_v_inverse(ctx: BlocksAtV, c_vals: list[int], d_vals: list[int]) -> list[int]:
    """Merge the block embeddings as dictated by the tuple.

    Returns the rotation at v (counter-clockwise neighbor list starting at
    first_1).  Runs in O(delta_v * alpha) via a union-find over blocks.
    """
    b = ctx.b
    c_bounds, d_bounds = ctx.bounds()
    if len(c_vals) != len(c_bounds) or len(d_vals) != len(d_bounds):
        raise BoundViolation("tuple layout does not match b(v)")
    for c, limit in zip(c_vals, c_bounds):
        if not 0 <= c < limit:
            raise BoundViolation(f"c={c} outside 0..{limit - 1}")
    for d, limit in zip(d_vals, d_bounds):
        if not 0 <= d < limit:
            raise BoundViolation(f"d={d} outside 0..{limit - 1}")

    orders = _linear_orders(ctx, c_vals)
    cells = [[_Cell(w, j + 1) for w in order] for j, order in enumerate(orders)]
    for row in cells:
        for a, x in zip(row, row[1:]):
            a.next = x
            x.prev = a
    cell_of = {c.w: c for row in cells for c in row}

    head = {j: cells[j - 1][0] for j in range(1, b + 1)}
    tail = {j: cells[j - 1][-1] for j in range(1, b + 1)}
    uf = UnionFind(b + 1)

    # "Fused" pairs (anchor, first_j): nothing may ever be inserted
    # between them, so an anchor resolves through them before splicing.
    fused: dict[int, int] = {}

    def resolve(w: int) -> int:
        while w in fused:
            w = fused[w]
        return w

    def splice_after(anchor: _Cell, seg_head: _Cell, seg_tail: _Cell, root: int) -> None:
        nxt = anchor.next
        anchor.next = seg_head
        seg_head.prev = anchor
        seg_tail.next = nxt
        if nxt is not None:
            nxt.prev = seg_tail
        elif tail[root] is anchor:
            tail[root] = seg_tail

    def merge_roots(target_block: int, source_block: int) -> int:
        rt, rs = uf.find(target_block), uf.find(source_block)
        h, t = head[rt], tail[rt]
        root = uf.union(rt, rs)
        head[root], tail[root] = h, t
        return root

    # First merge: block 2 appended after last_1, no interleaving.
    splice_after(tail[1], head[2], tail[2], uf.find(1))
    merge_roots(1, 2)

    # S: block 1, block 2, each block 3.. without its first edge, then the
    # first edges in decreasing block order.  Labels are cell positions.
    s: list[_Cell] = []
    s.extend(cells[0])
    s.extend(cells[1])
    for j in range(3, b + 1):
        s.extend(cells[j - 1][1:])
    for j in range(b, 2, -1):
        s.append(cells[j - 1][0])
    s_orig = list(s)

    first2 = cells[1][0]
    last2_live = cells[1][-1]
    pos: dict[int, int] = {id(c): i for i, c in enumerate(s)}

    for j in range(3, b + 1):
        d = d_vals[j - 3]
        target = s[d]
        if uf.find(target.block) != uf.find(j):
            # Case 1: insert block j's partial right after the addressed
            # edge, resolved through fused pairs.
            anchor = cell_of[resolve(target.w)]
            root_t = uf.find(anchor.block)
            seg_h, seg_t = head[uf.find(j)], tail[uf.find(j)]
            splice_after(anchor, seg_h, seg_t, root_t)
            if anchor is last2_live:
                last2_live = seg_t
            merge_roots(anchor.block, j)
            fused[anchor.w] = seg_h.w
            s[d] = seg_h  # first_j takes the cell; the old edge is retired
            pos[id(seg_h)] = d
        else:
            # Case 2: wrap block j around block 2's nest.  The original
            # edge at cell d splits the block's run: the tail part goes
            # right after last_2, the head part right before first_2.
            ed = s_orig[d]
            root_j = uf.find(j)
            seg_h, seg_t = head[root_j], tail[root_j]
            if ed is seg_h:
                raise EmbeddingMismatch("wrap split lands on first_j")
            head_h, head_t = seg_h, ed.prev
            head_t.next = None
            ed.prev = None
            root1 = uf.find(1)
            splice_after(last2_live, ed, seg_t, root1)
            estar = first2.prev
            splice_after(estar, head_h, head_t, root1)
            merge_roots(1, j)
            fused[estar.w] = seg_h.w
            i = pos[id(estar)]
            s[i] = seg_h  # first_j replaces e*
            pos[id(seg_h)] = i

    root = uf.find(1)
    out = []
    cell = head[root]
    while cell is not None:
        out.append(cell.w)
        cell = cell.next
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


def _find_first1(ctx: BlocksAtV, rotation: list[int], block_of: dict[int, int],
                 counter: OpCounter) -> int:
    """First edge of block 1 after a full pass over block 2's edges."""
    start = min(ctx.rotations[0], key=lambda w: edge_id(ctx.v, w))
    n = len(rotation)
    i0 = rotation.index(start)
    need = ctx.deltas[1]
    seen2: set[int] = set()
    for k in range(1, 2 * n + 1):
        counter.tick()
        w = rotation[(i0 + k) % n]
        blk = block_of[w]
        if blk == 2:
            seen2.add(w)
        elif blk == 1 and len(seen2) == need:
            return w
    raise EmbeddingMismatch("could not locate first_1; rotation is not a valid merge")


def phi_v(ctx: BlocksAtV, rotation: list[int], counter: OpCounter | None = None
          ) -> tuple[list[int], list[int]]:
    """Tuple <c_1..c_b, d_1..d_{b-2}> of a merged rotation at v."""
    if counter is None:
        counter = OpCounter()
    b = ctx.b
    n = ctx.delta_v
    if sorted(rotation) != sorted(w for r in ctx.rotations for w in r):
        raise EmbeddingMismatch("rotation does not cover the incident edges")

    block_of = {w: j + 1 for j, r in enumerate(ctx.rotations) for w in r}

    first1 = _find_first1(ctx, rotation, block_of, counter)
    i0 = rotation.index(first1)
    walk = rotation[i0:] + rotation[:i0]

    # Second visit: first edge of every block, then the c values.
    firsts: dict[int, int] = {}
    for w in walk:
        counter.tick()
        j = block_of[w]
        if j not in firsts:
            firsts[j] = w
    if len(firsts) != b:
        raise EmbeddingMismatch("some block is missing from the rotation")
    c_vals = [ctx.id_order(j).index(firsts[j]) for j in range(1, b + 1)]

    # Block runs from first_j; each must appear as a cyclic subsequence.
    orders = _linear_orders(ctx, c_vals)
    for j in range(1, b + 1):
        counter.tick(ctx.deltas[j - 1])
        run = [w for w in walk if block_of[w] == j]
        if run != orders[j - 1]:
            raise EmbeddingMismatch(f"block {j} does not keep its own rotation")
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
    for w in walk:
        counter.tick()
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
    jump: dict[int, int] = {}
    for t, nd in enumerate(path):
        counter.tick()
        if nd.block == 2:
            break
        pi_child = path[t + 1]
        for child in nd.children[pi_child.slot + 1:]:
            counter.tick()
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
        counter.tick()
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
                    counter.tick()
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
                counter.tick()
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

    _, d_bounds = ctx.bounds()
    for d, limit in zip(d_vals, d_bounds):
        if not 0 <= d < limit:
            raise EmbeddingMismatch(f"derived d={d} outside 0..{limit - 1}")
    return c_vals, d_vals
