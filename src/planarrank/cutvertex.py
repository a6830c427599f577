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
from how the block runs nest in the rotation.  Each run is held as its
first and last position in the rotation and the run enclosing it, so the
edge just before a run is its anchor for an ordinary insert, the run just
after it is its right neighbor, and precomputed jump pointers resolve
wraps; membership in the partial embeddings is a union-find over block
indices in a parent list.  A call allocates no object per run or edge and
takes O(degree of v) operations.

Both bounds are checked by measurement: tests/test_cutvertex.py counts
the lines of this module executed during one call, for several digit
patterns, while the number of blocks at v doubles, and requires each
count to no more than about double.

Edges at v are named by their far endpoint.

Both directions trust their input; the ranker checks it once, where it
enters.  phi_v's rotation is a vertex's rotation in an embedding that
``validate`` accepted, so it holds each incident edge once and the
block runs nest.  phi_v_inverse's digits passed ``check_bounds``, and its
block rotations are the blocks' decoded rotations at v, so each holds
exactly its block's edges.  What is still checked here is what no input
check implies: the algorithms' own invariants.

phi_v_inverse takes and returns rotations in the canonical form the
ranker holds (a tuple starting at its smallest far endpoint): each
block's rotation at v, and the merged rotation it returns.  Block 1
holds v's smallest neighbor, so the merge is turned to start at block
1's first edge; with two blocks that takes one tuple expression.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmbeddingMismatch


def arrangement_bounds(deltas: list[int]) -> tuple[list[int], list[int]]:
    """Bounds of <c_1..c_b> and <d_1..d_{b-2}> for blocks of these degrees at v.

    c_j ranges over block j's delta_j edges; d_j over delta_v - j cells,
    where delta_v is the total degree.
    """
    total = sum(deltas)
    return list(deltas), [total - j for j in range(1, len(deltas) - 1)]


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


# Union-find over block indices, held as a parent list and a rank list.

def _find(parent: list[int], x: int) -> int:
    """Root of x's set; compresses the path."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _union(parent: list[int], rank: list[int], x: int, y: int) -> int:
    """Join the sets with roots x and y by rank; returns the new root.
    Equal roots leave the sets as they are."""
    if rank[x] < rank[y]:
        x, y = y, x
    elif rank[x] == rank[y]:
        rank[x] += 1
    parent[y] = x
    return x


def phi_v_inverse(ctx: BlocksAtV, rotations, c_vals: list[int],
                  d_vals: list[int]) -> tuple[int, ...]:
    """Merge the block embeddings as dictated by the tuple.

    ``rotations[j-1]`` is block j's counter-clockwise rotation at v (far
    endpoints), a canonical tuple, in ctx's block order, holding exactly
    block j's edges, and the digits lie within ctx's bounds.  Returns the
    rotation at v as a canonical tuple: the counter-clockwise neighbor
    list from first_1 on, turned to start at v's smallest neighbor,
    block 1's first edge.

    The growing rotation is a doubly linked list over far endpoints (the
    ``nxt``/``prv`` dicts), and S and the fused pairs are far endpoints
    too, so a call allocates no object per edge.  The partial embeddings
    form a union-find over block indices (a parent list with union by
    rank); ``head``/``tail`` hold each root's first and last edge.  The
    merge runs in O(delta_v * alpha).
    """
    b = ctx.b
    if b == 2:
        # The first merge only: block 2's run after last_1.  Turned to start
        # at r1[0], that is block 1 up to first_1, then block 2's run, then
        # the rest of block 1; first_1 = r1[0] puts block 2 at the end.
        r1, r2 = rotations
        i = r1.index(ctx.edges[0][c_vals[0]]) or len(r1)
        j = r2.index(ctx.edges[1][c_vals[1]])
        return (*r1[:i], *r2[j:], *r2[:j], *r1[i:])

    # Block runs first_j..last_j: each rotation turned to start at first_j.
    runs = []
    for rot, edges, c in zip(rotations, ctx.edges, c_vals):
        i = rot.index(edges[c])
        runs.append([*rot[i:], *rot[:i]])

    # The runs linked in order; a missing nxt/prv entry ends the list.
    nxt: dict[int, int | None] = {}
    prv: dict[int, int | None] = {}
    head = [0]
    tail = [0]
    for run in runs:
        nxt.update(zip(run, run[1:]))
        prv.update(zip(run[1:], run))
        head.append(run[0])
        tail.append(run[-1])
    parent = list(range(b + 1))
    rank = [0] * (b + 1)
    block_of = ctx.block_of

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
    # A pair is only ever added on a chain's end (a resolved anchor, or
    # e*, which has no pair of its own), so a walked chain is compressed
    # onto its end.
    fused: dict[int, int] = {}

    for j in range(3, b + 1):
        d = d_vals[j - 3]
        root_j = _find(parent, j)
        seg_h, seg_t = head[root_j], tail[root_j]
        root = _find(parent, block_of[s[d]])
        if root != root_j:
            # Case 1: insert block j's partial right after the addressed
            # edge, resolved through fused pairs.
            anchor = end = s[d]
            while end in fused:
                end = fused[end]
            while anchor != end:
                fused[anchor], anchor = end, fused[anchor]
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
            root = _find(parent, 1)
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
        root = _union(parent, rank, root, root_j)
        head[root], tail[root] = h, t
        fused[anchor] = seg_h

    out = []
    w = head[_find(parent, 1)]
    while w is not None:
        out.append(w)
        w = nxt.get(w)
    if len(out) != ctx.delta_v:
        raise EmbeddingMismatch("merge lost or duplicated edges")
    i = out.index(rotations[0][0])
    return (*out[i:], *out[:i])


# ---------------------------------------------------------------------------
# Forward direction
# ---------------------------------------------------------------------------


def phi_v(ctx: BlocksAtV, rotation: list[int]) -> tuple[list[int], list[int]]:
    """Tuple <c_1..c_b, d_1..d_{b-2}> of a merged rotation at v.

    ``rotation`` is v's rotation in a valid embedding.  Each block's
    rotation at v is read off it, as its restriction to the block's edges.

    Edges are addressed by their position in the walk (the rotation turned
    to start at first_1).  Block j's run spans positions fpos[j]..lpos[j]
    and par[j] is the run that encloses it (0 for none).  Block j's anchor
    is the edge at fpos[j] - 1, and the run right of run j in the same
    enclosing run is the one starting at lpos[j] + 1, if one starts there.

    With two blocks there is no d value, so the call reads first_1 and
    first_2 off the rotation directly and builds no walk or runs.

    The O(delta_v) bound is checked by counting executed lines under
    doubling, as the module docstring says.
    """
    b = ctx.b
    block_of = ctx.block_of

    # first_1: the first edge of block 1 that a scan from past block 1's
    # minimum edge meets after all of block 2's edges.  The rotation holds
    # every edge once, so the scan stops within one lap, at step k.
    n = len(rotation)
    i0 = rotation.index(ctx.edges[0][0])
    if b == 2:
        # The lap runs from i0 + 1 round to i0.  Only blocks 1 and 2 meet
        # here, so first_1 follows the lap's last block-2 edge, and first_2,
        # the walk's first block-2 edge, is the lap's first: every edge
        # from first_1 to i0 is in block 1.
        blk = bytes(map(block_of.__getitem__, rotation))
        last2 = blk.rfind(2, 0, i0)
        if last2 < 0:
            last2 = blk.rfind(2)
        first2 = blk.find(2, i0)
        if first2 < 0:
            first2 = blk.find(2)
        return [ctx.edges[0].index(rotation[(last2 + 1) % n]),
                ctx.edges[1].index(rotation[first2])], []
    blk = list(map(block_of.__getitem__, rotation))
    steps = blk[i0 + 1:] + blk[:i0 + 1]  # blocks at steps 1..n
    k = steps.index(1, n - steps[::-1].index(2)) + 1
    i0 = (i0 + k) % n
    walk = rotation[i0:] + rotation[:i0]
    blk = blk[i0:] + blk[:i0]

    # Block runs first_j..last_j: the first and last position of each block.
    fpos = [-1] * (b + 1)
    lpos = [0] * (b + 1)
    for p, j in enumerate(blk):
        if fpos[j] < 0:
            fpos[j] = p
        lpos[j] = p
    c_vals = [edges.index(walk[f]) for edges, f in zip(ctx.edges, fpos[1:])]

    # Labels: positions in S (block 1, block 2, blocks 3.. minus firsts,
    # then firsts in decreasing block order).  The same pass records each
    # run's enclosing run.
    label = [0] * (b + 1)  # next label of each block's non-first edges
    k = 0
    for j, delta in enumerate(ctx.deltas, start=1):
        label[j] = k
        k += delta if j < 3 else delta - 1
    ell = [0] * n
    par = [0] * (b + 1)
    gamma = 0  # the innermost open run
    for p, j in enumerate(blk):
        if p == fpos[j]:
            par[j] = gamma
            if p != lpos[j]:
                gamma = j
            if j > 2:
                ell[p] = n + 2 - j
                continue
        elif p == lpos[j]:
            gamma = par[j]
        ell[p] = label[j]
        label[j] += 1

    # The nest path: the runs that contain block 2's run, top-down.  A
    # block that wrapped around the nest either sits on this path itself
    # or reaches it through the chain of earlier blocks that rode on it.
    path: list[int] = []
    j = 2
    while j:
        path.append(j)
        j = par[j]
    path.reverse()
    path_index = {j: t for t, j in enumerate(path)}

    # Per path run, the edge it resumes with right of the nest: its first
    # own edge right of the path run it encloses.
    jump: dict[int, int] = {}
    for t, j in enumerate(path):
        if j == 2:
            break
        p = lpos[path[t + 1]] + 1
        while True:
            if blk[p] == j:
                jump[j] = p
                break
            p = lpos[blk[p]] + 1

    # Replay the merges in placement order (block index order), tracking
    # partial-embedding membership with a union-find over block indices (a
    # parent list with union by rank).  Block j wrapped (case 2) exactly
    # when its anchor already belongs to block 1's partial embedding and
    # its ride chain (its own earlier riders, consecutive right siblings in
    # its class) absorbs a nest-path run; otherwise it was inserted after
    # its anchor (case 1) and d is the cell addressing the anchor's gap.
    parent = list(range(b + 1))
    parent[2] = 1
    rank = [0] * (b + 1)
    rank[1] = 1
    # The cell owning the gap after each position.  A merge fuses its
    # anchor to first_j right after it, and a fused position stays fused:
    # skip[p] != p once position p is, so _find(skip, p) is the first
    # unfused position from p on.
    gap = list(range(n))
    skip = list(range(n))
    d_vals = []
    for j in range(3, b + 1):
        f = fpos[j]
        if skip[f - 1] != f - 1:
            raise EmbeddingMismatch(f"block {j} anchors a fused gap")
        owner = gap[f - 1]

        wrapped = False
        root_j = _find(parent, j)
        root = _find(parent, blk[f - 1])  # the anchor's partial
        if root == _find(parent, 1):
            cur = j
            if j in path_index:
                wrapped = True
            else:
                while True:
                    p = lpos[cur] + 1
                    if p == n or fpos[blk[p]] != p:
                        break  # no right sibling, or an edge
                    cur = blk[p]
                    if _find(parent, cur) != root_j:
                        continue  # foreign insertion, step over it
                    if cur in path_index:
                        wrapped = True
                        break
        if wrapped:
            # The wrap's resumption edge belongs to the deepest path run
            # among j and the straddling riders of its class.
            t = path_index[cur]
            while (t + 1 < len(path) and path[t + 1] != 2
                   and _find(parent, path[t + 1]) == root_j):
                t += 1
            d_vals.append(ell[jump[path[t]]])
        else:
            d_vals.append(ell[owner])
        _union(parent, rank, root, root_j)  # block 1's partial, if j wrapped
        # The merge retires the owning cell in favor of first_j, fuses the
        # anchor to first_j, and re-addresses the gap the cell now reaches
        # past the fused positions.
        ell[f] = ell[owner]
        skip[f - 1] = f
        gap[_find(skip, f)] = f

    for d, limit in zip(d_vals, ctx.d_bounds):
        if not 0 <= d < limit:
            raise EmbeddingMismatch(f"derived d={d} outside 0..{limit - 1}")
    return c_vals, d_vals
