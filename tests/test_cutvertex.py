"""phi_v / phi_v_inverse: arrangements of blocks around a cut-vertex."""

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field

import pytest

from _graphgen import benchmark_graphs
from _linecount import doubling_ratios, executed_lines
from _oracle import canonical_cycle, enumerate_arrangements, is_planar_rotation
from planarrank.cutvertex import (
    DECODED_PER_SHAPE,
    BlocksAtV,
    arrangement_bounds,
    phi_v,
    phi_v_inverse,
)
from planarrank.embedding import PlanarEmbedding, canonical_neighbors, validate
from planarrank.errors import BoundViolation, EmbeddingMismatch
from planarrank.full import EmbeddingRanker
from planarrank.graph import Graph


def bridge(v, w):
    return {v: [w], w: [v]}


def triangle(v, a, b):
    # ccw cycle v-a-b
    return {v: [a, b], a: [b, v], b: [v, a]}


def square(v, a, b, c):
    return {v: [a, c], a: [b, v], b: [c, a], c: [v, b]}


def k4_block(v, a, b, c):
    return {v: [a, c, b], a: [v, b, c], b: [v, c, a], c: [v, a, b]}


def at_v(v, blocks):
    """Fixed data of v and the blocks' rotations at v, in its block order,
    as the canonical tuples phi_v_inverse takes."""
    rotations = sorted((canonical_neighbors(r[v]) for r in blocks), key=min)
    return BlocksAtV.make(v, rotations), rotations


# (name, v, list of block rotations)
CONFIGS = [
    ("three-bridges", 1, [bridge(1, 2), bridge(1, 3), bridge(1, 4)]),
    ("triangle+bridge", 1, [triangle(1, 2, 3), bridge(1, 4)]),
    ("two-triangles", 1, [triangle(1, 2, 3), triangle(1, 4, 5)]),
    ("triangle+2bridges", 1, [triangle(1, 2, 3), bridge(1, 4), bridge(1, 5)]),
    ("two-triangles+bridge", 1, [triangle(1, 2, 3), triangle(1, 4, 5), bridge(1, 6)]),
    ("four-bridges", 1, [bridge(1, 2), bridge(1, 3), bridge(1, 4), bridge(1, 5)]),
    ("three-triangles", 1, [triangle(1, 2, 3), triangle(1, 4, 5), triangle(1, 6, 7)]),
    ("square+triangle", 1, [square(1, 2, 3, 4), triangle(1, 5, 6)]),
    ("triangle+3bridges", 1, [triangle(1, 2, 3), bridge(1, 4), bridge(1, 5), bridge(1, 6)]),
    ("k4+bridge", 1, [k4_block(1, 2, 3, 4), bridge(1, 5)]),
    ("k4+triangle+bridge", 1, [k4_block(1, 2, 3, 4), triangle(1, 5, 6), bridge(1, 7)]),
    ("two-squares", 1, [square(1, 2, 3, 4), square(1, 5, 6, 7)]),
    # Fat later blocks make wraps (case 2) reachable after rider merges,
    # exercising the jump-pointer fix-ups.
    ("2bridges+2triangles", 1,
     [bridge(1, 2), bridge(1, 3), triangle(1, 4, 5), triangle(1, 6, 7)]),
    ("2bridges+triangle+k4", 1,
     [bridge(1, 2), bridge(1, 3), triangle(1, 4, 5), k4_block(1, 6, 7, 8)]),
    ("5-blocks", 1,
     [bridge(1, 2), bridge(1, 3), triangle(1, 4, 5), triangle(1, 6, 7), bridge(1, 8)]),
]


class TestArrangementCount:
    def test_two_blocks_2_3(self):
        c_bounds, d_bounds = arrangement_bounds([2, 3])
        assert math.prod(c_bounds + d_bounds) == 6

    def test_two_bridges(self):
        c_bounds, d_bounds = arrangement_bounds([1, 1])
        assert math.prod(c_bounds + d_bounds) == 1

    def test_three_bridges(self):
        c_bounds, d_bounds = arrangement_bounds([1, 1, 1])
        assert math.prod(c_bounds + d_bounds) == 2

    def test_matches_formula(self):
        deltas = [2, 2, 1, 3]
        total = sum(deltas)
        expected = 2 * 2 * 1 * 3 * (total - 1) * (total - 2)
        c_bounds, d_bounds = arrangement_bounds(deltas)
        assert math.prod(c_bounds + d_bounds) == expected


class TestPhiV:
    @pytest.mark.parametrize("name,v,blocks", CONFIGS, ids=[c[0] for c in CONFIGS])
    def test_bijection_against_oracle(self, name, v, blocks):
        ctx, rotations = at_v(v, blocks)
        c_bounds, d_bounds = ctx.c_bounds, ctx.d_bounds
        expected = math.prod(ctx.c_bounds + ctx.d_bounds)

        produced = {}
        for c_vals in itertools.product(*[range(x) for x in c_bounds]):
            for d_vals in itertools.product(*[range(x) for x in d_bounds]):
                merged = phi_v_inverse(ctx, rotations, list(c_vals), list(d_vals))
                key = canonical_cycle(merged)
                assert key not in produced, (
                    f"{name}: tuples {produced[key]} and {(c_vals, d_vals)} collide"
                )
                produced[key] = (c_vals, d_vals)
                # Round trip.
                got_c, got_d = phi_v(ctx, merged)
                assert (got_c, got_d) == (list(c_vals), list(d_vals))
        assert len(produced) == expected

        oracle = enumerate_arrangements(v, blocks)
        assert set(produced) == oracle

    @pytest.mark.parametrize("name,v,blocks", CONFIGS, ids=[c[0] for c in CONFIGS])
    def test_every_merge_is_planar(self, name, v, blocks):
        # Build the union graph and Euler-check each produced rotation.
        vertices = sorted({x for r in blocks for x in r})
        remap = {x: i + 1 for i, x in enumerate(vertices)}
        edges = sorted(
            {(min(remap[a], remap[b]), max(remap[a], remap[b]))
             for r in blocks for a in r for b in r[a]}
        )
        g = Graph(len(vertices), edges)
        ctx, rotations = at_v(v, blocks)
        c_bounds, d_bounds = ctx.c_bounds, ctx.d_bounds
        for c_vals in itertools.product(*[range(x) for x in c_bounds]):
            for d_vals in itertools.product(*[range(x) for x in d_bounds]):
                merged = phi_v_inverse(ctx, rotations, list(c_vals), list(d_vals))
                rot = {}
                for r in blocks:
                    for x, nbrs in r.items():
                        if x != v:
                            rot[remap[x]] = [remap[w] for w in nbrs]
                rot[remap[v]] = [remap[w] for w in merged]
                assert is_planar_rotation(g, rot), f"{name}: non-planar merge"

    def test_block_restriction_preserved(self):
        # The restriction of the output to each block is the block's own
        # cyclic order (rotation-list subsequence equality).
        v, blocks = 1, [triangle(1, 2, 3), triangle(1, 4, 5), bridge(1, 6)]
        ctx, rotations = at_v(v, blocks)
        c_bounds, d_bounds = ctx.c_bounds, ctx.d_bounds
        for c_vals in itertools.product(*[range(x) for x in c_bounds]):
            for d_vals in itertools.product(*[range(x) for x in d_bounds]):
                merged = phi_v_inverse(ctx, rotations, list(c_vals), list(d_vals))
                for r in rotations:
                    run = [w for w in merged if w in set(r)]
                    assert canonical_cycle(run) == canonical_cycle(list(r))

    # Bad input reaches phi_v and phi_v_inverse only through the ranker,
    # which rejects it where it enters: validate owns the rotation at v,
    # check_bounds the c and d digits.

    def test_bound_violation(self):
        assert_unrank_rejects([[2], [3], [4]], [0, 0, 0], [2])
        assert_unrank_rejects([[2], [3], [4]], [1, 0, 0], [0])

    @pytest.mark.parametrize("rotations", [[[2], [3]], [[2], [3, 5], [4]]])
    def test_rejects_rotations_not_matching_blocks(self, rotations):
        assert_rank_rejects([[2], [3], [4]], rotations)

    @pytest.mark.parametrize("blocks,rotations", [
        # A foreign far endpoint in place of block 2's edge.
        ([[2], [3], [4]], [[2], [5], [4]]),
        # Right-sized rotations holding the other block's edges, which
        # interleave the two blocks at v.
        ([[2, 3], [4, 5]], [[2, 4], [3, 5]]),
        # A repeated far endpoint.
        ([[2, 3], [4, 5]], [[2, 2], [4, 5]]),
        ([[2, 3], [4, 5], [6]], [[3, 2], [5, 5], [6]]),
    ], ids=["foreign", "swapped", "repeated", "repeated-later-block"])
    def test_rejects_rotations_with_other_edges(self, blocks, rotations):
        assert_rank_rejects(blocks, rotations)

    def test_rejects_foreign_rotation(self):
        assert_rank_rejects([[2], [3], [4]], [[2, 3, 5]])


def graph_at_1(blocks):
    """The graph of these blocks at vertex 1, given by their far endpoints:
    a bridge per one-edge block, a triangle per two-edge block."""
    edges = []
    for ws in blocks:
        edges += [(1, w) for w in ws]
        if len(ws) == 2:
            edges.append(tuple(sorted(ws)))
    return Graph(max(map(max, blocks)), sorted(edges))


def assert_rank_rejects(blocks, rotations):
    """rank, given the blocks' graph with the rotations one after the other
    at vertex 1, raises EmbeddingMismatch with validate's message."""
    g = graph_at_1(blocks)
    ranker = EmbeddingRanker(g)
    rot = dict(ranker.unrank(0).rot)
    rot[1] = [w for r in rotations for w in r]
    emb = PlanarEmbedding(g, rot)
    problems = validate(emb)
    assert problems
    with pytest.raises(EmbeddingMismatch) as info:
        ranker.rank(emb)
    assert str(info.value) == "; ".join(problems)


def assert_unrank_rejects(blocks, c_vals, d_vals):
    """phi_inverse of the blocks' graph, given these c and d digits at
    vertex 1, raises BoundViolation from check_bounds."""
    ranker = EmbeddingRanker(graph_at_1(blocks))
    (cut,) = ranker.cuts
    values = [0] * len(ranker.bounds)
    values[cut.c.start:cut.d.stop] = c_vals + d_vals
    with pytest.raises(BoundViolation):
        ranker.phi_inverse(values)


# ---------------------------------------------------------------------------
# Work under doubling: executed lines of cutvertex.py
# ---------------------------------------------------------------------------


CUTVERTEX_PY = phi_v.__code__.co_filename
DIGIT_PATTERNS = ["zero", "max", "alternating", "random"]
BLOCK_COUNTS = (100, 200, 400, 800)


def wide_cut_vertex(b, pattern):
    """One cut-vertex with b blocks of degrees 1, 2, 3, 4, 1, ... at v,
    their rotations at v (canonical tuples), and a tuple whose d digits
    follow the pattern: all 0, all at their maximum, the two alternating,
    or seeded random (c digits random too; otherwise all 0)."""
    blocks, w = [], 2
    for j in range(b):
        delta = 1 + j % 4
        blocks.append(canonical_neighbors(range(w + delta - 1, w - 1, -1)))
        w += delta
    ctx = BlocksAtV.make(1, blocks)
    c_vals = [0] * b
    if pattern == "zero":
        d_vals = [0] * (b - 2)
    elif pattern == "max":
        d_vals = [x - 1 for x in ctx.d_bounds]
    elif pattern == "alternating":
        d_vals = [(x - 1) * (i % 2) for i, x in enumerate(ctx.d_bounds)]
    else:
        rng = random.Random(b)
        c_vals = [rng.randrange(x) for x in ctx.c_bounds]
        d_vals = [rng.randrange(x) for x in ctx.d_bounds]
    return ctx, blocks, c_vals, d_vals


class TestWorkUnderDoubling:
    """The per-call bounds O(delta_v * alpha) for phi_v_inverse and
    O(delta_v) for phi_v, checked by measurement: doubling the blocks at
    v (and so delta_v) at most about doubles the lines executed.  Each
    counted call runs on an empty table, so it merges or derives."""

    @pytest.mark.parametrize("pattern", DIGIT_PATTERNS)
    def test_phi_v_inverse(self, pattern):
        counts = []
        for b in BLOCK_COUNTS:
            ctx, *args = wide_cut_vertex(b, pattern)
            assert not ctx.tables.decoded
            counts.append(executed_lines(CUTVERTEX_PY, phi_v_inverse, ctx, *args))
            assert phi_v_inverse(ctx, *args) == dict_phi_v_inverse(ctx, *args)
        assert max(doubling_ratios(counts)) <= 2.2, counts

    @pytest.mark.parametrize("pattern", DIGIT_PATTERNS)
    def test_phi_v(self, pattern):
        counts = []
        for b in BLOCK_COUNTS:
            ctx, rotations, c_vals, d_vals = wide_cut_vertex(b, pattern)
            merged = phi_v_inverse(ctx, rotations, c_vals, d_vals)
            assert not ctx.tables.encoded
            counts.append(executed_lines(CUTVERTEX_PY, phi_v, ctx, merged))
            assert phi_v(ctx, merged) == (c_vals, d_vals)
        assert max(doubling_ratios(counts)) <= 2.2, counts


# ---------------------------------------------------------------------------
# Reference: the merge over one linked cell object per edge
# ---------------------------------------------------------------------------


class UnionFind:
    """Disjoint sets over 0..size-1 with path compression and union by rank.

    The reference merges' own copy: a reference shares no code with the
    phi_v and phi_v_inverse it checks.
    """

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.rank = [0] * size

    def find(self, a: int) -> int:
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


@dataclass
class _Cell:
    w: int
    block: int
    prev: "_Cell | None" = None
    next: "_Cell | None" = None


def reference_phi_v_inverse(ctx, rotations, c_vals, d_vals, cases):
    """phi_v_inverse as one _Cell per edge and a UnionFind of blocks.

    Counts the merges it makes per case in ``cases`` ("insert", "wrap").
    Expects well-formed input: the checks are the function under test's.
    """
    b = ctx.b
    orders = []
    for rot, edges, c in zip(rotations, ctx.edges, c_vals):
        i = rot.index(edges[c])
        orders.append(rot[i:] + rot[:i])
    cells = [[_Cell(w, j + 1) for w in order] for j, order in enumerate(orders)]
    for row in cells:
        for a, x in zip(row, row[1:]):
            a.next = x
            x.prev = a
    cell_of = {c.w: c for row in cells for c in row}
    head = {j: cells[j - 1][0] for j in range(1, b + 1)}
    tail = {j: cells[j - 1][-1] for j in range(1, b + 1)}
    uf = UnionFind(b + 1)
    fused = {}

    def resolve(w):
        while w in fused:
            w = fused[w]
        return w

    def splice_after(anchor, seg_head, seg_tail, root):
        nxt = anchor.next
        anchor.next = seg_head
        seg_head.prev = anchor
        seg_tail.next = nxt
        if nxt is not None:
            nxt.prev = seg_tail
        elif tail[root] is anchor:
            tail[root] = seg_tail

    def merge_roots(target_block, source_block):
        rt, rs = uf.find(target_block), uf.find(source_block)
        h, t = head[rt], tail[rt]
        root = uf.union(rt, rs)
        head[root], tail[root] = h, t
        return root

    splice_after(tail[1], head[2], tail[2], uf.find(1))
    merge_roots(1, 2)
    s = []
    s.extend(cells[0])
    s.extend(cells[1])
    for j in range(3, b + 1):
        s.extend(cells[j - 1][1:])
    for j in range(b, 2, -1):
        s.append(cells[j - 1][0])
    s_orig = list(s)
    first2 = cells[1][0]
    last2_live = cells[1][-1]
    pos = {id(c): i for i, c in enumerate(s)}

    for j in range(3, b + 1):
        d = d_vals[j - 3]
        target = s[d]
        if uf.find(target.block) != uf.find(j):
            cases["insert"] += 1
            anchor = cell_of[resolve(target.w)]
            root_t = uf.find(anchor.block)
            seg_h, seg_t = head[uf.find(j)], tail[uf.find(j)]
            splice_after(anchor, seg_h, seg_t, root_t)
            if anchor is last2_live:
                last2_live = seg_t
            merge_roots(anchor.block, j)
            fused[anchor.w] = seg_h.w
            s[d] = seg_h
            pos[id(seg_h)] = d
        else:
            cases["wrap"] += 1
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
            s[i] = seg_h
            pos[id(seg_h)] = i

    out = []
    cell = head[uf.find(1)]
    while cell is not None:
        out.append(cell.w)
        cell = cell.next
    return out


# ---------------------------------------------------------------------------
# Reference: the merge over far-endpoint dicts
# ---------------------------------------------------------------------------
#
# phi_v_inverse as it was before the merge moved onto run positions and
# per-deltas tables: it links far endpoints in two dicts and merges afresh
# on every call.  Kept as it was, with its union-find helpers, under new
# names.


def dict_find(parent: list[int], x: int) -> int:
    """Root of x's set; compresses the path."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def dict_union(parent: list[int], rank: list[int], x: int, y: int) -> int:
    """Join the sets with roots x and y by rank; returns the new root.
    Equal roots leave the sets as they are."""
    if rank[x] < rank[y]:
        x, y = y, x
    elif rank[x] == rank[y]:
        rank[x] += 1
    parent[y] = x
    return x


def dict_phi_v_inverse(ctx: BlocksAtV, rotations, c_vals: list[int],
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
        root_j = dict_find(parent, j)
        seg_h, seg_t = head[root_j], tail[root_j]
        root = dict_find(parent, block_of[s[d]])
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
            root = dict_find(parent, 1)
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
        root = dict_union(parent, rank, root, root_j)
        head[root], tail[root] = h, t
        fused[anchor] = seg_h

    out = []
    w = head[dict_find(parent, 1)]
    while w is not None:
        out.append(w)
        w = nxt.get(w)
    if len(out) != ctx.delta_v:
        raise EmbeddingMismatch("merge lost or duplicated edges")
    i = out.index(rotations[0][0])
    return (*out[i:], *out[:i])


def random_blocks(rng):
    """Far endpoints of 2..8 blocks of 1..4 edges each, shuffled within
    each block and sorted by minimum, as BlocksAtV.make takes them."""
    b = rng.randint(2, 8)
    deltas = [rng.randint(1, 4) for _ in range(b)]
    far = rng.sample(range(2, 2 + 3 * sum(deltas)), sum(deltas))
    blocks, k = [], 0
    for delta in deltas:
        rot = far[k:k + delta]
        rng.shuffle(rot)
        blocks.append(rot)
        k += delta
    blocks.sort(key=min)
    return blocks


class TestAgainstReferenceMerge:
    def test_random_cut_vertices_match_reference(self):
        """phi_v_inverse, given the blocks' canonical tuples, returns the
        reference's merge made canonical, as the dict-based merge does.
        Each case runs on a cold table, then on the warm one, then on a
        table that cut-vertices of earlier cases with the same deltas
        filled with other blocks and c digits."""
        rng = random.Random(20261018)
        cases = Counter()
        shared: dict = {}
        hits = Counter()
        for _ in range(2000):
            blocks = random_blocks(rng)
            ctx = BlocksAtV.make(1, blocks)
            c_vals = [rng.randrange(x) for x in ctx.c_bounds]
            d_vals = [rng.randrange(x) for x in ctx.d_bounds]
            expected = canonical_neighbors(
                reference_phi_v_inverse(ctx, blocks, c_vals, d_vals, cases))
            rotations = [canonical_neighbors(r) for r in blocks]
            assert dict_phi_v_inverse(ctx, rotations, c_vals, d_vals) == expected
            assert not ctx.tables.decoded
            for table in ("cold", "warm"):
                got = phi_v_inverse(ctx, rotations, c_vals, d_vals)
                assert got == expected, (table, blocks, c_vals, d_vals)
            assert list(ctx.tables.decoded) == ([tuple(d_vals)] if ctx.b > 2 else [])
            other = BlocksAtV.make(1, blocks, shared)
            hits[tuple(d_vals) in other.tables.decoded] += 1
            assert phi_v_inverse(other, rotations, c_vals, d_vals) == expected
        assert cases["insert"] > 0 and cases["wrap"] > 0, cases
        assert hits[True] > 50, hits
        assert all(len(t.decoded) <= DECODED_PER_SHAPE for t in shared.values())


TWO_BLOCK_CONFIGS = [c for c in CONFIGS if len(c[2]) == 2]


class TestTwoBlockExit:
    """At b(v) = 2 phi_v_inverse builds the canonical merge in one tuple
    expression, without the merge structures."""

    @pytest.mark.parametrize("name,v,blocks", TWO_BLOCK_CONFIGS,
                             ids=[c[0] for c in TWO_BLOCK_CONFIGS])
    def test_every_c_matches_reference_merge(self, name, v, blocks):
        ctx, rotations = at_v(v, blocks)
        assert ctx.b == 2 and ctx.d_bounds == ()
        cases = Counter()
        for c_vals in itertools.product(*[range(x) for x in ctx.c_bounds]):
            expected = reference_phi_v_inverse(ctx, rotations, list(c_vals), [], cases)
            assert phi_v_inverse(ctx, rotations, list(c_vals), []) == canonical_neighbors(
                expected)
        assert not cases  # no merge past the first one at b = 2

    def test_random_blocks_every_c(self):
        """Every (c_1, c_2) of random two-block cut-vertices, whose first
        edges land anywhere in the canonical tuples, block 1's first among
        them."""
        rng = random.Random(28)
        firsts = Counter()
        for _ in range(200):
            blocks = [canonical_neighbors(rng.sample(range(2, 30), rng.randint(1, 6)))
                      for _ in range(2)]
            if set(blocks[0]) & set(blocks[1]):
                continue
            blocks.sort(key=min)
            ctx = BlocksAtV.make(1, blocks)
            for c1, c2 in itertools.product(*[range(x) for x in ctx.c_bounds]):
                expected = reference_phi_v_inverse(ctx, blocks, [c1, c2], [], Counter())
                got = phi_v_inverse(ctx, blocks, [c1, c2], [])
                assert got == canonical_neighbors(expected), (blocks, c1, c2)
                firsts[blocks[0].index(ctx.edges[0][c1]) == 0] += 1
        assert firsts[True] > 100 and firsts[False] > 100, firsts

    def test_configs_cover_two_blocks(self):
        assert len(TWO_BLOCK_CONFIGS) == 5

    # What the exit is given passed the ranker's input checks: rank's
    # rotation at v passed validate, unrank's digits check_bounds.
    @pytest.mark.parametrize("rotations", [
        [[2, 3]],                   # one block missing
        [[2, 3], [4], [5]],         # one block too many
        [[2, 5], [4]],              # a foreign far endpoint
        [[2, 2], [4]],              # a repeated far endpoint
    ], ids=["missing", "extra", "foreign", "repeated"])
    def test_rejects_rotations_not_matching_blocks(self, rotations):
        assert_rank_rejects([[2, 3], [4]], rotations)

    @pytest.mark.parametrize("c_vals,d_vals", [
        ([2, 0], []), ([0, 1], []), ([-1, 0], []),   # c out of range
        ([0], []), ([0, 0, 0], []), ([0, 0], [0]),   # layout of b = 3
    ])
    def test_bound_violation(self, c_vals, d_vals):
        assert_unrank_rejects([[2, 3], [4]], c_vals, d_vals)


def hub(k):
    """Vertex 1 shared by k blocks: a bridge, a triangle, a 4-cycle and a
    K4 in turn, of degrees 1, 2, 2 and 3 at vertex 1."""
    templates = [[(0, 1)], [(0, 1), (0, 2), (1, 2)], [(0, 1), (1, 2), (2, 3), (0, 3)],
                 [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]]
    edges, n = [], 1
    for i in range(k):
        t = templates[i % 4]
        ids = {0: 1, **{x: n + x for x in range(1, max(map(max, t)) + 1)}}
        edges += [(ids[a], ids[b]) for a, b in t]
        n = max(ids.values())
    return Graph(n, sorted(edges))


def tables_of(ranker):
    """The distinct MergeTables of a ranker's cut-vertices, by identity."""
    return list({id(cut.ctx.tables): cut.ctx.tables for cut in ranker.cuts}.values())


class TestMergeTables:
    """The per-deltas tables of merges and derivations."""

    @pytest.mark.parametrize("name", ["forest", "hub-40"])
    def test_capped_after_many_pairs(self, name):
        g = benchmark_graphs("forest")[0] if name == "forest" else hub(40)
        ranker = EmbeddingRanker(g)
        rng = random.Random(201)
        for _ in range(200):
            r = rng.randrange(ranker.count())
            assert ranker.rank(ranker.unrank(r)) == r
        tables = tables_of(ranker)
        assert all(len(t.decoded) <= DECODED_PER_SHAPE for t in tables)
        assert all(len(t.encoded) <= DECODED_PER_SHAPE for t in tables)
        # Some cut-vertex of three or more blocks met more d tuples and
        # more arrangements than a table holds.
        assert max(len(t.decoded) for t in tables) == DECODED_PER_SHAPE
        assert max(len(t.encoded) for t in tables) == DECODED_PER_SHAPE

    def test_equal_deltas_share_one_table(self):
        g = benchmark_graphs("forest")[0]
        ranker = EmbeddingRanker(g)
        by_deltas = {}
        for cut in ranker.cuts:
            by_deltas.setdefault(cut.ctx.deltas, set()).add(id(cut.ctx.tables))
        assert all(len(ids) == 1 for ids in by_deltas.values())
        assert len(tables_of(ranker)) == len(by_deltas) < len(ranker.cuts)
        other = EmbeddingRanker(g)
        assert not {id(t) for t in tables_of(ranker)} & {id(t) for t in tables_of(other)}


class TestWideCutVertex:
    """One cut-vertex with thousands of blocks: long union-find chains."""

    @pytest.mark.parametrize("name,g", [
        ("star-2000", Graph(2001, [(1, w) for w in range(2, 2002)])),
        ("fan-1000-triangles", Graph(2001, [
            e for k in range(1, 1001)
            for e in ((1, 2 * k), (1, 2 * k + 1), (2 * k, 2 * k + 1))
        ])),
    ], ids=["star-2000", "fan-1000-triangles"])
    def test_roundtrip(self, name, g):
        ranker = EmbeddingRanker(g)
        assert [cut.v for cut in ranker.cuts] == [1]
        cut = ranker.cuts[0]
        # The first and last rank set every d digit to 0 and to its
        # maximum, the two patterns that once walked long chains.
        extremes = {0: [0] * len(cut.ctx.d_bounds),
                    ranker.count() - 1: [x - 1 for x in cut.ctx.d_bounds]}
        rng = random.Random(7)
        for r in [*extremes] + [rng.randrange(ranker.count()) for _ in range(5)]:
            emb = ranker.unrank(r)
            assert ranker.rank(emb) == r
            if r in extremes:
                assert ranker.phi(emb)[cut.d] == extremes[r]


# ---------------------------------------------------------------------------
# Reference: the forward direction over an ordered tree of run objects
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



def _find_first1(ctx, rotation):
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
            return w
    raise EmbeddingMismatch("could not locate first_1; rotation is not a valid merge")


def reference_phi_v(ctx, rotation):
    """phi_v over an ordered tree of _TNode objects and a UnionFind of
    blocks, with the same checks."""
    b = ctx.b
    block_of = ctx.block_of
    if len(rotation) != ctx.delta_v or block_of.keys() != set(rotation):
        raise EmbeddingMismatch("rotation does not cover the incident edges")

    first1 = _find_first1(ctx, rotation)
    i0 = rotation.index(first1)
    walk = rotation[i0:] + rotation[:i0]

    # One pass splits the walk into block runs first_j..last_j.
    orders: list[list[int]] = [[] for _ in range(b)]
    for w in walk:
        orders[block_of[w] - 1].append(w)
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
    jump: dict[int, int] = {}
    for t, nd in enumerate(path):
        if nd.block == 2:
            break
        pi_child = path[t + 1]
        for child in nd.children[pi_child.slot + 1:]:
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

    for d, limit in zip(d_vals, ctx.d_bounds):
        if not 0 <= d < limit:
            raise EmbeddingMismatch(f"derived d={d} outside 0..{limit - 1}")
    return c_vals, d_vals


def outcome(forward, ctx, rotation):
    """Result, or exception class, of one forward call."""
    try:
        return forward(ctx, rotation)
    except Exception as exc:  # the class is compared, whatever it is
        return type(exc)


class TestAgainstReferenceForward:
    def test_random_cut_vertices_match_reference(self):
        """Each case runs on a cold table, then on the warm one, then on a
        table that cut-vertices of earlier cases with the same deltas
        filled from other rotations."""
        rng = random.Random(20261019)
        cases = Counter()
        accepted_shuffles = 0
        two = interleaved = 0  # two-block cases, which take phi_v's exit
        shared: dict = {}
        hits = Counter()

        def check(ctx, rotation, expected):
            assert not ctx.tables.encoded
            for table in ("cold", "warm"):
                assert phi_v(ctx, rotation) == expected, (table, ctx.edges, rotation)
            other = BlocksAtV.make(1, ctx.edges, shared)
            encoded = other.tables.encoded
            size = len(encoded)
            assert phi_v(other, rotation) == expected, (ctx.edges, rotation)
            if ctx.b > 2:  # a miss below the cap adds its entry
                hits[len(encoded) == size < DECODED_PER_SHAPE] += 1

        for _ in range(2500):
            blocks = random_blocks(rng)
            ctx = BlocksAtV.make(1, blocks)
            c_vals = [rng.randrange(x) for x in ctx.c_bounds]
            d_vals = [rng.randrange(x) for x in ctx.d_bounds]
            merged = reference_phi_v_inverse(ctx, blocks, c_vals, d_vals, cases)
            assert reference_phi_v(ctx, merged) == (c_vals, d_vals)
            check(ctx, merged, (c_vals, d_vals))

            # A shuffle whose block runs do not nest is no planar rotation
            # at v: validate rejects it before phi_v runs, so only the
            # shuffles the reference accepts are compared.
            shuffled = rng.sample(merged, len(merged))
            expected = outcome(reference_phi_v, ctx, shuffled)
            if isinstance(expected, type):
                continue
            check(BlocksAtV.make(1, blocks), shuffled, expected)
            if ctx.b > 2:
                accepted_shuffles += 1
            else:
                two += 1
                blk = [ctx.block_of[w] for w in shuffled]
                interleaved += sum(x != y for x, y in zip(blk, blk[1:] + blk[:1])) > 2
        # Both merge cases occur, and shuffles that happen to be valid
        # merges of three or more blocks.
        assert cases["insert"] > 0 and cases["wrap"] > 0, cases
        assert accepted_shuffles > 50, accepted_shuffles
        # The reference accepts every two-block shuffle, those whose blocks
        # interleave too, and the exit agrees with it on each.
        assert two >= 300 and interleaved >= 100, (two, interleaved)
        # Shared tables held their entries for cut-vertices of later cases.
        assert hits[True] > 50, hits
        assert all(len(t.encoded) <= DECODED_PER_SHAPE for t in shared.values())
