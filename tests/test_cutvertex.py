"""phi_v / phi_v_inverse: arrangements of blocks around a cut-vertex."""

import itertools
import random
from collections import Counter
from dataclasses import dataclass

import pytest

from planarrank.cutvertex import (
    BlocksAtV,
    OpCounter,
    arrangement_count,
    phi_v,
    phi_v_inverse,
)
from planarrank.embedding import canonical_cycle, is_planar_rotation
from planarrank.errors import BoundViolation, EmbeddingMismatch
from planarrank.full import EmbeddingRanker
from planarrank.graph import Graph, UnionFind
from planarrank.oracle import enumerate_arrangements


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
    """Fixed data of v and the blocks' rotations at v, in its block order."""
    rotations = sorted((r[v] for r in blocks), key=min)
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
        assert arrangement_count([2, 3]) == 6

    def test_two_bridges(self):
        assert arrangement_count([1, 1]) == 1

    def test_three_bridges(self):
        assert arrangement_count([1, 1, 1]) == 2

    def test_matches_formula(self):
        deltas = [2, 2, 1, 3]
        total = sum(deltas)
        expected = 2 * 2 * 1 * 3 * (total - 1) * (total - 2)
        assert arrangement_count(deltas) == expected


class TestPhiV:
    @pytest.mark.parametrize("name,v,blocks", CONFIGS, ids=[c[0] for c in CONFIGS])
    def test_bijection_against_oracle(self, name, v, blocks):
        ctx, rotations = at_v(v, blocks)
        c_bounds, d_bounds = ctx.bounds()
        expected = arrangement_count(ctx.deltas)

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
        c_bounds, d_bounds = ctx.bounds()
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
        c_bounds, d_bounds = ctx.bounds()
        for c_vals in itertools.product(*[range(x) for x in c_bounds]):
            for d_vals in itertools.product(*[range(x) for x in d_bounds]):
                merged = phi_v_inverse(ctx, rotations, list(c_vals), list(d_vals))
                for r in rotations:
                    run = [w for w in merged if w in set(r)]
                    assert canonical_cycle(run) == canonical_cycle(list(r))

    def test_bound_violation(self):
        ctx = BlocksAtV.make(1, [[2], [3], [4]])
        with pytest.raises(BoundViolation):
            phi_v_inverse(ctx, [[2], [3], [4]], [0, 0, 0], [2])
        with pytest.raises(BoundViolation):
            phi_v_inverse(ctx, [[2], [3], [4]], [1, 0, 0], [0])

    @pytest.mark.parametrize("rotations", [[[2], [3]], [[2], [3, 5], [4]]])
    def test_rejects_rotations_not_matching_blocks(self, rotations):
        ctx = BlocksAtV.make(1, [[2], [3], [4]])
        with pytest.raises(EmbeddingMismatch):
            phi_v_inverse(ctx, rotations, [0, 0, 0], [0])

    @pytest.mark.parametrize("blocks,rotations,c_vals,d_vals", [
        # A foreign far endpoint in place of block 2's edge.
        ([[2], [3], [4]], [[2], [5], [4]], [0, 0, 0], [0]),
        # Right-sized rotations holding the other block's edges.
        ([[2, 3], [4, 5]], [[2, 5], [4, 3]], [0, 0], []),
        # A repeated far endpoint.
        ([[2, 3], [4, 5]], [[2, 2], [4, 5]], [0, 0], []),
        ([[2, 3], [4, 5], [6]], [[3, 2], [5, 5], [6]], [0, 0, 0], [0]),
    ], ids=["foreign", "swapped", "repeated", "repeated-later-block"])
    def test_rejects_rotations_with_other_edges(self, blocks, rotations,
                                                c_vals, d_vals):
        ctx = BlocksAtV.make(1, blocks)
        with pytest.raises(EmbeddingMismatch):
            phi_v_inverse(ctx, rotations, c_vals, d_vals)

    def test_rejects_foreign_rotation(self):
        ctx = BlocksAtV.make(1, [[2], [3], [4]])
        with pytest.raises(EmbeddingMismatch):
            phi_v(ctx, [2, 3, 5])

    def test_forward_work_is_linear_in_degree(self):
        # Operation-count ceiling: phi_v does O(delta_v) elementary steps.
        v, blocks = 1, [triangle(1, 2, 3), triangle(1, 4, 5), bridge(1, 6),
                       square(1, 7, 8, 9), bridge(1, 10)]
        ctx, rotations = at_v(v, blocks)
        c_bounds, d_bounds = ctx.bounds()
        worst = 0
        for c_vals in itertools.product(*[range(x) for x in c_bounds]):
            for d_vals in itertools.product(*[range(x) for x in d_bounds]):
                merged = phi_v_inverse(ctx, rotations, list(c_vals), list(d_vals))
                counter = OpCounter()
                phi_v(ctx, merged, counter)
                worst = max(worst, counter.ops)
        assert worst <= 12 * ctx.delta_v + 16


# ---------------------------------------------------------------------------
# Reference: the merge over one linked cell object per edge
# ---------------------------------------------------------------------------


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


class TestAgainstReferenceMerge:
    def test_random_cut_vertices_match_reference(self):
        rng = random.Random(20261018)
        cases = Counter()
        for _ in range(2000):
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
            ctx = BlocksAtV.make(1, blocks)
            c_vals = [rng.randrange(x) for x in ctx.c_bounds]
            d_vals = [rng.randrange(x) for x in ctx.d_bounds]
            expected = reference_phi_v_inverse(ctx, blocks, c_vals, d_vals, cases)
            assert phi_v_inverse(ctx, blocks, c_vals, d_vals) == expected, (
                blocks, c_vals, d_vals)
        assert cases["insert"] > 0 and cases["wrap"] > 0, cases


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
        rng = random.Random(7)
        for _ in range(5):
            r = rng.randrange(ranker.count())
            assert ranker.rank(ranker.unrank(r)) == r
