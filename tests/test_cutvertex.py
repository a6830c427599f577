"""phi_v / phi_v_inverse: arrangements of blocks around a cut-vertex."""

import itertools

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
from planarrank.graph import Graph
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
        ctx = BlocksAtV.make(v, [r[v] for r in blocks])
        c_bounds, d_bounds = ctx.bounds()
        expected = arrangement_count(ctx.deltas)

        produced = {}
        for c_vals in itertools.product(*[range(x) for x in c_bounds]):
            for d_vals in itertools.product(*[range(x) for x in d_bounds]):
                merged = phi_v_inverse(ctx, list(c_vals), list(d_vals))
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
        ctx = BlocksAtV.make(v, [r[v] for r in blocks])
        c_bounds, d_bounds = ctx.bounds()
        for c_vals in itertools.product(*[range(x) for x in c_bounds]):
            for d_vals in itertools.product(*[range(x) for x in d_bounds]):
                merged = phi_v_inverse(ctx, list(c_vals), list(d_vals))
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
        ctx = BlocksAtV.make(v, [r[v] for r in blocks])
        c_bounds, d_bounds = ctx.bounds()
        for c_vals in itertools.product(*[range(x) for x in c_bounds]):
            for d_vals in itertools.product(*[range(x) for x in d_bounds]):
                merged = phi_v_inverse(ctx, list(c_vals), list(d_vals))
                for j, r in enumerate(ctx.rotations, start=1):
                    run = [w for w in merged if w in set(r)]
                    assert canonical_cycle(run) == canonical_cycle(list(r))

    def test_bound_violation(self):
        ctx = BlocksAtV.make(1, [[2], [3], [4]])
        with pytest.raises(BoundViolation):
            phi_v_inverse(ctx, [0, 0, 0], [2])
        with pytest.raises(BoundViolation):
            phi_v_inverse(ctx, [1, 0, 0], [0])

    def test_rejects_foreign_rotation(self):
        ctx = BlocksAtV.make(1, [[2], [3], [4]])
        with pytest.raises(EmbeddingMismatch):
            phi_v(ctx, [2, 3, 5])

    def test_forward_work_is_linear_in_degree(self):
        # Operation-count ceiling: phi_v does O(delta_v) elementary steps.
        v, blocks = 1, [triangle(1, 2, 3), triangle(1, 4, 5), bridge(1, 6),
                       square(1, 7, 8, 9), bridge(1, 10)]
        ctx = BlocksAtV.make(v, [r[v] for r in blocks])
        c_bounds, d_bounds = ctx.bounds()
        worst = 0
        for c_vals in itertools.product(*[range(x) for x in c_bounds]):
            for d_vals in itertools.product(*[range(x) for x in d_bounds]):
                merged = phi_v_inverse(ctx, list(c_vals), list(d_vals))
                counter = OpCounter()
                phi_v(ctx, merged, counter)
                worst = max(worst, counter.ops)
        assert worst <= 12 * ctx.delta_v + 16
