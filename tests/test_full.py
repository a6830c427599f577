"""End-to-end rank/unrank, counting, sampling and enumeration."""

import dataclasses
import itertools
import os
import random
from bisect import bisect_right
from collections import Counter

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from _graphgen import TEMPLATES, atlas_planar, fan, p_fan, random_planar
from _linecount import doubling_ratios, executed_lines
from _oracle import TooLarge, enumerate_disconnected
from planarrank import cutvertex, full
from planarrank.biconnected import biconn_bounds, chi, chi_inverse
from planarrank.codecs import MixedRadix, check_bounds, tuple_rank, tuple_unrank
from planarrank.cutvertex import BlocksAtV, phi_v, phi_v_inverse
from planarrank.embedding import (PlanarEmbedding, canonical_neighbors, canonical_rotation,
                                  embeddings_equal, validate)
from planarrank.errors import BoundViolation, EmbeddingMismatch, NotPlanar, RankOutOfRange
from planarrank.full import (DECODED_PER_SHAPE, EmbeddingRanker, _BlockInfo,
                             _CutInfo, _Shape, count_embeddings, sample_uniform)
from planarrank.graph import Graph, block_cut_tree, connected_components, edge_id
from planarrank.nesting import NestingCodec
from planarrank.spqr import build_spqr
from test_cutvertex import reference_phi_v_inverse

FULL_PY = full.__file__
PACKAGE = os.path.dirname(full.__file__) + os.sep

TRIANGLE = Graph(3, [(1, 2), (1, 3), (2, 3)])

# Catalog of small graphs (n <= 6): connected, disconnected, multi-block,
# P-nodes (theta), R-nodes (K4, W4, prism), mixed.
CATALOG = [
    ("single-edge", Graph(2, [(1, 2)])),
    ("path-2", Graph(3, [(1, 2), (2, 3)])),
    ("path-3", Graph(4, [(1, 2), (2, 3), (3, 4)])),
    ("star-3", Graph(4, [(1, 2), (1, 3), (1, 4)])),
    ("triangle", TRIANGLE),
    ("c4", Graph(4, [(1, 2), (1, 4), (2, 3), (3, 4)])),
    ("c5", Graph(5, [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)])),
    ("k4", Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])),
    ("theta", Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])),
    ("diamond", Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])),
    ("triangle+pendant", Graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])),
    ("bowtie", Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])),
    ("triangle+2pendants", Graph(5, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5)])),
    ("k4+pendant", Graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)])),
    ("w4", Graph(5, [(1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)])),
    ("k23", Graph(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])),
    ("prism", Graph(6, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6),
                        (4, 5), (4, 6), (5, 6)])),
    ("theta+pendant", Graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5)])),
    ("two-edges", Graph(4, [(1, 2), (3, 4)])),
    ("three-edges", Graph(6, [(1, 2), (3, 4), (5, 6)])),
    ("triangle+edge", Graph(5, [(1, 2), (1, 3), (2, 3), (4, 5)])),
    ("two-triangles", Graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])),
    ("c4+edge", Graph(6, [(1, 2), (1, 4), (2, 3), (3, 4), (5, 6)])),
    ("path2+triangle", Graph(6, [(1, 2), (2, 3), (4, 5), (4, 6), (5, 6)])),
    ("star-4-at-2", Graph(5, [(1, 2), (2, 3), (2, 4), (2, 5)])),
    ("triangle-bridge-triangle", Graph(6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5),
                                           (4, 6), (5, 6)])),
    # At v=4 the bridge (3, 4) comes first, but the cycle through (1, 2)
    # has the smallest edge overall: at-v order differs from block order.
    ("c5-bridge-triangle", Graph(8, [(1, 2), (2, 5), (4, 5), (4, 6), (1, 6), (3, 4),
                                     (4, 7), (4, 8), (7, 8)])),
]


class TestCount:
    def test_triangle_has_two(self):
        ranker = EmbeddingRanker(TRIANGLE)
        assert ranker.bounds == [2]
        assert ranker.count() == 2

    def test_single_edge_has_one(self):
        assert count_embeddings(Graph(2, [(1, 2)])) == 1

    def test_non_planar_rejected(self):
        k5 = Graph(5, list(itertools.combinations(range(1, 6), 2)))
        with pytest.raises(NotPlanar):
            count_embeddings(k5)
        k33 = Graph(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
        with pytest.raises(NotPlanar):
            count_embeddings(k33)

    @pytest.mark.parametrize("name,g", CATALOG, ids=[c[0] for c in CATALOG])
    def test_count_matches_oracle(self, name, g):
        assert EmbeddingRanker(g).count() == len(enumerate_disconnected(g))


class TestBijection:
    def test_rank_zero_is_canonical_and_valid(self):
        for _, g in CATALOG:
            ranker = EmbeddingRanker(g)
            emb = ranker.unrank(0)
            assert validate(emb) == []
            assert ranker.phi(emb) == [0] * len(ranker.bounds)

    def test_max_rank_is_max_tuple(self):
        ranker = EmbeddingRanker(TRIANGLE)
        emb = ranker.unrank(ranker.count() - 1)
        assert validate(emb) == []
        assert ranker.phi(emb) == [b - 1 for b in ranker.bounds]

    @pytest.mark.parametrize("name,g", CATALOG, ids=[c[0] for c in CATALOG])
    def test_unranking_all_matches_oracle_set(self, name, g):
        ranker = EmbeddingRanker(g)
        total = ranker.count()
        produced = set()
        for r in range(total):
            emb = ranker.unrank(r)
            assert validate(emb) == []
            produced.add(emb.to_json())
            assert ranker.rank(emb) == r
        assert len(produced) == total
        assert produced == enumerate_disconnected(g)

    def test_rank_out_of_range(self):
        ranker = EmbeddingRanker(TRIANGLE)
        with pytest.raises(RankOutOfRange):
            ranker.unrank(2)

    def test_random_graphs_exhaustive_oracle_equality(self):
        # Beyond the fixed catalog: generator-shaped graphs, full set check.
        checked = 0
        for seed in range(60):
            g = random_planar(6, seed=seed, max_degree=6)
            if g.n > 8:
                continue
            ranker = EmbeddingRanker(g)
            try:
                oracle = enumerate_disconnected(g)
            except TooLarge:
                continue
            total = ranker.count()
            assert total == len(oracle)
            produced = {ranker.unrank(r).to_json() for r in range(total)}
            assert produced == oracle
            checked += 1
        assert checked >= 30

    def test_random_graphs_roundtrip(self):
        import random

        rng = random.Random(20240817)
        for i in range(30):
            g = random_planar(rng.randint(4, 10), seed=1000 + i)
            ranker = EmbeddingRanker(g)
            total = ranker.count()
            for _ in range(20):
                r = rng.randrange(total)
                emb = ranker.unrank(r)
                assert validate(emb) == []
                assert ranker.rank(emb) == r

    def test_roundtrip_with_p_node_below_r_node(self):
        # K4 plus a vertex on the pair {2, 3}: the P-node sits under the R-node.
        g = Graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)])
        ranker = EmbeddingRanker(g)
        assert ranker.count() == 20
        for r in range(20):
            assert ranker.rank(ranker.unrank(r)) == r

    def test_at_v_order_differs_from_block_order(self):
        g = dict(CATALOG)["c5-bridge-triangle"]
        ranker = EmbeddingRanker(g)
        (cut,) = ranker.cuts
        assert cut.v == 4 and cut.block_ids == [1, 0, 2]
        assert [info.edges[0] for info in ranker.blocks] == [(1, 2), (3, 4), (4, 7)]
        # (c, d digits, rotation at 4) for r mod 16; r // 16 is the
        # outer-face digit, which leaves the rotation alone.
        pinned = [
            ([0, 0, 0, 0], (3, 7, 8, 5, 6)), ([0, 0, 0, 1], (3, 5, 7, 8, 6)),
            ([0, 0, 0, 2], (3, 5, 6, 7, 8)), ([0, 0, 0, 3], (3, 7, 5, 6, 8)),
            ([0, 0, 1, 0], (3, 8, 7, 5, 6)), ([0, 0, 1, 1], (3, 5, 8, 7, 6)),
            ([0, 0, 1, 2], (3, 5, 6, 8, 7)), ([0, 0, 1, 3], (3, 8, 5, 6, 7)),
            ([0, 1, 0, 0], (3, 7, 8, 6, 5)), ([0, 1, 0, 1], (3, 6, 7, 8, 5)),
            ([0, 1, 0, 2], (3, 6, 5, 7, 8)), ([0, 1, 0, 3], (3, 7, 6, 5, 8)),
            ([0, 1, 1, 0], (3, 8, 7, 6, 5)), ([0, 1, 1, 1], (3, 6, 8, 7, 5)),
            ([0, 1, 1, 2], (3, 6, 5, 8, 7)), ([0, 1, 1, 3], (3, 8, 6, 5, 7)),
        ]
        assert ranker.count() == 48
        for r in range(48):
            digits, rot4 = pinned[r % 16]
            emb = ranker.unrank(r)
            assert ranker.phi(emb) == [r // 16] + digits
            assert emb.rot[4] == rot4

    def test_cut_vertex_data_built_once(self, monkeypatch):
        calls = []
        original = cutvertex.BlocksAtV.make.__func__

        def counted(cls, v, *args):
            calls.append(v)
            return original(cls, v, *args)

        monkeypatch.setattr(cutvertex.BlocksAtV, "make", classmethod(counted))
        g = random_planar(30, seed=3)
        ranker = EmbeddingRanker(g)
        assert len(ranker.cuts) >= 2
        assert sorted(calls) == [cut.v for cut in ranker.cuts]
        calls.clear()
        for r in range(0, ranker.count(), max(1, ranker.count() // 5)):
            assert ranker.rank(ranker.unrank(r)) == r
        list(ranker.sample(seed=5, k=3))
        list(ranker.enumerate(0, 3))
        assert calls == []

    def test_tuple_length_linear_in_n(self):
        for i in range(10):
            g = random_planar(40, seed=i)
            ranker = EmbeddingRanker(g)
            assert len(ranker.bounds) <= 4 * g.n


# Reference copy of the block rotation before it filtered by membership:
# it keeps the darts whose edge the edge -> block map assigns to each block.
def reference_block_rotations(ranker, emb):
    """Every block's rotation in its block-local ids, in block order."""
    block_of_edge = {e: i for i, info in enumerate(ranker.blocks) for e in info.edges}
    rots = [{} for _ in ranker.blocks]
    for x, nbrs in emb.rot.items():
        for w in nbrs:
            b = block_of_edge[edge_id(x, w)]
            to_local = ranker.blocks[b].to_local
            rots[b].setdefault(to_local[x], []).append(to_local[w])
    return rots


def reference_phi(ranker, emb):
    """phi without the encode table: every call runs chi on each block's
    rotation at its P- and R-node poles, which is all chi reads."""
    values = [0] * len(ranker.bounds)
    values[ranker.a], values[ranker.b] = ranker.nesting_codec.forward(
        list(emb.nesting), list(emb.face_tuple))
    for cut in ranker.cuts:
        values[cut.c], values[cut.d] = phi_v(cut.ctx, emb.rot[cut.v])
    for info, rot in zip(ranker.blocks, reference_block_rotations(ranker, emb)):
        if info.poles:
            values[info.p], values[info.r] = chi({i: rot[i] for _, i, *_ in info.poles},
                                                 info.tree)
    return values


def compare_block_rotations(ranker, rng, rounds):
    """rank, which reads block digits through the per-shape encode table,
    against the uncached reference on seeded ranks, each ranked twice so
    the second reads the table; returns how many pole entries dropped
    darts of other blocks (a pole at a cut-vertex)."""
    filtered = 0
    for _ in range(rounds):
        r = rng.randrange(ranker.count())
        emb = ranker.unrank(r)
        values = reference_phi(ranker, emb)
        assert tuple_rank(values, ranker.radix) == r
        assert ranker.phi(emb) == values
        assert ranker.rank(emb) == r
        filtered += sum(len(rot[i]) < len(emb.rot[x]) for info, rot in
                        zip(ranker.blocks, reference_block_rotations(ranker, emb))
                        for x, i, *_ in info.poles)
    return filtered


class TestBlockRotationAgainstReference:
    def test_random_graphs_with_cut_vertices(self):
        rng = random.Random(8)
        cut_graphs = filtered = 0
        for seed in range(40):
            ranker = EmbeddingRanker(random_planar(rng.randint(8, 30), seed=800 + seed))
            cut_graphs += bool(ranker.cuts)
            filtered += compare_block_rotations(ranker, rng, 3)
        assert cut_graphs >= 30 and filtered > 0

    def test_atlas(self):
        rng = random.Random(9)
        filtered = 0
        for g in atlas_planar():
            filtered += compare_block_rotations(EmbeddingRanker(g), rng, 2)
        assert filtered > 0

    @pytest.mark.parametrize("components", [1, 60], ids=["forest", "nested"])
    def test_forest_and_nested_graphs(self, components):
        # Many blocks share each of the seven template shapes, so most
        # block digits are read from the table after the first ranks.
        rng = random.Random(components)
        for seed in range(2):
            ranker = EmbeddingRanker(random_planar(600, seed=1700 + seed,
                                                   components=components))
            assert len(ranker.blocks) > 10 * len(ranker.shapes)
            compare_block_rotations(ranker, rng, 12)


class ReferenceLayout:
    """Reference copy of the tuple layout before each cut-vertex and block
    kept its own slices: six bound lists concatenated, phi joining six
    value lists, _split cutting the tuple, and phi_inverse walking it with
    running counters, blocks in block_order.  It reads the ranker's
    decomposition only; the block rotation cache is left out, because it
    does not change what phi_inverse returns."""

    def __init__(self, ranker):
        self.ranker = ranker
        self.block_order = sorted(range(len(ranker.blocks)),
                                  key=lambda b: ranker.blocks[b].edges[0])
        self.a_bounds = ranker.nesting_codec.bounds[: ranker.t - 1]
        self.b_bounds = list(ranker.face_counts)
        self.c_bounds = [c for cut in ranker.cuts for c in cut.ctx.c_bounds]
        self.d_bounds = [d for cut in ranker.cuts for d in cut.ctx.d_bounds]
        self.p_bounds = []
        self.r_bounds = []
        self._block_shapes = []  # (#p, #r) per block
        for b in self.block_order:
            bb = biconn_bounds(ranker.blocks[b].tree)
            y = len(ranker.blocks[b].tree.p_nodes())
            self.p_bounds.extend(bb[:y])
            self.r_bounds.extend(bb[y:])
            self._block_shapes.append((y, len(bb) - y))
        self.bounds = (self.a_bounds + self.b_bounds + self.c_bounds
                       + self.d_bounds + self.p_bounds + self.r_bounds)

    def _block_rotation(self, emb, b):
        info = self.ranker.blocks[b]
        to_local = info.to_local
        return {i: [to_local[w] for w in emb.rot[x] if w in to_local]
                for x, i, *_ in info.poles}

    def phi(self, emb):
        ranker = self.ranker
        if emb.graph != ranker.graph:
            raise EmbeddingMismatch("embedding belongs to a different graph")
        problems = validate(emb)
        if problems:
            raise EmbeddingMismatch("; ".join(problems))

        a_vals, b_vals = ranker.nesting_codec.forward(
            list(emb.nesting), list(emb.face_tuple)
        )

        c_vals = []
        d_vals = []
        for cut in ranker.cuts:
            cs, ds = phi_v(cut.ctx, emb.rot[cut.v])
            c_vals.extend(cs)
            d_vals.extend(ds)

        p_vals = []
        r_vals = []
        for bi, b in enumerate(self.block_order):
            if self._block_shapes[bi] == (0, 0):
                continue  # choice-free block (bridge, cycle)
            ps, rs = chi(self._block_rotation(emb, b), ranker.blocks[b].tree)
            p_vals.extend(ps)
            r_vals.extend(rs)
        return a_vals + b_vals + c_vals + d_vals + p_vals + r_vals

    def _split(self, values):
        out = []
        i = 0
        for seg in (self.a_bounds, self.b_bounds, self.c_bounds,
                    self.d_bounds, self.p_bounds, self.r_bounds):
            out.append(values[i:i + len(seg)])
            i += len(seg)
        return tuple(out)

    def phi_inverse(self, values):
        ranker = self.ranker
        check_bounds(values, self.bounds)
        a_vals, b_vals, c_vals, d_vals, p_vals, r_vals = self._split(values)

        block_rot = {}
        pi = ri = 0
        for bi, b in enumerate(self.block_order):
            y, z = self._block_shapes[bi]
            info = ranker.blocks[b]
            local = chi_inverse(p_vals[pi:pi + y], r_vals[ri:ri + z], info.tree)
            pi += y
            ri += z
            block_rot[b] = {
                info.to_global[x]: [info.to_global[w] for w in nbrs]
                for x, nbrs in local.items()
            }

        rot = {}
        for b, r in block_rot.items():
            for x, nbrs in r.items():
                if x in rot:
                    continue  # cut vertex, handled below
                rot[x] = nbrs
        ci = di = 0
        for cut in ranker.cuts:
            nc, nd = len(cut.ctx.c_bounds), len(cut.ctx.d_bounds)
            rot[cut.v] = phi_v_inverse(
                cut.ctx, [canonical_neighbors(block_rot[b][cut.v]) for b in cut.block_ids],
                c_vals[ci:ci + nc], d_vals[di:di + nd],
            )
            ci += nc
            di += nd

        tree, ft = ranker.nesting_codec.inverse(a_vals, b_vals)
        return PlanarEmbedding(ranker.graph, rot, tree, ft)


def compare_layouts(ranker, ranks):
    """Tuples and embeddings of the ranker against the reference layout."""
    ref = ReferenceLayout(ranker)
    assert ranker.bounds == ref.bounds
    for r in ranks:
        values = tuple_unrank(r, ranker.radix)
        emb = ranker.phi_inverse(values)
        assert emb.to_json() == ref.phi_inverse(values).to_json()
        assert ranker.phi(emb) == ref.phi(emb) == values


# Every segment: three components (a and b), cut-vertices 1 and 8 in three
# blocks each (c and d), a theta and a P-node below an R-node (p), and K4
# twice (r).  The bounds, the tuple and the embedding were captured before
# the layout moved onto the cut-vertices and blocks.
PINNED_GRAPH = Graph(18, [
    (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    (1, 5), (1, 6), (1, 7), (5, 6), (5, 7),
    (1, 8), (8, 9), (8, 10), (9, 10), (8, 11),
    (12, 13), (12, 14), (12, 15), (13, 14), (13, 15), (13, 16), (14, 15), (14, 16),
    (17, 18),
])
PINNED_BOUNDS = [11, 11, 7, 5, 1, 3, 3, 1, 1, 2, 1, 6, 3, 2, 2, 2, 2]
PINNED_RANK = 3197493
PINNED_TUPLE = [1, 6, 4, 1, 0, 2, 1, 0, 0, 0, 0, 2, 1, 0, 1, 0, 1]
PINNED_JSON = (
    '{"face_tuple": [4, 1, 0], "nesting": [[0, 1, 0], [1, 2, 1], [1, 3, 6]], '
    '"rotations": {"1": [2, 8, 6, 5, 7, 4, 3], "10": [8, 9], "11": [8], '
    '"12": [13, 14, 15], "13": [12, 15, 14, 16], "14": [12, 16, 13, 15], '
    '"15": [12, 14, 13], "16": [13, 14], "17": [18], "18": [17], '
    '"2": [1, 3, 4], "3": [1, 4, 2], "4": [1, 2, 3], "5": [1, 6, 7], '
    '"6": [1, 5], "7": [1, 5], "8": [1, 9, 11, 10], "9": [8, 10]}}'
)


class TestLayoutAgainstReference:
    def test_pinned_tuple(self):
        ranker = EmbeddingRanker(PINNED_GRAPH)
        assert ranker.t == 3 and [len(cut.ctx.edges) for cut in ranker.cuts] == [3, 3]
        assert ranker.bounds == PINNED_BOUNDS
        emb = ranker.unrank(PINNED_RANK)
        assert emb.to_json() == PINNED_JSON
        assert ranker.phi(emb) == PINNED_TUPLE
        assert tuple_rank(PINNED_TUPLE, MixedRadix(PINNED_BOUNDS)) == PINNED_RANK
        compare_layouts(ranker, [0, PINNED_RANK, ranker.count() - 1])

    def test_atlas(self):
        ranks = 0
        for g in atlas_planar():
            ranker = EmbeddingRanker(g)
            compare_layouts(ranker, range(ranker.count()))
            ranks += ranker.count()
        assert ranks == 46172

    def test_random_graphs(self):
        rng = random.Random(10)
        for seed in range(30):
            ranker = EmbeddingRanker(random_planar(rng.randint(8, 40), seed=900 + seed))
            compare_layouts(ranker, [rng.randrange(ranker.count()) for _ in range(10)])


class ReferenceConstruction(EmbeddingRanker):
    """Reference copy of the ranker's set-up before blocks with the same
    local graph shared one SPQR-tree: a whole-graph networkx planarity
    test, then one build_spqr call per block.  That call skipped its own
    tests then (pretested=True, now removed); testing the block again
    does not change the tree.  rank and unrank are the ranker's own."""

    def __init__(self, graph: Graph) -> None:
        if not nx.check_planarity(nx.Graph(graph.edges))[0]:
            raise NotPlanar("graph admits no planar embedding")
        self.graph = graph
        self.comps = connected_components(graph)
        self.t = len(self.comps)

        self.face_counts = []
        self.blocks = []
        self.shapes = {}
        cut_vertices = []

        comp_of = {v: ci for ci, (_, comp) in enumerate(self.comps) for v in comp}
        comp_edges = [[] for _ in self.comps]
        for u, v in graph.edges:
            comp_edges[comp_of[u]].append((u, v))

        for ci, (_, comp) in enumerate(self.comps):
            order = sorted(comp)
            to_local = {v: i + 1 for i, v in enumerate(order)}
            to_global = {i + 1: v for i, v in enumerate(order)}
            edges = [(to_local[u], to_local[v]) for u, v in comp_edges[ci]]
            sub = Graph(len(order), edges)
            self.face_counts.append(sub.m - sub.n + 2)
            bct = block_cut_tree(sub)

            for blk in bct.blocks:
                verts, key = blk.local()
                bg = Graph(*key)
                inv = {i: to_global[v] for i, v in enumerate(verts, start=1)}
                fwd = {to_global[v]: i for i, v in enumerate(verts, start=1)}
                g_edges = sorted(
                    (min(inv[a], inv[b]), max(inv[a], inv[b])) for a, b in bg.edges
                )
                tree = build_spqr(bg)
                # Its own tables: no tree, and so no table, is shared.
                self.shapes[tree] = _Shape(
                    tuple({nd.poles[0] for nd in tree.nodes if nd.kind in ("P", "R")}))
                info = _BlockInfo(ci, g_edges, fwd, inv, tree)
                info.decided = tuple(
                    (inv[x], x) for x in bg.vertices
                    if bg.degree(x) >= 3 and verts[x - 1] not in bct.cut_vertices)
                self.blocks.append(info)
            cut_vertices.extend(to_global[v] for v in bct.cut_vertices)
        self.blocks.sort(key=lambda info: info.edges[0])

        block_of_edge = {
            e: b for b, info in enumerate(self.blocks) for e in info.edges
        }
        self.cuts = []
        for v in sorted(cut_vertices):
            at_v = {}
            for w in graph.adj[v]:
                at_v.setdefault(block_of_edge[edge_id(v, w)], []).append(w)
            ctx = BlocksAtV.make(v, at_v.values())
            ids = [block_of_edge[edge_id(v, ws[0])] for ws in ctx.edges]
            self.cuts.append(_CutInfo(v, comp_of[v], ids, ctx))
        # At a cut-vertex pole, a block's edges follow those of the blocks
        # before it in ctx's order.
        cut_index = {cut.v: k for k, cut in enumerate(self.cuts)}
        for b, info in enumerate(self.blocks):
            poles = []
            for u in self.shapes[info.tree].poles:
                x = info.to_global[u]
                k = cut_index.get(x, -1)
                if k < 0:
                    poles.append((x, u, -1, 0, 0))
                    continue
                cut = self.cuts[k]
                j = cut.block_ids.index(b)
                lo = sum(len(ws) for ws in cut.ctx.edges[:j])
                poles.append((x, u, k, lo, lo + len(cut.ctx.edges[j])))
            info.poles = tuple(poles)
        # A block with at most two edges at v has one rotation there.
        for cut in self.cuts:
            cut.at_v = []
            for b, ws in zip(cut.block_ids, cut.ctx.edges):
                info = self.blocks[b]
                cut.at_v.append((tuple(sorted(ws)), 0, 0, ()) if len(ws) <= 2
                                else ((), b, info.to_local[cut.v], info.to_global))
        self.nesting_codec = NestingCodec(self.face_counts)
        # Read off the edge list: a vertex with at most two neighbors has
        # one rotation, (smaller, larger); every unrank writes each other
        # vertex over its empty placeholder.
        ends = {v: [] for v in range(1, graph.n + 1)}
        for u, w in graph.edges:
            ends[u].append(w)
            ends[w].append(u)
        self.base = {v: tuple(sorted(ws)) if len(ws) <= 2 else () for v, ws in ends.items()}

        self.bounds = []

        def segment(bounds) -> slice:
            start = len(self.bounds)
            self.bounds.extend(bounds)
            return slice(start, len(self.bounds))

        self.a = segment(self.nesting_codec.bounds[: self.t - 1])
        self.b = segment(self.face_counts)
        for cut in self.cuts:
            cut.c = segment(cut.ctx.c_bounds)
        for cut in self.cuts:
            cut.d = segment(cut.ctx.d_bounds)
        chi_bounds = [(biconn_bounds(info.tree), len(info.tree.conventional[0]))
                      for info in self.blocks]
        for info, (bb, y) in zip(self.blocks, chi_bounds):
            info.p = segment(bb[:y])
        for info, (bb, y) in zip(self.blocks, chi_bounds):
            info.r = segment(bb[y:])
        self.radix = MixedRadix(self.bounds)


def local_graph(info) -> Graph:
    """A block's graph in its block-local ids."""
    to_local = info.to_local
    return Graph(len(to_local), [(to_local[u], to_local[v]) for u, v in info.edges])


def compare_construction(g: Graph, rng: random.Random, k: int = 24) -> int:
    """The ranker against the reference set-up: decomposition dump,
    bounds, and the tuples and embeddings of every rank (at most k, else
    k seeded ones) agree, and every distinct block-local graph has
    exactly one tree.  Returns how many blocks reuse a tree."""
    new, ref = EmbeddingRanker(g), ReferenceConstruction(g)
    assert len(ref.shapes) == len(ref.blocks)  # one tree and table pair each
    assert new.bounds == ref.bounds
    assert list(new.base.items()) == list(ref.base.items())
    assert len(new.blocks) == len(ref.blocks)
    for a, b in zip(new.blocks, ref.blocks):
        assert (a.edges, a.poles, a.decided) == (b.edges, b.poles, b.decided)
        assert a.tree.dump(relabel=a.to_global) == b.tree.dump(relabel=b.to_global)
    assert [[(fixed, b, x) for fixed, b, x, _ in cut.at_v] for cut in new.cuts] == [
        [(fixed, b, x) for fixed, b, x, _ in cut.at_v] for cut in ref.cuts]
    count = new.count()
    ranks = range(count) if count <= k else [0, count - 1] + [
        rng.randrange(count) for _ in range(k - 2)]
    for r in ranks:
        values = tuple_unrank(r, new.radix)
        emb = new.unrank(r)
        assert emb.to_json() == ref.unrank(r).to_json()
        assert new.phi(emb) == ref.phi(emb) == values

    tree_of: dict[Graph, object] = {}
    for info in new.blocks:
        local = local_graph(info)
        assert info.tree.graph == local
        assert tree_of.setdefault(local, info.tree) is info.tree
    assert len({id(tree) for tree in tree_of.values()}) == len(tree_of)
    return len(new.blocks) - len(tree_of)


class TestConstructionAgainstReference:
    def test_atlas(self):
        rng = random.Random(12)
        for g in atlas_planar():
            compare_construction(g, rng)

    def test_random_graphs(self):
        rng = random.Random(13)
        reused = 0
        for seed in range(30):
            g = random_planar(10 + 2 * seed, seed=1300 + seed)
            reused += compare_construction(g, rng)
        assert reused == 240  # of 421 blocks

    def test_tree_is_built_once_per_shape(self, monkeypatch):
        built = []

        def counted(bg):
            built.append(bg)
            return build_spqr(bg)

        class CountedGraph(Graph):
            made = 0

            def __init__(self, n, edges):
                CountedGraph.made += 1
                super().__init__(n, edges)

        monkeypatch.setattr(full, "build_spqr", counted)
        monkeypatch.setattr(full, "Graph", CountedGraph)
        g = block_chain([TEMPLATES[i % len(TEMPLATES)] for i in range(70)])
        ranker = EmbeddingRanker(g)
        assert len(ranker.blocks) == 70
        assert len(built) == len(set(built)) == len({local_graph(b) for b in ranker.blocks})
        assert len(built) < 20
        # One Graph per distinct block graph; blocks are found in global
        # ids, so the component needs none.
        assert CountedGraph.made == len(built)


def block_chain(templates) -> Graph:
    """One connected graph of blocks glued in a path: each template's
    vertex 0 is the previous block's highest vertex."""
    edges = []
    last, next_id = 1, 2
    for t in templates:
        k = max(max(e) for e in t)
        ids = [last, *range(next_id, next_id + k)]
        next_id += k
        edges.extend((ids[a], ids[b]) for a, b in t)
        last = ids[-1]
    return Graph(next_id - 1, edges)


def without_isolated(g: nx.Graph) -> Graph | None:
    """g relabeled to 1..n without its isolated vertices; None if edgeless."""
    keep = sorted(v for v in g if g.degree(v))
    label = {v: i + 1 for i, v in enumerate(keep)}
    return Graph(len(keep), [(label[u], label[v]) for u, v in g.edges]) if keep else None


def ranker_accepts(g: Graph) -> bool:
    try:
        EmbeddingRanker(g)
    except NotPlanar as exc:
        assert str(exc) == "graph admits no planar embedding"
        return False
    return True


K33 = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]
K23 = [(a, b) for a in (0, 1) for b in (2, 3, 4)]


class TestPlanarityPerBlock:
    """The ranker tests planarity per distinct block only; it must reject
    exactly the graphs networkx finds non-planar."""

    def test_atlas(self):
        seen = {True: 0, False: 0}
        for nx_g in graph_atlas_g():
            g = without_isolated(nx_g)
            if g is None:
                continue
            planar = nx.check_planarity(nx_g)[0]
            assert ranker_accepts(g) == planar, g.edges
            seen[planar] += 1
        assert seen == {True: 1008, False: 237}

    def test_random_gnm(self):
        rng = random.Random(14)
        seen = {True: 0, False: 0}
        for seed in range(300):
            n = rng.randint(6, 40)
            nx_g = nx.gnm_random_graph(n, rng.randint(n, 2 * n), seed=seed)
            planar = nx.check_planarity(nx_g)[0]
            assert ranker_accepts(without_isolated(nx_g)) == planar, seed
            seen[planar] += 1
        assert seen == {True: 127, False: 173}

    def test_repeated_k33_block_after_planar_blocks(self):
        planar = [TEMPLATES[i % len(TEMPLATES)] for i in range(60)]
        assert ranker_accepts(block_chain(planar + [K23] + planar + [K23]))
        assert not ranker_accepts(block_chain(planar + [K33] + planar + [K33]))


class ReferenceBlockCache:
    """Reference copy of phi_inverse before the decode cache moved from the
    blocks to the ranker: each block kept its first 16 decoded rotations,
    in global ids, by its (p digits, r digits).  It reads the ranker's
    decomposition only."""

    def __init__(self, ranker):
        self.ranker = ranker
        self.rotations = [{} for _ in ranker.blocks]

    def phi_inverse(self, values):
        ranker = self.ranker
        check_bounds(values, ranker.bounds)
        block_rot = []
        for info, cache in zip(ranker.blocks, self.rotations):
            key = (tuple(values[info.p]), tuple(values[info.r]))
            cached = cache.get(key)
            if cached is None:
                local = chi_inverse(list(key[0]), list(key[1]), info.tree)
                cached = {
                    info.to_global[x]: [info.to_global[w] for w in nbrs]
                    for x, nbrs in local.items()
                }
                if len(cache) < 16:
                    cache[key] = cached
            block_rot.append(cached)

        rot = {}
        for r in block_rot:
            for x, nbrs in r.items():
                if x in rot:
                    continue  # cut vertex, handled below
                rot[x] = nbrs
        for cut in ranker.cuts:
            rot[cut.v] = phi_v_inverse(
                cut.ctx, [canonical_neighbors(block_rot[b][cut.v]) for b in cut.block_ids],
                values[cut.c], values[cut.d],
            )
        tree, ft = ranker.nesting_codec.inverse(values[ranker.a], values[ranker.b])
        return PlanarEmbedding(ranker.graph, rot, tree, ft)


def compare_decoders(ranker, ranks):
    """The ranker's phi_inverse against the per-block-cache reference on
    these ranks, in this order, both caches carried across ranks."""
    ref = ReferenceBlockCache(ranker)
    for r in ranks:
        values = tuple_unrank(r, ranker.radix)
        new, old = ranker.phi_inverse(values), ref.phi_inverse(values)
        assert list(new.rot) == sorted(old.rot)  # ascending, as the base is keyed
        assert new.to_json() == old.to_json()


# One P-node with five branches: 4! = 24 embeddings, more than a shape keeps.
K25 = [(a, b) for a in (0, 1) for b in range(2, 7)]


def repeated_shapes_chain(copies: int) -> Graph:
    """A block chain of every template and K2,5, each repeated."""
    return block_chain([*TEMPLATES, K25] * copies)


class TestDecodeCacheAgainstReference:
    def test_atlas(self):
        ranks = 0
        for g in atlas_planar():
            ranker = EmbeddingRanker(g)
            compare_decoders(ranker, range(ranker.count()))
            ranks += ranker.count()
        assert ranks == 46172

    def test_repeated_block_shapes(self):
        rng = random.Random(15)
        graphs = [repeated_shapes_chain(k) for k in (1, 3, 6)]
        graphs += [random_planar(rng.randint(20, 60), seed=1500 + seed)
                   for seed in range(20)]
        blocks = shapes = 0
        for g in graphs:
            ranker = EmbeddingRanker(g)
            count = ranker.count()
            ranks = [0, count - 1] + [rng.randrange(count) for _ in range(40)]
            compare_decoders(ranker, ranks + ranks[::-1])  # repeats hit both caches
            blocks += len(ranker.blocks)
            shapes += len(ranker.shapes)
        assert 2 * shapes < blocks  # most blocks decode through a shared shape


class TestDecodeCacheBound:
    def test_at_most_16_keys_per_shape_after_2000_ranks(self):
        assert DECODED_PER_SHAPE == 16
        assert {f.name for f in dataclasses.fields(_BlockInfo)} == {
            "comp", "edges", "to_local", "to_global", "tree", "poles", "decided", "p", "r"}
        ranker = EmbeddingRanker(repeated_shapes_chain(12))  # 96 blocks
        trees = {id(info.tree): info.tree for info in ranker.blocks}
        rng = random.Random(16)
        ranks = set()
        while len(ranks) < 2000:
            ranks.add(rng.randrange(ranker.count()))
        for r in sorted(ranks):
            ranker.unrank(r)
        sizes = {id(tree): len(shape.decoded) for tree, shape in ranker.shapes.items()}
        assert sizes.keys() <= trees.keys()
        assert max(sizes.values()) == DECODED_PER_SHAPE  # K2,5 fills its cap
        assert sum(sizes.values()) <= DECODED_PER_SHAPE * len(trees)
        for r in sorted(ranks, reverse=True)[:200]:
            ranker.unrank(r)
        assert {id(tree): len(shape.decoded) for tree, shape in ranker.shapes.items()} == sizes


class ReferenceWrites:
    """Reference copy of _decode_blocks and _merge_cuts before unrank wrote
    each vertex once: a decoded block writes every vertex of local degree
    >= 3, a cut-vertex too, and a merge gathers the blocks' rotations at v
    as lists of global ids and makes the merged list canonical.  Blocks
    decode through chi_inverse alone, without the shape's table, and each
    merge runs the cell-based reference merge.  It reads the ranker's
    decomposition only, and records the vertices each call writes."""

    def __init__(self, ranker):
        self.ranker = ranker
        self.written = set()

    def decode_blocks(self, values, block_ids, block_rot, rot):
        for b in block_ids:
            info = self.ranker.blocks[b]
            local = canonical_rotation(
                chi_inverse(list(values[info.p]), list(values[info.r]), info.tree))
            block_rot[b] = local
            to_global = info.to_global
            for x, nbrs in info.tree.graph.adj.items():
                if len(nbrs) >= 3:
                    rot[to_global[x]] = tuple(to_global[w] for w in local[x])
                    self.written.add(to_global[x])

    def merge_cuts(self, values, cuts, block_rot, rot):
        for cut in cuts:
            at_v = []
            for b in cut.block_ids:
                info = self.ranker.blocks[b]
                at_v.append([info.to_global[w] for w in block_rot[b][info.to_local[cut.v]]])
            rot[cut.v] = canonical_neighbors(reference_phi_v_inverse(
                cut.ctx, at_v, values[cut.c], values[cut.d], Counter()))
            self.written.add(cut.v)

    def phi_inverse(self, values):
        """(rotation, nesting, face tuple) of a digit tuple."""
        ranker = self.ranker
        block_rot = [None] * len(ranker.blocks)
        rot = ranker.base.copy()
        self.decode_blocks(values, range(len(ranker.blocks)), block_rot, rot)
        self.merge_cuts(values, ranker.cuts, block_rot, rot)
        return (rot, *ranker.nesting_codec.inverse(values[ranker.a], values[ranker.b]))

    def enumerate(self, start, limit):
        """The enumerate loop on these copies: (rank, rotation, the
        vertices the step wrote) of each item."""
        ranker = self.ranker
        top, block_reach, blocks, cut_reach, cuts = ranker._owners_by_reach
        bounds = ranker.bounds
        values = tuple_unrank(start, ranker.radix)
        block_rot = [None] * len(ranker.blocks)
        rot = ranker.base.copy()
        i = -1
        for r in range(start, min(ranker.count(), start + limit)):
            if r > start:
                i = top
                while values[i] == bounds[i] - 1:
                    values[i] = 0
                    i -= 1
                values[i] += 1
            self.written = set()
            self.decode_blocks(values, blocks[bisect_right(block_reach, i):], block_rot, rot)
            self.merge_cuts(values, cuts[bisect_right(cut_reach, i):], block_rot, rot)
            yield r, dict(rot), self.written


def compare_writes(ranker, ranks, seed, steps):
    """unrank, sample and enumerate against ReferenceWrites: the same
    rotation, in the same key order, nesting and face tuple; and each
    enumerate item shares with the one before it the tuple of every
    vertex the reference's step did not write.  Returns how many tuples
    were found shared."""
    ref = ReferenceWrites(ranker)

    def check(emb, values):
        rot, tree, ft = ref.phi_inverse(values)
        assert list(emb.rot.items()) == list(rot.items())
        assert (emb.nesting, emb.face_tuple) == (tree, ft)

    for r in ranks:
        check(ranker.unrank(r), tuple_unrank(r, ranker.radix))
    rng = random.Random(seed)
    for emb in ranker.sample(seed, 3):
        check(emb, tuple_unrank(rng.randrange(ranker.count()), ranker.radix))
    start = rng.randrange(max(1, ranker.count() - steps))
    shared = 0
    prev = None
    for (r, emb), (r_ref, rot, written) in zip(ranker.enumerate(start, steps),
                                               ref.enumerate(start, steps)):
        assert r == r_ref and list(emb.rot.items()) == list(rot.items())
        check(emb, tuple_unrank(r, ranker.radix))
        if prev is not None:
            kept = [v for v in rot if v not in written]
            assert all(emb.rot[v] is prev.rot[v] for v in kept), r
            shared += len(kept)
        prev = emb
    return shared


class TestWritesAgainstReference:
    @pytest.mark.parametrize("components", [1, 60], ids=["forest", "nested"])
    def test_forest_and_nested_graphs(self, components):
        rng = random.Random(28 + components)
        for seed in range(2):
            ranker = EmbeddingRanker(random_planar(400, seed=2800 + seed,
                                                   components=components))
            assert any(cut.ctx.b == 2 for cut in ranker.cuts)
            assert any(cut.ctx.b > 2 for cut in ranker.cuts)
            count = ranker.count()
            ranks = [0, count - 1] + [rng.randrange(count) for _ in range(6)]
            assert compare_writes(ranker, ranks, seed, 40) > 0

    def test_atlas(self):
        rng = random.Random(29)
        shared = 0
        for g in atlas_planar():
            ranker = EmbeddingRanker(g)
            count = ranker.count()
            ranks = range(count) if count <= 6 else [rng.randrange(count) for _ in range(6)]
            shared += compare_writes(ranker, ranks, rng.randrange(100), 8)
        assert shared > 0

    @pytest.mark.parametrize("components", [1, 60], ids=["forest", "nested"])
    def test_decode_writes_no_cut_vertex(self, components):
        """_decode_blocks writes exactly the vertices of degree >= 3 that are
        no cut-vertex, each once; every cut-vertex is _merge_cuts' alone."""
        ranker = EmbeddingRanker(random_planar(400, seed=2810, components=components))
        cut_vertices = {cut.v for cut in ranker.cuts}
        assert any(ranker.graph.degree(v) >= 3 for v in cut_vertices)
        sentinel = ("sentinel",)
        decided = [v for v in ranker.graph.adj
                   if ranker.graph.degree(v) >= 3 and v not in cut_vertices]
        rng = random.Random(components)
        for _ in range(5):
            values = tuple_unrank(rng.randrange(ranker.count()), ranker.radix)
            rot = dict.fromkeys(ranker.graph.adj, sentinel)
            ranker._decode_blocks(values, range(len(ranker.blocks)),
                                  [None] * len(ranker.blocks), rot)
            assert all(rot[v] is sentinel for v in cut_vertices)
            assert [v for v, nbrs in rot.items() if nbrs is not sentinel] == decided
        assert sorted(x for info in ranker.blocks for x, _ in info.decided) == decided


def table_snapshot(ranker):
    """Every shape's decode and encode table, copied."""
    return {id(tree): (dict(shape.decoded), dict(shape.encoded))
            for tree, shape in ranker.shapes.items()}


# The wheel with hub 1 is one R-node whose pole, the hub, has four
# skeleton edges: of the three cyclic orders there, two are planar.
W4_HUB = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (4, 5)])


class TestEncodeTable:
    def test_at_most_16_keys_per_shape_after_1000_ranks(self):
        ranker = EmbeddingRanker(repeated_shapes_chain(12))  # 96 blocks
        rng = random.Random(18)
        embs = [ranker.unrank(rng.randrange(ranker.count())) for _ in range(1000)]
        for emb in embs:
            ranker.rank(emb)
        sizes = {id(tree): len(shape.encoded) for tree, shape in ranker.shapes.items()}
        assert max(sizes.values()) == DECODED_PER_SHAPE  # K2,5 fills its cap
        assert all(len(shape.decoded) <= DECODED_PER_SHAPE
                   for shape in ranker.shapes.values())
        for emb in embs[:200]:
            ranker.rank(emb)
        assert {id(tree): len(shape.encoded)
                for tree, shape in ranker.shapes.items()} == sizes

    def test_rejected_rank_leaves_every_table_unchanged(self):
        ranker = EmbeddingRanker(W4_HUB)
        for r in range(ranker.count()):
            assert ranker.rank(ranker.unrank(r)) == r
        before = table_snapshot(ranker)
        assert sum(len(enc) for _, enc in before.values()) == 2  # both reflections

        rot = dict(ranker.unrank(0).rot)
        rot[1] = [2, 5, 3, 4]
        bad = PlanarEmbedding(W4_HUB, rot)
        with pytest.raises(EmbeddingMismatch, match="violates Euler's formula"):
            ranker.rank(bad)
        assert table_snapshot(ranker) == before

    def test_rejected_ranks_on_a_forest(self):
        ranker = EmbeddingRanker(random_planar(300, seed=1801, components=1))
        rng = random.Random(19)
        for _ in range(20):
            ranker.rank(ranker.unrank(rng.randrange(ranker.count())))
        before = table_snapshot(ranker)
        rejected = 0
        for _ in range(40):
            rot = dict(ranker.unrank(rng.randrange(ranker.count())).rot)
            v = rng.choice([x for x in rot if len(rot[x]) >= 3])
            nbrs = rot[v] = list(rot[v])
            i, j = rng.sample(range(len(nbrs)), 2)
            nbrs[i], nbrs[j] = nbrs[j], nbrs[i]
            try:
                ranker.rank(PlanarEmbedding(ranker.graph, rot))
            except EmbeddingMismatch:
                rejected += 1
        assert rejected > 10
        assert table_snapshot(ranker) == before


# One cut-vertex, 1, with three blocks (K4, the theta graph on 1, 5, 6, 7
# and a bridge) and a triangle beside them: each segment of the tuple has
# a digit whose bound exceeds 1.
SEGMENTED = Graph(11, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (2, 3),
                       (2, 4), (3, 4), (5, 6), (5, 7), (9, 10), (9, 11), (10, 11)])


class TestBoundaryChecksDigits:
    """Unrank, sample and enumerate decode digits that passed check_bounds
    (or tuple_unrank), and no layer below checks them again: an
    out-of-range digit in any segment stops at phi_inverse's check."""

    @pytest.mark.parametrize("segment", ["a", "b", "c", "d", "p", "r"])
    def test_out_of_range_digit(self, segment):
        ranker = EmbeddingRanker(SEGMENTED)
        (cut,) = ranker.cuts
        slices = {"a": [ranker.a], "b": [ranker.b], "c": [cut.c], "d": [cut.d],
                  "p": [info.p for info in ranker.blocks],
                  "r": [info.r for info in ranker.blocks]}[segment]
        bounds = ranker.bounds
        i = next(j for s in slices for j in range(s.start, s.stop) if bounds[j] > 1)
        for x in (bounds[i], -1):
            values = [0] * len(bounds)
            values[i] = x
            with pytest.raises(BoundViolation) as info:
                ranker.phi_inverse(values)
            assert str(info.value) == f"value b_{i + 1}={x} outside 0..{bounds[i] - 1}"


def hub(k):
    """k K4 blocks sharing vertex 1."""
    edges = []
    for i in range(k):
        a, b, c = 3 * i + 2, 3 * i + 3, 3 * i + 4
        edges += [(1, a), (1, b), (1, c), (a, b), (a, c), (b, c)]
    return Graph(3 * k + 1, edges)


class TestRankAtAHub:
    def test_work_under_doubling(self):
        """Each K4's R-node has its pole at the hub, so rank reads every
        block's rotation there; doubling the blocks at most about doubles
        the lines of full.py that one rank executes."""
        counts = []
        for k in (100, 200, 400, 800):
            ranker = EmbeddingRanker(hub(k))
            assert {x for info in ranker.blocks for x, *_ in info.poles} == {1}
            emb = ranker.unrank(ranker.count() // 3)
            counts.append(executed_lines(FULL_PY, ranker.rank, emb))
        assert max(doubling_ratios(counts)) <= 2.2, counts

    @pytest.mark.parametrize("family,sizes", [
        (fan, [50, 100, 200, 400]),
        (p_fan, [31, 62, 125]),
    ], ids=["fan", "p-fan"])
    def test_chi_under_doubling(self, family, sizes):
        """Every P-node of the fan, and the P-fan's P-node with its k
        children, has its lower pole at a hub of degree about k.  chi
        places each skeleton edge there by one real edge, so doubling k
        at most about doubles the lines the package executes in one
        rank.  The ranker is fresh, so its encode tables are empty and
        chi runs on every block."""
        counts = []
        for k in sizes:
            ranker = EmbeddingRanker(family(k))
            emb = ranker.unrank(ranker.count() // 3)
            assert not any(shape.encoded for shape in ranker.shapes.values())
            counts.append(executed_lines(PACKAGE, ranker.rank, emb))
        assert max(doubling_ratios(counts)) <= 2.2, counts


class TestSampleEnumerate:
    def test_unique_embedding_any_seed(self):
        g = Graph(2, [(1, 2)])
        e1 = sample_uniform(g, 1)
        e2 = sample_uniform(g, 999)
        assert embeddings_equal(e1, e2)

    @pytest.mark.parametrize("g", [CATALOG[11][1], random_planar(300, seed=7, components=12)],
                             ids=["bowtie", "nested"])
    def test_sample_is_unrank_of_uniform_ranks(self, g):
        """sample(seed, k) is the unranks of k draws of
        random.Random(seed).randrange(count), in order."""
        ranker = EmbeddingRanker(g)
        for seed in (0, 1, 2024):
            rng = random.Random(seed)
            want = [ranker.unrank(rng.randrange(ranker.count())) for _ in range(6)]
            got = list(ranker.sample(seed, 6))
            assert [e.to_json() for e in got] == [e.to_json() for e in want]

    def test_fixed_seed_is_deterministic(self):
        g = CATALOG[11][1]  # bowtie
        ranker = EmbeddingRanker(g)
        runs = [[e.to_json() for e in ranker.sample(seed=42, k=5)] for _ in range(2)]
        assert runs[0] == runs[1]

    def test_enumerate_triangle(self):
        ranker = EmbeddingRanker(TRIANGLE)
        items = list(ranker.enumerate(0, 10))
        assert [r for r, _ in items] == [0, 1]
        assert not embeddings_equal(items[0][1], items[1][1])

    def test_enumerate_from_last(self):
        ranker = EmbeddingRanker(TRIANGLE)
        items = list(ranker.enumerate(ranker.count() - 1, None))
        assert len(items) == 1

    def test_enumerate_matches_unrank(self):
        g = CATALOG[12][1]
        ranker = EmbeddingRanker(g)
        for r, emb in ranker.enumerate(2, 5):
            assert embeddings_equal(emb, ranker.unrank(r))
