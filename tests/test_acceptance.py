"""Acceptance criteria: one test per criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import itertools
import math
import random
import time
from math import factorial

import pytest

from _graphgen import random_planar
from _oracle import (
    enumerate_arrangements,
    enumerate_connected,
    enumerate_disconnected,
    prufer_rank,
    prufer_unrank,
)
from planarrank.biconnected import biconn_bounds
from planarrank.codecs import MixedRadix, perm_rank, perm_unrank, tuple_rank, tuple_unrank
from planarrank.cutvertex import BlocksAtV
from planarrank.embedding import validate
from planarrank.full import EmbeddingRanker
from planarrank.graph import Graph, block_cut_tree, edge_id
from planarrank.nesting import (
    NestingCodec,
    face_intervals,
    nesting_decode,
    nesting_encode,
    nesting_tuple_preprocess,
)
from planarrank.spqr import build_spqr
from test_full import CATALOG


def report(criterion: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


class TestAcceptance:
    def test_01_mixed_radix_worked_example(self):
        """Criterion 1: the 22-element worked example, exact."""
        values = [0, 11, 1, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 2, 1, 6, 1, 4, 5, 0, 1]
        bounds = [17, 17, 17, 2, 9, 8, 1, 2, 3, 1, 2, 2, 2, 4, 9, 8, 7, 2, 6, 6, 2, 2]
        t0 = time.perf_counter()
        radix = MixedRadix(bounds)
        ok = (tuple_rank(values, radix) == 754705812645
              and tuple_unrank(754705812645, radix) == values
              and radix.total == 19716667342848)
        elapsed = time.perf_counter() - t0
        report("1 (mixed-radix worked example)", ok and elapsed < 0.1)

    def test_02_prufer_sequence_4_1_5_4_5(self):
        """Criterion 2: the rooted 6-node tree <-> 4,1,5,4,5, exact."""
        edges, root = prufer_unrank([4, 1, 5, 4, 5])
        ok = (root == 5
              and len(edges) == 5
              and prufer_rank(edges, root, 6) == [4, 1, 5, 4, 5])
        report("2 (Pruefer 4,1,5,4,5 roundtrip)", ok)

    def test_03_nesting_variant_10_3_0_13(self):
        """Criterion 3: preprocessing and decode/encode of <10,3,0,13>."""
        intervals = [(1, 3), (4, 5), (6, 9), (10, 13), (14, 15)]
        face_counts = [4, 3, 5, 5, 3]  # yields exactly those intervals
        owner = NestingCodec(face_counts).owner
        tau_prime, _ = nesting_tuple_preprocess([10, 3, 0, 13], owner, 5)
        tree = nesting_decode([10, 3, 0, 13], owner)
        ok = (face_intervals(face_counts) == intervals
              and tau_prime == [4, 1, 0, 4]
              and nesting_encode(tree, 5) == [10, 3, 0, 13])
        report("3 (nesting tuple preprocessing)", ok)

    def test_04_arrangement_counts_match_formula(self):
        """Criterion 4: oracle arrangement count equals the product formula
        for every cut-vertex configuration in a 30+ graph catalog."""
        t0 = time.perf_counter()
        graphs = [g for _, g in CATALOG]
        for seed in range(40):
            graphs.append(random_planar(random.Random(seed).randint(5, 12),
                                        seed=seed, max_degree=6))
        checked = 0
        graphs_with_cuts = 0
        for g in graphs:
            configs = list(cut_configs(g))
            if configs:
                graphs_with_cuts += 1
            for v, blocks in configs:
                ctx = BlocksAtV.make(v, [r[v] for r in blocks], {})
                if ctx.shape.delta_v > 8:
                    continue
                expected = math.prod(ctx.shape.deltas + ctx.shape.d_bounds)
                got = len(enumerate_arrangements(v, blocks))
                assert got == expected, f"E_v mismatch at vertex {v}"
                checked += 1
        elapsed = time.perf_counter() - t0
        ok = graphs_with_cuts >= 30 and checked >= 30 and elapsed < 60
        report(f"4 (Eq-count over {checked} configs from "
               f"{graphs_with_cuts} graphs, {elapsed:.1f}s)", ok)

    def test_05_full_bijection(self):
        """Criterion 5: exhaustive oracle equality on the small corpus plus
        200 random planar graphs with 50 random ranks each."""
        t0 = time.perf_counter()
        for name, g in CATALOG:
            ranker = EmbeddingRanker(g)
            total = ranker.count()
            produced = set()
            for r in range(total):
                emb = ranker.unrank(r)
                produced.add(emb.to_json())
                assert ranker.rank(emb) == r, f"roundtrip broke on {name} rank {r}"
            assert produced == enumerate_disconnected(g), f"set mismatch on {name}"
        rng = random.Random(987654321)
        for i in range(200):
            g = random_planar(rng.randint(4, 10), seed=31337 + i)
            ranker = EmbeddingRanker(g)
            total = ranker.count()
            for _ in range(50):
                r = rng.randrange(total)
                emb = ranker.unrank(r)
                assert validate(emb) == []
                assert ranker.rank(emb) == r
        elapsed = time.perf_counter() - t0
        report(f"5 (full bijection, {elapsed:.1f}s)", elapsed < 300)

    def test_06_biconnected_counts(self):
        """Criterion 6: 2^z * prod (delta-1)! equals the oracle sphere-
        embedding count on a biconnected corpus with n <= 7."""
        t0 = time.perf_counter()
        corpus = [
            Graph(3, [(1, 2), (1, 3), (2, 3)]),
            Graph(4, [(1, 2), (1, 4), (2, 3), (3, 4)]),
            Graph(5, [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)]),
            Graph(6, [(1, 2), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6)]),
            Graph(7, [(1, 2), (1, 7), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]),
            Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),  # K4
            Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]),          # theta
            Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]),
            Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]),          # diamond
            Graph(5, [(1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4),
                      (3, 5), (4, 5)]),                                   # W4
            Graph(6, [(1, 2), (1, 5), (1, 6), (2, 3), (2, 6), (3, 4),
                      (3, 6), (4, 5), (4, 6), (5, 6)]),                   # W5
            Graph(7, [(1, 2), (1, 6), (1, 7), (2, 3), (2, 7), (3, 4),
                      (3, 7), (4, 5), (4, 7), (5, 6), (5, 7), (6, 7)]),   # W6
            Graph(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]),   # K23
            Graph(6, [(1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4),
                      (2, 5), (2, 6)]),                                   # K24
            Graph(6, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6),
                      (4, 5), (4, 6), (5, 6)]),                           # prism
            Graph(6, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5),
                      (2, 6), (3, 4), (3, 6), (4, 5), (4, 6), (5, 6)]),   # octahedron
            Graph(6, [(1, 2), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6), (1, 4)]),
            Graph(7, [(1, 2), (1, 7), (2, 3), (3, 4), (4, 5), (5, 6),
                      (6, 7), (2, 6)]),
        ]
        for g in corpus:
            tree = build_spqr(g)
            expected = MixedRadix(biconn_bounds(tree)).total
            got = len(enumerate_connected(g))
            assert got == expected, f"count mismatch on {g!r}"
        elapsed = time.perf_counter() - t0
        report(f"6 (biconnected counts, {len(corpus)} graphs, {elapsed:.1f}s)",
               elapsed < 60)

    def test_07_uniform_sampling_chi_square(self):
        """Criterion 7: 20000 seeded samples over the triangle-plus-pendant
        graph pass a chi-square uniformity test at p > 0.001."""
        from scipy.stats import chisquare

        t0 = time.perf_counter()
        g = Graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
        ranker = EmbeddingRanker(g)
        total = ranker.count()
        assert total == 4
        counts = {r: 0 for r in range(total)}
        for emb in ranker.sample(seed=20_000_101, k=20000):
            counts[ranker.rank(emb)] += 1
        p_value = chisquare(list(counts.values())).pvalue
        elapsed = time.perf_counter() - t0
        report(f"7 (sampling chi-square p={p_value:.4f}, {elapsed:.1f}s)",
               p_value > 0.001 and elapsed < 30)

    def test_08_permutation_codec(self):
        """Criterion 8: identity ranks to 0 up to k=10; exhaustive
        bijectivity up to k=7."""
        t0 = time.perf_counter()
        ok = all(perm_rank(list(range(k))) == 0 for k in range(1, 11))
        for k in range(1, 8):
            seen = set()
            for p in itertools.permutations(range(k)):
                r = perm_rank(list(p))
                assert perm_unrank(r, k) == list(p)
                seen.add(r)
            ok = ok and seen == set(range(factorial(k)))
        elapsed = time.perf_counter() - t0
        report(f"8 (permutation codec, {elapsed:.1f}s)", ok and elapsed < 10)

    def test_09_scaling_smoke(self):
        """Criterion 9: rank+unrank on a 1e5-vertex random planar graph
        completes within 10 seconds of wall clock."""
        g = random_planar(100_000, seed=424242)
        assert g.n >= 100_000
        ranker = EmbeddingRanker(g)  # decomposition is untimed setup
        rng = random.Random(5)
        r = rng.randrange(ranker.count())
        t0 = time.perf_counter()
        emb = ranker.unrank(r)
        back = ranker.rank(emb)
        elapsed = time.perf_counter() - t0
        report(f"9 (scaling: n={g.n}, rank+unrank {elapsed:.1f}s)",
               back == r and elapsed < 10)


def cut_configs(g: Graph):
    """Per cut-vertex, the incident blocks with a fixed embedding each."""
    ranker = EmbeddingRanker(g)
    emb = ranker.unrank(0)
    bct = block_cut_tree(g)
    for v in bct.cut_vertices:
        blocks = []
        for blk in bct.blocks:
            if v not in blk.vertices:
                continue
            edge_set = set(blk.edges)
            rot = {}
            for x in blk.vertices:
                rot[x] = [w for w in emb.rot[x] if edge_id(x, w) in edge_set]
            blocks.append(rot)
        yield v, blocks
