"""Nesting trees, the Pruefer-variant codec, and the digamma data of an embedding."""

import heapq
import itertools
import random

import pytest

from _linecount import doubling_ratios, executed_lines
from _oracle import all_nesting_trees
from _oracle import face_intervals as oracle_intervals
from planarrank import nesting
from planarrank.embedding import PlanarEmbedding, validate
from planarrank.errors import BoundViolation
from planarrank.full import EmbeddingRanker
from planarrank.graph import Graph
from planarrank.nesting import (
    NestingCodec,
    face_intervals,
    nesting_decode,
    nesting_encode,
    nesting_tuple_preprocess,
)


def decode(tau, face_counts):
    """nesting_decode through the label table of these face counts."""
    return nesting_decode(tau, NestingCodec(face_counts).owner)


def reference_preprocess(tau, intervals):
    """The interval scan nesting_tuple_preprocess once did: O(c) per label.
    deltas is a dict keyed by component, 0 (rho) included."""
    top = intervals[-1][1] if intervals else 0
    tau_prime = []
    for x in tau:
        if x == 0:
            tau_prime.append(0)
            continue
        if not 1 <= x <= top:
            raise ValueError(f"label {x} outside 0..{top}")
        for h, (lo, hi) in enumerate(intervals, start=1):
            if lo <= x <= hi:
                tau_prime.append(h)
                break
        else:
            raise ValueError(f"label {x} falls in no interval")
    deltas = {h: 1 for h in range(1, len(intervals) + 1)}
    deltas[0] = 2
    for h in tau_prime:
        deltas[h] += 1
    return tau_prime, deltas


def reference_decode(tau, face_counts):
    """Quadratic decode: each round takes the smallest leaf over all components."""
    c = len(face_counts)
    tau_prime, deltas = reference_preprocess(tau, oracle_intervals(face_counts))
    edges = []
    attached = set()
    for i in range(c - 1):
        h = min(x for x in range(1, c + 1) if deltas[x] == 1 and x not in attached)
        k = tau_prime[i]
        edges.append((k, h, tau[i]))
        attached.add(h)
        deltas[h] -= 1
        deltas[k] -= 1
    survivor = next(x for x in range(1, c + 1) if x not in attached)
    edges.append((0, survivor, 0))
    return sorted(edges)


def reference_encode(tree, c):
    """The encode with a heap of leaves over per-call child sets:
    O(c log c)."""
    parent: dict[int, tuple[int, int]] = {}
    children: dict[int, set[int]] = {h: set() for h in range(0, c + 1)}
    for p, ch, lb in tree:
        parent[ch] = (p, lb)
        children[p].add(ch)

    leaves = [h for h in range(1, c + 1) if not children[h]]
    heapq.heapify(leaves)
    out = []
    for _ in range(c - 1):
        leaf = heapq.heappop(leaves)
        p, lb = parent[leaf]
        out.append(lb)
        children[p].discard(leaf)
        if p != 0 and not children[p]:
            heapq.heappush(leaves, p)
    return out


# Five components with face counts 4, 3, 5, 5, 3 give the label intervals
# I_1=[1..3], I_2=[4..5], I_3=[6..9], I_4=[10..13], I_5=[14..15].
FC5 = [4, 3, 5, 5, 3]


class TestCodec:
    def test_intervals_of_the_five_component_example(self):
        assert face_intervals(FC5) == [(1, 3), (4, 5), (6, 9), (10, 13), (14, 15)]

    def test_decode_10_3_0_13(self):
        tree = decode([10, 3, 0, 13], FC5)
        assert tree == [(0, 1, 0), (0, 4, 0), (1, 3, 3), (4, 2, 10), (4, 5, 13)]

    def test_encode_matches(self):
        tree = [(0, 1, 0), (0, 4, 0), (1, 3, 3), (4, 2, 10), (4, 5, 13)]
        assert nesting_encode(tree, 5) == [10, 3, 0, 13]

    def test_star_encodes_to_zeros(self):
        star = [(0, h, 0) for h in range(1, 5)]
        assert nesting_encode(star, 4) == [0, 0, 0]
        assert decode([0, 0, 0], [2, 2, 2, 2]) == sorted(star)

    def test_two_components_single_label(self):
        tree = [(0, 1, 0), (1, 2, 1)]
        assert nesting_encode(tree, 2) == [1]
        assert decode([1], [3, 1]) == sorted(tree)

    def test_exhaustive_roundtrip_c4(self):
        # All (sum(F-1)+1)^(c-1) = 5^3 tuples decode and re-encode.
        fc = [2, 2, 2, 2]
        seen = set()
        for tau in itertools.product(range(5), repeat=3):
            tree = decode(list(tau), fc)
            seen.add(tuple(tree))
            assert nesting_encode(tree, 4) == reference_encode(tree, 4) == list(tau)
        assert len(seen) == 125

    def test_decode_covers_exactly_the_oracle_trees(self):
        fc = [3, 2, 2]
        produced = {
            tuple(decode(list(tau), fc))
            for tau in itertools.product(range(sum(f - 1 for f in fc) + 1), repeat=2)
        }
        oracle = {tuple(t) for t in all_nesting_trees(3, fc)}
        assert produced == oracle

    def test_repeated_sibling_labels_are_legal(self):
        # Two components nested side by side in the same inner face.
        tree = decode([1, 1], [3, 1, 1])
        assert tree == [(0, 1, 0), (1, 2, 1), (1, 3, 1)]
        assert nesting_encode(tree, 3) == [1, 1]

    def test_label_out_of_range(self):
        # nesting_decode's labels passed check_bounds: two triangles take
        # labels 0..2, so 16 stops at the ranker.
        ranker = EmbeddingRanker(TWO_TRIANGLES)
        assert ranker.bounds == [3, 2, 2]
        with pytest.raises(BoundViolation, match="value b_1=16 outside 0..2"):
            ranker.phi_inverse([16, 0, 0])

    def test_matches_reference_decode_on_random_cases(self):
        # Single-face components give empty intervals, in the middle and at
        # the end; a third of the labels are 0 (parent rho).  Every label
        # maps through the table as through the intervals, and the decoded
        # tree encodes as the heap encode does, back to tau.
        rng = random.Random(20240)
        for _ in range(2500):
            c = rng.randint(1, 60)
            fc = [rng.choice([1, 1, 2, 3, 4, 7]) for _ in range(c)]
            if rng.random() < 0.3:
                fc[-1] = 1
            label_bound = sum(f - 1 for f in fc) + 1
            owner = NestingCodec(fc).owner
            assert len(owner) == label_bound
            every_label = list(range(label_bound))
            assert (nesting_tuple_preprocess(every_label, owner, c)[0]
                    == reference_preprocess(every_label, oracle_intervals(fc))[0])
            tau = [0 if rng.random() < 0.3 else rng.randrange(label_bound)
                   for _ in range(c - 1)]
            tree = decode(tau, fc)
            assert tree == reference_decode(tau, fc), (tau, fc)
            assert nesting_encode(tree, c) == reference_encode(tree, c) == tau, (tau, fc)

    @pytest.mark.parametrize("shape", ["path", "star"])
    def test_roundtrip_5000_components(self, shape):
        c = 5000
        fc = [2] * c
        tree = path_and_star(c)[shape]
        tau = nesting_encode(tree, c)
        assert tau == reference_encode(tree, c)
        assert decode(tau, fc) == sorted(tree)
        assert nesting_encode(decode(tau, fc), c) == tau


def path_and_star(c):
    """The path and the star nesting trees of c two-face components: in
    the path, component h sits in the inner face of component h + 1; in
    the star, every other component sits in component 1's."""
    path = [(0, c, 0)] + [(h + 1, h, h + 1) for h in range(1, c)]
    star = [(0, 1, 0)] + [(1, h, 1) for h in range(2, c + 1)]
    return {"path": sorted(path), "star": star}


@pytest.mark.parametrize("shape", ["path", "star"])
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_codec_is_linear_under_doubling(shape, direction):
    """NestingCodec.forward and .inverse execute at most 2.2 times the
    lines of nesting.py per doubling of the components: each is one
    pointer scan over flat lists, and the decode's sort runs in C."""
    counts = []
    for c in (250, 500, 1000, 2000):
        codec = NestingCodec([2] * c)
        tree = path_and_star(c)[shape]
        ft = [0] * c
        if direction == "forward":
            counts.append(executed_lines(nesting.__file__, codec.forward, tree, ft))
        else:
            a, b = codec.forward(tree, ft)
            assert codec.inverse(a, b) == (tree, ft)
            counts.append(executed_lines(nesting.__file__, codec.inverse, a, b))
    assert max(doubling_ratios(counts)) <= 2.2, counts


TWO_TRIANGLES = Graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
TT_ROT = {1: [2, 3], 2: [3, 1], 3: [1, 2], 4: [5, 6], 5: [6, 4], 6: [4, 5]}


class TestDigamma:
    """The paper's digamma: an embedding's nesting tree and face tuple.

    PlanarEmbedding carries both in canonical form, and validate checks
    them against the rotation.
    """

    def test_connected_graph_trivial_tree(self):
        g = Graph(3, [(1, 2), (1, 3), (2, 3)])
        emb = PlanarEmbedding(g, {1: [2, 3], 2: [3, 1], 3: [1, 2]}, None, [1])
        assert validate(emb) == []
        assert emb.nesting == [(0, 1, 0)] and emb.face_tuple == [1]

    def test_two_disjoint_edges_side_by_side(self):
        g = Graph(4, [(1, 2), (3, 4)])
        emb = PlanarEmbedding(
            g, {1: [2], 2: [1], 3: [4], 4: [3]}, [(0, 1, 0), (0, 2, 0)], [0, 0]
        )
        assert validate(emb) == []
        assert emb.nesting == [(0, 1, 0), (0, 2, 0)]

    def test_nested_triangles_roundtrip(self):
        # G2 inside G1's single inner face (label interval I_1 = [1..1]),
        # and the mirror-role nesting G1 inside G2 (I_2 = [2..2]).
        for tree_in in ([(0, 1, 0), (1, 2, 1)], [(0, 2, 0), (2, 1, 2)]):
            emb = PlanarEmbedding(TWO_TRIANGLES, TT_ROT, tree_in, [0, 1])
            assert validate(emb) == []
            assert emb.nesting == sorted(tree_in)
            assert emb.face_tuple == [0, 1]

    def test_rejects_bad_interval(self):
        emb = PlanarEmbedding(TWO_TRIANGLES, TT_ROT, [(0, 1, 0), (1, 2, 2)], [0, 0])
        assert validate(emb) == ["edge G1-G2 label 2 outside interval [1..1]"]

    def test_exhaustive_all_pairs_roundtrip(self):
        # Three single-edge components: 1 tree x 1 tuple; two triangles: 12.
        g3 = Graph(6, [(1, 2), (3, 4), (5, 6)])
        rot3 = {1: [2], 2: [1], 3: [4], 4: [3], 5: [6], 6: [5]}
        count = 0
        for tree in all_nesting_trees(3, [1, 1, 1]):
            emb = PlanarEmbedding(g3, rot3, tree, [0, 0, 0])
            assert validate(emb) == []
            assert emb.nesting == sorted(tree)
            count += 1
        assert count == 1

        count = 0
        for tree in all_nesting_trees(2, [2, 2]):
            for ft in itertools.product(range(2), range(2)):
                emb = PlanarEmbedding(TWO_TRIANGLES, TT_ROT, tree, list(ft))
                assert validate(emb) == []
                assert (emb.nesting, emb.face_tuple) == (sorted(tree), list(ft))
                count += 1
        assert count == 12


class TestNestingCodec:
    def test_single_component_passthrough(self):
        codec = NestingCodec([2])
        assert codec.bounds == [2]
        a, b = codec.forward([(0, 1, 0)], [1])
        assert a == [] and b == [1]

    def test_two_single_edge_components(self):
        codec = NestingCodec([1, 1])
        assert codec.bounds == [1, 1, 1]

    def test_two_triangles_counts(self):
        codec = NestingCodec([2, 2])
        assert codec.bounds == [3, 2, 2]
        # 3 * 2 * 2 = 12 embeddings, the product of the bounds.
        seen = set()
        for a1 in range(3):
            for b1 in range(2):
                for b2 in range(2):
                    tree, ft = codec.inverse([a1], [b1, b2])
                    emb = PlanarEmbedding(TWO_TRIANGLES, TT_ROT, tree, ft)
                    assert validate(emb) == []
                    seen.add(emb.to_json())
                    back_a, back_b = codec.forward(emb.nesting, emb.face_tuple)
                    assert (back_a, back_b) == ([a1], [b1, b2])
        assert len(seen) == 12
