"""Mixed-radix, permutation and Pruefer codecs."""

import itertools
import random
from math import factorial

import pytest

from _oracle import MalformedTree, prufer_rank, prufer_unrank
from planarrank.codecs import MixedRadix, perm_rank, perm_unrank, tuple_rank, tuple_unrank
from planarrank.errors import BoundViolation, RankOutOfRange
from planarrank.full import EmbeddingRanker
from planarrank.graph import Graph
from planarrank.nesting import NestingCodec, face_intervals, nesting_tuple_preprocess
from test_nesting import reference_preprocess

# Values and bounds from the worked 22-element example; the product of the
# bounds and the rank of the value tuple are pinned exactly.
EXAMPLE_VALUES = [0, 11, 1, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 2, 1, 6, 1, 4, 5, 0, 1]
EXAMPLE_BOUNDS = [17, 17, 17, 2, 9, 8, 1, 2, 3, 1, 2, 2, 2, 4, 9, 8, 7, 2, 6, 6, 2, 2]


class TestTupleCodec:
    def test_all_zero_is_rank_zero(self):
        assert tuple_rank([0, 0, 0], MixedRadix([5, 7, 2])) == 0

    def test_worked_example_rank(self):
        assert tuple_rank(EXAMPLE_VALUES, MixedRadix(EXAMPLE_BOUNDS)) == 754705812645

    def test_worked_example_unrank(self):
        assert tuple_unrank(754705812645, MixedRadix(EXAMPLE_BOUNDS)) == EXAMPLE_VALUES

    def test_worked_example_product(self):
        assert MixedRadix(EXAMPLE_BOUNDS).total == 19716667342848

    def test_small_tuple_by_lexicographic_enumeration(self):
        # Oracle: position of <1,2> among all 12 tuples in lex order.
        bounds = [3, 4]
        all_tuples = sorted(itertools.product(range(3), range(4)))
        assert all_tuples.index((1, 2)) == 6
        assert tuple_rank([1, 2], MixedRadix(bounds)) == 6

    def test_max_rank_is_max_tuple(self):
        assert tuple_unrank(11, MixedRadix([3, 4])) == [2, 3]

    def test_monotone_in_lex_order(self):
        bounds = [4, 3, 2]
        ranks = [
            tuple_rank(list(t), MixedRadix(bounds))
            for t in sorted(itertools.product(range(4), range(3), range(2)))
        ]
        assert ranks == list(range(24))

    def test_rank_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            tuple_unrank(12, MixedRadix([3, 4]))

    @pytest.mark.parametrize("bounds", [[0], [3, -1, 2]])
    def test_non_positive_bound(self, bounds):
        # Checked once, where the radix is made, so neither codec nor
        # check_bounds checks it again.
        with pytest.raises(BoundViolation, match="must be positive"):
            MixedRadix(bounds)

    def test_random_bijectivity(self):
        rng = random.Random(7)
        for _ in range(100):
            k = rng.randint(1, 8)
            bounds = [rng.randint(1, 9) for _ in range(k)]
            radix = MixedRadix(bounds)
            if radix.total > 10**5:
                continue
            for r in range(radix.total):
                assert tuple_rank(tuple_unrank(r, radix), radix) == r

    def test_long_tuple_matches_digit_recurrence(self):
        # Long enough that the codec splits the digits into halves.
        rng = random.Random(11)
        bounds = [rng.randint(1, 50) for _ in range(1000)]
        values = [rng.randrange(limit) for limit in bounds]
        expected = 0
        total = 1
        for b, limit in zip(values, bounds):
            expected = expected * limit + b
            total *= limit
        radix = MixedRadix(bounds)
        assert tuple_rank(values, radix) == expected
        assert tuple_unrank(expected, radix) == values
        assert radix.total == total
        with pytest.raises(RankOutOfRange):
            tuple_unrank(total, radix)


class TestPermCodec:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_identity_ranks_to_zero(self, k):
        assert perm_rank(list(range(k))) == 0
        assert perm_unrank(0, k) == list(range(k))

    def test_k1_only_rank_zero(self):
        assert perm_rank([0]) == 0

    @pytest.mark.parametrize("k", range(1, 8))
    def test_exhaustive_roundtrip(self, k):
        ranks = set()
        for p in itertools.permutations(range(k)):
            r = perm_rank(list(p))
            assert 0 <= r < factorial(k)
            assert perm_unrank(r, k) == list(p)
            ranks.add(r)
        assert ranks == set(range(factorial(k)))


class TestPruferCodec:
    def test_two_node_tree_is_root_only(self):
        assert prufer_rank([(1, 2)], root=2, n=2) == [2]
        assert prufer_unrank([2]) == ([(1, 2)], 2)

    def test_sequence_4_1_5_4_5_roundtrips(self):
        # The canonical 6-node example: unranking 4,1,5,4,5 and ranking back.
        edges, root = prufer_unrank([4, 1, 5, 4, 5])
        assert root == 5
        assert edges == [(1, 3), (1, 5), (2, 4), (4, 5), (4, 6)]
        assert prufer_rank(edges, root, 6) == [4, 1, 5, 4, 5]

    def test_star_tree(self):
        edges = [(1, 2), (1, 3), (1, 4)]
        seq = prufer_rank(edges, root=1, n=4)
        assert seq == [1, 1, 1]
        assert prufer_unrank(seq) == (sorted(edges), 1)

    def test_exhaustive_n5_roundtrip(self):
        # All 5^4 = 625 sequences decode to distinct rooted trees and back.
        seen = set()
        for seq in itertools.product(range(1, 6), repeat=4):
            edges, root = prufer_unrank(list(seq))
            key = (tuple(edges), root)
            assert key not in seen
            seen.add(key)
            assert prufer_rank(edges, root, 5) == list(seq)
        assert len(seen) == 625

    def test_malformed_tree(self):
        with pytest.raises(MalformedTree):
            prufer_rank([(1, 2), (1, 2)], root=1, n=3)
        with pytest.raises(MalformedTree):
            prufer_rank([(1, 2), (3, 4)], root=1, n=4)


def preprocess(tau, intervals):
    """nesting_tuple_preprocess through the label table of the components
    whose intervals these are, checked against the interval scan; deltas
    as a dict keyed by component."""
    face_counts = [hi - lo + 2 for lo, hi in intervals]
    assert face_intervals(face_counts) == intervals
    codec = NestingCodec(face_counts)
    tau_prime, deltas = nesting_tuple_preprocess(tau, codec.owner, len(intervals))
    deltas = dict(enumerate(deltas))
    assert (tau_prime, deltas) == reference_preprocess(tau, intervals)
    return tau_prime, deltas


class TestNestingPreprocess:
    INTERVALS = [(1, 3), (4, 5), (6, 9), (10, 13), (14, 15)]

    def test_five_component_example(self):
        tau_prime, deltas = preprocess([10, 3, 0, 13], self.INTERVALS)
        assert tau_prime == [4, 1, 0, 4]
        assert deltas[4] == 3 and deltas[1] == 2 and deltas[0] == 3

    def test_all_zero(self):
        tau_prime, deltas = preprocess([0, 0], self.INTERVALS)
        assert tau_prime == [0, 0]
        assert deltas[0] == 4

    def test_single_label_direct_count(self):
        tau_prime, deltas = preprocess([1], [(1, 2)])
        assert tau_prime == [1]
        assert deltas[1] == 2 and deltas[0] == 2

    # nesting_tuple_preprocess's labels passed check_bounds, so a label
    # outside every interval stops at the ranker, here at a_2 (digit 2).

    def test_label_out_of_range(self):
        ranker = ranker_with_intervals(self.INTERVALS)
        with pytest.raises(BoundViolation):
            ranker.phi_inverse(with_labels(ranker, [0, 16, 0, 0]))

    # Face counts 3, 1, 1, 4, 1: components 2, 3 and 5 have one face, so
    # their intervals are empty and the label table holds none of them:
    # label 3 after label 2 (component 1) is component 4's first.
    GAPPED = [(1, 2), (3, 2), (3, 2), (3, 5), (6, 5)]

    def test_shared_lo_maps_to_the_non_empty_interval(self):
        tau_prime, deltas = preprocess([3, 2], self.GAPPED)
        assert tau_prime == [4, 1]
        assert deltas == {0: 2, 1: 2, 2: 1, 3: 1, 4: 2, 5: 1}

    def test_top_label_maps_to_last_non_empty_component(self):
        assert preprocess([5], self.GAPPED)[0] == [4]
        assert preprocess([15], self.INTERVALS)[0] == [5]

    @pytest.mark.parametrize("intervals, label, message", [
        (INTERVALS, 16, "label 16 outside 0..15"),
        (INTERVALS, -1, "label -1 outside 0..15"),
        (GAPPED, 6, "label 6 outside 0..5"),
        (GAPPED, -3, "label -3 outside 0..5"),
    ])
    def test_out_of_range_messages(self, intervals, label, message):
        ranker = ranker_with_intervals(intervals)
        with pytest.raises(BoundViolation) as info:
            ranker.phi_inverse(with_labels(ranker, [0, label, 0, 0]))
        # check_bounds names the digit where the label sits.
        assert str(info.value) == message.replace("label ", "value b_2=")


def ranker_with_intervals(intervals):
    """The ranker of disjoint components whose label intervals these are:
    an edge for a component of one face, k paths of length two between
    two poles for one of k faces."""
    edges, n = [], 0
    for lo, hi in intervals:
        f = hi - lo + 2
        if f == 1:
            edges.append((n + 1, n + 2))
        else:
            edges += [(n + p, n + 2 + i) for i in range(1, f + 1) for p in (1, 2)]
        n += 2 if f == 1 else f + 2
    ranker = EmbeddingRanker(Graph(n, sorted(edges)))
    assert face_intervals(ranker.face_counts) == intervals
    return ranker


def with_labels(ranker, labels):
    """The all-zero tuple with these nesting labels."""
    values = [0] * len(ranker.bounds)
    values[ranker.a] = labels
    return values
