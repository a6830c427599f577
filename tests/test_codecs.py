"""Mixed-radix, permutation and Pruefer codecs."""

import itertools
import random

import pytest

from planarrank.codecs import (
    bounds_product,
    factorial,
    nesting_tuple_preprocess,
    perm_rank,
    perm_unrank,
    prufer_rank,
    prufer_unrank,
    tuple_rank,
    tuple_unrank,
)
from planarrank.errors import (
    BoundViolation,
    LabelOutOfRange,
    MalformedTree,
    NotAPermutation,
    RankOutOfRange,
)

# Values and bounds from the worked 22-element example; the product of the
# bounds and the rank of the value tuple are pinned exactly.
EXAMPLE_VALUES = [0, 11, 1, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 2, 1, 6, 1, 4, 5, 0, 1]
EXAMPLE_BOUNDS = [17, 17, 17, 2, 9, 8, 1, 2, 3, 1, 2, 2, 2, 4, 9, 8, 7, 2, 6, 6, 2, 2]


class TestTupleCodec:
    def test_all_zero_is_rank_zero(self):
        assert tuple_rank([0, 0, 0], [5, 7, 2]) == 0

    def test_worked_example_rank(self):
        assert tuple_rank(EXAMPLE_VALUES, EXAMPLE_BOUNDS) == 754705812645

    def test_worked_example_unrank(self):
        assert tuple_unrank(754705812645, EXAMPLE_BOUNDS) == EXAMPLE_VALUES

    def test_worked_example_product(self):
        assert bounds_product(EXAMPLE_BOUNDS) == 19716667342848

    def test_small_tuple_by_lexicographic_enumeration(self):
        # Oracle: position of <1,2> among all 12 tuples in lex order.
        bounds = [3, 4]
        all_tuples = sorted(itertools.product(range(3), range(4)))
        assert all_tuples.index((1, 2)) == 6
        assert tuple_rank([1, 2], bounds) == 6

    def test_max_rank_is_max_tuple(self):
        assert tuple_unrank(11, [3, 4]) == [2, 3]

    def test_monotone_in_lex_order(self):
        bounds = [4, 3, 2]
        ranks = [
            tuple_rank(list(t), bounds)
            for t in sorted(itertools.product(range(4), range(3), range(2)))
        ]
        assert ranks == list(range(24))

    def test_bound_violation(self):
        with pytest.raises(BoundViolation):
            tuple_rank([3], [3])

    def test_rank_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            tuple_unrank(12, [3, 4])

    def test_random_bijectivity(self):
        rng = random.Random(7)
        for _ in range(100):
            k = rng.randint(1, 8)
            bounds = [rng.randint(1, 9) for _ in range(k)]
            total = bounds_product(bounds)
            if total > 10**5:
                continue
            for r in range(total):
                assert tuple_rank(tuple_unrank(r, bounds), bounds) == r

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
        assert tuple_rank(values, bounds) == expected
        assert tuple_unrank(expected, bounds) == values
        assert bounds_product(bounds) == total
        with pytest.raises(RankOutOfRange):
            tuple_unrank(total, bounds)


class TestPermCodec:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_identity_ranks_to_zero(self, k):
        assert perm_rank(list(range(k))) == 0
        assert perm_unrank(0, k) == list(range(k))

    def test_k1_only_rank_zero(self):
        assert perm_rank([0]) == 0
        with pytest.raises(RankOutOfRange):
            perm_unrank(1, 1)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_exhaustive_roundtrip(self, k):
        ranks = set()
        for p in itertools.permutations(range(k)):
            r = perm_rank(list(p))
            assert 0 <= r < factorial(k)
            assert perm_unrank(r, k) == list(p)
            ranks.add(r)
        assert ranks == set(range(factorial(k)))

    def test_not_a_permutation(self):
        with pytest.raises(NotAPermutation):
            perm_rank([0, 0, 2])


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


class TestNestingPreprocess:
    INTERVALS = [(1, 3), (4, 5), (6, 9), (10, 13), (14, 15)]

    def test_five_component_example(self):
        tau_prime, deltas = nesting_tuple_preprocess([10, 3, 0, 13], self.INTERVALS)
        assert tau_prime == [4, 1, 0, 4]
        assert deltas[4] == 3 and deltas[1] == 2 and deltas[0] == 3

    def test_all_zero(self):
        tau_prime, deltas = nesting_tuple_preprocess([0, 0], self.INTERVALS)
        assert tau_prime == [0, 0]
        assert deltas[0] == 4

    def test_single_label_direct_count(self):
        tau_prime, deltas = nesting_tuple_preprocess([1], [(1, 2)])
        assert tau_prime == [1]
        assert deltas[1] == 2 and deltas[0] == 2

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            nesting_tuple_preprocess([16], self.INTERVALS)
