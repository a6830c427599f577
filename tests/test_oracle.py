"""Self-checks of the brute-force oracle."""

import pytest

from _oracle import (
    TooLarge,
    enumerate_arrangements,
    enumerate_connected,
    enumerate_disconnected,
)
from planarrank.graph import Graph


class TestConnected:
    def test_triangle_one_sphere_embedding(self):
        g = Graph(3, [(1, 2), (1, 3), (2, 3)])
        assert len(enumerate_connected(g)) == 1

    def test_k4_mirror_pair(self):
        g = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        assert len(enumerate_connected(g)) == 2

    def test_path_p3(self):
        g = Graph(3, [(1, 2), (2, 3)])
        assert len(enumerate_connected(g)) == 1

    def test_guard(self):
        g = Graph(9, [(i, i + 1) for i in range(1, 9)])
        with pytest.raises(TooLarge):
            enumerate_connected(g)


class TestDisconnected:
    def test_two_single_edges(self):
        g = Graph(4, [(1, 2), (3, 4)])
        assert len(enumerate_disconnected(g)) == 1

    def test_two_triangles(self):
        g = Graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
        assert len(enumerate_disconnected(g)) == 12

    def test_triangle_plus_edge(self):
        # (sum(F-1)+1)^(c-1) * F_1 * F_2 = 2 * 2 * 1 = 4; cross-checked by
        # explicit enumeration.
        g = Graph(5, [(1, 2), (1, 3), (2, 3), (4, 5)])
        assert len(enumerate_disconnected(g)) == 4


class TestArrangements:
    def test_two_bridges(self):
        blocks = [{1: [2], 2: [1]}, {1: [3], 3: [1]}]
        assert len(enumerate_arrangements(1, blocks)) == 1

    def test_three_bridges(self):
        blocks = [{1: [2], 2: [1]}, {1: [3], 3: [1]}, {1: [4], 4: [1]}]
        assert len(enumerate_arrangements(1, blocks)) == 2

    def test_k4_and_bridge_degrees_1_3(self):
        # delta = (1, 3): E_v = 1 * 3 = 3 cyclic merges survive the filter.
        k4 = {1: [2, 4, 3], 2: [1, 3, 4], 3: [2, 1, 4], 4: [3, 1, 2]}
        bridge = {1: [5], 5: [1]}
        assert len(enumerate_arrangements(1, [bridge, k4])) == 3

    def test_triangle_and_square_degrees_2_2(self):
        # delta = (2, 2): E_v = 4.
        tri = {1: [2, 3], 2: [3, 1], 3: [1, 2]}
        sq = {1: [4, 6], 4: [5, 1], 5: [6, 4], 6: [1, 5]}
        assert len(enumerate_arrangements(1, [tri, sq])) == 4

    def test_degree_guard(self):
        big = {1: list(range(2, 12))}
        for w in range(2, 12):
            big[w] = [1]
        with pytest.raises(TooLarge):
            enumerate_arrangements(1, [big, {1: [12], 12: [1]}])
