"""chi / chi_inverse: the biconnected-layer bijection."""

import itertools

import pytest

from planarrank import spqr
from planarrank.biconnected import biconn_bounds, chi, chi_inverse
from planarrank.codecs import bounds_product, tuple_unrank
from planarrank.embedding import canonical_cycle, is_planar_rotation
from planarrank.errors import BoundViolation
from planarrank.graph import Graph
from planarrank.oracle import enumerate_connected
from planarrank.spqr import build_spqr

TRIANGLE = Graph(3, [(1, 2), (1, 3), (2, 3)])
K4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
THETA = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])

SMALL_BICONNECTED = [
    TRIANGLE,
    Graph(4, [(1, 2), (1, 4), (2, 3), (3, 4)]),
    K4,
    THETA,
    Graph(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]),  # K23
    Graph(5, [(1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]),  # W4
    Graph(6, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5), (4, 6), (5, 6)]),  # prism
    Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]),  # theta relabeled
    Graph(6, [(1, 2), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6), (1, 4)]),  # C6 + chord
    Graph(7, [(1, 2), (1, 7), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 6), (3, 5)]),
]


def canon(rot):
    return tuple(sorted((v, canonical_cycle(r)) for v, r in rot.items()))


class TestChi:
    def test_cycle_has_empty_tuple(self):
        g = Graph(4, [(1, 2), (1, 4), (2, 3), (3, 4)])
        tree = build_spqr(g)
        assert biconn_bounds(tree) == []
        rot = chi_inverse([], [], tree)
        assert chi(rot, tree) == ([], [])

    def test_k4_first_embedding_is_zero(self):
        tree = build_spqr(K4)
        rot0 = chi_inverse([], [0], tree)
        assert chi(rot0, tree) == ([], [0])
        rot1 = chi_inverse([], [1], tree)
        assert chi(rot1, tree) == ([], [1])
        # The two are mirrors of each other.
        for v in K4.vertices:
            assert canonical_cycle(rot1[v]) == canonical_cycle(list(reversed(rot0[v])))

    def test_theta_p_values_cover_0_and_1(self):
        tree = build_spqr(THETA)
        assert biconn_bounds(tree) == [2]
        seen = set()
        for rot in enumerate_connected(THETA):
            p, r = chi(rot, tree)
            assert r == []
            seen.add(p[0])
        assert seen == {0, 1}

    def test_all_zero_tuple_is_canonical_first(self):
        for g in SMALL_BICONNECTED:
            tree = build_spqr(g)
            bounds = biconn_bounds(tree)
            p_count = len(tree.p_nodes())
            rot = chi_inverse([0] * p_count, [0] * (len(bounds) - p_count), tree)
            assert is_planar_rotation(g, rot)

    def test_bound_violation(self):
        tree = build_spqr(K4)
        with pytest.raises(BoundViolation):
            chi_inverse([], [2], tree)
        with pytest.raises(BoundViolation):
            chi_inverse([0], [0], tree)

    @pytest.mark.parametrize("g", SMALL_BICONNECTED)
    def test_bijection_against_oracle(self, g):
        """Unranking every tuple hits every sphere embedding exactly once."""
        tree = build_spqr(g)
        bounds = biconn_bounds(tree)
        p_count = len(tree.p_nodes())
        total = bounds_product(bounds)
        produced = {}
        for rank in range(total):
            vals = tuple_unrank(rank, bounds)
            p_vals, r_vals = vals[:p_count], vals[p_count:]
            rot = chi_inverse(p_vals, r_vals, tree)
            key = canon(rot)
            assert key not in produced, "two tuples produced the same embedding"
            produced[key] = (p_vals, r_vals)
            # Round trip.
            assert chi(rot, tree) == (p_vals, r_vals)
        oracle = {canon(rot) for rot in enumerate_connected(g)}
        assert set(produced) == oracle

    def test_chi_depends_only_on_embedding(self):
        # Feeding chi the same rotation twice, built differently, agrees.
        tree = build_spqr(THETA)
        rot = chi_inverse([1], [], tree)
        reshuffled = {v: rot[v][1:] + rot[v][:1] for v in rot}
        assert chi(rot, tree) == chi(reshuffled, tree)

    def test_first_r_embedding_computed_once_per_r_node(self, monkeypatch):
        # K4 plus a vertex on the pair {1, 2}: one P-node, one R-node.
        g = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)])
        calls = []
        original = spqr.first_embedding_R

        def counted(tree, node):
            calls.append(node.index)
            return original(tree, node)

        monkeypatch.setattr(spqr, "first_embedding_R", counted)
        tree = build_spqr(g)
        assert len(tree.p_nodes()) == 1 and len(tree.r_nodes()) == 1
        for _ in range(3):
            for p_vals, r_vals in itertools.product([[0], [1]], [[0], [1]]):
                rot = chi_inverse(p_vals, r_vals, tree)
                assert chi(rot, tree) == (p_vals, r_vals)
        assert sorted(calls) == sorted(nd.index for nd in tree.r_nodes())
