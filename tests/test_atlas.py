"""Exhaustive checks over networkx's graph atlas.

The atlas lists every graph of at most 7 vertices.  The planar ones
without isolated vertices (821 of them, 141 of at most 6 vertices) cover
every small shape the ranker accepts: cut-vertices, P-nodes below
R-nodes, nested series-parallel blocks and disconnected graphs.
"""

import pytest

from _graphgen import atlas_planar
from _json_reference import reference_to_json
from _oracle import all_rotation_systems, enumerate_disconnected, is_planar_rotation
from planarrank.embedding import PlanarEmbedding, embeddings_equal, validate
from planarrank.errors import EmbeddingMismatch
from planarrank.full import EmbeddingRanker
from planarrank.graph import connected_components


def test_atlas_size():
    assert len(atlas_planar()) == 821
    assert sum(1 for g in atlas_planar() if g.n <= 6) == 141


def test_every_rank_round_trips():
    """And each embedding's to_json is the reference writer's text."""
    ranks = 0
    for g in atlas_planar():
        ranker = EmbeddingRanker(g)
        for r in range(ranker.count()):
            emb = ranker.unrank(r)
            assert ranker.rank(emb) == r, (g.edges, r)
            assert emb.to_json() == reference_to_json(emb), (g.edges, r)
        ranks += ranker.count()
    assert ranks == 46172


def test_unranking_matches_oracle_up_to_six_vertices():
    for g in atlas_planar():
        if g.n > 6:
            continue
        ranker = EmbeddingRanker(g)
        produced = {ranker.unrank(r).to_json() for r in range(ranker.count())}
        assert len(produced) == ranker.count()
        assert produced == enumerate_disconnected(g), g.edges


def test_rank_rejects_exactly_the_non_embeddings():
    """The converse: every rotation system of every connected planar atlas
    graph of at most 6 vertices goes to rank.  rank checks its input only
    through validate, so each non-planar rotation (by the oracle's Euler
    check) raises EmbeddingMismatch with validate's message, and each
    planar one ranks and unranks back to itself."""
    accepted = rejected = 0
    for g in atlas_planar():
        if g.n > 6 or len(connected_components(g)) != 1:
            continue
        ranker = EmbeddingRanker(g)
        for rot in all_rotation_systems(g):
            emb = PlanarEmbedding(g, rot)
            if is_planar_rotation(g, rot):
                assert embeddings_equal(ranker.unrank(ranker.rank(emb)), emb)
                accepted += 1
            else:
                with pytest.raises(EmbeddingMismatch) as info:
                    ranker.rank(emb)
                assert str(info.value) == "; ".join(validate(emb))
                rejected += 1
    assert (accepted, rejected) == (777, 199_954)
