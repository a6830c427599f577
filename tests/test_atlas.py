"""Exhaustive checks over networkx's graph atlas.

The atlas lists every graph of at most 7 vertices.  The planar ones
without isolated vertices (821 of them, 141 of at most 6 vertices) cover
every small shape the ranker accepts: cut-vertices, P-nodes below
R-nodes, nested series-parallel blocks and disconnected graphs.
"""

from _graphgen import atlas_planar
from planarrank.full import EmbeddingRanker
from planarrank.oracle import enumerate_disconnected


def test_atlas_size():
    assert len(atlas_planar()) == 821
    assert sum(1 for g in atlas_planar() if g.n <= 6) == 141


def test_every_rank_round_trips():
    ranks = 0
    for g in atlas_planar():
        ranker = EmbeddingRanker(g)
        for r in range(ranker.count()):
            assert ranker.rank(ranker.unrank(r)) == r, (g.edges, r)
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
