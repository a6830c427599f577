"""Unrank, sample and enumerate build their rotations canonical and hand
out embeddings that share no mutable object with a cache or another item.

The ranker makes a block-local rotation canonical once, when its shape
decodes it, and a merged cut-vertex rotation once per merge; the
embedding takes the tuples as they are (PlanarEmbedding's canonical=True).
Each embedding the ranker hands out is held here to what the
canonicalising constructor builds from the same rotation started
anywhere else.
"""

import random

import pytest

from _graphgen import atlas_planar, benchmark_graphs, random_planar
from planarrank import full
from planarrank.embedding import PlanarEmbedding, embeddings_equal, validate
from planarrank.full import EmbeddingRanker

def assert_canonical_by_construction(emb, rng):
    """Every rotation is a tuple starting at its minimum, the embedding
    equals the one the canonicalising constructor builds from copies
    started elsewhere, and validate accepts it."""
    for v, nbrs in emb.rot.items():
        assert type(nbrs) is tuple and nbrs[0] == min(nbrs), (v, nbrs)
    turned = {}
    for v, nbrs in emb.rot.items():
        k = rng.randrange(len(nbrs))
        turned[v] = nbrs[k:] + nbrs[:k]
    rebuilt = PlanarEmbedding(emb.graph, turned, emb.nesting, emb.face_tuple)
    assert embeddings_equal(emb, rebuilt)
    assert validate(emb) == []


class TestCanonicalByConstruction:
    def test_atlas(self):
        rng = random.Random(2201)
        checked = 0
        for g in atlas_planar():
            ranker = EmbeddingRanker(g)
            for r in range(ranker.count()):
                assert_canonical_by_construction(ranker.unrank(r), rng)
            for _, emb in ranker.enumerate(0):
                assert_canonical_by_construction(emb, rng)
            for emb in ranker.sample(seed=g.n, k=3):
                assert_canonical_by_construction(emb, rng)
            checked += ranker.count()
        assert checked == 46172

    # With no decode cache every block decodes past its cap.
    @pytest.mark.parametrize("per_shape", [full.DECODED_PER_SHAPE, 0])
    @pytest.mark.parametrize("workload", ["forest", "nested", "bigblock"])
    def test_benchmark_graphs(self, workload, per_shape, monkeypatch):
        monkeypatch.setattr(full, "DECODED_PER_SHAPE", per_shape)
        rng = random.Random(2202)
        for g in benchmark_graphs(workload):
            ranker = EmbeddingRanker(g)
            count = ranker.count()
            for r in (0, count - 1, rng.randrange(count), rng.randrange(count)):
                assert_canonical_by_construction(ranker.unrank(r), rng)
            for emb in ranker.sample(seed=2203, k=2):
                assert_canonical_by_construction(emb, rng)
            for _, emb in ranker.enumerate(rng.randrange(count), 4):
                assert_canonical_by_construction(emb, rng)


def decoded_snapshot(ranker):
    """Every shape's decode table and the base rotation, copied."""
    tables = {id(shape.tree): {key: dict(local) for key, local in shape.decoded.items()}
              for shape in ranker.shapes.values()}
    return tables, dict(ranker.base)


def scribble(emb):
    """Change everything mutable the embedding holds: rebind every
    rotation, and append to the nesting and face tuple lists."""
    for v, nbrs in emb.rot.items():
        emb.rot[v] = (*reversed(nbrs), -1)
    emb.nesting.append((-1, -1, -1))
    emb.face_tuple.append(-1)


@pytest.mark.parametrize("make", [
    lambda: random_planar(400, seed=2204, components=1),
    lambda: random_planar(160, seed=2205, components=20),
], ids=["forest", "nested"])
class TestReturnedListsAreNeverTheCaches:
    def test_unrank(self, make):
        ranker = EmbeddingRanker(make())
        rng = random.Random(2206)
        ranks = [rng.randrange(ranker.count()) for _ in range(20)]
        want = [ranker.unrank(r).to_json() for r in ranks]
        tables = decoded_snapshot(ranker)
        assert any(tables[0].values())
        for r in ranks:
            scribble(ranker.unrank(r))
        assert decoded_snapshot(ranker) == tables
        assert [ranker.unrank(r).to_json() for r in ranks] == want
        assert decoded_snapshot(ranker) == tables

    def test_enumerate(self, make):
        ranker = EmbeddingRanker(make())
        start = random.Random(2207).randrange(ranker.count() - 40)
        want = [ranker.unrank(r).to_json() for r in range(start, start + 40)]
        tables = decoded_snapshot(ranker)
        # Each item is scribbled on before the next is built, so an item
        # sharing a list with the enumeration's kept rotation spoils the next.
        got = []
        for _, emb in ranker.enumerate(start, 40):
            got.append(emb.to_json())
            scribble(emb)
        assert got == want
        assert decoded_snapshot(ranker) == tables
        assert [ranker.unrank(r).to_json() for r in range(start, start + 40)] == want
