"""Uniform random sampling of embeddings.

Sampling draws a rank uniformly from 0..count-1 and unranks it.  The
codec is a bijection, so the embedding is uniform over all embeddings.
The histogram over 6000 draws of a triangle-with-pendant (4 embeddings)
comes out flat.
"""

from collections import Counter

from planarrank import EmbeddingRanker, Graph

g = Graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
ranker = EmbeddingRanker(g)
print(f"embeddings: {ranker.count()}")

histogram = Counter()
for emb in ranker.sample(seed=2024, k=6000):
    histogram[ranker.rank(emb)] += 1

for rank in sorted(histogram):
    bar = "#" * (histogram[rank] // 50)
    print(f"rank {rank}: {histogram[rank]:5d} {bar}")
