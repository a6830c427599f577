"""Streaming enumeration from an arbitrary starting rank.

The enumerator is a mixed-radix odometer over the bounds vector; it can
start anywhere in 0..N-1 and emits consecutive (rank, embedding) pairs,
which makes slicing the embedding space across workers trivial.
"""

from planarrank import EmbeddingRanker, Graph

k4_with_tail = Graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)])
ranker = EmbeddingRanker(k4_with_tail)
total = ranker.count()
print(f"{total} embeddings; streaming the middle third:")

start = total // 3
for rank, emb in ranker.enumerate(start, limit=total // 3):
    print(f"rank {rank:3d}: rotation at 4 = {list(emb.rot[4])}")
