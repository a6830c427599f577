"""Counting and ranking the embeddings of a small graph, step by step.

A bowtie (two triangles sharing a vertex) has 2 arrangement choices at
the cut-vertex times 3 outer-face choices: 12 embeddings in total.  The
ranker walks all of them and shows that rank and unrank are inverses.
"""

from planarrank import EmbeddingRanker, Graph

bowtie = Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
ranker = EmbeddingRanker(bowtie)

print(f"graph: {bowtie}")
print(f"tuple bounds: {ranker.bounds}")
print(f"number of embeddings: {ranker.count()}")
print()

for r in range(ranker.count()):
    emb = ranker.unrank(r)
    back = ranker.rank(emb)
    rotation_at_cut = list(emb.rot[3])
    print(f"rank {r:2d}  ->  rotation at the cut-vertex {rotation_at_cut}"
          f"  outer faces {emb.face_tuple}  ->  rank {back}")
    assert back == r
