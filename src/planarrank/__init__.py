"""Rank, unrank, count, enumerate and sample planar embeddings of a graph.

The embedding of a (possibly disconnected) planar graph is represented by
a counter-clockwise rotation system plus, for disconnected graphs, a
nesting tree and a face tuple.  EmbeddingRanker maps these embeddings
bijectively onto 0..N-1.
"""

from .embedding import PlanarEmbedding, embeddings_equal, validate
from .errors import (
    BoundViolation,
    EmbeddingMismatch,
    GraphMismatch,
    MalformedInput,
    NotBiconnected,
    NotPlanar,
    PlanarRankError,
    RankOutOfRange,
)
from .full import EmbeddingRanker, count_embeddings, sample_uniform
from .graph import Graph, block_cut_tree, connected_components

__all__ = [
    "EmbeddingRanker",
    "Graph",
    "PlanarEmbedding",
    "block_cut_tree",
    "connected_components",
    "count_embeddings",
    "embeddings_equal",
    "sample_uniform",
    "validate",
    "BoundViolation",
    "EmbeddingMismatch",
    "GraphMismatch",
    "MalformedInput",
    "NotBiconnected",
    "NotPlanar",
    "PlanarRankError",
    "RankOutOfRange",
]
