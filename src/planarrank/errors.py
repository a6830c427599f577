"""Exception types shared across the package."""


class PlanarRankError(Exception):
    """Base class for all errors raised by planarrank."""


class MalformedInput(PlanarRankError):
    """Graph or embedding data violates the documented JSON schema."""


class EdgelessComponent(MalformedInput):
    """A vertex (or component) carries no edge; face labels are undefined."""


class NotBiconnected(PlanarRankError):
    """Operation requires a biconnected graph."""


class NotPlanar(PlanarRankError):
    """Graph admits no planar embedding."""


class BoundViolation(PlanarRankError):
    """A tuple element is outside its declared bound."""


class RankOutOfRange(PlanarRankError):
    """A rank does not address any object in the bijection's codomain."""


class GraphMismatch(PlanarRankError):
    """Two embeddings do not share the same underlying graph."""


class EmbeddingMismatch(PlanarRankError):
    """An embedding is inconsistent with the structure it is ranked against."""
