"""End-to-end ranking of the planar embeddings of an arbitrary graph.

The rank tuple concatenates, in this order:

* a: c-1 nesting-tree labels (bound: sum of inner-face counts plus one),
* b: one outer-face choice per component (bound: its face count),
* c: per cut-vertex (ascending vertex id) its c arrangement values,
* d: per cut-vertex, same order, its d arrangement values,
* p: per P-node, permutation ranks; blocks ascending by minimum edge id,
  nodes in conventional order,
* r: per R-node, reflection bits, same ordering.

EmbeddingRanker lays this out once: the ranker keeps the a and b slices
of the tuple, each cut-vertex its c and d slices, each block its p and r
slices.  The mixed-radix codec turns the tuple into a single natural
number; the product of all bounds is the number of embeddings.

A block's SPQR-tree, in block-local ids, depends only on the block-local
graph, so blocks with the same local graph share one tree: it is built,
and its lazy data filled, once per distinct shape, and read-only after
that.  Everything that differs between such blocks (the id maps, the
poles in global ids, the slices and the rotation cache) stays on the
block's record.  A graph is planar exactly when each of its blocks is,
and build_spqr tests each distinct block, so no whole-graph planarity
test runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import codecs
from .biconnected import biconn_bounds, chi, chi_inverse
from .codecs import bounds_product, tuple_rank, tuple_unrank
from .cutvertex import BlocksAtV, phi_v, phi_v_inverse
from .embedding import PlanarEmbedding, Rotation, validate
from .errors import EmbeddingMismatch
from .graph import Graph, block_cut_tree, connected_components, edge_id
from .nesting import NestingCodec
from .spqr import SpqrTree, build_spqr


@dataclass(slots=True)
class _BlockInfo:
    comp: int                  # component index (0-based)
    edges: list[tuple[int, int]]
    to_local: dict[int, int]
    to_global: dict[int, int]
    tree: SpqrTree             # shared by every block with this local graph
    min_edge: tuple[int, int]
    poles: tuple[tuple[int, int], ...]  # (global, local) pole of each P-/R-node
    # Decoded global rotations by (p digits, r digits), at most 16.
    rotations: dict[tuple, Rotation] = field(default_factory=dict)
    p: slice = field(init=False)  # its P-node digits in the rank tuple
    r: slice = field(init=False)  # its R-node bits


@dataclass(slots=True)
class _CutInfo:
    v: int                     # global vertex id
    comp: int
    block_ids: list[int]       # indices into ranker.blocks, in ctx's order
    ctx: BlocksAtV
    c: slice = field(init=False)  # its c values in the rank tuple
    d: slice = field(init=False)  # its d values


class EmbeddingRanker:
    """Precomputed decomposition and bounds for one planar graph."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.comps = connected_components(graph)
        self.t = len(self.comps)

        self.face_counts: list[int] = []
        self.blocks: list[_BlockInfo] = []
        cut_vertices: list[int] = []  # global ids
        trees: dict[Graph, SpqrTree] = {}  # block-local graph -> its tree

        comp_of = {v: ci for ci, (_, comp) in enumerate(self.comps) for v in comp}
        comp_edges: list[list[tuple[int, int]]] = [[] for _ in self.comps]
        for u, v in graph.edges:
            comp_edges[comp_of[u]].append((u, v))

        for ci, (_, comp) in enumerate(self.comps):
            order = sorted(comp)
            to_local = {v: i + 1 for i, v in enumerate(order)}
            to_global = {i + 1: v for i, v in enumerate(order)}
            edges = [(to_local[u], to_local[v]) for u, v in comp_edges[ci]]
            sub = Graph(len(order), edges)
            self.face_counts.append(sub.m - sub.n + 2)
            bct = block_cut_tree(sub)

            for blk in bct.blocks:
                bg, remap = blk.to_graph()
                # Compose remaps so block-local ids translate straight to
                # global ids; both remaps are monotone, so every ordering
                # convention agrees across coordinate systems.
                inv = {i: to_global[v] for v, i in remap.items()}
                fwd = {to_global[v]: i for v, i in remap.items()}
                g_edges = sorted(
                    (min(inv[a], inv[b]), max(inv[a], inv[b])) for a, b in bg.edges
                )
                tree = trees.get(bg)
                if tree is None:  # raises NotPlanar for a non-planar block
                    tree = trees[bg] = build_spqr(bg)
                poles = {nd.pole for nd in tree.nodes if nd.kind in ("P", "R")}
                self.blocks.append(
                    _BlockInfo(ci, g_edges, fwd, inv, tree, g_edges[0],
                               tuple((inv[u], u) for u in poles))
                )
            cut_vertices.extend(to_global[v] for v in bct.cut_vertices)
        self.blocks.sort(key=lambda info: info.min_edge)  # the p/r order

        block_of_edge = {
            e: b for b, info in enumerate(self.blocks) for e in info.edges
        }
        self.cuts: list[_CutInfo] = []
        for v in sorted(cut_vertices):
            at_v: dict[int, list[int]] = {}
            for w in graph.adj[v]:
                at_v.setdefault(block_of_edge[edge_id(v, w)], []).append(w)
            ctx = BlocksAtV.make(v, at_v.values())
            ids = [block_of_edge[edge_id(v, ws[0])] for ws in ctx.edges]
            self.cuts.append(_CutInfo(v, comp_of[v], ids, ctx))
        self.nesting_codec = NestingCodec(self.face_counts)

        # The digit layout, in tuple order: each segment's bounds go onto
        # self.bounds, and the element the digits describe keeps the slice.
        self.bounds: list[int] = []

        def segment(bounds) -> slice:
            start = len(self.bounds)
            self.bounds.extend(bounds)
            return slice(start, len(self.bounds))

        self.a = segment(self.nesting_codec.bounds[: self.t - 1])
        self.b = segment(self.face_counts)
        for cut in self.cuts:
            cut.c = segment(cut.ctx.c_bounds)
        for cut in self.cuts:
            cut.d = segment(cut.ctx.d_bounds)
        # biconn_bounds lists a block's P-node bounds, then its R-node bits.
        chi_bounds = [(biconn_bounds(info.tree), len(info.tree.conventional[0]))
                      for info in self.blocks]
        for info, (bb, y) in zip(self.blocks, chi_bounds):
            info.p = segment(bb[:y])
        for info, (bb, y) in zip(self.blocks, chi_bounds):
            info.r = segment(bb[y:])

    # -- counting -----------------------------------------------------------

    def count(self) -> int:
        return bounds_product(self.bounds)

    # -- forward: embedding -> tuple/rank ------------------------------------

    @staticmethod
    def _block_rotation(emb: PlanarEmbedding, info: _BlockInfo) -> Rotation:
        # chi reads the block's rotation only at the poles of its P- and
        # R-nodes.  An edge at x lies in x's block exactly when its far end
        # does: two blocks share at most one vertex.
        to_local = info.to_local
        return {i: [to_local[w] for w in emb.rot[x] if w in to_local]
                for x, i in info.poles}

    def phi(self, emb: PlanarEmbedding) -> list[int]:
        """The full digit tuple of an embedding."""
        if emb.graph != self.graph:
            raise EmbeddingMismatch("embedding belongs to a different graph")
        problems = validate(emb)
        if problems:
            raise EmbeddingMismatch("; ".join(problems))

        values = [0] * len(self.bounds)
        values[self.a], values[self.b] = self.nesting_codec.forward(
            list(emb.nesting), list(emb.face_tuple)
        )
        for cut in self.cuts:
            values[cut.c], values[cut.d] = phi_v(cut.ctx, emb.rot[cut.v])
        for info in self.blocks:
            if info.poles:  # else choice-free (bridge, cycle): no digits
                values[info.p], values[info.r] = chi(
                    self._block_rotation(emb, info), info.tree)
        return values

    def rank(self, emb: PlanarEmbedding) -> int:
        return tuple_rank(self.phi(emb), self.bounds)

    # -- inverse: tuple/rank -> embedding ------------------------------------

    def phi_inverse(self, values: list[int]) -> PlanarEmbedding:
        """Embedding from a full digit tuple."""
        # Looked up on the module per call, as tuple_rank does, so a
        # wrapper installed on codecs.check_bounds sees every call.
        codecs.check_bounds(values, self.bounds)

        # Blocks first: decode every skeleton choice into a rotation.
        # Each block keeps its first 16 decoded choice tuples.  That covers
        # every choice of a block with at most 16 embeddings, not only the
        # one rotation of a choice-free block (bridge, cycle); on forest
        # graphs the blocks with choices account for most of the time the
        # cache saves.
        block_rot: list[Rotation] = []
        for info in self.blocks:
            key = (tuple(values[info.p]), tuple(values[info.r]))
            cached = info.rotations.get(key)
            if cached is None:
                local = chi_inverse(list(key[0]), list(key[1]), info.tree)
                cached = {
                    info.to_global[x]: [info.to_global[w] for w in nbrs]
                    for x, nbrs in local.items()
                }
                if len(info.rotations) < 16:
                    info.rotations[key] = cached
            block_rot.append(cached)

        # Global rotation: every vertex takes its block's rotation; cut
        # vertices get the merged arrangement instead.
        rot: Rotation = {}
        for r in block_rot:
            for x, nbrs in r.items():
                if x in rot:
                    continue  # cut vertex, handled below
                rot[x] = nbrs  # PlanarEmbedding copies every list
        for cut in self.cuts:
            rot[cut.v] = phi_v_inverse(
                cut.ctx, [block_rot[b][cut.v] for b in cut.block_ids],
                values[cut.c], values[cut.d],
            )

        # The decoded tree and tuple are valid by construction and the
        # composed rotation planar by the skeleton/merge invariants, so
        # the full re-validation of digamma_inverse is skipped here.
        tree, ft = self.nesting_codec.inverse(values[self.a], values[self.b])
        return PlanarEmbedding(self.graph, rot, tree, ft)

    def unrank(self, r: int) -> PlanarEmbedding:
        return self.phi_inverse(tuple_unrank(r, self.bounds))

    # -- sampling and enumeration --------------------------------------------

    def sample(self, seed: int, k: int = 1):
        """k embeddings drawn independently and uniformly (fixed seed)."""
        rng = random.Random(seed)
        for _ in range(k):
            values = [rng.randrange(limit) for limit in self.bounds]
            yield self.phi_inverse(values)

    def enumerate(self, start: int = 0, limit: int | None = None):
        """Consecutive (rank, embedding) pairs from a starting rank.

        A mixed-radix odometer steps the tuple; each step re-decodes, so
        the delay is per-item polynomial rather than amortized constant.
        """
        total = self.count()
        if not 0 <= start < total:
            from .errors import RankOutOfRange

            raise RankOutOfRange(f"rank {start} outside 0..{total - 1}")
        values = tuple_unrank(start, self.bounds)
        r = start
        emitted = 0
        while r < total and (limit is None or emitted < limit):
            yield r, self.phi_inverse(values)
            emitted += 1
            r += 1
            for i in range(len(values) - 1, -1, -1):
                values[i] += 1
                if values[i] < self.bounds[i]:
                    break
                values[i] = 0


def count_embeddings(g: Graph) -> int:
    """Number of planar embeddings of g on the sphere."""
    return EmbeddingRanker(g).count()


def sample_uniform(g: Graph, seed: int) -> PlanarEmbedding:
    """One embedding drawn uniformly at random, reproducible by seed."""
    return next(EmbeddingRanker(g).sample(seed, 1))
