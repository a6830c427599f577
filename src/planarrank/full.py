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
number; the product of all bounds is the number of embeddings.  The
ranker derives the codec's product tree of the bounds once (MixedRadix),
and every count, rank and unrank reads it; sample unranks uniform ranks.
Set-up searches the graph once: block_cut_tree's lowpoint search also
gives the components that connected_components reads.

A block's SPQR-tree, in block-local ids, depends only on the block-local
graph, so blocks with the same local graph share one tree, built complete
once per distinct shape and read-only from then on.  So does the
translation between a block's p and r digits and its rotation, in both
directions, held per shape under one cap of DECODED_PER_SHAPE entries
each way: unrank keeps the block-local rotations decoded from p and r
digits and translates them to global ids per call, and rank keeps chi's
digits by the block-local rotations at the shape's P/R poles, which are
all chi reads.  The id maps, global poles and slices stay on the block's
record.  A cut-vertex's shape is its blocks' degrees at it (deltas): the
cut-vertices with equal deltas share one MergeTables, made at set-up
with one dict lookup per cut-vertex and filled by phi_v_inverse and
phi_v under the same cap, which keeps the merge per d tuple and the d
digits per block sequence around v (see cutvertex).
A graph is planar exactly when each of its blocks is, and build_spqr
tests each distinct block, so no whole-graph planarity test runs.

Unrank builds every rotation in the canonical form PlanarEmbedding
holds (each neighbor list a tuple starting at its smallest neighbor)
where it makes it: a block-local rotation once, when its shape decodes
it, and a merged cut-vertex rotation once per merge, which phi_v_inverse
returns canonical from the blocks' canonical tuples at v.  A block's id
map is monotone, so the smallest local neighbor maps to the smallest
global one and a canonical local list stays canonical in global ids.
The embedding then takes the tuples as they are, with no second pass.

Unrank writes each vertex its digits decide once, and no other.  A
vertex of degree at most 2 has one rotation in every embedding: the
ranker makes it once, at set-up, in its base rotation, which every
unrank copies and every embedding shares.  Of the other vertices, one
that is no cut-vertex lies in one block, with its full degree there, and
_decode_blocks writes it; a cut-vertex is written by _merge_cuts alone.
The records both read are made at set-up: each block's non-cut vertices
of degree >= 3, and per cut-vertex, each block's rotation at it, fixed
where the block has at most 2 edges there.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from . import codecs
from .biconnected import biconn_bounds, chi, chi_inverse
from .codecs import MixedRadix, tuple_rank, tuple_unrank
from .cutvertex import DECODED_PER_SHAPE, BlocksAtV, MergeTables, phi_v, phi_v_inverse
from .embedding import PlanarEmbedding, Rotation, canonical_rotation, validate
from .errors import EmbeddingMismatch, RankOutOfRange
from .graph import Graph, block_cut_tree, connected_components, edge_id
from .nesting import NestingCodec
from .spqr import SpqrTree, build_spqr


@dataclass(slots=True)
class _Shape:
    """What the ranker keeps per distinct block graph besides its tree.

    Each table holds at most DECODED_PER_SHAPE entries.  rank fills its
    table only past validate, so a rejected embedding never enters.
    """
    poles: tuple[int, ...]     # local pole of each P-/R-node: where chi reads
    # (p digits, r digits) -> the block-local rotation chi_inverse
    # returned, made canonical once, on entry.  Read-only: unrank
    # translates its tuples into global ids.
    decoded: dict[tuple, Rotation] = field(default_factory=dict)
    # Block-local rotations at poles, in that order -> chi's (p, r) digits.
    encoded: dict[tuple, tuple[list[int], list[int]]] = field(default_factory=dict)


@dataclass(slots=True)
class _BlockInfo:
    comp: int                  # component index (0-based)
    edges: list[tuple[int, int]]
    to_local: dict[int, int]
    to_global: tuple[int, ...]  # global id of each local id (index 0 unused)
    tree: SpqrTree             # shared by every block with this local graph
    # (global, local, cut, lo, hi) pole of each P-/R-node.  At a cut-vertex
    # pole, cut indexes it in ranker.cuts and the block's edges are lo..hi
    # of its rotation sorted by block; otherwise cut is -1.
    poles: tuple[tuple[int, int, int, int, int], ...] = field(init=False)
    # (global, local) of each vertex that is no cut-vertex and has degree
    # >= 3: the vertices whose rotation the block's digits decide alone.
    decided: tuple[tuple[int, int], ...] = field(init=False)
    p: slice = field(init=False)  # its P-node digits in the rank tuple
    r: slice = field(init=False)  # its R-node bits


@dataclass(slots=True)
class _CutInfo:
    v: int                     # global vertex id
    comp: int
    block_ids: list[int]       # indices into ranker.blocks, in ctx's order
    ctx: BlocksAtV
    # Per block at v, in ctx's order, (fixed, b, local v, to_global): a
    # block with at most 2 edges at v has one canonical rotation there,
    # fixed; otherwise fixed is () and the rotation is block b's at local
    # v, translated through to_global.
    at_v: list[tuple[tuple[int, ...], int, int, tuple[int, ...]]] = field(init=False)
    c: slice = field(init=False)  # its c values in the rank tuple
    d: slice = field(init=False)  # its d values


class EmbeddingRanker:
    """Precomputed decomposition and bounds for one planar graph."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        bct = block_cut_tree(graph)  # first: its search fills the components
        self.comps = connected_components(graph)
        self.t = len(self.comps)

        comp_of = {v: ci for ci, (_, comp) in enumerate(self.comps) for v in comp}
        # The base rotation, keyed by every vertex in ascending order: the
        # one canonical rotation of each vertex of degree <= 2, and an empty
        # placeholder for every other vertex, which each unrank overwrites
        # (see the module docstring).
        self.base: Rotation = {v: tuple(nbrs) if len(nbrs) < 3 else ()
                               for v, nbrs in graph.adj.items()}
        comp_edges = [0] * self.t  # m_c: the blocks of a component split its edges
        self.blocks: list[_BlockInfo] = []
        # Block-local (n, edges) -> its tree; a Graph is built on a miss only.
        trees: dict[tuple, SpqrTree] = {}
        # Each tree's local vertices of local degree >= 3, ascending.
        branching: dict[SpqrTree, tuple[int, ...]] = {}
        self.shapes: dict[SpqrTree, _Shape] = {}
        for blk in bct.blocks:  # sorted by minimum edge: the p/r order
            # The id map is monotone, so every ordering convention agrees
            # across coordinate systems, and the block's sorted edges stay
            # sorted in each.
            verts, key = blk.local()
            tree = trees.get(key)
            if tree is None:  # raises NotPlanar for a non-planar block
                tree = trees[key] = build_spqr(Graph(*key))
                self.shapes[tree] = _Shape(
                    tuple({nd.poles[0] for nd in tree.nodes if nd.kind in ("P", "R")}))
                branching[tree] = tuple(x for x, nbrs in tree.graph.adj.items()
                                        if len(nbrs) >= 3)
            inv = (0, *verts)  # ints: the collector untracks it
            comp = comp_of[verts[0]]
            comp_edges[comp] += len(blk.edges)
            self.blocks.append(
                _BlockInfo(comp, list(blk.edges),
                           {x: i for i, x in enumerate(inv) if i}, inv, tree)
            )
        # A component's face count is m_c - n_c + 2 (Euler).
        self.face_counts = [m - len(comp) + 2 for m, (_, comp) in zip(comp_edges, self.comps)]

        block_of_edge = {
            e: b for b, info in enumerate(self.blocks) for e in info.edges
        }
        self.cuts: list[_CutInfo] = []
        merge_tables: dict[tuple[int, ...], MergeTables] = {}  # by deltas
        for v in bct.cut_vertices:
            at_v: dict[int, list[int]] = {}
            for w in graph.adj[v]:
                at_v.setdefault(block_of_edge[edge_id(v, w)], []).append(w)
            ctx = BlocksAtV.make(v, at_v.values(), merge_tables)
            ids = [block_of_edge[edge_id(v, ws[0])] for ws in ctx.edges]
            self.cuts.append(_CutInfo(v, comp_of[v], ids, ctx))
        # Each block's poles, with the run of its edges at a cut-vertex pole
        # (_BlockInfo.poles): the blocks at v in ctx's order, deltas apart.
        # The same pass records each cut-vertex's at_v: a block's edges at
        # v, sorted, are its one canonical rotation there when at most 2.
        span: dict[tuple[int, int], tuple[int, int, int]] = {}
        blocks = self.blocks
        for k, cut in enumerate(self.cuts):
            v = cut.v
            lo = 0
            cut.at_v = at_v = []
            for b, ws, delta in zip(cut.block_ids, cut.ctx.edges, cut.ctx.deltas):
                span[b, v] = (k, lo, lo + delta)
                lo += delta
                if delta < 3:
                    at_v.append((ws, 0, 0, ()))
                else:
                    info = blocks[b]
                    at_v.append(((), b, info.to_local[v], info.to_global))
        cut_vertices = set(bct.cut_vertices)
        for b, info in enumerate(blocks):
            inv = info.to_global
            info.poles = tuple((inv[u], u, *span.get((b, inv[u]), (-1, 0, 0)))
                               for u in self.shapes[info.tree].poles)
            info.decided = tuple([(inv[u], u) for u in branching[info.tree]
                                  if inv[u] not in cut_vertices])
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
        self.radix = MixedRadix(self.bounds)

    # -- counting -----------------------------------------------------------

    def count(self) -> int:
        return self.radix.total

    # -- forward: embedding -> tuple/rank ------------------------------------

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
        rot = emb.rot
        cuts = self.cuts
        for cut in cuts:
            values[cut.c], values[cut.d] = phi_v(cut.ctx, rot[cut.v])
        # chi reads a block's rotation only at the poles of its P- and
        # R-nodes.  Every edge at a pole that is no cut-vertex lies in the
        # pole's one block.  A cut-vertex pole's rotation is sorted by block
        # once, on first use, and each block reads its own run of it, so a
        # hub of k blocks is not scanned k times.
        grouped_at: dict[int, list[int]] = {}
        shapes = self.shapes
        for info in self.blocks:
            if not info.poles:  # choice-free (bridge, cycle): no digits
                continue
            to_local = info.to_local
            key = []
            for x, _, k, lo, hi in info.poles:
                nbrs = rot[x]
                if k >= 0:
                    grouped = grouped_at.get(k)
                    if grouped is None:
                        block_of = cuts[k].ctx.block_of
                        grouped = grouped_at[k] = sorted(nbrs, key=block_of.__getitem__)
                    nbrs = grouped[lo:hi]
                key.append(tuple([to_local[w] for w in nbrs]))
            key = tuple(key)
            shape = shapes[info.tree]
            digits = shape.encoded.get(key)
            if digits is None:
                digits = chi(dict(zip(shape.poles, key)), info.tree)
                if len(shape.encoded) < DECODED_PER_SHAPE:
                    shape.encoded[key] = digits
            values[info.p], values[info.r] = digits
        return values

    def rank(self, emb: PlanarEmbedding) -> int:
        return tuple_rank(self.phi(emb), self.radix)

    # -- inverse: tuple/rank -> embedding ------------------------------------

    def _decode_blocks(self, values: list[int], block_ids, block_rot: list[Rotation | None],
                       rot: Rotation) -> None:
        """Decode the given blocks into block_rot and write the rotations of
        their decided vertices (_BlockInfo.decided) into rot, in global ids,
        as new canonical tuples.

        Each skeleton choice decodes once per shape into a block-local
        rotation (the one rotation of a choice-free block, bridge or cycle,
        too), made canonical there: once per cache entry, or once per
        decode past the cache's cap.  block_rot shares it with the cache.
        The id map is monotone, so the global tuples are canonical too.  A
        vertex of degree <= 2 keeps its base rotation, and a cut-vertex is
        left to _merge_cuts, which reads block_rot.
        """
        blocks, shapes = self.blocks, self.shapes
        for b in block_ids:
            info = blocks[b]
            shape = shapes[info.tree]
            key = (tuple(values[info.p]), tuple(values[info.r]))
            local = shape.decoded.get(key)
            if local is None:
                local = canonical_rotation(
                    chi_inverse(list(key[0]), list(key[1]), info.tree))
                if len(shape.decoded) < DECODED_PER_SHAPE:
                    shape.decoded[key] = local
            block_rot[b] = local
            to_global = info.to_global
            for x, u in info.decided:
                # x has three or more neighbors, so itemgetter builds an
                # exact-size tuple; tuple() of an iterator starts at ten
                # slots and shrinks, which fragments the allocator.
                rot[x] = itemgetter(*local[u])(to_global)

    def _merge_cuts(self, values: list[int], cuts, block_rot: list[Rotation | None],
                    rot: Rotation) -> None:
        """Write each given cut-vertex's merged rotation into rot, as a new
        canonical tuple, from the blocks' canonical tuples at it: the fixed
        one or, from block_rot, one itemgetter call (see _decode_blocks)."""
        for cut in cuts:
            rot[cut.v] = phi_v_inverse(
                cut.ctx, [fixed or itemgetter(*block_rot[b][x])(to_global)
                          for fixed, b, x, to_global in cut.at_v],
                values[cut.c], values[cut.d])

    def phi_inverse(self, values: list[int]) -> PlanarEmbedding:
        """Embedding from a full digit tuple."""
        # Looked up on the module per call, as tuple_rank does, so a
        # wrapper installed on codecs.check_bounds sees every call.
        codecs.check_bounds(values, self.bounds)
        block_rot: list[Rotation | None] = [None] * len(self.blocks)
        rot = self.base.copy()
        self._decode_blocks(values, range(len(self.blocks)), block_rot, rot)
        self._merge_cuts(values, self.cuts, block_rot, rot)
        # The decoded tree and tuple are valid by construction and the
        # composed rotation planar by the skeleton/merge invariants, so
        # the full re-validation by validate is skipped here.  rot is a new
        # dict of canonical tuples, and the tree and face tuple are new
        # lists, sorted and of ints, so the embedding takes them as they are.
        tree, ft = self.nesting_codec.inverse(values[self.a], values[self.b])
        return PlanarEmbedding(self.graph, rot, tree, ft, canonical=True)

    def unrank(self, r: int) -> PlanarEmbedding:
        return self.phi_inverse(tuple_unrank(r, self.radix))

    # -- sampling and enumeration --------------------------------------------

    def sample(self, seed: int, k: int = 1):
        """k embeddings drawn independently and uniformly (fixed seed): the
        unranks of k uniform ranks, since the codec is a bijection."""
        rng = random.Random(seed)
        for _ in range(k):
            yield self.unrank(rng.randrange(self.count()))

    @cached_property
    def _owners_by_reach(self) -> tuple[int, list[int], list[int], list[int], list[_CutInfo]]:
        """What an enumeration step reads to find the owners it redoes.

        A block's reach is one past the last of its digits whose bound
        exceeds 1, 0 if it has none: after a step whose carry stops at
        digit i, exactly the blocks with reach > i own a changed digit.
        A cut-vertex's reach also covers the blocks at it, because its
        merge reads each block's rotation at it.
        Returns the last digit whose bound exceeds 1 (-1 if none), then
        the reaches of the blocks in ascending order with their indices,
        and the same for the cut-vertices.
        """
        bounds = self.bounds

        def reach(*slices: slice) -> int:
            return max((j + 1 for s in slices for j in range(s.start, s.stop)
                        if bounds[j] > 1), default=0)

        block_reach = [reach(info.p, info.r) for info in self.blocks]
        cut_reach = [max(reach(cut.c, cut.d), *(block_reach[b] for b in cut.block_ids))
                     for cut in self.cuts]
        blocks = sorted(range(len(self.blocks)), key=block_reach.__getitem__)
        cuts = sorted(range(len(self.cuts)), key=cut_reach.__getitem__)
        top = max((j for j, x in enumerate(bounds) if x > 1), default=-1)
        return (top, [block_reach[b] for b in blocks], blocks,
                [cut_reach[k] for k in cuts], [self.cuts[k] for k in cuts])

    def enumerate(self, start: int = 0, limit: int | None = None):
        """Consecutive (rank, embedding) pairs from a starting rank.

        A mixed-radix odometer steps the tuple, and the previous item's
        block and global rotations are kept.  The first item decodes
        everything.  A step whose carry stops at digit i changed digit i
        and every digit after it, so it re-decodes only the blocks and
        re-merges only the cut-vertices that own one of those digits,
        plus the cut-vertices on a re-decoded block, and decodes the
        nesting only when an a or b digit changed.  The delay is
        amortized constant in digits; a step costs the size of the
        re-decoded blocks and cut-vertices, plus one copy of the rotation
        dict per item, made without a line of Python per vertex.  The
        kept rotations are canonical tuples as built (_decode_blocks,
        _merge_cuts), so consecutive items share every tuple the step did
        not rewrite, and each item owns its rotation dict, nesting list
        and face tuple list: no two items share a mutable object.
        """
        total = self.count()
        if not 0 <= start < total:
            raise RankOutOfRange(f"rank {start} outside 0..{total - 1}")
        top, block_reach, blocks, cut_reach, cuts = self._owners_by_reach
        bounds = self.bounds
        values = tuple_unrank(start, self.radix)
        block_rot: list[Rotation | None] = [None] * len(self.blocks)
        rot = self.base.copy()
        i = -1  # the first item decodes every owner
        for r in range(start, total if limit is None else min(total, start + limit)):
            if r > start:
                # r < total, so some digit up to top is below its maximum.
                i = top
                while values[i] == bounds[i] - 1:
                    values[i] = 0
                    i -= 1
                values[i] += 1
            self._decode_blocks(values, blocks[bisect_right(block_reach, i):], block_rot, rot)
            self._merge_cuts(values, cuts[bisect_right(cut_reach, i):], block_rot, rot)
            if i < self.b.stop:
                tree, ft = self.nesting_codec.inverse(values[self.a], values[self.b])
            yield r, PlanarEmbedding(self.graph, dict(rot), tree[:], ft[:], canonical=True)


def count_embeddings(g: Graph) -> int:
    """Number of planar embeddings of g on the sphere."""
    return EmbeddingRanker(g).count()


def sample_uniform(g: Graph, seed: int) -> PlanarEmbedding:
    """One embedding drawn uniformly at random, reproducible by seed."""
    return next(EmbeddingRanker(g).sample(seed, 1))
