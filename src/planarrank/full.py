"""End-to-end ranking of the planar embeddings of an arbitrary graph.

The rank tuple concatenates, in this order:

* a: c-1 nesting-tree labels (bound: sum of inner-face counts plus one),
* b: one outer-face choice per component (bound: its face count),
* c, d: per cut-vertex (ascending vertex id) the arrangement values,
* p: per P-node, permutation ranks; blocks ascending by minimum edge id,
  nodes in conventional order,
* r: per R-node, reflection bits, same ordering.

The mixed-radix codec turns the tuple into a single natural number; the
product of all bounds is the number of embeddings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

from .biconnected import biconn_bounds, chi, chi_inverse
from .codecs import bounds_product, tuple_rank, tuple_unrank
from .cutvertex import BlocksAtV, arrangement_bounds, phi_v, phi_v_inverse
from .embedding import PlanarEmbedding, Rotation, validate
from .errors import EmbeddingMismatch, NotPlanar
from .graph import Graph, block_cut_tree, connected_components, edge_id
from .nesting import NestingCodec
from .spqr import SpqrTree, build_spqr


@dataclass
class _BlockInfo:
    comp: int                  # component index (0-based)
    vertices: list[int]        # global vertex ids
    edges: list[tuple[int, int]]
    to_local: dict[int, int]
    to_global: dict[int, int]
    tree: SpqrTree
    min_edge: tuple[int, int]


@dataclass
class _CutInfo:
    v: int                     # global vertex id
    comp: int
    block_ids: list[int]       # indices into ranker.blocks, at-v order


class EmbeddingRanker:
    """Precomputed decomposition and bounds for one planar graph."""

    def __init__(self, graph: Graph) -> None:
        if not nx.check_planarity(nx.Graph(graph.edges))[0]:
            raise NotPlanar("graph admits no planar embedding")
        self.graph = graph
        self.comps = connected_components(graph)
        self.t = len(self.comps)

        self.face_counts: list[int] = []
        self.blocks: list[_BlockInfo] = []
        cut_infos: list[_CutInfo] = []

        for ci, (_, comp) in enumerate(self.comps):
            order = sorted(comp)
            to_local = {v: i + 1 for i, v in enumerate(order)}
            to_global = {i + 1: v for i, v in enumerate(order)}
            edges = [(to_local[u], to_local[v]) for u, v in graph.edges if u in comp]
            sub = Graph(len(order), edges)
            self.face_counts.append(sub.m - sub.n + 2)
            bct = block_cut_tree(sub)

            local_block_ids: dict[int, int] = {}
            for bi, blk in enumerate(bct.blocks):
                bg, remap = blk.to_graph()
                # Compose remaps so block-local ids translate straight to
                # global ids; both remaps are monotone, so every ordering
                # convention agrees across coordinate systems.
                inv = {i: to_global[v] for v, i in remap.items()}
                fwd = {to_global[v]: i for v, i in remap.items()}
                g_edges = sorted(
                    (min(inv[a], inv[b]), max(inv[a], inv[b])) for a, b in bg.edges
                )
                self.blocks.append(
                    _BlockInfo(ci, sorted(inv.values()), g_edges, fwd, inv,
                               build_spqr(bg, pretested=True), g_edges[0])
                )
                local_block_ids[bi] = len(self.blocks) - 1

            for v in bct.cut_vertices:
                ids = [local_block_ids[bi] for bi in bct.blocks_at[v]]
                ids.sort(key=lambda b: min(
                    e for e in self.blocks[b].edges if to_global[v] in e
                ))
                cut_infos.append(_CutInfo(to_global[v], ci, ids))

        cut_infos.sort(key=lambda c: c.v)
        self.cuts = cut_infos
        self._block_of_edge = {
            e: b for b, info in enumerate(self.blocks) for e in info.edges
        }
        self.block_order = sorted(range(len(self.blocks)),
                                  key=lambda b: self.blocks[b].min_edge)
        self.nesting_codec = NestingCodec(self.face_counts)

        # Per-segment bounds, in tuple order.
        self.a_bounds = self.nesting_codec.bounds[: self.t - 1]
        self.b_bounds = list(self.face_counts)
        self.c_bounds: list[int] = []
        self.d_bounds: list[int] = []
        self._cut_shapes: list[tuple[int, int]] = []  # (#c, #d) per cut
        for cut in self.cuts:
            deltas = [
                sum(1 for e in self.blocks[b].edges if cut.v in e)
                for b in cut.block_ids
            ]
            cs, ds = arrangement_bounds(deltas)
            self.c_bounds.extend(cs)
            self.d_bounds.extend(ds)
            self._cut_shapes.append((len(cs), len(ds)))
        self.p_bounds: list[int] = []
        self.r_bounds: list[int] = []
        self._block_shapes: list[tuple[int, int]] = []  # (#p, #r) per block
        for b in self.block_order:
            bb = biconn_bounds(self.blocks[b].tree)
            y = len(self.blocks[b].tree.p_nodes())
            self.p_bounds.extend(bb[:y])
            self.r_bounds.extend(bb[y:])
            self._block_shapes.append((y, len(bb) - y))
        self.bounds = (self.a_bounds + self.b_bounds + self.c_bounds
                       + self.d_bounds + self.p_bounds + self.r_bounds)
        self._block_rot_cache: dict[int, dict] = {b: {} for b in self.block_order}

    # -- counting -----------------------------------------------------------

    def count(self) -> int:
        return bounds_product(self.bounds)

    # -- forward: embedding -> tuple/rank ------------------------------------

    def _block_rotation(self, emb: PlanarEmbedding, b: int) -> Rotation:
        info = self.blocks[b]
        rot = {}
        for x in info.vertices:
            rot[info.to_local[x]] = [
                info.to_local[w] for w in emb.rot[x]
                if self._block_of_edge[edge_id(x, w)] == b
            ]
        return rot

    def phi(self, emb: PlanarEmbedding) -> list[int]:
        """The full digit tuple of an embedding."""
        if emb.graph != self.graph:
            raise EmbeddingMismatch("embedding belongs to a different graph")
        problems = validate(emb)
        if problems:
            raise EmbeddingMismatch("; ".join(problems))

        a_vals, b_vals = self.nesting_codec.forward(
            list(emb.nesting), list(emb.face_tuple)
        )

        c_vals: list[int] = []
        d_vals: list[int] = []
        for cut in self.cuts:
            block_cycles: dict[int, list[int]] = {b: [] for b in cut.block_ids}
            for w in emb.rot[cut.v]:
                block_cycles[self._block_of_edge[edge_id(cut.v, w)]].append(w)
            ctx = BlocksAtV.make(cut.v, block_cycles.values())
            cs, ds = phi_v(ctx, list(emb.rot[cut.v]))
            c_vals.extend(cs)
            d_vals.extend(ds)

        p_vals: list[int] = []
        r_vals: list[int] = []
        for bi, b in enumerate(self.block_order):
            if self._block_shapes[bi] == (0, 0):
                continue  # choice-free block (bridge, cycle)
            ps, rs = chi(self._block_rotation(emb, b), self.blocks[b].tree)
            p_vals.extend(ps)
            r_vals.extend(rs)
        return a_vals + b_vals + c_vals + d_vals + p_vals + r_vals

    def rank(self, emb: PlanarEmbedding) -> int:
        return tuple_rank(self.phi(emb), self.bounds)

    # -- inverse: tuple/rank -> embedding ------------------------------------

    def _split(self, values: list[int]) -> tuple[list[int], ...]:
        out = []
        i = 0
        for seg in (self.a_bounds, self.b_bounds, self.c_bounds,
                    self.d_bounds, self.p_bounds, self.r_bounds):
            out.append(values[i:i + len(seg)])
            i += len(seg)
        return tuple(out)

    def phi_inverse(self, values: list[int]) -> PlanarEmbedding:
        """Embedding from a full digit tuple."""
        from .codecs import check_bounds

        check_bounds(values, self.bounds)
        a_vals, b_vals, c_vals, d_vals, p_vals, r_vals = self._split(values)

        # Blocks first: decode every skeleton choice into a rotation.
        # Results are cached per block and choice tuple; choice-free blocks
        # (bridges, cycles) hit the cache on every call.
        block_rot: dict[int, Rotation] = {}
        pi = ri = 0
        for bi, b in enumerate(self.block_order):
            y, z = self._block_shapes[bi]
            key = (tuple(p_vals[pi:pi + y]), tuple(r_vals[ri:ri + z]))
            pi += y
            ri += z
            cache = self._block_rot_cache[b]
            cached = cache.get(key)
            if cached is None:
                info = self.blocks[b]
                local = chi_inverse(list(key[0]), list(key[1]), info.tree)
                cached = {
                    info.to_global[x]: [info.to_global[w] for w in nbrs]
                    for x, nbrs in local.items()
                }
                if len(cache) < 16:
                    cache[key] = cached
            block_rot[b] = cached

        # Global rotation: every vertex takes its block's rotation; cut
        # vertices get the merged arrangement instead.
        rot: Rotation = {}
        for b, r in block_rot.items():
            for x, nbrs in r.items():
                if x in rot:
                    continue  # cut vertex, handled below
                rot[x] = nbrs  # PlanarEmbedding copies every list
        ci = di = 0
        for cut, (nc, ndv) in zip(self.cuts, self._cut_shapes):
            ctx = BlocksAtV.make(
                cut.v, [block_rot[b][cut.v] for b in cut.block_ids]
            )
            rot[cut.v] = phi_v_inverse(
                ctx, c_vals[ci:ci + nc], d_vals[di:di + ndv]
            )
            ci += nc
            di += ndv

        # The decoded tree and tuple are valid by construction and the
        # composed rotation planar by the skeleton/merge invariants, so
        # the full re-validation of digamma_inverse is skipped here.
        tree, ft = self.nesting_codec.inverse(a_vals, b_vals)
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
