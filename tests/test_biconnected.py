"""chi / chi_inverse: the biconnected-layer bijection."""

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass

import networkx as nx
import pytest

from _graphgen import (atlas_planar, fan, p_fan, random_planar, series_parallel,
                       triangulated_grid, wheel)
from _oracle import canonical_cycle, enumerate_connected, is_planar_rotation
from _spqr_reference import SkelEdge
from planarrank.biconnected import biconn_bounds, chi, chi_inverse
from planarrank.codecs import MixedRadix, perm_unrank, tuple_unrank
from planarrank.embedding import PlanarEmbedding, validate
from planarrank.errors import BoundViolation, EmbeddingMismatch
from planarrank.full import EmbeddingRanker
from planarrank.graph import Graph, block_cut_tree, edge_id
from planarrank.spqr import build_spqr

TRIANGLE = Graph(3, [(1, 2), (1, 3), (2, 3)])
K4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
THETA = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
W4 = Graph(5, [(1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)])

SMALL_BICONNECTED = [
    TRIANGLE,
    Graph(4, [(1, 2), (1, 4), (2, 3), (3, 4)]),
    K4,
    THETA,
    Graph(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]),  # K23
    W4,
    Graph(6, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5), (4, 6), (5, 6)]),  # prism
    Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]),  # theta relabeled
    Graph(6, [(1, 2), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6), (1, 4)]),  # C6 + chord
    Graph(7, [(1, 2), (1, 7), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 6), (3, 5)]),
]


def canon(rot):
    return tuple(sorted((v, canonical_cycle(r)) for v, r in rot.items()))


class TestChi:
    def test_cycle_has_empty_tuple(self):
        g = Graph(4, [(1, 2), (1, 4), (2, 3), (3, 4)])
        tree = build_spqr(g)
        assert biconn_bounds(tree) == []
        rot = chi_inverse([], [], tree)
        assert chi(rot, tree) == ([], [])

    def test_k4_first_embedding_is_zero(self):
        tree = build_spqr(K4)
        rot0 = chi_inverse([], [0], tree)
        assert chi(rot0, tree) == ([], [0])
        rot1 = chi_inverse([], [1], tree)
        assert chi(rot1, tree) == ([], [1])
        # The two are mirrors of each other.
        for v in K4.vertices:
            assert canonical_cycle(rot1[v]) == canonical_cycle(list(reversed(rot0[v])))

    def test_theta_p_values_cover_0_and_1(self):
        tree = build_spqr(THETA)
        assert biconn_bounds(tree) == [2]
        seen = set()
        for rot in enumerate_connected(THETA):
            p, r = chi(rot, tree)
            assert r == []
            seen.add(p[0])
        assert seen == {0, 1}

    def test_all_zero_tuple_is_canonical_first(self):
        for g in SMALL_BICONNECTED:
            tree = build_spqr(g)
            bounds = biconn_bounds(tree)
            p_count = len(tree.p_nodes())
            rot = chi_inverse([0] * p_count, [0] * (len(bounds) - p_count), tree)
            assert is_planar_rotation(g, rot)

    def test_bound_violation(self):
        # chi_inverse's digits passed check_bounds: an R bit of 2, or a P
        # value for a tree without P-nodes, stops at the ranker.  K4's
        # tuple is its outer face, then its one R bit.
        ranker = EmbeddingRanker(K4)
        assert ranker.bounds == [4, 2]
        with pytest.raises(BoundViolation):
            ranker.phi_inverse([0, 2])
        with pytest.raises(BoundViolation):
            ranker.phi_inverse([0, 0, 0])

    @pytest.mark.parametrize("g", SMALL_BICONNECTED)
    def test_bijection_against_oracle(self, g):
        """Unranking every tuple hits every sphere embedding exactly once."""
        tree = build_spqr(g)
        bounds = biconn_bounds(tree)
        p_count = len(tree.p_nodes())
        radix = MixedRadix(bounds)
        produced = {}
        for rank in range(radix.total):
            vals = tuple_unrank(rank, radix)
            p_vals, r_vals = vals[:p_count], vals[p_count:]
            rot = chi_inverse(p_vals, r_vals, tree)
            key = canon(rot)
            assert key not in produced, "two tuples produced the same embedding"
            produced[key] = (p_vals, r_vals)
            # Round trip.
            assert chi(rot, tree) == (p_vals, r_vals)
        oracle = {canon(rot) for rot in enumerate_connected(g)}
        assert set(produced) == oracle

    def test_chi_depends_only_on_embedding(self):
        # Feeding chi the same rotation twice, built differently, agrees.
        tree = build_spqr(THETA)
        rot = chi_inverse([1], [], tree)
        reshuffled = {v: rot[v][1:] + rot[v][:1] for v in rot}
        assert chi(rot, tree) == chi(reshuffled, tree)

    def test_one_planarity_test_per_block_shape_and_none_after_set_up(self, monkeypatch):
        # K4 plus a vertex on the pair {1, 2}: one P-node, one R-node.  The
        # R-node's first reflection comes with the tree, so chi and
        # chi_inverse agree on every choice with no further test.
        g = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)])
        graphs = []
        original = nx.check_planarity

        def counted(graph, *args, **kwargs):
            graphs.append(sorted(edge_id(u, v) for u, v in graph.edges))
            return original(graph, *args, **kwargs)

        monkeypatch.setattr(nx, "check_planarity", counted)
        tree = build_spqr(g)
        assert len(tree.p_nodes()) == 1 and len(tree.r_nodes()) == 1
        assert graphs == [list(g.edges)]
        for _ in range(3):
            for p_vals, r_vals in itertools.product([[0], [1]], [[0], [1]]):
                rot = chi_inverse(p_vals, r_vals, tree)
                assert chi(rot, tree) == (p_vals, r_vals)
        assert len(graphs) == 1

        # Set-up tests each distinct block graph of two or more edges once:
        # two K4s, W4, two grids, a triangle and a bridge make five.
        blocks = [K4, K4, W4, triangulated_grid(3, "down"), TRIANGLE,
                  Graph(2, [(1, 2)]), triangulated_grid(4, "up")]
        graphs.clear()
        ranker = EmbeddingRanker(glued(blocks))
        shapes = sorted({blk.local()[1] for blk in block_cut_tree(ranker.graph).blocks
                         if len(blk.edges) >= 2})
        assert len(shapes) == 5
        assert sorted(graphs) == sorted(list(edges) for _, edges in shapes)
        graphs.clear()
        total = ranker.count()
        for r in [0, 1, total // 3, total - 1]:
            assert ranker.rank(ranker.unrank(r)) == r
        assert len(list(ranker.sample(5, 3))) == 3
        assert len(list(ranker.enumerate(total - 20))) == 20
        assert graphs == []


def glued(blocks):
    """The blocks glued into one connected graph, each at its vertex 1 to
    the highest vertex so far.  New ids ascend past the glue vertex, so
    each block keeps its own graph as its block-local graph."""
    edges = list(blocks[0].edges)
    n = blocks[0].n
    for blk in blocks[1:]:
        name = [0, n, *range(n + 1, n + blk.n)]
        edges += [(name[u], name[v]) for u, v in blk.edges]
        n += blk.n - 1
    return Graph(n, edges)


class TestChiRejects:
    """chi reads a rotation that validate accepted: rank rejects any other
    before chi runs, with validate's message."""

    @pytest.mark.parametrize("g,stranger", [(W4, 3), (THETA, 5)], ids=["r-node", "p-node"])
    def test_non_edge_at_the_pole(self, g, stranger):
        # The stranger is not adjacent to vertex 1, the pole of the only
        # P- or R-node: in W4 it lies in the block, in THETA outside it.
        ranker = EmbeddingRanker(g)
        p_nodes, r_nodes = ranker.blocks[0].shape.tree.conventional
        assert [min(nd.poles) for nd in p_nodes + r_nodes] == [1]
        rot = dict(ranker.unrank(0).rot)
        rot[1] = [stranger, *rot[1][1:]]
        assert_rank_rejects(ranker, rot)

    def test_pole_missing_from_the_rotation(self):
        # Vertex 1 is the lower pole of the only P-node.
        g = Graph(5, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)])
        ranker = EmbeddingRanker(g)
        (nd,), () = ranker.blocks[0].shape.tree.conventional
        assert nd.poles[0] == 1
        rot = dict(ranker.unrank(0).rot)
        del rot[1]
        assert_rank_rejects(ranker, rot)


def assert_rank_rejects(ranker, rot):
    emb = PlanarEmbedding(ranker.graph, rot)
    problems = validate(emb)
    assert problems
    with pytest.raises(EmbeddingMismatch) as info:
        ranker.rank(emb)
    assert str(info.value) == "; ".join(problems)


# Reference copy of the run reader before the tree owned chi's tables: it
# maps real edges to Q-nodes, sorts the child intervals and scans the
# node's skeleton on every call.  It reads the same tree's intervals and
# names a skeleton edge as SpqrTree.skeleton does.
def reference_tokens(tree, node, x, nbrs):
    """The skeleton name of node that each neighbour w of x stands for."""
    qnode_of_edge = {nd.poles: nd.index for nd in tree.nodes if nd.kind == "Q"}
    child_bounds = sorted(
        (tree.nodes[c].tin, tree.nodes[c].tout, i) for i, c in enumerate(node.children))

    def token_at(w):
        t = tree.nodes[qnode_of_edge[edge_id(x, w)]].tin
        if not (node.tin <= t <= node.tout):
            return -1
        i = bisect_right(child_bounds, (t, float("inf"), 0)) - 1
        if i >= 0:
            tin, tout, name = child_bounds[i]
            if tin <= t <= tout:
                return name
        raise EmbeddingMismatch(f"edge ({x},{w}) maps to no skeleton edge")

    return [token_at(w) for w in nbrs]


def reference_induced_cycle(tree, node, x, rot):
    tokens = []
    for t in reference_tokens(tree, node, x, rot[x]):
        if not tokens or tokens[-1] != t:
            tokens.append(t)
    if len(tokens) > 1 and tokens[0] == tokens[-1]:
        tokens.pop()
    expected = sum(1 for e in tree.skeleton(node) if x in e)
    if len(tokens) != expected or len(set(tokens)) != len(tokens):
        raise EmbeddingMismatch("skeleton runs are not contiguous")
    return tokens


def shuffled_runs(tokens, nbrs, rng):
    """nbrs with its runs of equal tokens in a random order, the list
    started at a random place.  Every run stays contiguous, as in a
    planar rotation; the order inside a run is kept."""
    # Start at a run boundary, so that no run wraps past the end.
    k = next((i for i in range(len(tokens)) if tokens[i] != tokens[i - 1]), 0)
    pairs = list(zip(tokens, nbrs))
    runs = [[w for _, w in run]
            for _, run in itertools.groupby(pairs[k:] + pairs[:k], key=lambda tw: tw[0])]
    rng.shuffle(runs)
    out = [w for run in runs for w in run]
    k = rng.randrange(len(out))
    return out[k:] + out[:k]


def compare_run_readers(tree, rng, rounds):
    """The reference and SpqrTree.induced, as cyclic orders, on
    chi_inverse's rotations and on ones with the pole's skeleton runs
    permuted; the number of node/rotation pairs compared.  A run that
    wraps past the end of the rotation list may start either list."""
    p_nodes, r_nodes = tree.conventional
    bounds = biconn_bounds(tree)
    compared = 0
    for _ in range(rounds):
        vals = [rng.randrange(b) for b in bounds]
        rot = chi_inverse(vals[:len(p_nodes)], vals[len(p_nodes):], tree)
        for nd in p_nodes + r_nodes:
            u = nd.poles[0]
            names = [-1, *(i for i, c in enumerate(nd.children) if u in tree.nodes[c].poles)]
            tokens = reference_tokens(tree, nd, u, rot[u])
            for cand in (rot, {**rot, u: shuffled_runs(tokens, rot[u], rng)}):
                expected = reference_induced_cycle(tree, nd, u, cand)
                induced = tree.induced(nd, u, names, tree.placement(u, cand[u]))
                assert canonical_cycle(induced) == canonical_cycle(expected)
                compared += 1
    return compared


class TestRunReaderAgainstReference:
    def test_random_graphs_with_cut_vertices(self):
        rng = random.Random(6)
        compared = cut_graphs = 0
        for seed in range(40):
            ranker = EmbeddingRanker(random_planar(rng.randint(8, 30), seed=600 + seed))
            cut_graphs += bool(ranker.cuts)
            for info in ranker.blocks:
                compared += compare_run_readers(info.shape.tree, rng, 4)
        assert cut_graphs >= 30 and compared >= 1000

    def test_atlas(self):
        rng = random.Random(7)
        compared = 0
        for g in atlas_planar():
            for info in EmbeddingRanker(g).blocks:
                compared += compare_run_readers(info.shape.tree, rng, 2)
        assert compared >= 1000

    def test_fans_and_wheels(self):
        # Every P-node of a fan and the R-node of a wheel share the hub as
        # their lower pole; the P-fan's one P-node has k children there.
        rng = random.Random(8)
        blocks = [p_fan(k) for k in range(2, 9)]
        blocks += [family(k) for family in (fan, wheel) for k in range(3, 12)]
        compared = sum(compare_run_readers(build_spqr(g), rng, 4) for g in blocks)
        assert compared >= 760


# Reference copy of the decode before the tree dropped its per-edge
# records: every skeleton edge is a SkelEdge with a uid, twins pairs a
# parent-side virtual edge with its child-side twin, real_edge maps a uid
# to the real edge it stands for, and compose_embedding substitutes uids
# top-down.  The records are rebuilt from the tree's poles, one twin pair
# per tree edge named by the child's index; the R-skeleton's first
# reflection is recomputed from them.  One SkeletonEmbedding per P- and
# R-node holds the choice, the P order permuted from first_embedding_P's.
@dataclass(frozen=True)
class SkeletonEmbedding:
    node: int
    order: tuple[int, ...] | None = None
    flip: int | None = None


class ReferenceTree:
    def __init__(self, tree):
        self.tree = tree
        uids = itertools.count(1)
        self.edges = {}  # node index -> its skeleton's SkelEdges
        for nd in tree.nodes:
            es = []
            if nd.kind == "Q":
                es.append(SkelEdge(next(uids), *nd.poles, real=nd.poles))
            if nd.parent is not None:
                es.append(SkelEdge(next(uids), *nd.poles, pair=nd.index))
            es += [SkelEdge(next(uids), *tree.nodes[c].poles, pair=c) for c in nd.children]
            self.edges[nd.index] = es
        # Parent-side virtual edge uid -> (child index, child-side twin uid).
        uid_at = {(i, e.pair): e.uid
                  for i, es in self.edges.items() for e in es if e.pair is not None}
        self.twins = {uid_at[(nd.parent, nd.index)]: (nd.index, uid_at[(nd.index, nd.index)])
                      for nd in tree.nodes if nd.parent is not None}
        # The real edge a skeleton edge uid stands for: the edge itself, or
        # for a virtual edge toward a Q-node, that Q-node's real edge.
        of_q = {nd.index: e for nd in tree.nodes if nd.kind == "Q"
                for e in self.edges[nd.index] if e.real is not None}
        self.real_edge = {e.uid: e for e in of_q.values()}
        self.real_edge.update((uid, of_q[c]) for uid, (c, _) in self.twins.items() if c in of_q)
        self.first_r = {nd.index: self.first_embedding_R(nd) for nd in tree.r_nodes()}

    def first_embedding_R(self, node):
        edges = self.edges[node.index]
        ok, emb = nx.check_planarity(nx.Graph([(e.u, e.v) for e in edges]))
        assert ok
        data = emb.get_data()
        rot = {v: list(data[v]) for v in sorted(data)}
        u = min(node.poles)
        w1 = min(rot[u], key=lambda w: edge_id(u, w))
        i = rot[u].index(w1)
        a = rot[u][(i - 1) % len(rot[u])]  # ccw predecessor
        b = rot[u][(i + 1) % len(rot[u])]
        w2 = a if edge_id(u, a) < edge_id(u, b) else b
        if w2 != a:
            rot = {v: list(reversed(nbrs)) for v, nbrs in rot.items()}
        by_pair = {}
        for e in edges:
            by_pair[(e.u, e.v)] = e.uid
            by_pair[(e.v, e.u)] = e.uid
        return {v: [by_pair[(v, w)] for w in nbrs] for v, nbrs in rot.items()}

    def first_embedding_P(self, node):
        """Clockwise: reference edge then children by ascending identifier,
        stored counter-clockwise: reference first, children reversed."""
        uid_of_pair = {e.pair: e.uid for e in self.edges[node.index]}
        return SkeletonEmbedding(node.index, order=(
            uid_of_pair[node.index], *[uid_of_pair[c] for c in reversed(node.children)]))

    def skeleton_rotation(self, node, orders, flips):
        edges = self.edges[node.index]
        if node.kind == "Q":
            uids = [e.uid for e in edges]
            u, v = node.poles
            return {u: list(uids), v: list(uids)}
        if node.kind == "S":
            at = {}
            for e in edges:
                at.setdefault(e.u, []).append(e.uid)
                at.setdefault(e.v, []).append(e.uid)
            return at
        if node.kind == "P":
            u, v = node.poles
            order = list(orders[node.index])
            return {u: order, v: [order[0], *reversed(order[1:])]}
        rot = self.first_r[node.index]
        if flips[node.index]:
            return {x: list(reversed(lst)) for x, lst in rot.items()}
        return {x: list(lst) for x, lst in rot.items()}

    def compose_embedding(self, orders, flips):
        tree = self.tree
        rots = {nd.index: self.skeleton_rotation(nd, orders, flips)
                for nd in tree.nodes if nd.kind != "Q" or nd.parent is None}
        out = {}
        for idx, rot in rots.items():
            nd = tree.nodes[idx]
            poles = nd.poles if nd.parent is not None else ()
            for x, seq in rot.items():
                if x in poles:
                    continue
                nbrs = []
                stack = [iter(seq)]
                while stack:
                    for uid in stack[-1]:
                        e = self.real_edge.get(uid)
                        if e is not None:
                            nbrs.append(e.v if x == e.u else e.u)
                            continue
                        c, cu = self.twins[uid]
                        clist = rots[c][x]
                        j = clist.index(cu)
                        stack.append(iter(clist[j + 1:] + clist[:j]))
                        break
                    else:
                        stack.pop()
                out[x] = nbrs
        return out

    def chi_inverse(self, p_vals, r_vals):
        p_nodes, r_nodes = self.tree.conventional
        choices = {}
        for nd, p in zip(p_nodes, p_vals):
            first = self.first_embedding_P(nd).order
            base = first[1:]
            sigma = perm_unrank(p, len(nd.children))
            choices[nd.index] = SkeletonEmbedding(
                nd.index, order=(first[0], *[base[s] for s in sigma]))
        for nd, r in zip(r_nodes, r_vals):
            choices[nd.index] = SkeletonEmbedding(nd.index, flip=r)
        return self.compose_embedding(
            {i: c.order for i, c in choices.items() if c.order is not None},
            {i: c.flip for i, c in choices.items() if c.flip is not None})


def compare_decoders(tree, tuples):
    """chi_inverse and the per-edge reference on each (p values, r
    values), as cyclic orders; the number compared."""
    reference = ReferenceTree(tree)
    compared = 0
    for p_vals, r_vals in tuples:
        assert canon(chi_inverse(p_vals, r_vals, tree)) == \
            canon(reference.chi_inverse(p_vals, r_vals))
        compared += 1
    return compared


def every_tuple(tree):
    p_count = len(tree.conventional[0])
    for vals in itertools.product(*map(range, biconn_bounds(tree))):
        yield list(vals[:p_count]), list(vals[p_count:])


def random_tuples(tree, rng, count):
    p_count = len(tree.conventional[0])
    for _ in range(count):
        vals = [rng.randrange(b) for b in biconn_bounds(tree)]
        yield vals[:p_count], vals[p_count:]


class TestChiInverseAgainstReference:
    def test_every_tuple_of_every_atlas_block(self):
        trees = {id(info.shape.tree): info.shape.tree
                 for g in atlas_planar() for info in EmbeddingRanker(g).blocks}
        compared = sum(compare_decoders(t, every_tuple(t)) for t in trees.values())
        assert compared >= 4000
        assert sum(bool(t.conventional[0]) for t in trees.values()) >= 400

    def test_bigblock_and_series_parallel(self):
        rng = random.Random(12)
        blocks = [triangulated_grid(8, "down"), triangulated_grid(8, "up")]
        blocks += [series_parallel(20 + 13 * seed, seed) for seed in range(10)]
        for g in blocks:
            tree = build_spqr(g)
            assert compare_decoders(tree, random_tuples(tree, rng, 20)) == 20

    def test_random_planar_blocks(self):
        rng = random.Random(13)
        compared = 0
        for seed in range(30):
            for info in EmbeddingRanker(random_planar(rng.randint(8, 40), seed=700 + seed)).blocks:
                compared += compare_decoders(info.shape.tree, random_tuples(info.shape.tree, rng, 4))
        assert compared >= 1000
