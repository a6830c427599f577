"""SPQR construction, conventional order, first embeddings, composition."""

import gc
import itertools
import os
import random
from collections import Counter

import networkx as nx
import pytest

from _graphgen import (atlas_planar, fan, necklace, p_fan, random_planar, series_parallel,
                       triangulated_grid, wheel)
from _linecount import doubling_ratios, executed_lines
from _oracle import canonical_cycle, enumerate_connected, is_planar_rotation
from _spqr_reference import build_spqr as reference_build_spqr
from _spqr_reference import pair_build_spqr, pair_find_split, reference_find_split
from planarrank import spqr
from planarrank.biconnected import chi_inverse
from planarrank.errors import NotBiconnected, NotPlanar
from planarrank.graph import Graph, block_cut_tree, edge_id
from planarrank.spqr import SpqrNode, SpqrTree, build_spqr, compose_embedding

TRIANGLE = Graph(3, [(1, 2), (1, 3), (2, 3)])
C4 = Graph(4, [(1, 2), (1, 4), (2, 3), (3, 4)])
K4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
THETA = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
DIAMOND = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
PRISM = Graph(6, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5), (4, 6), (5, 6)])
W4 = Graph(5, [(1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)])
K23 = Graph(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])

BICONNECTED = [TRIANGLE, C4, K4, THETA, PRISM, W4, K23,
               Graph(5, [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)]),
               Graph(6, [(1, 2), (1, 4), (2, 3), (2, 5), (3, 5), (3, 4), (3, 6), (4, 6)])]


def all_skeleton_choices(tree):
    """Every (P edge orders, R flip bits) pair over the tree's P- and
    R-nodes: each P order is the reference edge (name -1), then any order
    of the children's edges."""
    p_nodes, r_nodes = tree.conventional
    p_spaces = []
    for nd in p_nodes:
        rest = range(len(nd.children))
        p_spaces.append([(-1, *perm) for perm in itertools.permutations(rest)])
    for combo in itertools.product(*p_spaces, *[(0, 1)] * len(r_nodes)):
        yield ({nd.index: order for nd, order in zip(p_nodes, combo)},
               {nd.index: flip for nd, flip in zip(r_nodes, combo[len(p_nodes):])})


def skeleton_vertices(tree, nd):
    return {x for e in tree.skeleton(nd) for x in e}


def far_end(edge, x):
    a, b = edge
    return b if x == a else a


def is_connected(vertices, edges):
    vertices = set(vertices)
    if not vertices:
        return True
    adj = {x: [] for x in vertices}
    for a, b in edges:
        if a in vertices and b in vertices:
            adj[a].append(b)
            adj[b].append(a)
    start = next(iter(vertices))
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertices


def check_structure(g, tree):
    # Every graph edge is the poles of exactly one Q-node, and the root is
    # the Q-node of the minimum edge.
    assert sorted(n.poles for n in tree.nodes if n.kind == "Q") == list(g.edges)
    root = tree.nodes[tree.root]
    assert root.kind == "Q" and root.poles == g.edges[0] and root.parent is None
    assert [n.index for n in tree.nodes if n.parent is None] == [tree.root]
    for n in tree.nodes:
        skel = tree.skeleton(n)
        # Names: child i's edge at index i, the reference edge last.
        assert skel == [*(tree.nodes[c].poles for c in n.children), n.poles]
        if n.parent is not None:
            up = tree.nodes[n.parent]
            # Twin pairing: the parent lists this node's reference edge
            # under the node's name there.
            assert tree.skeleton(up)[up.children.index(n.index)] == skel[-1]
            assert n.depth == up.depth + 1
            # No two adjacent S-nodes, no two adjacent P-nodes.
            assert not (up.kind == n.kind == "S")
            assert not (up.kind == n.kind == "P")
        if n.kind == "Q":
            # One real edge and one virtual: the root's toward its one
            # child, any other Q-node's toward its parent.
            assert len(n.children) == (0 if n.parent is not None or g.m == 1 else 1)
        elif n.kind == "P":
            assert len(set(skel)) == 1 and len(skel) >= 3
        elif n.kind == "S":
            deg = Counter(x for e in skel for x in e)
            assert all(d == 2 for d in deg.values()) and len(skel) >= 3
            assert is_connected(deg, skel)
        else:
            # Simple and triconnected: removing any two vertices leaves
            # the rest connected.
            verts = skeleton_vertices(tree, n)
            assert len(set(skel)) == len(skel) and len(verts) >= 4
            for pair in itertools.combinations(verts, 2):
                assert is_connected(verts - set(pair), skel)


class TestBuildSpqr:
    def test_single_edge_degenerate_q(self):
        tree = build_spqr(Graph(2, [(1, 2)]))
        assert [n.kind for n in tree.nodes] == ["Q"]

    def test_cycle_is_s_plus_qs(self):
        tree = build_spqr(C4)
        kinds = sorted(n.kind for n in tree.nodes)
        assert kinds == ["Q", "Q", "Q", "Q", "S"]
        s = next(n for n in tree.nodes if n.kind == "S")
        # Its four edges are virtual: three lead to Q-children, one to the
        # root Q-node.
        assert sorted(tree.skeleton(s)) == list(C4.edges)
        assert [tree.nodes[c].kind for c in s.children] == ["Q"] * 3

    def test_k4_is_r_plus_qs(self):
        # K4 is triconnected: brute force: removing any 2 vertices leaves
        # a connected graph, so the R classification is forced.
        for pair in itertools.combinations(K4.vertices, 2):
            rest = [v for v in K4.vertices if v not in pair]
            adj = {v: [w for w in K4.adj[v] if w in rest] for v in rest}
            seen = {rest[0]}
            stack = [rest[0]]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            assert len(seen) == len(rest)
        tree = build_spqr(K4)
        kinds = sorted(n.kind for n in tree.nodes)
        assert kinds == ["Q"] * 6 + ["R"]

    def test_theta_is_p_plus_rest(self):
        tree = build_spqr(THETA)
        p_nodes = tree.p_nodes()
        assert len(p_nodes) == 1
        assert len(tree.skeleton(p_nodes[0])) == 3

    def test_rejects_non_biconnected(self):
        for g in [
            Graph(3, [(1, 2), (2, 3)]),  # the cut-vertex 2 is not the DFS root
            Graph(5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)]),  # root 1 is
            Graph(4, [(1, 2), (3, 4)]),  # the DFS from 1 leaves 3 and 4 unreached
        ]:
            with pytest.raises(NotBiconnected):
                build_spqr(g)

    def test_rejects_non_planar(self):
        k5 = Graph(5, list(itertools.combinations(range(1, 6), 2)))
        with pytest.raises(NotPlanar):
            build_spqr(k5)

    @pytest.mark.parametrize("g", BICONNECTED)
    def test_structural_invariants(self, g):
        check_structure(g, build_spqr(g))

    def test_structural_invariants_on_atlas_blocks(self):
        blocks = {(b.n, b.edges): b for g in atlas_planar() for b in blocks_of(g)}
        for b in blocks.values():
            check_structure(b, build_spqr(b))

    @pytest.mark.parametrize("g", BICONNECTED)
    def test_skeleton_size_linear(self, g):
        # S/P/R skeletons stay within 3m; Q-nodes add two edges per edge.
        tree = build_spqr(g)
        spr = sum(len(tree.skeleton(n)) for n in tree.nodes if n.kind != "Q")
        assert spr <= 3 * g.m + 1
        total = spr + 2 * sum(n.kind == "Q" for n in tree.nodes)
        assert total <= 5 * g.m + 1

    @pytest.mark.parametrize("g", BICONNECTED)
    def test_tree_holds_no_edge_records(self, g):
        # The frozen tree stores no skeleton under construction and not the
        # witness: no set and no networkx object is reachable from it,
        # before or after chi_inverse reads it.
        tree = build_spqr(g)
        p_nodes, r_nodes = tree.conventional
        chi_inverse([0] * len(p_nodes), [0] * len(r_nodes), tree)
        seen, stack = set(), [tree]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, set)
            assert not type(obj).__module__.startswith("networkx"), obj
            stack.extend(gc.get_referents(obj))
        assert len(seen) > len(tree.nodes)


class TestConventionalOrder:
    def test_single_r_node(self):
        p, r = build_spqr(K4).conventional
        assert len(p) == 0 and len(r) == 1

    def test_depth_is_primary_key(self):
        # Theta nested under one branch of an outer theta: P-nodes at
        # depths 1 and 3.
        g = Graph(6, [(1, 2), (1, 3), (2, 3), (1, 4), (4, 5), (4, 6), (5, 6), (2, 5)])
        tree = build_spqr(g)
        p, _ = tree.conventional
        depths = [n.depth for n in p]
        assert depths == sorted(depths)

    def test_equal_depth_breaks_by_min_pertinent_edge(self):
        # Cycle 1-2-3-4 with two theta expansions hanging at equal depth.
        g = Graph(6, [(1, 2), (1, 4), (2, 3), (2, 5), (3, 5), (3, 4), (3, 6), (4, 6)])
        tree = build_spqr(g)
        p, _ = tree.conventional
        assert [n.min_edge for n in p] == [(2, 3), (3, 4)]
        assert p[0].depth == p[1].depth


class TestFirstEmbeddings:
    def test_p_first_embedding_ref_then_children(self):
        # P value 0: counter-clockwise around the lower pole, the reference
        # edge, then the children by descending identifier.
        nested_theta = Graph(
            6, [(1, 2), (1, 3), (2, 3), (1, 4), (4, 5), (4, 6), (5, 6), (2, 5)])
        for g in [THETA, K23, nested_theta]:
            tree = build_spqr(g)
            p_nodes, r_nodes = tree.conventional
            rot = chi_inverse([0] * len(p_nodes), [0] * len(r_nodes), tree)
            assert p_nodes
            for nd in p_nodes:
                k = len(nd.children)
                assert k == len(tree.skeleton(nd)) - 1 >= 2
                u = nd.poles[0]
                induced = tree.induced(nd, u, range(-1, k), tree.placement(u, rot[u]))
                i = induced.index(-1)
                assert induced[i:] + induced[:i] == [-1, *range(k - 1, -1, -1)]

    def test_r_first_embedding_pole_rule(self):
        tree = build_spqr(K4)
        nd = tree.r_nodes()[0]
        rot = tree.first_r[nd.index]
        u = min(nd.poles)
        skel = tree.skeleton(nd)
        nbrs = [far_end(skel[t], u) for t in rot[u]]
        w1 = min(nbrs)
        i = nbrs.index(w1)
        w2_candidates = sorted([nbrs[(i - 1) % 3], nbrs[(i + 1) % 3]])
        # ccw predecessor of w1 must be the smaller-edge neighbor.
        assert nbrs[(i - 1) % 3] == w2_candidates[0]

    def test_r_first_embedding_unique_among_reflections(self):
        # Exactly one of the two reflections satisfies the pole rule.
        tree = build_spqr(K4)
        nd = tree.r_nodes()[0]
        rot = tree.first_r[nd.index]
        mirror = {v: list(reversed(l)) for v, l in rot.items()}
        u = min(nd.poles)
        skel = tree.skeleton(nd)

        def satisfies(r):
            nbrs = [far_end(skel[t], u) for t in r[u]]
            w1 = min(nbrs)
            i = nbrs.index(w1)
            a, b = nbrs[(i - 1) % len(nbrs)], nbrs[(i + 1) % len(nbrs)]
            lo = a if (min(u, a), max(u, a)) < (min(u, b), max(u, b)) else b
            return a == lo

        assert satisfies(rot) and not satisfies(mirror)

    def test_r_rule_idempotent(self):
        # Two builds of one graph state the same first reflection.
        assert build_spqr(K4).first_r == build_spqr(K4).first_r


class TestCompose:
    def test_cycle_compose_unique(self):
        tree = build_spqr(C4)
        rot = compose_embedding(tree, {}, {})
        assert is_planar_rotation(C4, rot)
        assert sorted(rot) == list(C4.vertices)

    def test_k4_flips_are_mirrors(self):
        tree = build_spqr(K4)
        nd = tree.r_nodes()[0]
        r0 = compose_embedding(tree, {}, {nd.index: 0})
        r1 = compose_embedding(tree, {}, {nd.index: 1})
        for v in K4.vertices:
            assert canonical_cycle(r1[v]) == canonical_cycle(list(reversed(r0[v])))

    def test_theta_two_orders_two_embeddings(self):
        tree = build_spqr(THETA)
        rots = set()
        for orders, flips in all_skeleton_choices(tree):
            rot = compose_embedding(tree, orders, flips)
            assert is_planar_rotation(THETA, rot)
            rots.add(tuple(sorted((v, canonical_cycle(r)) for v, r in rot.items())))
        oracle = enumerate_connected(THETA)
        assert len(rots) == len(oracle) == 2

    @pytest.mark.parametrize("g", BICONNECTED)
    def test_compose_matches_oracle_counts(self, g):
        tree = build_spqr(g)
        p_nodes, r_nodes = tree.conventional
        expected = 2 ** len(r_nodes)
        for nd in p_nodes:
            k = len(nd.children)
            for i in range(2, k + 1):
                expected *= i
        rots = set()
        for orders, flips in all_skeleton_choices(tree):
            rot = compose_embedding(tree, orders, flips)
            assert is_planar_rotation(g, rot)
            rots.add(tuple(sorted((v, canonical_cycle(r)) for v, r in rot.items())))
        assert len(rots) == expected
        oracle = {
            tuple(sorted((v, canonical_cycle(r)) for v, r in rot.items()))
            for rot in enumerate_connected(g)
        }
        assert rots == oracle


def blocks_of(g):
    """Every block of g as a standalone graph on 1..k."""
    return [Graph(*b.local()[1]) for b in block_cut_tree(g).blocks]


def tree_by_identifier(tree):
    """The dump, and every node by identifier (depth, min pertinent edge)
    with its kind, parent's identifier, interval, poles, skeleton, and its
    first embedding and first rotations as cyclic orders.  Node indices
    are left out: two builders may number the nodes differently."""
    ident = {nd.index: (nd.depth, nd.min_edge) for nd in tree.nodes}
    return tree.dump(), {
        ident[nd.index]: (nd.kind, ident.get(nd.parent), nd.tin, nd.tout, nd.poles,
                          tree.skeleton(nd), canonical_cycle(list(nd.first)),
                          {x: canonical_cycle(names)
                           for x, names in tree.first_r.get(nd.index, {}).items()})
        for nd in tree.nodes}


class TestSplitSearchAgainstReference:
    """The path search gives the tree of the twin-pair builder with the
    all-pairs split search, which tries every vertex pair of every
    skeleton."""

    @staticmethod
    def check(blocks):
        for g in blocks:
            assert tree_by_identifier(build_spqr(g)) == tree_by_identifier(
                pair_build_spqr(g, reference_find_split)), g.edges

    def test_first_split_of_atlas_skeletons(self):
        # The twin-pair builder's own search, which tries only cut-vertices
        # of the skeleton minus u and joined pairs, against the all-pairs
        # search: on skeletons of virtual edges only, as that builder
        # searches, but also on graphs that are not biconnected (the
        # skeleton minus u may be disconnected).
        for g in atlas_planar():
            ends = dict(enumerate(g.edges, 1))
            skeleton = (set(g.vertices), list(ends), ends)
            assert pair_find_split(*skeleton) == reference_find_split(*skeleton), g.edges

    def test_atlas_blocks(self):
        blocks = [b for g in atlas_planar() for b in blocks_of(g)]
        assert len(blocks) == 1684
        self.check(blocks)

    @pytest.mark.parametrize("diagonal", ["down", "up"])
    @pytest.mark.parametrize("k", range(3, 9))
    def test_triangulated_grids(self, k, diagonal):
        self.check([triangulated_grid(k, diagonal)])

    def test_series_parallel_blocks(self):
        self.check([series_parallel(10 + 7 * seed, seed) for seed in range(20)])

    def test_random_planar_blocks(self):
        self.check([b for seed in range(40) for b in blocks_of(random_planar(40, seed))])


class TestBuilderAgainstReference:
    """The path search gives the tree of both earlier builders: the one on
    per-edge records, one component per split, and the one on twin-pair
    ids with a lowpoint DFS per skeleton vertex."""

    @staticmethod
    def check(blocks):
        for g in blocks:
            new = tree_by_identifier(build_spqr(g))
            assert new == tree_by_identifier(reference_build_spqr(g)), g.edges
            assert new == tree_by_identifier(pair_build_spqr(g)), g.edges

    def test_atlas_blocks(self):
        self.check({(b.n, b.edges): b for g in atlas_planar() for b in blocks_of(g)}.values())

    @pytest.mark.parametrize("diagonal", ["down", "up"])
    def test_triangulated_grids(self, diagonal):
        self.check([triangulated_grid(k, diagonal) for k in range(3, 11)])

    def test_series_parallel_blocks(self):
        self.check([series_parallel(10 + 7 * seed, seed) for seed in range(20)])

    def test_random_planar_blocks(self):
        self.check([b for seed in range(40) for b in blocks_of(random_planar(80, seed))])

    def test_fans_wheels_and_necklaces(self):
        self.check([p_fan(k) for k in range(2, 9)] + [wheel(k) for k in range(3, 12)]
                   + [necklace(k) for k in range(3, 9)])

    # Shapes that need Gutwenger and Mutzel's corrections to Hopcroft and
    # Tarjan: bonds made in mid-search (the hub and each inner path
    # vertex of a fan are the poles of a P-node), P inside S inside P,
    # and long chains of degree-2 vertices.
    def test_fans(self):
        self.check([fan(k) for k in range(3, 31)])

    @pytest.mark.parametrize("diagonal", ["down", "up"])
    def test_large_triangulated_grids(self, diagonal):
        self.check([triangulated_grid(k, diagonal) for k in range(11, 15)])

    def test_large_series_parallel_blocks(self):
        self.check([series_parallel(100 + 20 * seed, seed) for seed in range(11)])

    def test_blocks_of_large_random_planar_graphs(self):
        self.check([b for seed in range(20) for b in blocks_of(random_planar(200, seed))])


def cycle(n, labels=None):
    """The cycle 1-2-...-n-1, with vertex i renamed labels[i - 1]."""
    name = labels or list(range(1, n + 1))
    return Graph(n, [(name[i], name[(i + 1) % n]) for i in range(n)])


@pytest.mark.parametrize("family,sizes", [
    (fan, [50, 100, 200, 400]),
    (necklace, [25, 50, 100, 200]),
    (wheel, [50, 100, 200, 400]),
    (p_fan, [25, 50, 100, 200]),
    (lambda rows: triangulated_grid(16, "down", rows), [8, 16, 32, 64]),
    (lambda rows: triangulated_grid(16, "up", rows), [8, 16, 32, 64]),
    (cycle, [250, 500, 1000, 2000]),
], ids=["fan", "necklace", "wheel", "p-fan", "grid-down", "grid-up", "cycle"])
def test_set_up_is_linear_under_doubling(family, sizes):
    """The lines build_spqr executes in src/planarrank grow at most 2.2
    times per doubling of the graph: one path search finds every split
    component, with no search per skeleton vertex and none per split."""
    package = os.path.dirname(spqr.__file__) + os.sep
    ratios = doubling_ratios([executed_lines(package, build_spqr, family(k)) for k in sizes])
    assert max(ratios) <= 2.2, ratios


@pytest.mark.parametrize("diagonal", ["down", "up"])
def test_split_search_stays_bounded_on_a_16x16_grid(diagonal):
    """The tree of a 256-vertex triangulated grid, one R-node with the
    corners split off; test_set_up_is_linear_under_doubling bounds the
    work of its set-up."""
    g = triangulated_grid(16, diagonal)
    tree = build_spqr(g)
    assert Counter(nd.kind for nd in tree.nodes) == {"Q": 705, "R": 1, "P": 2, "S": 2}
    assert [len(skeleton_vertices(tree, nd)) for nd in tree.r_nodes()] == [254]
    corners = {v for v in g.vertices if g.degree(v) == 2}
    s_nodes = [nd for nd in tree.nodes if nd.kind == "S"]
    assert [len(skeleton_vertices(tree, nd)) for nd in s_nodes] == [3, 3]
    assert {v for nd in s_nodes for v in skeleton_vertices(tree, nd)} & corners == corners


def reference_cycle_tree(g):
    """A cycle's tree built directly, without any split-pair search: one
    S-node plus a Q-node per edge, rooted at the minimum edge's Q-node."""
    # Q-nodes come first, then the S-node; each Q-node's poles are its edge.
    nodes = [SpqrNode(qi, "Q", depth=2, min_edge=e, poles=e)
             for qi, e in enumerate(g.edges)]
    s_index = len(nodes)
    nodes.append(SpqrNode(
        s_index, "S", parent=0, depth=1,
        min_edge=g.edges[1],  # every edge but the root's is below it
        poles=g.edges[0],
        children=list(range(1, s_index))))  # ascending edges, so sorted
    nodes[0].depth = 0
    nodes[0].children = [s_index]
    for qi in range(1, s_index):
        nodes[qi].parent = s_index
    return SpqrTree(g, nodes, 0, nx.check_planarity(nx.Graph(g.edges))[1])


class TestCycleFastPath:
    """A cycle block is one S-node: the path search cuts it into
    triangles, which the polygon merge glues back in linear time
    (test_set_up_is_linear_under_doubling)."""

    def test_equals_the_general_builder(self):
        rng = random.Random(12)
        cycles = [cycle(n) for n in range(3, 41)]
        cycles += [cycle(n, rng.sample(range(1, n + 1), n)) for n in range(3, 41)]
        for g in cycles:
            tree = build_spqr(g)
            assert [nd.kind for nd in tree.nodes].count("S") == 1
            assert tree_by_identifier(tree) == tree_by_identifier(
                reference_cycle_tree(g)), g.edges

    def test_one_s_node_on_a_2000_cycle(self):
        tree = build_spqr(cycle(2000))
        assert Counter(nd.kind for nd in tree.nodes) == {"Q": 2000, "S": 1}


# Reference copy of the first rotations before the tree derived them from
# its block's planarity witness: an S-skeleton's one rotation read off its
# edge list, and for an R-skeleton a second planarity test of the skeleton
# alone, reflected by the pole rule.
def reference_first_r(tree):
    out = {}
    for nd in tree.nodes:
        names = [*range(len(nd.children)), -1]
        skel = tree.skeleton(nd)
        if nd.kind == "S":
            at = {}
            for name, (a, b) in zip(names, skel):
                at.setdefault(a, []).append(name)
                at.setdefault(b, []).append(name)
            out[nd.index] = at
        elif nd.kind == "R":
            ok, emb = nx.check_planarity(nx.Graph(skel))
            assert ok
            data = emb.get_data()
            rot = {v: list(data[v]) for v in sorted(data)}
            u = nd.poles[0]
            w1 = min(rot[u], key=lambda w: edge_id(u, w))
            i = rot[u].index(w1)
            a = rot[u][(i - 1) % len(rot[u])]  # ccw predecessor
            b = rot[u][(i + 1) % len(rot[u])]
            w2 = a if edge_id(u, a) < edge_id(u, b) else b
            if w2 != a:
                rot = {v: list(reversed(nbrs)) for v, nbrs in rot.items()}
            name = dict(zip(skel, names))
            out[nd.index] = {v: [name[edge_id(v, w)] for w in nbrs] for v, nbrs in rot.items()}
    return out


def cyclic(first_r):
    return {idx: {x: canonical_cycle(names) for x, names in rot.items()}
            for idx, rot in first_r.items()}


class TestFirstRotationsAgainstReference:
    """Every S- and R-skeleton's first rotation, read off the block's one
    planarity witness, equals the reference's as a cyclic order at every
    skeleton vertex."""

    @staticmethod
    def check(blocks):
        r_nodes = 0
        for g in blocks:
            tree = build_spqr(g)
            assert cyclic(tree.first_r) == cyclic(reference_first_r(tree)), g.edges
            r_nodes += len(tree.r_nodes())
        return r_nodes

    def test_atlas_blocks(self):
        blocks = {(b.n, b.edges): b for g in atlas_planar() for b in blocks_of(g)}
        assert self.check(blocks.values()) >= 100

    @pytest.mark.parametrize("diagonal", ["down", "up"])
    def test_triangulated_grids(self, diagonal):
        self.check([triangulated_grid(k, diagonal) for k in range(3, 11)])

    def test_series_parallel_blocks(self):
        self.check([series_parallel(10 + 7 * seed, seed) for seed in range(20)])

    def test_random_planar_blocks(self):
        assert self.check([b for seed in range(40)
                           for b in blocks_of(random_planar(80, seed))]) >= 40

    def test_fans_wheels_and_necklaces(self):
        blocks = [p_fan(k) for k in range(2, 7)] + [wheel(k) for k in range(3, 9)]
        blocks += [necklace(k) for k in range(3, 7)]
        assert self.check(blocks) == 20 + 6 + 18


def tree_data_lines(g):
    """Lines executed in spqr.py while a built tree of g derives its data
    from its nodes and witness; the split search is not counted."""
    tree = build_spqr(g)
    witness = nx.check_planarity(nx.Graph(g.edges))[1]
    return executed_lines(spqr.__file__, SpqrTree, g, tree.nodes, tree.root, witness)


@pytest.mark.parametrize("family,sizes", [
    (p_fan, [25, 50, 100, 200]),
    (wheel, [50, 100, 200, 400]),
    (necklace, [25, 50, 100, 200]),
], ids=["p-fan", "wheel", "necklace"])
def test_tree_data_is_linear_under_doubling(family, sizes):
    """A pole shared by k skeletons is not scanned k times: the tree
    places each skeleton edge at a vertex by one lookup among the
    vertex's real edges."""
    ratios = doubling_ratios([tree_data_lines(family(k)) for k in sizes])
    assert max(ratios) <= 2.2, ratios
