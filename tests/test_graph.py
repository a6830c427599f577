"""Graph core: components, block-cut tree, JSON."""

import itertools
import os

import pytest
from networkx.generators.atlas import graph_atlas_g

from _graphgen import (benchmark_graphs, fan, necklace, p_fan, random_planar,
                       series_parallel, triangulated_grid, wheel)
from _linecount import doubling_ratios, executed_lines
from _shapes import chain_of_triangles, disjoint_k4s, hub_of_k4s, star_of_bridges
from _spqr_reference import lowpoint_dfs as reference_lowpoint_dfs
from planarrank import embedding, graph, spqr
from planarrank.errors import EdgelessComponent, MalformedInput, NotBiconnected, NotPlanar
from planarrank.full import EmbeddingRanker
from planarrank.graph import (Block, BlockCutTree, Graph, block_cut_tree,
                              connected_components, lowpoint_dfs)
from planarrank.spqr import build_spqr


TRIANGLE_GRAPH = Graph(3, [(1, 2), (1, 3), (2, 3)])


def brute_cut_vertices(g: Graph) -> set[int]:
    """Vertices whose removal disconnects the graph (removal oracle)."""
    cuts = set()
    for v in g.vertices:
        rest = [u for u in g.vertices if u != v]
        if not rest:
            continue
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            x = stack.pop()
            for w in g.adj[x]:
                if w != v and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(rest):
            cuts.add(v)
    return cuts


def all_connected_graphs(n: int):
    """Every connected graph on exactly n labelled vertices."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        touched = {x for e in edges for x in e}
        if touched != set(range(1, n + 1)):
            continue
        g = Graph(n, edges)
        if len(connected_components(g)) == 1:
            yield g


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(MalformedInput):
            Graph(2, [(1, 1)])

    def test_rejects_parallel(self):
        with pytest.raises(MalformedInput):
            Graph(2, [(1, 2), (2, 1)])

    def test_rejects_isolated_vertex(self):
        with pytest.raises(EdgelessComponent):
            Graph(3, [(1, 2)])

    def test_rejects_bool_endpoints(self):
        # True == 1, but to_json would write it as true, which from_json
        # rejects, so the graph it builds could not round-trip.
        with pytest.raises(MalformedInput):
            Graph(3, [(True, 2), (2, 3), (1, 3)])

    @pytest.mark.parametrize("n, edges", [
        ("3", []),
        (2.5, [(1, 2)]),
        (True, [(1, 2)]),
        (3, 5),
        (3, [(1, 2, 3)]),
        (3, [5]),
    ], ids=["str-n", "float-n", "bool-n", "edges-not-iterable", "edge-triple", "edge-int"])
    def test_rejects_malformed_arguments(self, n, edges):
        with pytest.raises(MalformedInput):
            Graph(n, edges)

    def test_json_roundtrip(self):
        g = Graph(4, [(1, 2), (3, 4), (2, 3)])
        assert Graph.from_json(g.to_json()) == g

    def test_json_requires_ascending_edges(self):
        with pytest.raises(MalformedInput):
            Graph.from_json('{"vertices": [1, 2], "edges": [[2, 1]]}')

    def test_json_requires_dense_vertices(self):
        with pytest.raises(MalformedInput):
            Graph.from_json('{"vertices": [1, 3], "edges": [[1, 3]]}')


class TestComponents:
    def test_single_edge(self):
        g = Graph(2, [(1, 2)])
        assert connected_components(g) == [(1, frozenset({1, 2}))]

    def test_two_components_ordered_by_min_vertex(self):
        g = Graph(4, [(1, 2), (3, 4)])
        assert connected_components(g) == [
            (1, frozenset({1, 2})),
            (2, frozenset({3, 4})),
        ]

    def test_chain_is_one_component(self):
        g = Graph(4, [(3, 4), (1, 2), (2, 3)])
        assert connected_components(g) == [(1, frozenset({1, 2, 3, 4}))]


class TestBlockCutTree:
    def test_triangle_is_one_block(self):
        t = block_cut_tree(Graph(3, [(1, 2), (1, 3), (2, 3)]))
        assert len(t.blocks) == 1
        assert t.cut_vertices == []

    def test_path_splits_at_middle(self):
        t = block_cut_tree(Graph(3, [(1, 2), (2, 3)]))
        assert [b.edges for b in t.blocks] == [((1, 2),), ((2, 3),)]
        assert t.cut_vertices == [2]
        assert [i for i, b in enumerate(t.blocks) if 2 in b.vertices] == [0, 1]

    def test_two_triangles_sharing_vertex(self):
        # Bowtie: triangles 1-2-3 and 3-4-5 share vertex 3; b(3) = 2.
        g = Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
        t = block_cut_tree(g)
        assert len(t.blocks) == 2
        assert t.cut_vertices == [3]
        assert sum(3 in b.vertices for b in t.blocks) == 2
        assert set(t.cut_vertices) == brute_cut_vertices(g)

    def test_disconnected_yields_every_component(self):
        t = block_cut_tree(Graph(4, [(1, 2), (3, 4)]))
        assert [b.edges for b in t.blocks] == [((1, 2),), ((3, 4),)]
        assert t.cut_vertices == []
        # Components {1, 3, 5, 6, 7} and {2, 4} interleave their ids: the
        # blocks of both sort together by minimum edge, and so do the
        # cut-vertices.
        g = Graph(7, [(1, 3), (3, 5), (2, 4), (5, 6), (5, 7), (6, 7)])
        t = block_cut_tree(g)
        assert [b.edges for b in t.blocks] == [
            ((1, 3),), ((2, 4),), ((3, 5),), ((5, 6), (5, 7), (6, 7))]
        assert t.cut_vertices == [3, 5]

    def test_blocks_sorted_by_min_edge(self):
        g = Graph(5, [(1, 5), (2, 5), (3, 5), (4, 5)])
        t = block_cut_tree(g)
        assert [b.min_edge for b in t.blocks] == [(1, 5), (2, 5), (3, 5), (4, 5)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_against_removal_oracle(self, n):
        for g in all_connected_graphs(n):
            t = block_cut_tree(g)
            assert set(t.cut_vertices) == brute_cut_vertices(g)
            # Every edge in exactly one block.
            all_edges = sorted(e for b in t.blocks for e in b.edges)
            assert all_edges == list(g.edges)

    def test_random_up_to_n9_against_removal_oracle(self):
        import random

        rng = random.Random(99)
        found = 0
        while found < 300:
            n = rng.randint(6, 9)
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            edges = [e for e in pairs if rng.random() < 0.4]
            if {x for e in edges for x in e} != set(range(1, n + 1)):
                continue
            g = Graph(n, edges)
            if len(connected_components(g)) != 1:
                continue
            found += 1
            t = block_cut_tree(g)
            assert set(t.cut_vertices) == brute_cut_vertices(g)
            assert sorted(e for b in t.blocks for e in b.edges) == list(g.edges)

    def test_block_local_remaps_densely(self):
        b = Block(frozenset({3, 5, 8}), ((3, 5), (3, 8), (5, 8)))
        remap, key = b.local()
        assert remap == {3: 1, 5: 2, 8: 3} and list(remap) == [3, 5, 8]
        assert key == (3, ((1, 2), (1, 3), (2, 3)))
        assert Graph(*key).edges == key[1]


def reference_connected_components(g: Graph) -> list[tuple[int, frozenset[int]]]:
    """The components as connected_components found them before the
    lowpoint search owned them: a search of their own, from each vertex
    not yet seen in ascending order."""
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for start in g.vertices:
        if start in seen:
            continue
        stack = [start]
        comp = {start}
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return [(i + 1, comp) for i, comp in enumerate(comps)]


def reference_block_cut_tree(g: Graph) -> BlockCutTree:
    """The block-cut tree as it was built before one search covered the
    whole graph: one lowpoint search per component, from its smallest
    vertex."""
    blocks = []
    cut: set[int] = set()
    for _, comp in reference_connected_components(g):
        _, comp_cut, raw_blocks = reference_lowpoint_dfs(g.adj, min(comp))
        cut |= comp_cut
        for edges in raw_blocks:
            blocks.append(Block(frozenset(x for e in edges for x in e), tuple(sorted(edges))))
    blocks.sort(key=lambda b: b.min_edge)
    return BlockCutTree(blocks, sorted(cut))


def atlas_without_isolated_vertices():
    """Every graph of networkx's atlas (at most 7 vertices), planar or
    not, that has no isolated vertex, relabeled to 1..n."""
    return [Graph(h.number_of_nodes(), [(u + 1, v + 1) for u, v in h.edges])
            for h in graph_atlas_g()
            if h.number_of_nodes() and min(d for _, d in h.degree()) > 0]


def all_benchmark_graphs():
    return [g for w in ("forest", "nested", "bigblock") for g in benchmark_graphs(w)]


def random_planar_graphs():
    return [random_planar(n, seed) for seed in range(10) for n in (60, 600)] + [
        random_planar(3000, 7)]


def large_blocks():
    """Biconnected graphs of 40 to 200 vertices, planar or not."""
    return [triangulated_grid(8, "down"), triangulated_grid(8, "up"), fan(60), wheel(60),
            necklace(40), p_fan(50),
            *(series_parallel(100 + 20 * seed, seed) for seed in range(5)),
            Graph(40, [(u, v) for u in range(1, 41) for v in range(u + 1, 41)])]


def raises_not_biconnected(g: Graph) -> bool:
    try:
        build_spqr(g)
    except NotBiconnected:
        return True
    except NotPlanar:
        pass
    return False


CORPORA = [atlas_without_isolated_vertices, all_benchmark_graphs, random_planar_graphs,
           large_blocks]
CORPUS_IDS = ["atlas", "benchmark", "random_planar", "large_blocks"]


class TestOneLowpointSearch:
    """block_cut_tree and build_spqr read one lowpoint search over the
    whole graph; the per-component search before it is the reference."""

    @pytest.mark.parametrize("corpus", CORPORA, ids=CORPUS_IDS)
    def test_block_cut_tree_against_reference(self, corpus):
        for g in corpus():
            assert block_cut_tree(g) == reference_block_cut_tree(g), g.edges

    @pytest.mark.parametrize("corpus", CORPORA, ids=CORPUS_IDS)
    def test_build_spqr_rejects_exactly_what_is_not_one_block(self, corpus):
        for g in corpus():
            one_block = len(reference_block_cut_tree(g).blocks) == 1
            assert raises_not_biconnected(g) is not one_block, g.edges

    @pytest.mark.parametrize("corpus", CORPORA, ids=CORPUS_IDS)
    def test_components_against_reference(self, corpus):
        """The components read off the search, on a fresh graph and on one
        whose blocks were searched first, equal those of a search of
        their own."""
        for g in corpus():
            want = reference_connected_components(g)
            assert connected_components(g) == want, g.edges
            fresh = Graph(g.n, g.edges)
            block_cut_tree(fresh)
            assert connected_components(fresh) == want, g.edges


@pytest.fixture
def searches(monkeypatch):
    """Every graph lowpoint_dfs runs on, through graph's binding (what
    block_cut_tree and connected_components call) and spqr's."""
    searched = []

    def counted(g):
        searched.append(g)
        return lowpoint_dfs(g)

    monkeypatch.setattr(graph, "lowpoint_dfs", counted)
    monkeypatch.setattr(spqr, "lowpoint_dfs", counted)
    return searched


class TestComponentsOwner:
    """lowpoint_dfs owns a graph's components: connected_components has
    no search of its own."""

    def test_searched_once_per_graph(self, searches):
        g = Graph(7, [(1, 3), (3, 5), (2, 4), (5, 6), (5, 7), (6, 7)])
        want = [(1, frozenset({1, 3, 5, 6, 7})), (2, frozenset({2, 4}))]
        assert connected_components(g) == want
        assert connected_components(g) == want
        assert searches == [g]
        # A second search leaves the components it found first in place.
        first = g._components
        block_cut_tree(g)
        assert g._components is first and searches == [g, g]

    @pytest.mark.parametrize("g", [random_planar(600, seed=3, components=1),
                                   random_planar(600, seed=3, components=40),
                                   Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])],
                             ids=["forest", "nested", "k4"])
    def test_ranker_setup_searches_the_graph_once(self, searches, g):
        """Set-up runs one lowpoint search over the whole graph; build_spqr's
        searches are over block-local graphs, none of them g."""
        g = Graph(g.n, g.edges)  # never searched
        ranker = EmbeddingRanker(g)
        assert sum(x is g for x in searches) == 1
        assert ranker.comps == reference_connected_components(g)

    def test_unrank_reads_no_components(self, monkeypatch):
        """PlanarEmbedding asks for the components only to fill in a missing
        nesting or face tuple, which the ranker always passes."""
        calls = []

        def counted(g):
            calls.append(g)
            return connected_components(g)

        ranker = EmbeddingRanker(random_planar(300, seed=5, components=20))
        monkeypatch.setattr(embedding, "connected_components", counted)
        ranker.unrank(ranker.count() // 3)
        list(ranker.sample(1, 3))
        list(ranker.enumerate(0, 3))
        assert calls == []
        embedding.PlanarEmbedding(TRIANGLE_GRAPH, {1: [2, 3], 2: [1, 3], 3: [1, 2]})
        assert calls == [TRIANGLE_GRAPH]


@pytest.mark.parametrize("family", [chain_of_triangles, star_of_bridges, disjoint_k4s,
                                    hub_of_k4s])
def test_block_cut_tree_is_linear_under_doubling(family):
    """The lines block_cut_tree executes in src/planarrank grow at most
    2.2 times per doubling: each edge is pushed and popped once."""
    package = os.path.dirname(graph.__file__) + os.sep
    counts = [executed_lines(package, block_cut_tree, family(k)) for k in (250, 500, 1000, 2000)]
    assert max(doubling_ratios(counts)) <= 2.2, counts
