"""Rotation systems, face tracing, labels, validation, equality."""

import json
import random
from collections import Counter

import pytest

from _graphgen import benchmark_graphs, random_planar
from _json_reference import reference_to_json
from _oracle import (
    UnknownFace,
    all_rotation_systems,
    canonical_cycle,
    face_identifiers,
    face_label,
    is_planar_rotation,
    sorted_faces,
    trace_faces,
)
from _oracle import face_intervals as oracle_intervals
from planarrank.embedding import PlanarEmbedding, edges_and_faces, embeddings_equal, validate
from planarrank.errors import EmbeddingMismatch, GraphMismatch, MalformedInput
from planarrank.full import EmbeddingRanker
from planarrank.graph import Graph, connected_components, vertex_text
from planarrank.nesting import face_intervals

TRIANGLE = Graph(3, [(1, 2), (1, 3), (2, 3)])
TRI_ROT = {1: [2, 3], 2: [3, 1], 3: [1, 2]}
K4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


class TestTraceFaces:
    def test_single_edge_one_face_visited_twice(self):
        faces = trace_faces({1: [2], 2: [1]})
        assert faces == [((1, 2), (2, 1))]

    def test_triangle_two_faces(self):
        assert edges_and_faces(TRI_ROT, [TRI_ROT]) == [(3, 2)]

    def test_every_directed_edge_exactly_once(self):
        for rot in all_rotation_systems(K4):
            seen = [de for f in trace_faces(rot) for de in f]
            assert len(seen) == 12
            assert len(set(seen)) == 12

    def test_k4_planar_rotations_have_four_faces(self):
        planar = [rot for rot in all_rotation_systems(K4) if is_planar_rotation(K4, rot)]
        assert planar, "K4 has planar rotation systems"
        for rot in planar:
            assert edges_and_faces(rot, [rot]) == [(6, 4)]

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_partition_property_on_cycles(self, n):
        g = Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])
        for rot in all_rotation_systems(g):
            directed = [de for f in trace_faces(rot) for de in f]
            assert sorted(directed) == sorted(
                [(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges]
            )


class TestFaceLabels:
    def test_triangle_bit0_face_comes_first(self):
        faces = sorted_faces(TRI_ROT)
        # Face right of (1,2), i.e. containing traversal (2,1), has bit 0.
        assert (2, 1) in faces[0]
        assert face_label(faces[0], 1) == (1, (1, 2), 0)
        assert face_label(faces[1], 1) == (1, (1, 2), 1)

    def test_bridge_side_bit_is_zero(self):
        faces = sorted_faces({1: [2], 2: [1]})
        assert face_label(faces[0], 1) == (1, (1, 2), 0)

    def test_single_edge_component_one_face_id_zero(self):
        assert len(sorted_faces({1: [2], 2: [1]})) == 1

    def test_intervals_partition(self):
        assert face_intervals([2, 9, 8, 1]) == [(1, 1), (2, 9), (10, 16), (17, 16)]
        assert face_intervals([4, 2, 5]) == [(1, 3), (4, 4), (5, 8)]

    def test_face_identifiers_per_component(self):
        g = Graph(5, [(1, 2), (1, 3), (2, 3), (4, 5)])
        rot = {1: [2, 3], 2: [3, 1], 3: [1, 2], 4: [5], 5: [4]}
        emb = PlanarEmbedding(g, rot, [(0, 1, 0), (0, 2, 0)], [0, 0])
        assert len(face_identifiers(emb, 1)) == 2
        assert len(face_identifiers(emb, 2)) == 1
        with pytest.raises(UnknownFace):
            face_identifiers(emb, 3)


class TestValidate:
    def test_triangle_ok(self):
        emb = PlanarEmbedding(TRIANGLE, TRI_ROT)
        assert validate(emb) == []

    def test_euler_violation_detected(self):
        # Swapping one rotation list of K4's planar embedding breaks Euler.
        planar = next(
            rot for rot in all_rotation_systems(K4) if is_planar_rotation(K4, rot)
        )
        broken = {v: list(nbrs) for v, nbrs in planar.items()}
        broken[1] = [broken[1][0], broken[1][2], broken[1][1]]
        if is_planar_rotation(K4, broken):
            pytest.skip("swap happened to stay planar")
        emb = PlanarEmbedding(K4, broken)
        assert any("Euler" in p for p in validate(emb))

    def test_face_tuple_range_violation(self):
        emb = PlanarEmbedding(TRIANGLE, TRI_ROT, [(0, 1, 0)], [2])
        assert any("face tuple" in p for p in validate(emb))

    def test_nesting_label_interval_violation(self):
        g = Graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
        rot = {1: [2, 3], 2: [3, 1], 3: [1, 2], 4: [5, 6], 5: [6, 4], 6: [4, 5]}
        ok = PlanarEmbedding(g, rot, [(0, 1, 0), (1, 2, 1)], [0, 0])
        assert validate(ok) == []
        bad = PlanarEmbedding(g, rot, [(0, 1, 0), (1, 2, 2)], [0, 0])
        assert any("interval" in p for p in validate(bad))

    def test_nesting_cycle_detected(self):
        g = Graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
        rot = {1: [2, 3], 2: [3, 1], 3: [1, 2], 4: [5, 6], 5: [6, 4], 6: [4, 5]}
        bad = PlanarEmbedding(g, rot, [(2, 1, 2), (1, 2, 1)], [0, 0])
        assert validate(bad)

    @pytest.mark.parametrize("nesting,problems", [
        ([(2, 1, 2), (1, 2, 1), (0, 3, 0)],
         ["nesting tree has a cycle through G1", "nesting tree has a cycle through G2"]),
        ([(2, 1, 2), (1, 2, 1), (1, 3, 1)],
         ["nesting tree has a cycle through G1", "nesting tree has a cycle through G2",
          "nesting tree has a cycle through G3"]),
        ([(0, 1, 0), (1, 2, 1), (2, 3, 2)], []),
    ], ids=["two-cycle", "below-a-cycle", "chain"])
    def test_nesting_cycle_messages(self, nesting, problems):
        # Three triangles: each has two faces and one label of its own.
        g = Graph(9, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6),
                      (7, 8), (7, 9), (8, 9)])
        rot = {v: list(g.adj[v]) for v in g.vertices}
        assert validate(PlanarEmbedding(g, rot, nesting, [0, 0, 0])) == problems


def reference_face_count(rot):
    """Number of faces of one connected rotation: orbits of the dart
    successor over darts keyed by a * base + b."""
    base = max(rot, default=0) + 1
    succ = {}
    for b, nbrs in rot.items():
        if nbrs:
            bb = b * base
            prev = bb + nbrs[-1]
            for a in nbrs:
                succ[a * base + b] = prev
                prev = bb + a
    count = 0
    while succ:
        start, dart = succ.popitem()
        count += 1
        while dart != start:
            dart = succ.pop(dart)
    return count


def reference_validate(emb):
    """validate as it was with one rotation copy and one face count per
    component: the reference for the one pass over the whole table."""
    problems: list[str] = []
    g = emb.graph

    if set(emb.rot) != set(g.vertices):
        problems.append("rotation table does not cover the vertex set")
        return problems
    for v in g.vertices:
        if sorted(emb.rot[v]) != g.adj[v]:
            problems.append(f"rotation at {v} is not a permutation of its neighbors")
    if problems:
        return problems

    comps = connected_components(g)
    c = len(comps)

    face_counts = []
    for cid, comp in comps:
        comp_rot = {v: emb.rot[v] for v in comp}
        m_c = sum(map(len, comp_rot.values())) // 2
        f = reference_face_count(comp_rot)
        if len(comp) - m_c + f != 2:
            problems.append(f"component {cid} violates Euler's formula (f={f})")
        face_counts.append(m_c - len(comp) + 2)

    if len(emb.face_tuple) != c:
        problems.append(f"face tuple has {len(emb.face_tuple)} entries, expected {c}")
    else:
        for i, (o, f) in enumerate(zip(emb.face_tuple, face_counts), start=1):
            if not 0 <= o < f:
                problems.append(f"face tuple entry o_{i}={o} outside 0..{f - 1}")

    parent: dict[int, tuple[int, int]] = {}
    for p, ch, lb in emb.nesting:
        if not (0 <= p <= c and 1 <= ch <= c):
            problems.append(f"nesting edge ({p},{ch}) names unknown components")
            continue
        if ch in parent:
            problems.append(f"component {ch} has two parents in the nesting tree")
        parent[ch] = (p, lb)
    if set(parent) != set(range(1, c + 1)):
        problems.append("nesting tree does not give every component exactly one parent")
        return problems
    intervals = oracle_intervals(face_counts)
    for ch, (p, lb) in sorted(parent.items()):
        if p == 0:
            if lb != 0:
                problems.append(f"edge rho-G{ch} must carry label 0, got {lb}")
        else:
            lo, hi = intervals[p - 1]
            if not lo <= lb <= hi:
                problems.append(
                    f"edge G{p}-G{ch} label {lb} outside interval [{lo}..{hi}]"
                )
    rooted: dict[int, bool] = {0: True}
    for ch in range(1, c + 1):
        walk = []
        cur = ch
        while cur not in rooted:
            rooted[cur] = False
            walk.append(cur)
            cur = parent[cur][0]
        for x in walk:
            rooted[x] = rooted[cur]
    problems.extend(f"nesting tree has a cycle through G{ch}"
                    for ch in range(1, c + 1) if not rooted[ch])
    return problems


def validate_cases(emb, rng):
    """emb itself, then copies with one fault each: two neighbors swapped
    at one vertex (one component's rotation), a face tuple entry raised
    or dropped, an edge from rho or a random nesting edge relabelled, or
    the random edge re-parented, pointed at an unknown component,
    duplicated or dropped."""
    g, nesting, ft = emb.graph, emb.nesting, emb.face_tuple
    c = len(ft)
    yield emb
    rot = dict(emb.rot)
    v = rng.choice([x for x in rot if len(rot[x]) >= 3])
    nbrs = rot[v] = list(rot[v])
    i, j = rng.sample(range(len(nbrs)), 2)
    nbrs[i], nbrs[j] = nbrs[j], nbrs[i]
    yield PlanarEmbedding(g, rot, nesting, ft)
    i = rng.randrange(c)
    yield PlanarEmbedding(g, emb.rot, nesting,
                          ft[:i] + [ft[i] + rng.randint(1, 4)] + ft[i + 1:])
    yield PlanarEmbedding(g, emb.rot, nesting, ft[:i] + ft[i + 1:])
    p, ch, lb = nesting[0]  # sorted: an edge from rho
    yield PlanarEmbedding(g, emb.rot, [(p, ch, lb + 1)] + nesting[1:], ft)
    i = rng.randrange(c)
    p, ch, lb = nesting[i]
    rest = nesting[:i] + nesting[i + 1:]
    for edge in [(p, ch, lb + rng.choice([-2, -1, 1, 2])),
                 (rng.randint(0, c), ch, lb),
                 (c + 1, ch, lb)]:
        yield PlanarEmbedding(g, emb.rot, rest + [edge], ft)
    yield PlanarEmbedding(g, emb.rot, nesting + [(rng.randint(0, c), ch, lb)], ft)
    yield PlanarEmbedding(g, emb.rot, rest, ft)


VALIDATE_MESSAGES = [
    "violates Euler's formula", "face tuple entry", "face tuple has",
    "names unknown components", "has two parents", "exactly one parent",
    "outside interval", "must carry label 0", "has a cycle through",
]


class TestValidateAgainstReference:
    def test_sixty_component_graphs(self):
        rng = random.Random(19)
        found = Counter()
        for seed in range(4):
            ranker = EmbeddingRanker(random_planar(300, seed=1900 + seed, components=60))
            assert ranker.t == 60
            for _ in range(5):
                emb = ranker.unrank(rng.randrange(ranker.count()))
                assert validate(emb) == []
                for case in validate_cases(emb, rng):
                    problems = validate(case)
                    assert problems == reference_validate(case)
                    found.update(m for p in problems for m in VALIDATE_MESSAGES if m in p)
                    # rank checks its input through validate only.
                    if problems:
                        with pytest.raises(EmbeddingMismatch) as info:
                            ranker.rank(case)
                        assert str(info.value) == "; ".join(problems)
                    else:
                        assert embeddings_equal(ranker.unrank(ranker.rank(case)), case)
        assert found.keys() == set(VALIDATE_MESSAGES), found


class TestEquality:
    def test_reflexive(self):
        emb = PlanarEmbedding(TRIANGLE, TRI_ROT)
        assert embeddings_equal(emb, emb)

    def test_mirror_is_distinct(self):
        planar = next(
            rot for rot in all_rotation_systems(K4) if is_planar_rotation(K4, rot)
        )
        mirror = {v: list(reversed(nbrs)) for v, nbrs in planar.items()}
        e1 = PlanarEmbedding(K4, planar)
        e2 = PlanarEmbedding(K4, mirror)
        assert not embeddings_equal(e1, e2)

    def test_same_rotations_different_nesting(self):
        g = Graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
        rot = {1: [2, 3], 2: [3, 1], 3: [1, 2], 4: [5, 6], 5: [6, 4], 6: [4, 5]}
        side_by_side = PlanarEmbedding(g, rot, [(0, 1, 0), (0, 2, 0)], [0, 0])
        nested = PlanarEmbedding(g, rot, [(0, 1, 0), (1, 2, 1)], [0, 0])
        assert validate(side_by_side) == [] and validate(nested) == []
        assert not embeddings_equal(side_by_side, nested)

    def test_graph_mismatch(self):
        e1 = PlanarEmbedding(TRIANGLE, TRI_ROT)
        e2 = PlanarEmbedding(Graph(2, [(1, 2)]), {1: [2], 2: [1]})
        with pytest.raises(GraphMismatch):
            embeddings_equal(e1, e2)

    def test_serialization_injective(self):
        seen = {}
        for rot in all_rotation_systems(K4):
            if not is_planar_rotation(K4, rot):
                continue
            emb = PlanarEmbedding(K4, rot)
            key = emb.to_json()
            for other in seen.values():
                assert not embeddings_equal(emb, other) or key in seen
            seen[key] = emb
        assert len(seen) == 2  # K4's mirror pair


def assert_reference_json(emb):
    """to_json writes what the old writer writes, byte for byte."""
    assert emb.to_json() == reference_to_json(emb)


class TestToJsonAgainstReference:
    """to_json writes from the graph's text table; the reference converts
    every int and sorts the keys per call (tests/_json_reference.py)."""

    @pytest.mark.parametrize("seed", [201, 307])
    @pytest.mark.parametrize("workload", ["forest", "nested", "bigblock"])
    def test_benchmark_items(self, workload, seed):
        rng = random.Random(seed)
        for g in benchmark_graphs(workload, seed):
            ranker = EmbeddingRanker(g)
            for emb in ranker.sample(seed=rng.randrange(1 << 30), k=4):
                assert_reference_json(emb)
            for _, emb in ranker.enumerate(rng.randrange(ranker.count()), 4):
                assert_reference_json(emb)

    @pytest.mark.parametrize("n, components, seed", [
        (12, 3, 3101), (40, 5, 3102), (130, 12, 3103), (1100, 30, 3104)])
    def test_disconnected_past_ten_vertices(self, n, components, seed):
        """Text order (1, 10, 11, ..., 2) differs from numeric order from
        ten vertices on, across component boundaries too."""
        g = random_planar(n, seed=seed, components=components)
        assert g.n >= 10 and len(connected_components(g)) == components
        _, order = vertex_text(g)
        assert list(order) != sorted(order)
        ranker = EmbeddingRanker(g)
        rng = random.Random(seed)
        for r in (0, ranker.count() - 1, *(rng.randrange(ranker.count()) for _ in range(6))):
            assert_reference_json(ranker.unrank(r))
        for emb in ranker.sample(seed=seed, k=3):
            assert_reference_json(emb)

    def test_keys_inserted_in_descending_order(self):
        g = random_planar(60, seed=3105, components=4)
        ranker = EmbeddingRanker(g)
        for r in (0, ranker.count() // 3, ranker.count() - 1):
            emb = ranker.unrank(r)
            backwards = {v: list(emb.rot[v]) for v in sorted(emb.rot, reverse=True)}
            built = PlanarEmbedding(g, backwards, emb.nesting, emb.face_tuple)
            assert list(built.rot) == sorted(g.adj, reverse=True)
            assert_reference_json(built)
            assert built.to_json() == emb.to_json()

    def test_rotation_misses_or_adds_a_vertex(self):
        g = random_planar(25, seed=3106, components=2)
        rot = EmbeddingRanker(g).unrank(7).rot
        tables = [
            {v: nbrs for v, nbrs in rot.items() if v != 10},
            {v: nbrs for v, nbrs in rot.items() if v != 1},
            {**rot, g.n + 1: (1, 2)},
            {**rot, 100: (3,), 0: (), -4: (9, 10)},
            {v: nbrs for v, nbrs in rot.items() if v > 12},
            {},
        ]
        for table in tables:
            emb = PlanarEmbedding(g, table, [(0, 1, 0), (0, 2, 0)], [0, 0])
            assert emb.rot.keys() != g.adj.keys()
            assert_reference_json(emb)

    def test_entries_outside_one_to_n(self):
        """An id no vertex has is written by json.dumps, not wrapped or
        refused, and the table keeps no entry for it."""
        g = random_planar(15, seed=3107, components=2)
        rot = dict(EmbeddingRanker(g).unrank(3).rot)
        rot[1] = (*rot[1], 0, -1, -15, g.n + 1, 10 ** 20)
        rot[11] = (-3, -16, 16)
        rot[-2] = (-1, 0, 1)
        rot[g.n + 5] = (g.n, g.n + 1)
        emb = PlanarEmbedding(g, rot, [(0, 1, 0), (0, 2, 0)], [0, 0])
        assert_reference_json(emb)
        # The same entries in a table that covers exactly the vertices.
        emb = PlanarEmbedding(g, {v: rot[v] for v in g.adj}, [(0, 1, 0), (0, 2, 0)], [0, 0])
        assert emb.rot.keys() == g.adj.keys()
        assert_reference_json(emb)
        text, order = vertex_text(g)
        assert len(text) == g.n and sorted(order) == list(g.vertices)

    def test_table_built_once_per_graph(self):
        g = random_planar(30, seed=3108, components=3)
        table = vertex_text(g)
        ranker = EmbeddingRanker(g)
        ranker.unrank(0).to_json()
        assert vertex_text(g) is table
        twin = Graph(g.n, g.edges)
        assert twin == g and hash(twin) == hash(g)
        assert twin._text is None and g._text is table


class TestIntEntries:
    """The constructor takes ints only: a float or bool compares equal to
    an int, so it would validate and rank, then be written as other text."""

    @pytest.mark.parametrize("rot, nesting, ft", [
        ({1: [2.0, 3], 2: [True, 3], 3: [1, 2]}, None, None),
        ({1: [2.0, 3], 2: [1, 3], 3: [1, 2]}, None, None),
        ({1: [2, 3], 2: [True, 3], 3: [1, 2]}, None, None),
        ({1: [2, 3], 2: [1, "3"], 3: [1, 2]}, None, None),
        ({1.0: [2, 3], 2: [1, 3], 3: [1, 2]}, None, None),
        ({True: [2, 3], 2: [1, 3], 3: [1, 2]}, None, None),
        ({"1": [2, 3], 2: [1, 3], 3: [1, 2]}, None, None),
        (TRI_ROT, [(0, 1.0, 0)], [0]),
        (TRI_ROT, [(False, 1, 0)], [0]),
        (TRI_ROT, [("0", 1, 0)], [0]),
        (TRI_ROT, [("0", 1.0, False)], [0]),
        (TRI_ROT, [(0, 1)], [0]),
        (TRI_ROT, [(0, 1, 0)], [0.0]),
        (TRI_ROT, [(0, 1, 0)], [False]),
        (TRI_ROT, None, ["0"]),
    ], ids=["float-and-bool-neighbors", "float-neighbor", "bool-neighbor", "str-neighbor",
            "float-vertex", "bool-vertex", "str-vertex", "float-nesting", "bool-nesting",
            "str-nesting", "mixed-nesting", "nesting-pair", "float-face", "bool-face",
            "str-face"])
    def test_rejected(self, rot, nesting, ft):
        with pytest.raises(MalformedInput):
            PlanarEmbedding(TRIANGLE, rot, nesting, ft)

    @pytest.mark.parametrize("rot, nesting, ft", [
        (TRI_ROT, 5, [0]),
        (TRI_ROT, [5], [0]),
        (TRI_ROT, [(0, 1, 0)], 7),
        (TRI_ROT, None, 7),
        ({1: 5, 2: [1, 3], 3: [1, 2]}, None, None),
        (5, None, None),
        ([1, 2], None, None),
    ], ids=["nesting", "nesting-edge", "face-tuple", "face-tuple-default-nesting",
            "neighbor-list", "rotation-int", "rotation-list"])
    def test_not_iterable_rejected(self, rot, nesting, ft):
        with pytest.raises(MalformedInput, match="must be ints"):
            PlanarEmbedding(TRIANGLE, rot, nesting, ft)

    def test_ints_kept(self):
        emb = PlanarEmbedding(TRIANGLE, TRI_ROT, [[0, 1, 0]], (0,))
        assert (emb.nesting, emb.face_tuple) == ([(0, 1, 0)], [0])
        ranker = EmbeddingRanker(TRIANGLE)
        assert embeddings_equal(ranker.unrank(ranker.rank(emb)), emb)


class TestFromJson:
    """Only an absent or null "nesting"/"face_tuple" takes the
    connected-graph default; an explicit [] is kept, and validate judges it."""

    TRI_TEXT = {"rotations": {"1": [2, 3], "2": [1, 3], "3": [1, 2]}}

    @pytest.mark.parametrize("extra", [{}, {"nesting": None, "face_tuple": None}])
    def test_absent_or_null_is_the_default(self, extra):
        emb = PlanarEmbedding.from_json(TRIANGLE, json.dumps({**self.TRI_TEXT, **extra}))
        assert emb.nesting == [(0, 1, 0)] and emb.face_tuple == [0]
        assert validate(emb) == []

    @pytest.mark.parametrize("extra, problems", [
        ({"nesting": [], "face_tuple": []},
         ["face tuple has 0 entries, expected 1",
          "nesting tree does not give every component exactly one parent"]),
        ({"face_tuple": []}, ["face tuple has 0 entries, expected 1"]),
        ({"nesting": []},
         ["nesting tree does not give every component exactly one parent"]),
    ], ids=["both", "face-tuple", "nesting"])
    def test_explicit_empty_list_is_kept(self, extra, problems):
        emb = PlanarEmbedding.from_json(TRIANGLE, json.dumps({**self.TRI_TEXT, **extra}))
        assert emb.nesting == ([] if "nesting" in extra else [(0, 1, 0)])
        assert emb.face_tuple == ([] if "face_tuple" in extra else [0])
        assert validate(emb) == problems
        with pytest.raises(EmbeddingMismatch) as info:
            EmbeddingRanker(TRIANGLE).rank(emb)
        assert str(info.value) == "; ".join(problems)

    def test_two_components_explicit_empty_nesting(self):
        g = Graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
        text = json.dumps({"rotations": {str(v): g.adj[v] for v in g.vertices},
                           "nesting": [], "face_tuple": [0, 0]})
        emb = PlanarEmbedding.from_json(g, text)
        assert emb.nesting == []
        assert validate(emb) == [
            "nesting tree does not give every component exactly one parent"]


class TestCanonicalCycle:
    def test_rotation_invariance(self):
        assert canonical_cycle([3, 1, 2]) == (1, 2, 3)
        assert canonical_cycle([2, 3, 1]) == (1, 2, 3)
        assert canonical_cycle([1, 3, 2]) == (1, 3, 2)
