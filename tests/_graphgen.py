"""Graph corpora shared by tests.

random_planar grows graphs by gluing small biconnected blocks at existing
vertices, so they are planar by construction and exercise every layer:
multiple components, cut vertices with mixed block degrees, P- and
R-nodes.  atlas_planar lists every small planar graph, and
benchmark_graphs loads the benchmark's seed-201 graphs.
"""

import importlib.util
import random
from functools import cache
from pathlib import Path

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

from planarrank.graph import Graph

# Block templates as local edge lists; vertex 0 is the glue point.
TEMPLATES = [
    [(0, 1)],                                               # bridge
    [(0, 1), (0, 2), (1, 2)],                               # triangle
    [(0, 1), (1, 2), (2, 3), (0, 3)],                       # C4
    [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)],               # theta
    [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],               # diamond
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],       # K4
    [(0, 1), (0, 2), (0, 3), (0, 4),
     (1, 2), (2, 3), (3, 4), (1, 4)],                       # wheel W4
]


def random_planar(n_target: int, seed: int, max_degree: int = 8,
                  components: int | None = None) -> Graph:
    rng = random.Random(seed)
    if components is None:
        components = rng.randint(1, max(1, min(4, n_target // 3)))
    quotas = [n_target // components] * components
    quotas[0] += n_target % components

    edges = []
    next_id = 1
    degree: dict[int, int] = {}

    def place(template, glue):
        nonlocal next_id
        mapping = {}
        if glue is not None:
            mapping[0] = glue
        for a, b in template:
            for x in (a, b):
                if x not in mapping:
                    mapping[x] = next_id
                    next_id += 1
        for a, b in template:
            u, v = mapping[a], mapping[b]
            edges.append((min(u, v), max(u, v)))
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        return [mapping[x] for x in sorted(mapping)]

    for quota in quotas:
        grown = place(rng.choice(TEMPLATES), None)
        comp_vertices = list(grown)
        while len(comp_vertices) < quota:
            glue = None
            for _ in range(32):  # rejection sampling against the degree cap
                cand = comp_vertices[rng.randrange(len(comp_vertices))]
                if degree[cand] < max_degree:
                    glue = cand
                    break
            if glue is None:
                break
            template = rng.choice(TEMPLATES)
            comp_vertices.extend(place(template, glue)[1:])
    return Graph(next_id - 1, edges)


@cache
def atlas_planar() -> tuple[Graph, ...]:
    """The planar graphs of networkx's atlas (every graph of at most 7
    vertices) without isolated vertices, relabeled to 1..n."""
    out = []
    for g in graph_atlas_g():
        if g.number_of_nodes() == 0 or min(d for _, d in g.degree()) == 0:
            continue
        if nx.check_planarity(g)[0]:
            out.append(Graph(g.number_of_nodes(), [(u + 1, v + 1) for u, v in g.edges]))
    return tuple(out)


def triangulated_grid(k: int, diagonal: str, rows: int | None = None) -> Graph:
    """Grid of rows x k vertices (k x k by default), every cell cut by a
    "down" (i,j)-(i+1,j+1) or "up" (i,j+1)-(i+1,j) diagonal.  For k, rows
    >= 3 its SPQR-tree has one R-node, plus an S- and a P-node at each of
    the two corners of degree 2."""
    rows = k if rows is None else rows
    vid = lambda i, j: i * k + j + 1
    edges = []
    for i in range(rows):
        for j in range(k):
            if j + 1 < k:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < rows:
                edges.append((vid(i, j), vid(i + 1, j)))
            if i + 1 < rows and j + 1 < k:
                if diagonal == "down":
                    edges.append((vid(i, j), vid(i + 1, j + 1)))
                else:
                    edges.append((vid(i, j + 1), vid(i + 1, j)))
    return Graph(rows * k, edges)


def series_parallel(n: int, seed: int) -> Graph:
    """Random simple series-parallel block of n vertices: from a triangle,
    each step subdivides a random edge or adds a path of length two
    beside it."""
    rng = random.Random(seed)
    edges = [(1, 2), (2, 3), (1, 3)]
    for w in range(4, n + 1):
        i = rng.randrange(len(edges))
        u, v = edges[i]
        if rng.random() < 0.5:
            edges[i] = (u, w)
            edges.append((v, w))
        else:
            edges.append((u, w))
            edges.append((v, w))
    return Graph(n, edges)


def p_fan(k: int) -> Graph:
    """k copies of K4 minus the edge {1, 2}, glued at 1 and 2: one P-node
    on the poles {1, 2} with k R-children (k >= 2)."""
    edges = []
    for i in range(k):
        a, b = 2 * i + 3, 2 * i + 4
        edges += [(1, a), (1, b), (2, a), (2, b), (a, b)]
    return Graph(2 * k + 2, edges)


def fan(k: int) -> Graph:
    """Hub 1 joined to every vertex of the path 2..k+1: a P-node on each
    pair {1, x} for inner x, all with their lower pole at the hub
    (k >= 3)."""
    path = range(2, k + 2)
    return Graph(k + 1, [(1, x) for x in path] + [(x, x + 1) for x in path[:-1]])


def wheel(k: int) -> Graph:
    """The wheel W_k: hub 1 joined to every vertex of the rim cycle
    2..k+1; one R-node (k >= 3)."""
    rim = range(2, k + 2)
    return Graph(k + 1, [(1, x) for x in rim] + [(x, x + 1) for x in rim[:-1]] + [(2, k + 1)])


def necklace(k: int) -> Graph:
    """The cycle 1..k with each edge replaced by a K4 minus that edge:
    one S-node with k R-children (k >= 3)."""
    edges = []
    for i in range(k):
        u, v = i + 1, (i + 1) % k + 1
        a, b = k + 2 * i + 1, k + 2 * i + 2
        edges += [(u, a), (u, b), (v, a), (v, b), (a, b)]
    return Graph(3 * k, edges)


def benchmark_workloads():
    """perfbench/workloads.py, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_graphs(workload: str, seed: int = 201) -> list[Graph]:
    """The benchmark's graphs of a workload, by default at seed 201."""
    return benchmark_workloads().graphs(workload, seed)
