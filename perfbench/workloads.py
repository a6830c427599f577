"""Seeded graph generators for the benchmark workloads.

Each workload is a list of graphs; the program under test only ever sees
the generated graphs.  Sizes are fixed per workload so that figures from
different seeds stay comparable.
"""

from __future__ import annotations

import random

from planarrank import Graph

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
NEW_VERTICES = [max(max(e) for e in t) for t in TEMPLATES]


def _block_forest(rng: random.Random, size: int, first_id: int,
                  edges: list[tuple[int, int]], max_degree: int = 8) -> int:
    """Grow one connected block forest of exactly `size` vertices.

    Templates are glued at random existing vertices (degree-capped), the
    first one free-standing.  Returns the next unused vertex id.
    """
    degree: dict[int, int] = {}
    verts: list[int] = []
    next_id = first_id

    def place(template, glue):
        nonlocal next_id
        mapping = {} if glue is None else {0: glue}
        for a, b in template:
            for x in (a, b):
                if x not in mapping:
                    mapping[x] = next_id
                    verts.append(next_id)
                    next_id += 1
        for a, b in template:
            u, v = mapping[a], mapping[b]
            edges.append((min(u, v), max(u, v)))
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1

    fits = [t for t, k in zip(TEMPLATES, NEW_VERTICES) if k + 1 <= size]
    place(rng.choice(fits), None)
    while len(verts) < size:
        room = size - len(verts)
        template = rng.choice([t for t, k in zip(TEMPLATES, NEW_VERTICES) if k <= room])
        glue = None
        while glue is None:
            cand = verts[rng.randrange(len(verts))]
            if degree[cand] < max_degree:
                glue = cand
        place(template, glue)
    return next_id


def forest(rng: random.Random) -> Graph:
    """A connected block forest of 2000 vertices."""
    edges: list[tuple[int, int]] = []
    n = _block_forest(rng, 2000, 1, edges) - 1
    return Graph(n, edges)


def nested(rng: random.Random) -> Graph:
    """400 components, each a small block forest of 3 to 8 vertices."""
    edges: list[tuple[int, int]] = []
    next_id = 1
    for _ in range(400):
        next_id = _block_forest(rng, rng.randint(3, 8), next_id, edges)
    return Graph(next_id - 1, edges)


def _with_pendant(n: int, edges: list[tuple[int, int]]) -> Graph:
    """The block plus one pendant edge at vertex n, giving one cut-vertex."""
    return Graph(n + 1, edges + [(n, n + 1)])


def triangulated_grid(k: int, diagonal: str) -> tuple[int, list[tuple[int, int]]]:
    """k x k grid, every cell cut by a "down" (i,j)-(i+1,j+1) or "up"
    (i,j+1)-(i+1,j) diagonal: one big R-node, and P-nodes at the two
    corners of degree 2."""
    vid = lambda i, j: i * k + j + 1
    edges = []
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < k:
                edges.append((vid(i, j), vid(i + 1, j)))
            if i + 1 < k and j + 1 < k:
                if diagonal == "down":
                    edges.append((vid(i, j), vid(i + 1, j + 1)))
                else:
                    edges.append((vid(i, j + 1), vid(i + 1, j)))
    return k * k, edges


def series_parallel(rng: random.Random, n: int) -> tuple[int, list[tuple[int, int]]]:
    """Random simple series-parallel block of n vertices.

    Starting from a triangle, each step picks a random edge (u, v) and
    either subdivides it (series) or adds a path u-w-v beside it
    (parallel), so the block has many S- and P-nodes.
    """
    edges = [(1, 2), (2, 3), (1, 3)]
    nv = 3
    while nv < n:
        i = rng.randrange(len(edges))
        u, v = edges[i]
        nv += 1
        if rng.random() < 0.5:
            edges[i] = (u, nv)
            edges.append((v, nv))
        else:
            edges.append((u, nv))
            edges.append((v, nv))
    return nv, edges


# How a block's SPQR-tree falls out depends on its vertex labels: from one
# random labelling to the next, per-op cost and the share of ranks that hit
# the known `rank` defect swing by 2x.  So the big blocks have fixed shapes
# and labels, and the seed only picks the operations run on them.
BIGBLOCK_SHAPES = [
    lambda: triangulated_grid(8, "down"),
    lambda: triangulated_grid(8, "up"),
    lambda: series_parallel(random.Random("series-parallel:100"), 100),
    lambda: series_parallel(random.Random("series-parallel:125"), 125),
    lambda: series_parallel(random.Random("series-parallel:150"), 150),
]


def bigblock(index: int) -> Graph:
    """A large single block with a deep SPQR-tree, plus a pendant edge."""
    return _with_pendant(*BIGBLOCK_SHAPES[index]())


GRAPH_COUNTS = {"forest": 2, "nested": 2, "bigblock": len(BIGBLOCK_SHAPES)}


def graph(workload: str, seed: int, index: int) -> Graph:
    """Graph `index` of a workload; each graph has its own random stream."""
    if workload == "bigblock":
        return bigblock(index)
    rng = random.Random(f"{workload}:{seed}:{index}")
    return {"forest": forest, "nested": nested}[workload](rng)


def graphs(workload: str, seed: int) -> list[Graph]:
    return [graph(workload, seed, i) for i in range(GRAPH_COUNTS[workload])]
