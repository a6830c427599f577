"""Planar embeddings on the sphere: rotation systems, face counts and nesting.

A rotation system stores, per vertex, the counter-clockwise cyclic list of
neighbors.  Faces follow the fixed convention: after entering v through
edge e, the boundary continues with the predecessor of e in v's
counter-clockwise list, which keeps the face on the left.  The faces'
identifiers and their boundary walks, which give face-tuple entries their
meaning, are defined in tests/_oracle.py (face_identifiers).

An embedding holds each neighbor list as a tuple of ints, so embeddings
can share the tuples of the vertices whose rotation they agree on: the
ranker's embeddings share every rotation no digit decides (full.py).

to_json is the one writer of an embedding's JSON.  It writes every id from
its graph's text table, whose owner is graph.vertex_text: the decimal text
of each vertex id and the vertices in the order of that text, built once
per graph.

For a disconnected graph the rotation alone does not fix the embedding;
a nesting tree (which face of which component hosts each other component)
plus a face tuple (per-component outer face under the reference-face
projection) complete it.  A connected graph carries the trivial tree
rho-G1 and a one-entry face tuple.
"""

from __future__ import annotations

import json
from itertools import chain

from .errors import GraphMismatch, MalformedInput
from .graph import Graph, connected_components, vertex_text

Rotation = dict[int, tuple[int, ...]]


def canonical_rotation(rot) -> Rotation:
    """Each neighbor list as a tuple rotated to start at its smallest
    neighbor: the form a PlanarEmbedding holds.

    The ranker builds its rotations in this form where it makes them
    (full.py), once per decoded block shape and once per merged
    cut-vertex, and hands them to PlanarEmbedding as they are; every
    other embedding is brought to it here, by the constructor.
    """
    return {v: canonical_neighbors(nbrs) for v, nbrs in rot.items()}


def canonical_neighbors(nbrs) -> tuple[int, ...]:
    """nbrs as a tuple rotated to start at its smallest entry."""
    if not nbrs:
        return ()
    k = nbrs.index(min(nbrs))
    return (*nbrs[k:], *nbrs[:k])


def edges_and_faces(rot: Rotation, parts) -> list[tuple[int, int]]:
    """(edges, faces) of each part: faces are orbits of the dart
    successor, walks not built.

    Each part is a set of vertices of rot that holds every neighbor of
    its vertices (a component, or a whole connected rotation), so its
    darts and orbits are its own: one dict holds a part's darts until its
    orbits have emptied it.  No neighbor list may repeat a vertex, so a
    part has half as many edges as darts.  A dart (a, b) is keyed by the
    integer a * base + b.
    """
    base = max(rot, default=0) + 1
    succ: dict[int, int] = {}
    out = []
    for part in parts:
        for b in part:
            nbrs = rot[b]
            if nbrs:
                bb = b * base
                prev = bb + nbrs[-1]
                for a in nbrs:
                    succ[a * base + b] = prev
                    prev = bb + a
        m = len(succ) // 2
        f = 0
        while succ:
            start, dart = succ.popitem()
            f += 1
            while dart != start:
                dart = succ.pop(dart)
        out.append((m, f))
    return out


def face_intervals(face_counts: list[int]) -> list[tuple[int, int]]:
    """Consecutive label intervals I_1..I_c over [1 .. sum(F_i - 1)].

    Interval I_h addresses the inner faces of component h; an interval is
    empty (lo > hi) for a single-face component.
    """
    out = []
    lo = 1
    for f in face_counts:
        out.append((lo, lo + f - 2))
        lo += f - 1
    return out


NestingEdge = tuple[int, int, int]  # (parent component, child component, label); parent 0 is rho


class PlanarEmbedding:
    """A full embedding: graph, rotation, nesting tree and face tuple."""

    __slots__ = ("graph", "rot", "nesting", "face_tuple")

    def __init__(
        self,
        graph: Graph,
        rot: Rotation,
        nesting: list[NestingEdge] | None = None,
        face_tuple: list[int] | None = None,
        *,
        canonical: bool = False,
    ) -> None:
        """By default the embedding holds canonical tuples of rot's lists
        (canonical_rotation), and its own sorted list of int nesting
        triples and list of face tuple ints.  An id or entry whose type is
        not int (a bool, a float, a str) raises MalformedInput.

        canonical=True: rot's values are canonical tuples, nesting is a
        sorted list of int triples and face_tuple a list of ints, and the
        rot dict and both lists are owned by this embedding.  All three
        are kept as they are, with no pass over them and no check.  The
        ranker passes it for the embeddings it builds (full.py).  Either
        way, an omitted nesting or face tuple takes its connected-graph
        default.
        """
        self.graph = graph
        if nesting is None or face_tuple is None:
            if len(connected_components(graph)) != 1:
                raise MalformedInput("a disconnected graph needs a nesting tree and a face tuple")
            nesting = [(0, 1, 0)] if nesting is None else nesting
            face_tuple = [0] if face_tuple is None else face_tuple
        if canonical:
            self.rot, self.nesting, self.face_tuple = rot, nesting, face_tuple
        else:
            nesting, face_tuple = [tuple(e) for e in nesting], list(face_tuple)
            entries = chain(rot, *rot.values(), *nesting, face_tuple)
            if any(len(e) != 3 for e in nesting) or not {int}.issuperset(map(type, entries)):
                raise MalformedInput("rotation ids, nesting triples and face tuple entries "
                                     "must be ints")
            self.rot = canonical_rotation(rot)
            self.nesting = sorted(nesting)
            self.face_tuple = face_tuple

    # -- equality and serialization ---------------------------------------

    def to_json(self) -> str:
        """The embedding as JSON with sorted keys: "face_tuple", "nesting",
        then "rotations", keyed by decimal vertex id in text order.

        The text is json.dumps(..., sort_keys=True)'s for the same data,
        byte for byte, whenever every key and entry of the rotation has
        type int, ids outside 1..n included.  Each id is written from the
        graph's text table (vertex_text), in the table's order when the
        rotation covers exactly the graph's vertices.
        """
        g = self.graph
        text, order = vertex_text(g)
        rot = self.rot
        if rot.keys() != g.adj.keys():
            order = sorted(rot, key=str)
        tx = text.__getitem__
        rows = ", ".join([f'"{tx(v)}": [{", ".join(map(tx, rot[v]))}]' for v in order])
        return '{"face_tuple": %s, "nesting": %s, "rotations": {%s}}' % (
            json.dumps(self.face_tuple), json.dumps(self.nesting), rows)

    @classmethod
    def from_json(cls, graph: Graph, text: str) -> "PlanarEmbedding":
        """The embedding a to_json text describes, on graph.

        Checks only the text's shape, and the constructor its entries'
        types.  Whether the embedding is one of graph's is validate's to
        say, and rank runs it on its input.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict) or "rotations" not in data:
            raise MalformedInput('embedding JSON needs a "rotations" key')
        # Each key must be the decimal text to_json writes: int() would also
        # take " 1".
        rot = {}
        try:
            for v, nbrs in data["rotations"].items():
                if str(int(v)) != v or not isinstance(nbrs, list):
                    raise ValueError(f"{v!r}: {nbrs!r} is not a vertex id with its neighbors")
                rot[int(v)] = nbrs
        except (AttributeError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad rotation table: {exc}") from exc
        # An absent or null "nesting"/"face_tuple" means the default.
        nesting, ft = data.get("nesting"), data.get("face_tuple")
        if not (nesting is None or isinstance(nesting, list)
                and all(isinstance(e, list) for e in nesting)):
            raise MalformedInput('"nesting" must be a list of integer triples')
        if not (ft is None or isinstance(ft, list)):
            raise MalformedInput('"face_tuple" must be a list of integers')
        return cls(graph, rot, nesting, ft)


def embeddings_equal(e1: PlanarEmbedding, e2: PlanarEmbedding) -> bool:
    """Same rotation system, same nesting tree, same face tuple.

    Every PlanarEmbedding holds its neighbor lists as canonical tuples,
    so equal rotation systems compare equal as dicts.
    """
    if e1.graph != e2.graph:
        raise GraphMismatch("embeddings live on different graphs")
    return (
        e1.rot == e2.rot
        and e1.nesting == e2.nesting
        and e1.face_tuple == e2.face_tuple
    )


def validate(emb: PlanarEmbedding) -> list[str]:
    """All violated invariants of an embedding; empty list means valid."""
    problems: list[str] = []
    g = emb.graph

    # Rotation well-formedness: neighbor lists match the graph exactly.
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

    # Per-component Euler formula (sphere check); face_counts holds the
    # count Euler's formula gives each component.  One pass over the
    # table, component by component, copies no rotation.
    face_counts = []
    counted = edges_and_faces(emb.rot, [comp for _, comp in comps])
    for (cid, comp), (m_c, f) in zip(comps, counted):
        if len(comp) - m_c + f != 2:
            problems.append(f"component {cid} violates Euler's formula (f={f})")
        face_counts.append(m_c - len(comp) + 2)

    # Face tuple ranges.
    if len(emb.face_tuple) != c:
        problems.append(f"face tuple has {len(emb.face_tuple)} entries, expected {c}")
    else:
        for i, (o, f) in enumerate(zip(emb.face_tuple, face_counts), start=1):
            if not 0 <= o < f:
                problems.append(f"face tuple entry o_{i}={o} outside 0..{f - 1}")

    # Nesting tree: one parent per component, labels in the right intervals.
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
    intervals = face_intervals(face_counts)
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
    # Rootedness: following parents from every component must reach rho.
    # A walk stops at rho, at a component settled before or back on itself
    # (a cycle); every component on it takes that answer, so each is
    # walked once.
    rooted: dict[int, bool] = {0: True}
    for ch in range(1, c + 1):
        walk = []
        cur = ch
        while cur not in rooted:
            rooted[cur] = False  # on the walk: meeting it again is a cycle
            walk.append(cur)
            cur = parent[cur][0]
        for x in walk:
            rooted[x] = rooted[cur]
    problems.extend(f"nesting tree has a cycle through G{ch}"
                    for ch in range(1, c + 1) if not rooted[ch])
    return problems
