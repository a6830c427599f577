"""Planar embeddings on the sphere: rotation systems, faces and nesting.

A rotation system stores, per vertex, the counter-clockwise cyclic list of
neighbors.  Faces are traced with the fixed convention: after entering v
through edge e, the boundary continues with the predecessor of e in v's
counter-clockwise list, which keeps the face on the left.

For a disconnected graph the rotation alone does not fix the embedding;
a nesting tree (which face of which component hosts each other component)
plus a face tuple (per-component outer face under the reference-face
projection) complete it.  A connected graph carries the trivial tree
rho-G1 and a one-entry face tuple.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import GraphMismatch, MalformedInput, UnknownFace
from .graph import Edge, Graph, connected_components, edge_id

Rotation = dict[int, list[int]]

# A face is the tuple of directed edges of its boundary walk, rotated so
# the smallest directed edge comes first.
FaceBoundary = tuple[tuple[int, int], ...]


def canonical_cycle(seq: list) -> tuple:
    """Rotate a cyclic sequence so its smallest element comes first."""
    if not seq:
        return ()
    k = seq.index(min(seq))
    return tuple(seq[k:] + seq[:k])


def canonical_rotation(rot: Rotation) -> Rotation:
    """Rotate every neighbor list to start at the smallest neighbor."""
    return {v: list(canonical_cycle(list(nbrs))) for v, nbrs in rot.items()}


def rotations_equal(a: Rotation, b: Rotation) -> bool:
    if a.keys() != b.keys():
        return False
    return all(canonical_cycle(a[v]) == canonical_cycle(b[v]) for v in a)


def _dart_successor(rot: Rotation) -> dict[tuple[int, int], tuple[int, int]]:
    """Next dart of every directed edge (a, b) along its face boundary:
    (b, c) with c the counter-clockwise predecessor of a at b."""
    succ: dict[tuple[int, int], tuple[int, int]] = {}
    for b, nbrs in rot.items():
        prev = nbrs[-1] if nbrs else None
        for a in nbrs:
            succ[(a, b)] = (b, prev)
            prev = a
    return succ


def trace_faces(rot: Rotation) -> list[FaceBoundary]:
    """All face boundary walks of a rotation system.

    Every directed edge (u, v) with v in rot[u] appears in exactly one
    returned walk.  Output is sorted, so identical rotations give
    identical face lists.
    """
    succ = _dart_successor(rot)
    faces: list[FaceBoundary] = []
    visited: set[tuple[int, int]] = set()
    for v in sorted(rot):
        for w in rot[v]:
            dart = (v, w)
            if dart in visited:
                continue
            walk: list[tuple[int, int]] = []
            while dart not in visited:
                visited.add(dart)
                walk.append(dart)
                dart = succ[dart]
            faces.append(canonical_cycle(walk))
    return sorted(faces)


def face_count(rot: Rotation) -> int:
    """Number of faces: orbits of the dart successor, walks not built."""
    succ = _dart_successor(rot)
    count = 0
    while succ:
        start, dart = succ.popitem()
        count += 1
        while dart != start:
            dart = succ.pop(dart)
    return count


def is_planar_rotation(g: Graph, rot: Rotation) -> bool:
    """Euler check n - m + f = 2 on every component of g under rot."""
    for _, comp in connected_components(g):
        comp_rot = {v: rot[v] for v in comp}
        n_c = len(comp)
        m_c = sum(len(rot[v]) for v in comp) // 2
        if n_c - m_c + face_count(comp_rot) != 2:
            return False
    return True


def face_label(face: FaceBoundary, component: int) -> tuple[int, Edge, int]:
    """Label (component, minimum edge id, side bit) of a face.

    The side bit is 0 when the face lies to the right of its minimum edge
    (u, v) traversed u -> v; with boundaries keeping the face on the left,
    that means the walk contains the reversed traversal (v, u).  A bridge
    traversed in both directions gets bit 0.
    """
    e = min(edge_id(a, b) for a, b in face)
    bit = 0 if (e[1], e[0]) in face else 1
    return (component, e, bit)


def sorted_faces(rot: Rotation, component: int = 1) -> list[FaceBoundary]:
    """Faces of one connected rotation, ordered by ascending label.

    The position of a face in this list is its 0-based identifier.
    """
    faces = trace_faces(rot)
    faces.sort(key=lambda f: face_label(f, component))
    return faces


def face_identifiers(emb: "PlanarEmbedding", component: int) -> list[FaceBoundary]:
    """Faces of one component ordered by label; positions are the 0-based
    face identifiers used by face tuples and nesting labels."""
    comps = emb.components()
    if not 1 <= component <= len(comps):
        raise UnknownFace(f"component {component} does not exist")
    rot = emb.component_rotation(comps[component - 1][1])
    return sorted_faces(rot, component)


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


@dataclass(frozen=True)
class PlaneEmbedding:
    """A component embedding with a designated outer face (projection marker)."""

    rotation_items: tuple
    outer_face: int


def project_to_plane(rot: Rotation, outer_face: int, component: int = 1) -> PlaneEmbedding:
    """Mark one face of a connected embedding as the outer face."""
    n_faces = len(trace_faces(rot))
    if not 0 <= outer_face < n_faces:
        raise UnknownFace(f"face {outer_face} not in 0..{n_faces - 1}")
    return PlaneEmbedding(tuple(sorted(canonical_rotation(rot).items())), outer_face)


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
    ) -> None:
        self.graph = graph
        self.rot = canonical_rotation(rot)
        c = len(connected_components(graph))
        if nesting is None:
            if c != 1:
                raise MalformedInput("nesting tree required for a disconnected graph")
            nesting = [(0, 1, 0)]
        if face_tuple is None:
            if c != 1:
                raise MalformedInput("face tuple required for a disconnected graph")
            face_tuple = [0]
        self.nesting = sorted((int(p), int(ch), int(lb)) for p, ch, lb in nesting)
        self.face_tuple = [int(x) for x in face_tuple]

    # -- component helpers -------------------------------------------------

    def components(self) -> list[tuple[int, frozenset[int]]]:
        return connected_components(self.graph)

    def component_rotation(self, comp_vertices: frozenset[int]) -> Rotation:
        return {v: self.rot[v] for v in comp_vertices}

    def face_counts(self) -> list[int]:
        # Euler: a connected planar component has m - n + 2 faces.
        out = []
        for _, comp in self.components():
            m_c = sum(len(self.rot[v]) for v in comp) // 2
            out.append(m_c - len(comp) + 2)
        return out

    # -- equality and serialization ---------------------------------------

    def canonical_data(self) -> dict:
        return {
            "rotations": {str(v): list(self.rot[v]) for v in sorted(self.rot)},
            "nesting": [list(e) for e in self.nesting],
            "face_tuple": list(self.face_tuple),
        }

    def to_json(self) -> str:
        return json.dumps(self.canonical_data(), sort_keys=True)

    @classmethod
    def from_json(cls, graph: Graph, text: str) -> "PlanarEmbedding":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict) or "rotations" not in data:
            raise MalformedInput('embedding JSON needs a "rotations" key')
        try:
            rot = {int(v): [int(w) for w in nbrs] for v, nbrs in data["rotations"].items()}
        except (TypeError, ValueError) as exc:
            raise MalformedInput(f"bad rotation table: {exc}") from exc
        nesting = [tuple(e) for e in data.get("nesting", [])] or None
        ft = data.get("face_tuple") or None
        emb = cls(graph, rot, nesting, ft)
        problems = validate(emb)
        if problems:
            raise MalformedInput("; ".join(problems))
        return emb


def embeddings_equal(e1: PlanarEmbedding, e2: PlanarEmbedding) -> bool:
    """Same rotation system, same nesting tree, same face tuple."""
    if e1.graph != e2.graph:
        raise GraphMismatch("embeddings live on different graphs")
    return (
        rotations_equal(e1.rot, e2.rot)
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

    comps = emb.components()
    c = len(comps)

    # Per-component Euler formula (sphere check).
    for cid, comp in comps:
        comp_rot = emb.component_rotation(comp)
        m_c = sum(len(emb.rot[v]) for v in comp) // 2
        f = face_count(comp_rot)
        if len(comp) - m_c + f != 2:
            problems.append(f"component {cid} violates Euler's formula (f={f})")

    face_counts = [
        sum(len(emb.rot[v]) for v in comp) // 2 - len(comp) + 2 for _, comp in comps
    ]

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
    for ch in range(1, c + 1):
        seen = set()
        cur = ch
        while cur != 0:
            if cur in seen:
                problems.append(f"nesting tree has a cycle through G{ch}")
                break
            seen.add(cur)
            cur = parent[cur][0]
    return problems
