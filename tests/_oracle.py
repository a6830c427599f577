"""Brute-force ground truth and the specification the tests compare against.

The specification is what the ranking layers compute but never need at
run time: Euler's check, the face identifiers that give face-tuple entries
and nesting labels their meaning, and the classic Pruefer codec, the
worked example behind the nesting codec.  The enumerations run
exhaustively and filter with Euler's check.  Nothing here imports the
ranking layers (full, biconnected, cutvertex, spqr, nesting, codecs), so
the reference stays independent of what it checks, and nothing in the
package imports this module.  Guards raise TooLarge instead of truncating,
so a test can never silently pass on a partial enumeration.
"""

from __future__ import annotations

import heapq
import itertools

from planarrank.embedding import PlanarEmbedding, Rotation, edges_and_faces, face_intervals
from planarrank.errors import PlanarRankError
from planarrank.graph import Edge, Graph, connected_components, edge_id

_ROTATION_GUARD = 2_000_000


class TooLarge(PlanarRankError):
    """Brute-force enumeration guard tripped; refusing partial output."""


class MalformedTree(PlanarRankError):
    """Input is not a valid (rooted, labelled) tree."""


class UnknownFace(PlanarRankError):
    """A face identifier does not address a face of the embedding."""


def all_rotation_systems(g: Graph):
    """Every rotation system of g, each in canonical form.

    Per vertex the first neighbor is pinned, which picks exactly one
    representative per cyclic order.
    """
    total = 1
    for v in g.vertices:
        k = g.degree(v)
        for i in range(2, k):
            total *= i
        if total > _ROTATION_GUARD:
            raise TooLarge("too many rotation systems to enumerate")
    per_vertex = []
    for v in g.vertices:
        nbrs = g.adj[v]
        per_vertex.append([[nbrs[0], *rest] for rest in itertools.permutations(nbrs[1:])])
    for combo in itertools.product(*per_vertex):
        yield {v: list(combo[i]) for i, v in enumerate(g.vertices)}


def _euler_ok(rot: Rotation) -> bool:
    """Euler's formula n - m + f = 2 for one connected rotation."""
    [(m, f)] = edges_and_faces(rot, [rot])
    return len(rot) - m + f == 2


def is_planar_rotation(g: Graph, rot: Rotation) -> bool:
    """Euler check n - m + f = 2 on every component of g under rot."""
    for _, comp in connected_components(g):
        if not _euler_ok({v: rot[v] for v in comp}):
            return False
    return True


def enumerate_connected(g: Graph) -> list[Rotation]:
    """All sphere embeddings (planar rotation systems) of a connected graph."""
    if g.n > 8:
        raise TooLarge(f"n={g.n} exceeds the n<=8 oracle guard")
    comps = connected_components(g)
    if len(comps) != 1:
        raise ValueError("enumerate_connected needs a connected graph")
    return [rot for rot in all_rotation_systems(g) if is_planar_rotation(g, rot)]


def all_nesting_trees(c: int, face_counts: list[int]):
    """Every labelled nesting tree on components 1..c under root rho (0).

    A tree is a parent map; edges to rho carry label 0, an edge below
    component h carries any label in the interval I_h.
    """
    intervals = face_intervals(face_counts)
    for parents in itertools.product(range(0, c + 1), repeat=c):
        # parents[i] is the parent of component i+1; self-parents are junk.
        ok = True
        for ch in range(1, c + 1):
            seen = set()
            cur = ch
            while cur != 0:
                if cur in seen or parents[cur - 1] == cur:
                    ok = False
                    break
                seen.add(cur)
                cur = parents[cur - 1]
            if not ok:
                break
        if not ok:
            continue
        label_choices = []
        for ch in range(1, c + 1):
            p = parents[ch - 1]
            if p == 0:
                label_choices.append([0])
            else:
                lo, hi = intervals[p - 1]
                label_choices.append(list(range(lo, hi + 1)))
        for labels in itertools.product(*label_choices):
            yield sorted((parents[ch - 1], ch, labels[ch - 1]) for ch in range(1, c + 1))


def enumerate_disconnected(g: Graph, guard: int = 200_000) -> set[str]:
    """All embeddings of g as canonical JSON strings.

    Cross product of per-component sphere embeddings, nesting trees and
    face tuples.
    """
    comps = connected_components(g)
    rot_sets = []
    face_counts = []
    for _, comp in comps:
        order = sorted(comp)
        remap = {v: i + 1 for i, v in enumerate(order)}
        back = {i + 1: v for i, v in enumerate(order)}
        edges = [(remap[u], remap[v]) for u, v in g.edges if u in comp]
        sub = Graph(len(order), edges)
        rots = enumerate_connected(sub)
        rot_sets.append(
            [{back[v]: [back[w] for w in rot[v]] for v in rot} for rot in rots]
        )
        face_counts.append(sub.m - sub.n + 2)

    c = len(comps)
    total_faces = 1
    for f in face_counts:
        total_faces *= f
    sigma = sum(f - 1 for f in face_counts)
    est = total_faces * (sigma + 1) ** max(c - 1, 0)
    for rs in rot_sets:
        est *= len(rs)
    if est > guard:
        raise TooLarge(f"{est} embeddings exceed the oracle guard")

    trees = list(all_nesting_trees(c, face_counts))
    out: set[str] = set()
    for rot_combo in itertools.product(*rot_sets):
        rot: Rotation = {}
        for r in rot_combo:
            rot.update(r)
        for tree in trees:
            for ft in itertools.product(*[range(f) for f in face_counts]):
                emb = PlanarEmbedding(g, rot, tree, list(ft))
                out.add(emb.to_json())
    return out


def _order_preserving_merges(seqs: list[list]):
    """All interleavings of the given sequences keeping each in order."""
    if all(not s for s in seqs):
        yield []
        return
    for i, s in enumerate(seqs):
        if not s:
            continue
        rest = [list(x) for x in seqs]
        head = rest[i].pop(0)
        for tail in _order_preserving_merges(rest):
            yield [head] + tail


def enumerate_arrangements(
    v: int, block_rotations: list[Rotation], guard_degree: int = 9
) -> set[tuple]:
    """All planar cyclic merges at v of fixed block embeddings.

    Returns the set of rotations at v (canonical cyclic tuples of
    neighbors).  Each block's cyclic order at v survives as a cyclic
    subsequence; candidates failing Euler's check are dropped.
    """
    locals_at_v = [rot[v] for rot in block_rotations]
    delta_v = sum(len(s) for s in locals_at_v)
    if delta_v > guard_degree:
        raise TooLarge(f"degree {delta_v} exceeds the arrangement guard")

    anchor = locals_at_v[0][0]
    first_rest = locals_at_v[0][1:]
    out: set[tuple] = set()
    offset_space = [range(len(s)) for s in locals_at_v[1:]]
    for offsets in itertools.product(*offset_space):
        rotated = [
            s[k:] + s[:k] for s, k in zip(locals_at_v[1:], offsets)
        ]
        for merged in _order_preserving_merges([list(first_rest), *map(list, rotated)]):
            candidate = [anchor] + merged
            rot: Rotation = {}
            for block_rot in block_rotations:
                for x, nbrs in block_rot.items():
                    if x != v:
                        rot[x] = list(nbrs)
            rot[v] = candidate
            if _euler_ok(rot):
                out.add(canonical_cycle(candidate))
    return out


# ---------------------------------------------------------------------------
# Face identifiers
# ---------------------------------------------------------------------------

# A face is the tuple of directed edges of its boundary walk, rotated so
# the smallest directed edge comes first.
FaceBoundary = tuple[tuple[int, int], ...]


def canonical_cycle(seq: list) -> tuple:
    """Rotate a cyclic sequence so its smallest element comes first."""
    if not seq:
        return ()
    k = seq.index(min(seq))
    return tuple(seq[k:] + seq[:k])


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


def face_identifiers(emb: PlanarEmbedding, component: int) -> list[FaceBoundary]:
    """Faces of one component ordered by label; positions are the 0-based
    face identifiers used by face tuples and nesting labels."""
    comps = connected_components(emb.graph)
    if not 1 <= component <= len(comps):
        raise UnknownFace(f"component {component} does not exist")
    rot = {v: emb.rot[v] for v in comps[component - 1][1]}
    return sorted_faces(rot, component)


# ---------------------------------------------------------------------------
# Rooted labelled trees  <->  Pruefer sequences
# ---------------------------------------------------------------------------


def prufer_rank(edges, root: int, n: int) -> list[int]:
    """Pruefer sequence of a rooted tree on labels 1..n (length n-1).

    Classic encoding: repeatedly delete the smallest leaf and record its
    neighbor, until two nodes remain; appending the root label then fixes
    the root, making the map a bijection onto [1..n]^(n-1).
    """
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    count = 0
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n) or u == v or v in adj[u]:
            raise MalformedTree(f"bad tree edge ({u}, {v})")
        adj[u].add(v)
        adj[v].add(u)
        count += 1
    if n < 2 or count != n - 1 or not 1 <= root <= n:
        raise MalformedTree(f"{count} edges on {n} nodes (root {root})")
    # n-1 edges + connectivity = tree.
    reach = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in reach:
                reach.add(w)
                stack.append(w)
    if len(reach) != n:
        raise MalformedTree("input is not connected")

    degree = {v: len(adj[v]) for v in adj}
    leaves = [v for v in adj if degree[v] == 1]
    heapq.heapify(leaves)
    seq = []
    removed: set[int] = set()
    for _ in range(n - 2):
        while True:
            leaf = heapq.heappop(leaves)
            if leaf not in removed and degree[leaf] == 1:
                break
        removed.add(leaf)
        nbr = next(w for w in adj[leaf] if w not in removed)
        seq.append(nbr)
        degree[nbr] -= 1
        degree[leaf] = 0
        if degree[nbr] == 1:
            heapq.heappush(leaves, nbr)
    return seq + [root]


def prufer_unrank(seq: list[int]) -> tuple[list[tuple[int, int]], int]:
    """Rooted tree from a Pruefer sequence; returns (edges, root)."""
    n = len(seq) + 1
    for x in seq:
        if not 1 <= x <= n:
            raise MalformedTree(f"label {x} outside 1..{n}")
    root = seq[-1]
    if n == 1:
        return [], root
    body = seq[:-1]
    degree = {v: 1 for v in range(1, n + 1)}
    for x in body:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges: list[tuple[int, int]] = []
    used: set[int] = set()
    for x in body:
        while True:
            leaf = heapq.heappop(leaves)
            if leaf not in used and degree[leaf] == 1:
                break
        used.add(leaf)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    last = [v for v in range(1, n + 1) if degree[v] == 1 and v not in used]
    u, v = last
    edges.append((u, v))
    return sorted(edges), root
