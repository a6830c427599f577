"""Nesting of connected components: the codec of nesting trees and face tuples.

A disconnected embedding adds two pieces of data on top of the component
rotations: a nesting tree (which inner face of which component hosts each
other component; children of the dummy root rho share the outer face) and
a face tuple (each component's outer face under the reference-face
projection).  The tree encodes to a (c-1)-tuple of labels by a Pruefer
variant that deletes the smallest-id leaf component and records the label
of its parent edge.

Both directions trust their input; the ranker checks it once, where it
enters.  The encoded tree is an embedding's nesting tree that
``validate`` accepted: every component has one parent, and the tree is
rooted at rho.  The decoded labels and face tuple entries passed
``check_bounds``: c-1 labels, each below the label bound, and each entry
below its component's face count.
"""

from __future__ import annotations

import heapq

from .codecs import nesting_tuple_preprocess
from .embedding import NestingEdge, face_intervals


def nesting_encode(nesting: list[NestingEdge], c: int) -> list[int]:
    """Pruefer-variant code of a nesting tree: c-1 edge labels.

    Repeatedly delete the leaf component with the smallest id and record
    the label of its parent edge; rho (node 0) is never deleted.
    """
    parent: dict[int, tuple[int, int]] = {}
    children: dict[int, set[int]] = {h: set() for h in range(0, c + 1)}
    for p, ch, lb in nesting:
        parent[ch] = (p, lb)
        children[p].add(ch)

    leaves = [h for h in range(1, c + 1) if not children[h]]
    heapq.heapify(leaves)
    out = []
    for _ in range(c - 1):
        leaf = heapq.heappop(leaves)
        p, lb = parent[leaf]
        out.append(lb)
        children[p].discard(leaf)
        if p != 0 and not children[p]:
            heapq.heappush(leaves, p)
    return out


def nesting_decode(tau: list[int], face_counts: list[int]) -> list[NestingEdge]:
    """Nesting tree from a (c-1)-tuple of labels (inverse of encode).

    The preprocessing tuple tau' maps each label to its parent component.
    Round i attaches the smallest component of remaining degree one under
    tau'_i.  A pointer scans the components upwards once: when the parent
    just attached to drops to degree one below the pointer, it is the next
    leaf; otherwise the pointer moves to the next component of degree one.
    So the decode is O(c) after preprocessing.  The last leaf hangs under
    rho with label 0.
    """
    tau_prime, deltas = nesting_tuple_preprocess(tau, face_intervals(face_counts))
    edges: list[NestingEdge] = []
    ptr = 1
    while deltas[ptr] != 1:
        ptr += 1
    h = ptr
    for k, label in zip(tau_prime, tau):
        edges.append((k, h, label))
        deltas[k] -= 1
        if 1 <= k < ptr and deltas[k] == 1:
            h = k
        else:
            ptr += 1
            while deltas[ptr] != 1:
                ptr += 1
            h = ptr
    edges.append((0, h, 0))
    return sorted(edges)


class NestingCodec:
    """Rank/unrank of the nesting segment <a_1..a_{c-1}, b_1..b_c>.

    The a values are tree labels (each bounded by sum(F_i - 1) + 1), the
    b values the face tuple entries (bounded by F_i).
    """

    def __init__(self, face_counts: list[int]) -> None:
        self.face_counts = list(face_counts)
        self.c = len(face_counts)
        self.label_bound = sum(f - 1 for f in face_counts) + 1

    @property
    def bounds(self) -> list[int]:
        return [self.label_bound] * (self.c - 1) + list(self.face_counts)

    def forward(self, nesting: list[NestingEdge], face_tuple: list[int]
                ) -> tuple[list[int], list[int]]:
        a = nesting_encode(nesting, self.c)
        return a, list(face_tuple)

    def inverse(self, a: list[int], b: list[int]
                ) -> tuple[list[NestingEdge], list[int]]:
        return nesting_decode(a, self.face_counts), list(b)
