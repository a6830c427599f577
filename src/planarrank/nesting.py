"""Nesting of connected components: the label layout, its checks, and the
codec of nesting trees and face tuples.

A disconnected embedding adds two pieces of data on top of the component
rotations: a nesting tree (which inner face of which component hosts each
other component; children of the dummy root rho share the outer face) and
a face tuple (each component's outer face under the reference-face
projection).  The tree encodes to a (c-1)-tuple of labels by a Pruefer
variant that deletes the smallest-id leaf component and records the label
of its parent edge.

This module alone knows the labels' layout: a label is a position in the
components' inner faces laid end to end, 0 being rho's (face_intervals).

Both directions trust their input, which the ranker checks once: the
encoded tree passed nesting_problems, and the decoded digits passed
check_bounds.  Each direction is one pointer scan over flat lists, O(c);
the decode then sorts its c edges in C.
"""

from __future__ import annotations

from itertools import accumulate

NestingEdge = tuple[int, int, int]  # (parent component, child component, label); parent 0 is rho


def face_intervals(face_counts: list[int]) -> list[tuple[int, int]]:
    """Consecutive label intervals I_1..I_c over [1 .. sum(F_i - 1)].

    Interval I_h addresses the inner faces of component h; an interval is
    empty (lo > hi) for a single-face component.
    """
    los = accumulate((f - 1 for f in face_counts), initial=1)
    return [(lo, lo + f - 2) for lo, f in zip(los, face_counts)]


def nesting_problems(nesting: list[NestingEdge], face_tuple: list[int],
                     face_counts: list[int]) -> list[str]:
    """validate's checks of the face tuple and the nesting tree against
    the components' face counts, in validate's order."""
    problems: list[str] = []
    c = len(face_counts)

    # Face tuple ranges.
    if len(face_tuple) != c:
        problems.append(f"face tuple has {len(face_tuple)} entries, expected {c}")
    else:
        for i, (o, f) in enumerate(zip(face_tuple, face_counts), start=1):
            if not 0 <= o < f:
                problems.append(f"face tuple entry o_{i}={o} outside 0..{f - 1}")

    # Nesting tree: one parent per component, labels in the right intervals.
    parent: list[tuple[int, int] | None] = [None] * (c + 1)
    for p, ch, lb in nesting:
        if not (0 <= p <= c and 1 <= ch <= c):
            problems.append(f"nesting edge ({p},{ch}) names unknown components")
            continue
        if parent[ch] is not None:
            problems.append(f"component {ch} has two parents in the nesting tree")
        parent[ch] = (p, lb)
    if None in parent[1:]:
        problems.append("nesting tree does not give every component exactly one parent")
        return problems
    intervals = face_intervals(face_counts)
    for ch in range(1, c + 1):
        p, lb = parent[ch]
        if p == 0:
            if lb != 0:
                problems.append(f"edge rho-G{ch} must carry label 0, got {lb}")
        else:
            lo, hi = intervals[p - 1]
            if not lo <= lb <= hi:
                problems.append(f"edge G{p}-G{ch} label {lb} outside interval [{lo}..{hi}]")
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


def nesting_encode(nesting: list[NestingEdge], c: int) -> list[int]:
    """Pruefer-variant code of a nesting tree: c-1 edge labels.

    Repeatedly delete the leaf component with the smallest id and record
    the label of its parent edge; rho (node 0) is never deleted.  The
    leaves come from nesting_decode's pointer scan, over child counts: the
    parent just left childless is the next leaf if it lies below the
    pointer.  The first round's p = 0 starts the scan.
    """
    up = [None] * (c + 1)  # each component's (parent, label)
    children = [0] * (c + 1)
    for p, ch, lb in nesting:
        up[ch] = (p, lb)
        children[p] += 1
    out = []
    ptr = p = 0
    for _ in range(c - 1):
        if 1 <= p < ptr and not children[p]:
            leaf = p
        else:
            ptr += 1
            while children[ptr]:
                ptr += 1
            leaf = ptr
        p, lb = up[leaf]
        out.append(lb)
        children[p] -= 1
    return out


def nesting_tuple_preprocess(tau: list[int], owner: list[int], c: int
                             ) -> tuple[list[int], list[int]]:
    """Map nesting labels to parent components and count degrees.

    owner[x] is the component that owns label x (NestingCodec.owner), and
    each label passed check_bounds, so indexes it.  Returns (tau', deltas)
    where tau'_i = owner[tau_i], and deltas[h] for h in 1..c is the number
    of occurrences of h in tau' plus one, and deltas[0] that plus two.
    """
    tau_prime = [owner[x] for x in tau]
    deltas = [2] + [1] * c
    for h in tau_prime:
        deltas[h] += 1
    return tau_prime, deltas


def nesting_decode(tau: list[int], owner: list[int]) -> list[NestingEdge]:
    """Nesting tree from a (c-1)-tuple of labels (inverse of encode),
    through the label table owner (nesting_tuple_preprocess).

    The preprocessing tuple tau' maps each label to its parent component.
    Round i attaches the smallest component of remaining degree one under
    tau'_i.  A pointer scans the components upwards once: when the parent
    just attached to drops to degree one below the pointer, it is the next
    leaf; otherwise the pointer moves to the next component of degree one.
    The last leaf hangs under rho with label 0.
    """
    tau_prime, deltas = nesting_tuple_preprocess(tau, owner, len(tau) + 1)
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
    b values the face tuple entries (bounded by F_i).  owner, built once,
    holds the component of each label, rho's 0 first.
    """

    def __init__(self, face_counts: list[int]) -> None:
        self.c = len(face_counts)
        self.owner = [0] + [h for h, (lo, hi) in enumerate(face_intervals(face_counts), start=1)
                            for _ in range(lo, hi + 1)]
        self.bounds = [len(self.owner)] * (self.c - 1) + list(face_counts)

    def forward(self, nesting: list[NestingEdge], face_tuple: list[int]
                ) -> tuple[list[int], list[int]]:
        return nesting_encode(nesting, self.c), list(face_tuple)

    def inverse(self, a: list[int], b: list[int]
                ) -> tuple[list[NestingEdge], list[int]]:
        return nesting_decode(a, self.owner), list(b)
