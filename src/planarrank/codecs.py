"""Numeric bijections: mixed-radix tuples, permutations, rooted trees.

These are the arithmetic workhorses behind every ranking layer.  All of
them are exact over Python's arbitrary-precision integers; ranks of large
graphs routinely need hundreds of bits.
"""

from __future__ import annotations

import heapq
import math

from .errors import BoundViolation, LabelOutOfRange, MalformedTree, NotAPermutation, RankOutOfRange

# ---------------------------------------------------------------------------
# Mixed-radix tuples  <->  naturals
# ---------------------------------------------------------------------------


def check_bounds(values: list[int], bounds: list[int]) -> None:
    if len(values) != len(bounds):
        raise BoundViolation(f"{len(values)} values against {len(bounds)} bounds")
    for i, (b, limit) in enumerate(zip(values, bounds)):
        if limit < 1:
            raise BoundViolation(f"bound B_{i + 1}={limit} must be positive")
        if not 0 <= b < limit:
            raise BoundViolation(f"value b_{i + 1}={b} outside 0..{limit - 1}")


# Digits are combined and split by halves, so the work is a few big-number
# products and divisions instead of one full-width step per digit, which
# is quadratic in the number of digits.
_LEAF = 32


def _product_tree(bounds: list[int]) -> tuple:
    """(bound product, digit count, high half, low half) of a digit span;
    both halves are None for a span of at most _LEAF digits."""
    if len(bounds) <= _LEAF:
        return math.prod(bounds), len(bounds), None, None
    mid = len(bounds) // 2
    hi, lo = _product_tree(bounds[:mid]), _product_tree(bounds[mid:])
    return hi[0] * lo[0], len(bounds), hi, lo


def _rank_span(values: list[int], bounds: list[int], node: tuple) -> int:
    _, _, hi, lo = node
    if hi is None:
        r = 0
        for b, limit in zip(values, bounds):
            r = r * limit + b
        return r
    mid = hi[1]
    return (_rank_span(values[:mid], bounds[:mid], hi) * lo[0]
            + _rank_span(values[mid:], bounds[mid:], lo))


def tuple_rank(values: list[int], bounds: list[int]) -> int:
    """Rank of a bounded tuple: p_i = p_{i-1} * B_i + b_i, p_0 = 0.

    The first element is the most significant digit, so ranks increase
    with the lexicographic order of tuples.
    """
    check_bounds(values, bounds)
    return _rank_span(values, bounds, _product_tree(bounds))


def _unrank_span(rank: int, bounds: list[int], node: tuple) -> list[int]:
    _, _, hi, lo = node
    if hi is None:
        out = [0] * len(bounds)
        for i in range(len(bounds) - 1, -1, -1):
            rank, out[i] = divmod(rank, bounds[i])
        return out
    mid = hi[1]
    r_hi, r_lo = divmod(rank, lo[0])
    return _unrank_span(r_hi, bounds[:mid], hi) + _unrank_span(r_lo, bounds[mid:], lo)


def tuple_unrank(rank: int, bounds: list[int]) -> list[int]:
    """Inverse of tuple_rank: split by halves, then peel digits with mod/div."""
    for limit in bounds:
        if limit < 1:
            raise BoundViolation(f"bound {limit} must be positive")
    tree = _product_tree(bounds)
    if not 0 <= rank < tree[0]:
        raise RankOutOfRange(f"rank {rank} outside 0..{tree[0] - 1}")
    return _unrank_span(rank, bounds, tree)


def bounds_product(bounds: list[int]) -> int:
    return _product_tree(bounds)[0]


# ---------------------------------------------------------------------------
# Permutations of 0..k-1  <->  [0 .. k!-1]
# ---------------------------------------------------------------------------
#
# The linear-time swap scheme of Myrvold and Ruskey does not map the
# identity to 0, but the ranking layers need exactly that anchor (value 0
# must address the first skeleton embedding).  We therefore conjugate the
# raw scheme by sigma0 = raw_unrank(0): rank(p) = raw_rank(p o sigma0) and
# unrank(r) = raw_unrank(r) o sigma0^-1.  This stays O(k) and bijective.


def _raw_rank(perm: list[int]) -> int:
    k = len(perm)
    pi = list(perm)
    inv = [0] * k
    for i, p in enumerate(pi):
        inv[p] = i
    r = 0
    factor = 1
    for n in range(k, 1, -1):
        s = pi[n - 1]
        j = inv[n - 1]
        pi[n - 1], pi[j] = pi[j], pi[n - 1]
        inv[s], inv[n - 1] = inv[n - 1], inv[s]
        r += s * factor
        factor *= n
    return r


def _raw_unrank(rank: int, k: int) -> list[int]:
    pi = list(range(k))
    for n in range(k, 0, -1):
        rank, s = divmod(rank, n)
        pi[n - 1], pi[s] = pi[s], pi[n - 1]
    return pi


def _compose(a: list[int], b: list[int]) -> list[int]:
    """(a o b)(i) = a[b[i]]."""
    return [a[x] for x in b]


def _invert(p: list[int]) -> list[int]:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return inv


def _sigma0(k: int) -> list[int]:
    return _raw_unrank(0, k)


def _check_perm(perm: list[int]) -> None:
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise NotAPermutation(f"{perm!r} is not a permutation of 0..{k - 1}")


def perm_rank(perm: list[int]) -> int:
    """Rank in [0 .. k!-1]; the identity ranks to 0."""
    _check_perm(perm)
    if not perm:
        return 0
    return _raw_rank(_compose(list(perm), _sigma0(len(perm))))


def perm_unrank(rank: int, k: int) -> list[int]:
    fact = 1
    for i in range(2, k + 1):
        fact *= i
    if not 0 <= rank < fact:
        raise RankOutOfRange(f"rank {rank} outside 0..{fact - 1}")
    if k == 0:
        return []
    return _compose(_raw_unrank(rank, k), _invert(_sigma0(k)))


def factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


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


# ---------------------------------------------------------------------------
# Nesting-tuple preprocessing (Pruefer variant support)
# ---------------------------------------------------------------------------


def nesting_tuple_preprocess(
    tau: list[int], intervals: list[tuple[int, int]]
) -> tuple[list[int], dict[int, int]]:
    """Map nesting labels to parent components and count degrees.

    tau'_i is 0 for label 0 (parent rho), otherwise the h with
    tau_i in I_h.  Returns (tau', deltas) where deltas[h] is the number of
    occurrences of h in tau' plus one, and deltas[0] that plus two.
    """
    top = intervals[-1][1] if intervals else 0
    tau_prime = []
    for x in tau:
        if x == 0:
            tau_prime.append(0)
            continue
        if not 1 <= x <= top:
            raise LabelOutOfRange(f"label {x} outside 0..{top}")
        for h, (lo, hi) in enumerate(intervals, start=1):
            if lo <= x <= hi:
                tau_prime.append(h)
                break
        else:
            raise LabelOutOfRange(f"label {x} falls in no interval")
    deltas = {h: 1 for h in range(1, len(intervals) + 1)}
    deltas[0] = 2
    for h in tau_prime:
        deltas[h] += 1
    return tau_prime, deltas
