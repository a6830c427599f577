"""Numeric bijections: mixed-radix tuples, permutations, nesting labels.

These are the arithmetic workhorses behind every ranking layer.  All of
them are exact over Python's arbitrary-precision integers; ranks of large
graphs routinely need hundreds of bits.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .errors import BoundViolation, RankOutOfRange

# ---------------------------------------------------------------------------
# Mixed-radix tuples  <->  naturals
# ---------------------------------------------------------------------------


def check_bounds(values: list[int], bounds: list[int]) -> None:
    """Each value lies within its bound.  The bounds are the ranker's,
    which MixedRadix checked positive when the ranker made them."""
    if len(values) != len(bounds):
        raise BoundViolation(f"{len(values)} values against {len(bounds)} bounds")
    for i, (b, limit) in enumerate(zip(values, bounds)):
        if not 0 <= b < limit:
            raise BoundViolation(f"value b_{i + 1}={b} outside 0..{limit - 1}")


# Digits are combined and split by halves, so the work is a few big-number
# products and divisions instead of one full-width step per digit, which
# is quadratic in the number of digits.
_LEAF = 32


def _product_tree(bounds: tuple[int, ...]) -> tuple:
    """(bound product, digit count, high half, low half) of a digit span;
    both halves are None for a span of at most _LEAF digits."""
    if len(bounds) <= _LEAF:
        return math.prod(bounds), len(bounds), None, None
    mid = len(bounds) // 2
    hi, lo = _product_tree(bounds[:mid]), _product_tree(bounds[mid:])
    return hi[0] * lo[0], len(bounds), hi, lo


class MixedRadix:
    """Positive bounds B_1..B_k with their product tree, built once: what
    tuple_rank and tuple_unrank read.

    The bounds are checked here, where they are made, so neither codec
    checks them again.
    """

    __slots__ = ("bounds", "tree")

    def __init__(self, bounds: list[int]) -> None:
        for i, limit in enumerate(bounds):
            if limit < 1:
                raise BoundViolation(f"bound B_{i + 1}={limit} must be positive")
        self.bounds = tuple(bounds)
        self.tree = _product_tree(self.bounds)

    @property
    def total(self) -> int:
        """The number of tuples: the product of the bounds."""
        return self.tree[0]


def _rank_span(values: list[int], bounds: tuple[int, ...], node: tuple) -> int:
    _, _, hi, lo = node
    if hi is None:
        r = 0
        for b, limit in zip(values, bounds):
            r = r * limit + b
        return r
    mid = hi[1]
    return (_rank_span(values[:mid], bounds[:mid], hi) * lo[0]
            + _rank_span(values[mid:], bounds[mid:], lo))


def tuple_rank(values: list[int], radix: MixedRadix) -> int:
    """Rank of a bounded tuple: p_i = p_{i-1} * B_i + b_i, p_0 = 0.

    The first element is the most significant digit, so ranks increase
    with the lexicographic order of tuples.  The values are trusted: phi
    makes each within its bound.
    """
    return _rank_span(values, radix.bounds, radix.tree)


def _unrank_span(rank: int, bounds: tuple[int, ...], node: tuple) -> list[int]:
    _, _, hi, lo = node
    if hi is None:
        out = [0] * len(bounds)
        for i in range(len(bounds) - 1, -1, -1):
            rank, out[i] = divmod(rank, bounds[i])
        return out
    mid = hi[1]
    r_hi, r_lo = divmod(rank, lo[0])
    return _unrank_span(r_hi, bounds[:mid], hi) + _unrank_span(r_lo, bounds[mid:], lo)


def tuple_unrank(rank: int, radix: MixedRadix) -> list[int]:
    """Inverse of tuple_rank: split by halves, then peel digits with mod/div."""
    if not 0 <= rank < radix.total:
        raise RankOutOfRange(f"rank {rank} outside 0..{radix.total - 1}")
    return _unrank_span(rank, radix.bounds, radix.tree)


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


def perm_rank(perm: list[int]) -> int:
    """Rank in [0 .. k!-1] of a permutation of 0..k-1, as chi's sort
    makes; the identity ranks to 0."""
    if not perm:
        return 0
    return _raw_rank(_compose(perm, _sigma0(len(perm))))


def perm_unrank(rank: int, k: int) -> list[int]:
    """The permutation of 0..k-1 with this rank, which the caller keeps
    within 0..k!-1: chi_inverse's digits passed check_bounds."""
    if k == 0:
        return []
    return _compose(_raw_unrank(rank, k), _invert(_sigma0(k)))


# ---------------------------------------------------------------------------
# Nesting-tuple preprocessing (Pruefer variant support)
# ---------------------------------------------------------------------------


def nesting_tuple_preprocess(
    tau: list[int], intervals: list[tuple[int, int]]
) -> tuple[list[int], dict[int, int]]:
    """Map nesting labels to parent components and count degrees.

    The labels passed ``check_bounds``: each is 0 or lies in one of the
    intervals.  tau'_i is 0 for label 0 (parent rho), otherwise the h
    with tau_i in I_h, found by binary search over the intervals' lower
    ends (O(log c) per label).  An empty interval (lo, lo - 1) shares its
    lo with the next interval, so the search lands on the non-empty one.
    Returns (tau', deltas) where deltas[h] is the number of occurrences
    of h in tau' plus one, and deltas[0] that plus two.
    """
    los = [lo for lo, _ in intervals]
    tau_prime = [bisect_right(los, x) if x else 0 for x in tau]
    deltas = {h: 1 for h in range(1, len(intervals) + 1)}
    deltas[0] = 2
    for h in tau_prime:
        deltas[h] += 1
    return tau_prime, deltas
