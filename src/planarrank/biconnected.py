"""Bijection between embeddings of a biconnected graph and P/R tuples.

chi reads, for every P-node, the circular order its branches take around
the lower pole, and for every R-node, which reflection the skeleton shows;
chi_inverse rebuilds the rotation system from those numbers.  Tuple layout
is all P values first, then all R bits, each group in conventional order.
Value 0 is the first embedding that SpqrTree.chi_nodes states for each
node: a P value ranks the permutation of the node's children away from
their first order, an R bit flips the first reflection.
"""

from __future__ import annotations

from bisect import bisect_right
from math import factorial

from .codecs import perm_rank, perm_unrank
from .embedding import Rotation
from .errors import BoundViolation, EmbeddingMismatch
from .spqr import SpqrNode, SpqrTree, compose_embedding


def biconn_bounds(tree: SpqrTree) -> list[int]:
    """Bounds of the chi tuple: (delta-1)! per P-node, then 2 per R-node."""
    p_nodes, r_nodes = tree.conventional
    return [factorial(len(nd.children)) for nd in p_nodes] + [2] * len(r_nodes)


def _induced_cycle(tree: SpqrTree, nd: SpqrNode, rot: Rotation) -> list[int]:
    """Cyclic order of the node's skeleton edges around its pole induced by
    rot, each named as in SpqrTree.chi_nodes.

    A real edge expands from the edge toward the child whose interval holds
    its Q-node (the children's intervals split the node's own past its
    tin), or from the reference edge if the node's interval does not.  The
    real edges of one skeleton edge must form a contiguous run; the run
    order is the induced order.
    """
    u, lo, hi, child_tin = nd.pole, nd.tin, nd.tout, nd.child_tin
    q_tin = tree.q_tin
    nbrs = rot.get(u)
    if nbrs is None:
        raise EmbeddingMismatch(f"pole {u} of node {nd.index} is not in the rotation")
    tokens = []
    last = None
    for w in nbrs:
        t = q_tin.get((u, w) if u < w else (w, u))
        if t is None:
            raise EmbeddingMismatch(f"({u},{w}) is not an edge of the block")
        if lo <= t <= hi:
            tok = bisect_right(child_tin, t) - 1
            if tok < 0:
                raise EmbeddingMismatch(
                    f"edge ({u},{w}) maps to no skeleton edge of node {nd.index}")
        else:
            tok = -1
        if tok != last:
            tokens.append(tok)
            last = tok
    if len(tokens) > 1 and tokens[0] == tokens[-1]:
        tokens.pop()
    if len(tokens) != nd.degree or len(set(tokens)) != len(tokens):
        raise EmbeddingMismatch(
            f"skeleton runs at vertex {u} of node {nd.index} are not contiguous"
        )
    return tokens


def _rotate_to(seq: list[int], first: int, nd: SpqrNode) -> list[int]:
    try:
        i = seq.index(first)
    except ValueError:
        raise EmbeddingMismatch(
            f"a skeleton edge is not at the pole of node {nd.index}") from None
    return seq[i:] + seq[:i]


def chi(rot: Rotation, tree: SpqrTree) -> tuple[list[int], list[int]]:
    """Tuple <p_1..p_y, r_1..r_z> of a block embedding."""
    p_nodes, r_nodes = tree.chi_nodes
    p_vals = []
    for nd in p_nodes:
        induced = _rotate_to(_induced_cycle(tree, nd, rot), -1, nd)  # reference first
        p_vals.append(perm_rank([nd.first[i] for i in induced[1:]]))

    r_vals = []
    for nd in r_nodes:
        want = list(nd.first)
        induced = _rotate_to(_induced_cycle(tree, nd, rot), want[0], nd)
        if induced == want:
            r_vals.append(0)
        elif induced == [want[0], *reversed(want[1:])]:
            r_vals.append(1)
        else:
            raise EmbeddingMismatch(
                f"R-node {nd.index} rotation is neither reflection of its skeleton"
            )
    return p_vals, r_vals


def chi_inverse(p_vals: list[int], r_vals: list[int], tree: SpqrTree) -> Rotation:
    """Embedding of the block from a P/R tuple (inverse of chi).

    A P value becomes the node's skeleton edge names counter-clockwise
    around the lower pole: the reference edge, then the children permuted
    from their first order.  An R value is the node's flip bit.
    """
    p_nodes, r_nodes = tree.chi_nodes
    if len(p_vals) != len(p_nodes) or len(r_vals) != len(r_nodes):
        raise BoundViolation("tuple layout does not match the tree")

    orders: dict[int, tuple[int, ...]] = {}
    for nd, p in zip(p_nodes, p_vals):
        k = len(nd.children)
        if not 0 <= p < factorial(k):
            raise BoundViolation(f"p={p} outside 0..{factorial(k) - 1}")
        orders[nd.index] = (-1, *[nd.first[s] for s in perm_unrank(p, k)])
    flips: dict[int, int] = {}
    for nd, r in zip(r_nodes, r_vals):
        if r not in (0, 1):
            raise BoundViolation(f"r={r} is not a bit")
        flips[nd.index] = r
    return compose_embedding(tree, orders, flips)
