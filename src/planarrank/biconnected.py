"""Bijection between embeddings of a biconnected graph and P/R tuples.

chi reads, for every P-node, the circular order its branches take around
the lower pole, and for every R-node, which reflection the skeleton shows;
chi_inverse rebuilds the rotation system from those numbers.  Tuple layout
is all P values first, then all R bits, each group in conventional order.
Value 0 is the first embedding that SpqrTree states for each node when
built: a P value ranks the permutation of the node's children away from
their first order, an R bit flips the first reflection, which the
block's planarity witness gives.

Both directions trust their input; the ranker checks it once, where it
enters.  chi reads a block's rotation in an embedding that ``validate``
accepted: a planar rotation of the block, so at every pole the real
edges of each skeleton edge form one run and an R-node's skeleton shows
one of its two reflections.  chi_inverse's digits passed
``check_bounds``, so the tuple has the tree's layout and every value
lies within its bound.
"""

from __future__ import annotations

from bisect import bisect_right
from math import factorial

from .codecs import perm_rank, perm_unrank
from .embedding import Rotation
from .spqr import SpqrNode, SpqrTree, compose_embedding


def biconn_bounds(tree: SpqrTree) -> list[int]:
    """Bounds of the chi tuple: (delta-1)! per P-node, then 2 per R-node."""
    p_nodes, r_nodes = tree.conventional
    return [factorial(len(nd.children)) for nd in p_nodes] + [2] * len(r_nodes)


def _induced_cycle(tree: SpqrTree, nd: SpqrNode, rot: Rotation) -> list[int]:
    """Cyclic order of the node's skeleton edges around its pole induced by
    rot, each named as in SpqrTree.skeleton.

    A real edge expands from the edge toward the child whose interval holds
    its Q-node (the children's intervals split the node's own past its
    tin), or from the reference edge if the node's interval does not.  The
    real edges of one skeleton edge form a contiguous run; the run order
    is the induced order.
    """
    u, lo, hi, child_tin = nd.poles[0], nd.tin, nd.tout, nd.child_tin
    q_tin = tree.q_tin
    tokens = []
    last = None
    for w in rot[u]:
        t = q_tin[(u, w) if u < w else (w, u)]
        tok = bisect_right(child_tin, t) - 1 if lo <= t <= hi else -1
        if tok != last:
            tokens.append(tok)
            last = tok
    if len(tokens) > 1 and tokens[0] == tokens[-1]:
        tokens.pop()
    return tokens


def chi(rot: Rotation, tree: SpqrTree) -> tuple[list[int], list[int]]:
    """Tuple <p_1..p_y, r_1..r_z> of a block embedding."""
    p_nodes, r_nodes = tree.conventional
    p_vals = []
    for nd in p_nodes:
        induced = _induced_cycle(tree, nd, rot)
        i = induced.index(-1)  # the children follow the reference edge
        p_vals.append(perm_rank([nd.first[x] for x in induced[i + 1:] + induced[:i]]))

    r_vals = []
    for nd in r_nodes:
        want = list(nd.first)
        induced = _induced_cycle(tree, nd, rot)
        i = induced.index(want[0])
        r_vals.append(0 if induced[i:] + induced[:i] == want else 1)
    return p_vals, r_vals


def chi_inverse(p_vals: list[int], r_vals: list[int], tree: SpqrTree) -> Rotation:
    """Embedding of the block from a P/R tuple (inverse of chi).

    A P value becomes the node's skeleton edge names counter-clockwise
    around the lower pole: the reference edge, then the children permuted
    from their first order.  An R value is the node's flip bit.
    """
    p_nodes, r_nodes = tree.conventional
    orders: dict[int, tuple[int, ...]] = {}
    for nd, p in zip(p_nodes, p_vals):
        orders[nd.index] = (-1, *[nd.first[s] for s in perm_unrank(p, len(nd.children))])
    flips = {nd.index: r for nd, r in zip(r_nodes, r_vals)}
    return compose_embedding(tree, orders, flips)
