"""Bijection between embeddings of a biconnected graph and P/R tuples.

chi reads, for every P-node, the circular order its branches take around
the lower pole, and for every R-node, which reflection the skeleton shows;
chi_inverse rebuilds the rotation system from those numbers.  Tuple layout
is all P values first, then all R bits, each group in conventional order.
Value 0 is the first embedding that SpqrTree states for each node when
built: a P value ranks the permutation of the node's children away from
their first order, an R bit flips the first reflection, which the
block's planarity witness gives.

chi reads the rotation only through each lower pole's placement, built
once per call, and orders skeleton edges there by SpqrTree.induced, the
rule that gives the tree its first rotations from the witness.

Both directions trust their input; the ranker checks it once, where it
enters.  chi reads a block's rotation in an embedding that ``validate``
accepted: a planar rotation of the block, so at every pole the real
edges of each skeleton edge form one run and an R-node's skeleton shows
one of its two reflections.  chi_inverse's digits passed
``check_bounds``, so the tuple has the tree's layout and every value
lies within its bound.
"""

from __future__ import annotations

from math import factorial

from .codecs import perm_rank, perm_unrank
from .embedding import Rotation
from .spqr import SpqrTree, compose_embedding


def biconn_bounds(tree: SpqrTree) -> list[int]:
    """Bounds of the chi tuple: (delta-1)! per P-node, then 2 per R-node."""
    p_nodes, r_nodes = tree.conventional
    return [factorial(len(nd.children)) for nd in p_nodes] + [2] * len(r_nodes)


def chi(rot: Rotation, tree: SpqrTree) -> tuple[list[int], list[int]]:
    """Tuple <p_1..p_y, r_1..r_z> of a block embedding; a node costs its
    skeleton edges at the pole, not the pole's degree."""
    p_nodes, r_nodes = tree.conventional
    place = {u: tree.placement(u, rot[u]) for u in {nd.poles[0] for nd in p_nodes + r_nodes}}
    p_vals = []
    for nd in p_nodes:
        u = nd.poles[0]
        order = tree.induced(nd, u, range(-1, len(nd.children)), place[u])
        i = order.index(-1)  # the children follow the reference edge
        p_vals.append(perm_rank([nd.first[x] for x in order[i + 1:] + order[:i]]))

    r_vals = []
    for nd in r_nodes:
        u = nd.poles[0]
        order = tree.induced(nd, u, nd.first, place[u])
        i = order.index(nd.first[0])
        r_vals.append(0 if tuple(order[i:] + order[:i]) == nd.first else 1)
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
