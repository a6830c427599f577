"""Bijection between embeddings of a biconnected graph and P/R tuples.

chi reads, for every P-node, the circular order its branches take around
the lower pole, and for every R-node, which reflection the skeleton shows;
chi_inverse rebuilds the rotation system from those numbers.  Tuple layout
is all P values first, then all R bits, each group in conventional order.
"""

from __future__ import annotations

from bisect import bisect_right

from .codecs import factorial, perm_rank, perm_unrank
from .embedding import Rotation
from .errors import BoundViolation, EmbeddingMismatch
from .graph import edge_id
from .spqr import (
    SkeletonEmbedding,
    SpqrNode,
    SpqrTree,
    compose_embedding,
    conventional_order,
)


def biconn_bounds(tree: SpqrTree) -> list[int]:
    """Bounds of the chi tuple: (delta-1)! per P-node, then 2 per R-node."""
    p_nodes, r_nodes = conventional_order(tree)
    return [factorial(len(nd.edges) - 1) for nd in p_nodes] + [2] * len(r_nodes)


def _token_at(tree: SpqrTree, node: SpqrNode, x: int, w: int,
              child_bounds: list[tuple[int, int, int]]) -> int:
    """Skeleton edge uid of node that the real edge (x, w) expands from."""
    q = tree.qnode_of_edge[edge_id(x, w)]
    t = tree.nodes[q].tin
    if not (node.tin <= t <= node.tout):
        return node.edge_of_pair(node.ref_pair).uid
    i = bisect_right(child_bounds, (t, float("inf"), 0)) - 1
    if i >= 0:
        tin, tout, uid = child_bounds[i]
        if tin <= t <= tout:
            return uid
    raise EmbeddingMismatch(f"edge ({x},{w}) maps to no skeleton edge of node {node.index}")


def _induced_cycle(tree: SpqrTree, node: SpqrNode, x: int, rot: Rotation) -> list[int]:
    """Cyclic order of node's skeleton edges around x induced by rot.

    The real edges expanding from one skeleton edge must form a contiguous
    run in x's rotation; the run order is the induced order.
    """
    child_bounds = sorted(
        (tree.nodes[c].tin, tree.nodes[c].tout,
         node.edge_of_pair(tree.nodes[c].ref_pair).uid)
        for c in node.children
    )
    tokens = []
    for w in rot[x]:
        t = _token_at(tree, node, x, w, child_bounds)
        if not tokens or tokens[-1] != t:
            tokens.append(t)
    if len(tokens) > 1 and tokens[0] == tokens[-1]:
        tokens.pop()
    expected = sum(1 for e in node.edges if x in (e.u, e.v))
    if len(tokens) != expected or len(set(tokens)) != len(tokens):
        raise EmbeddingMismatch(
            f"skeleton runs at vertex {x} of node {node.index} are not contiguous"
        )
    return tokens


def _rotate_to(seq: list[int], first: int) -> list[int]:
    i = seq.index(first)
    return seq[i:] + seq[:i]


def chi(rot: Rotation, tree: SpqrTree) -> tuple[list[int], list[int]]:
    """Tuple <p_1..p_y, r_1..r_z> of a block embedding."""
    p_nodes, r_nodes = conventional_order(tree)
    if not p_nodes and not r_nodes:
        return [], []

    p_vals = []
    for nd in p_nodes:
        u = min(nd.poles)
        induced = _rotate_to(_induced_cycle(tree, nd, u, rot),
                             nd.edge_of_pair(nd.ref_pair).uid)
        base = tree.first_p[nd.index].order[1:]
        try:
            sigma = [base.index(t) for t in induced[1:]]
        except ValueError as exc:
            raise EmbeddingMismatch("P-node branches do not match the tree") from exc
        p_vals.append(perm_rank(sigma))

    r_vals = []
    for nd in r_nodes:
        u = min(nd.poles)
        want = tree.first_r[nd.index][u]
        induced = _rotate_to(_induced_cycle(tree, nd, u, rot), want[0])
        if induced == want:
            r_vals.append(0)
        elif induced == _rotate_to(list(reversed(want)), want[0]):
            r_vals.append(1)
        else:
            raise EmbeddingMismatch(
                f"R-node {nd.index} rotation is neither reflection of its skeleton"
            )
    return p_vals, r_vals


def chi_inverse(p_vals: list[int], r_vals: list[int], tree: SpqrTree) -> Rotation:
    """Embedding of the block from a P/R tuple (inverse of chi)."""
    p_nodes, r_nodes = conventional_order(tree)
    if len(p_vals) != len(p_nodes) or len(r_vals) != len(r_nodes):
        raise BoundViolation("tuple layout does not match the tree")

    choices: dict[int, SkeletonEmbedding] = {}
    for nd, p in zip(p_nodes, p_vals):
        k = len(nd.edges) - 1
        if not 0 <= p < factorial(k):
            raise BoundViolation(f"p={p} outside 0..{factorial(k) - 1}")
        first = tree.first_p[nd.index].order
        base = first[1:]
        sigma = perm_unrank(p, k)
        choices[nd.index] = SkeletonEmbedding(
            nd.index, order=(first[0], *[base[s] for s in sigma])
        )
    for nd, r in zip(r_nodes, r_vals):
        if r not in (0, 1):
            raise BoundViolation(f"r={r} is not a bit")
        choices[nd.index] = SkeletonEmbedding(nd.index, flip=r)
    return compose_embedding(tree, choices)
