"""Looking inside the SPQR-tree of a biconnected graph.

The graph below is a four-cycle whose edges (2,3) and (3,4) are doubled
into theta structures, so its SPQR-tree has one S-node (the cycle), two
P-nodes (the parallel bundles) and a Q-node per edge.  Every embedding
choice lives in the P-nodes: each contributes (3-1)! = 2 orders.
"""

from planarrank import Graph
from planarrank.biconnected import biconn_bounds
from planarrank.spqr import build_spqr

g = Graph(6, [(1, 2), (1, 4), (2, 3), (2, 5), (3, 5), (3, 4), (3, 6), (4, 6)])
tree = build_spqr(g)

print("SPQR-tree dump (kind depth min-edge [skeleton edges, * = virtual]):")
print(tree.dump())
print()

p_nodes, r_nodes = tree.conventional
print(f"P-nodes in conventional order: {[n.min_edge for n in p_nodes]}")
print(f"R-nodes in conventional order: {[n.min_edge for n in r_nodes]}")
print(f"tuple bounds for this block: {biconn_bounds(tree)}")
