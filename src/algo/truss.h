#ifndef DSSDDI_ALGO_TRUSS_H_
#define DSSDDI_ALGO_TRUSS_H_

#include <vector>

#include "graph/graph.h"

namespace dssddi::algo {

/// Number of triangles containing each edge (paper Definition 5's
/// sup(e, G)). Index parallel to g.edges().
std::vector<int> EdgeSupport(const graph::Graph& g);

/// Truss decomposition via support peeling (Wang & Cheng, PVLDB'12):
/// repeatedly removes the edge of minimum support; the truss number of an
/// edge is (its support at removal time) + 2. Every edge has truss >= 2.
std::vector<int> TrussDecomposition(const graph::Graph& g);

/// Maximum p such that a connected p-truss containing all of `query`
/// exists in g; 0 if the query vertices are not connected at all.
/// `truss` is TrussDecomposition(g): an edge lies in the maximal p-truss
/// of g iff its truss number is >= p, so each candidate p is one BFS
/// over those edges.
int MaxQueryTrussness(const graph::Graph& g, const std::vector<int>& truss,
                      const std::vector<int>& query);

}  // namespace dssddi::algo

#endif  // DSSDDI_ALGO_TRUSS_H_
