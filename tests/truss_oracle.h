#ifndef DSSDDI_TESTS_TRUSS_ORACLE_H_
#define DSSDDI_TESTS_TRUSS_ORACLE_H_

// Peeling oracles for the truss code, independent of TrussDecomposition:
// they recount triangles from the adjacency instead of reading truss
// numbers, so tests can check the library's "edge in the maximal p-truss
// iff truss number >= p" shortcut against them.

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace dssddi::testing {

/// Edges of the maximal subgraph in which every edge has support >= p - 2
/// ("the p-truss of G"), by cascading removal of under-supported edges.
/// Returned as alive-edge flags parallel to edges().
inline std::vector<char> PTrussEdges(const graph::Graph& g, int p) {
  std::vector<int> support(g.num_edges(), 0);
  for (int e = 0; e < g.num_edges(); ++e) {
    auto [u, v] = g.Edge(e);
    for (int w : g.Neighbors(u)) {
      if (w != v && g.EdgeId(v, w) >= 0) ++support[e];
    }
  }
  std::vector<char> alive(g.num_edges(), 1);
  std::queue<int> to_remove;
  for (int e = 0; e < g.num_edges(); ++e) {
    if (support[e] < p - 2) to_remove.push(e);
  }
  while (!to_remove.empty()) {
    const int e = to_remove.front();
    to_remove.pop();
    if (!alive[e]) continue;
    alive[e] = 0;
    auto [u, v] = g.Edge(e);
    if (g.Degree(u) > g.Degree(v)) std::swap(u, v);
    for (int w : g.Neighbors(u)) {
      if (w == v) continue;
      const int e_uw = g.EdgeId(u, w);
      const int e_vw = g.EdgeId(v, w);
      if (e_vw < 0 || !alive[e_uw] || !alive[e_vw]) continue;
      for (int edge : {e_uw, e_vw}) {
        if (--support[edge] < p - 2 && alive[edge]) to_remove.push(edge);
      }
    }
  }
  return alive;
}

/// True iff, restricted to alive edges, every edge has support >= p - 2.
inline bool IsPTruss(const graph::Graph& g, const std::vector<char>& alive_edges, int p) {
  for (int e = 0; e < g.num_edges(); ++e) {
    if (!alive_edges[e]) continue;
    auto [u, v] = g.Edge(e);
    int support = 0;
    for (int w : g.Neighbors(u)) {
      if (w == v) continue;
      const int e_uw = g.EdgeId(u, w);
      const int e_vw = g.EdgeId(v, w);
      if (e_vw >= 0 && alive_edges[e_uw] && alive_edges[e_vw]) ++support;
    }
    if (support < p - 2) return false;
  }
  return true;
}

/// True iff every query vertex is reachable from the first over alive edges.
inline bool QueryConnectedOverEdges(const graph::Graph& g,
                                    const std::vector<char>& alive_edges,
                                    const std::vector<int>& query) {
  if (query.empty()) return true;
  std::vector<char> visited(g.num_vertices(), 0);
  std::queue<int> frontier;
  frontier.push(query.front());
  visited[query.front()] = 1;
  while (!frontier.empty()) {
    const int v = frontier.front();
    frontier.pop();
    const auto nbrs = g.Neighbors(v);
    const auto eids = g.IncidentEdges(v);
    for (int i = 0; i < nbrs.size(); ++i) {
      const int u = nbrs.begin()[i];
      if (alive_edges[eids.begin()[i]] && !visited[u]) {
        visited[u] = 1;
        frontier.push(u);
      }
    }
  }
  return std::all_of(query.begin(), query.end(), [&](int q) { return visited[q] != 0; });
}

/// Largest p whose p-truss is non-empty (2 for an edgeless graph).
inline int PeeledMaxTruss(const graph::Graph& g) {
  int p = 2;
  while (true) {
    const std::vector<char> alive = PTrussEdges(g, p + 1);
    if (std::find(alive.begin(), alive.end(), 1) == alive.end()) return p;
    ++p;
  }
}

/// MaxQueryTrussness as it was computed before the truss-number shortcut:
/// one full peel per candidate p, from the graph's max truss down to 2.
inline int PeeledMaxQueryTrussness(const graph::Graph& g, const std::vector<int>& query) {
  if (query.empty()) return 0;
  for (int p = PeeledMaxTruss(g); p >= 2; --p) {
    if (QueryConnectedOverEdges(g, PTrussEdges(g, p), query)) return p;
  }
  return 0;
}

}  // namespace dssddi::testing

#endif  // DSSDDI_TESTS_TRUSS_ORACLE_H_
