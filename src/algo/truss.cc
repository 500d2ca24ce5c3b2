#include "algo/truss.h"

#include <algorithm>
#include <queue>

#include "util/logging.h"

namespace dssddi::algo {

std::vector<int> EdgeSupport(const graph::Graph& g) {
  std::vector<int> support(g.num_edges(), 0);
  // For each edge (u, v), intersect sorted neighbor lists.
  for (int e = 0; e < g.num_edges(); ++e) {
    auto [u, v] = g.Edge(e);
    const auto nu = g.Neighbors(u);
    const auto nv = g.Neighbors(v);
    const int* a = nu.begin();
    const int* b = nv.begin();
    int count = 0;
    while (a != nu.end() && b != nv.end()) {
      if (*a < *b) ++a;
      else if (*b < *a) ++b;
      else { ++count; ++a; ++b; }
    }
    support[e] = count;
  }
  return support;
}

std::vector<int> TrussDecomposition(const graph::Graph& g) {
  std::vector<int> support = EdgeSupport(g);
  std::vector<int> truss(g.num_edges(), 2);
  std::vector<char> removed(g.num_edges(), 0);

  // Bucket queue over support values.
  const int max_support = g.num_edges() == 0
      ? 0
      : *std::max_element(support.begin(), support.end());
  std::vector<std::vector<int>> buckets(max_support + 1);
  for (int e = 0; e < g.num_edges(); ++e) buckets[support[e]].push_back(e);

  int processed = 0;
  int level = 0;
  int current_floor = 0;  // support values never drop below the removal floor
  while (processed < g.num_edges()) {
    while (level <= max_support && buckets[level].empty()) ++level;
    DSSDDI_CHECK(level <= max_support) << "truss peeling ran out of edges";
    const int e = buckets[level].back();
    buckets[level].pop_back();
    if (removed[e]) continue;
    if (support[e] != level) {
      // Stale bucket entry; reinsert at its true position.
      buckets[support[e]].push_back(e);
      continue;
    }
    current_floor = std::max(current_floor, support[e]);
    truss[e] = current_floor + 2;
    removed[e] = 1;
    ++processed;

    // Decrement support of edges sharing a triangle with e.
    auto [u, v] = g.Edge(e);
    if (g.Degree(u) > g.Degree(v)) std::swap(u, v);
    for (int w : g.Neighbors(u)) {
      if (w == v) continue;
      const int e_uw = g.EdgeId(u, w);
      const int e_vw = g.EdgeId(v, w);
      if (e_vw < 0) continue;
      if (removed[e_uw] || removed[e_vw]) continue;
      for (int edge : {e_uw, e_vw}) {
        if (support[edge] > current_floor) {
          --support[edge];
          buckets[support[edge]].push_back(edge);
          if (support[edge] < level) level = support[edge];
        }
      }
    }
    if (level > 0) --level;  // re-check the floor after decrements
  }
  return truss;
}

namespace {

/// Connectivity of `query` over alive edges.
bool QueryConnectedOverEdges(const graph::Graph& g, const std::vector<char>& alive_edges,
                             const std::vector<int>& query) {
  if (query.empty()) return true;
  // Any query vertex must have at least one alive incident edge unless the
  // query is a single vertex.
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
      if (!alive_edges[eids.begin()[i]]) continue;
      const int u = nbrs.begin()[i];
      if (!visited[u]) {
        visited[u] = 1;
        frontier.push(u);
      }
    }
  }
  for (int q : query) {
    if (!visited[q]) return false;
  }
  return true;
}

}  // namespace

int MaxQueryTrussness(const graph::Graph& g, const std::vector<int>& truss,
                      const std::vector<int>& query) {
  DSSDDI_CHECK(static_cast<int>(truss.size()) == g.num_edges())
      << "truss numbers must be parallel to the graph's edges";
  if (query.empty()) return 0;
  const int max_p = truss.empty() ? 2 : *std::max_element(truss.begin(), truss.end());
  std::vector<char> alive(g.num_edges());
  for (int p = max_p; p >= 2; --p) {
    for (int e = 0; e < g.num_edges(); ++e) alive[e] = truss[e] >= p;
    if (QueryConnectedOverEdges(g, alive, query)) return p;
  }
  return 0;
}

}  // namespace dssddi::algo
