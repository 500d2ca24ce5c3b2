#include "algo/ctc.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>

#include "algo/bfs.h"
#include "algo/steiner.h"
#include "algo/truss.h"
#include "util/logging.h"

namespace dssddi::algo {

namespace {

constexpr int kInfDist = std::numeric_limits<int>::max() / 2;

/// BFS over edges that are alive and whose endpoints are alive.
std::vector<int> BfsAliveEdges(const graph::Graph& g, int source,
                               const std::vector<char>& alive_vertex,
                               const std::vector<char>& alive_edge) {
  std::vector<int> dist(g.num_vertices(), kInfDist);
  if (!alive_vertex[source]) return dist;
  std::queue<int> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const int v = frontier.front();
    frontier.pop();
    const auto nbrs = g.Neighbors(v);
    const auto eids = g.IncidentEdges(v);
    for (int i = 0; i < nbrs.size(); ++i) {
      const int u = nbrs.begin()[i];
      if (!alive_edge[eids.begin()[i]] || !alive_vertex[u]) continue;
      if (dist[u] == kInfDist) {
        dist[u] = dist[v] + 1;
        frontier.push(u);
      }
    }
  }
  return dist;
}

/// Per-vertex query distance: max BFS distance to any query vertex.
std::vector<int> QueryDistances(const graph::Graph& g, const std::vector<int>& query,
                                const std::vector<char>& alive_vertex,
                                const std::vector<char>& alive_edge) {
  std::vector<int> result(g.num_vertices(), 0);
  for (int q : query) {
    const std::vector<int> dist = BfsAliveEdges(g, q, alive_vertex, alive_edge);
    for (int v = 0; v < g.num_vertices(); ++v) {
      result[v] = std::max(result[v], dist[v]);
    }
  }
  return result;
}

/// Removes edges whose alive support drops below p-2 (cascading), then
/// kills vertices with no alive incident edges. Query vertices are never
/// killed here; if one ends up isolated the caller detects disconnection.
void MaintainPTruss(const graph::Graph& g, int p, std::vector<char>& alive_vertex,
                    std::vector<char>& alive_edge, const std::vector<char>& is_query) {
  auto edge_alive = [&](int e) {
    auto [u, v] = g.Edge(e);
    return alive_edge[e] && alive_vertex[u] && alive_vertex[v];
  };
  auto support_of = [&](int e) {
    auto [u, v] = g.Edge(e);
    if (g.Degree(u) > g.Degree(v)) std::swap(u, v);
    int support = 0;
    for (int w : g.Neighbors(u)) {
      if (w == v || !alive_vertex[w]) continue;
      const int e_uw = g.EdgeId(u, w);
      const int e_vw = g.EdgeId(v, w);
      if (e_vw >= 0 && edge_alive(e_uw) && edge_alive(e_vw)) ++support;
    }
    return support;
  };

  std::queue<int> to_check;
  for (int e = 0; e < g.num_edges(); ++e) {
    if (edge_alive(e)) to_check.push(e);
  }
  while (!to_check.empty()) {
    const int e = to_check.front();
    to_check.pop();
    if (!edge_alive(e)) continue;
    if (support_of(e) >= p - 2) continue;
    alive_edge[e] = 0;
    // Re-check edges that shared a triangle with e.
    auto [u, v] = g.Edge(e);
    if (g.Degree(u) > g.Degree(v)) std::swap(u, v);
    for (int w : g.Neighbors(u)) {
      if (w == v) continue;
      const int e_uw = g.EdgeId(u, w);
      const int e_vw = g.EdgeId(v, w);
      if (e_vw >= 0) {
        if (edge_alive(e_uw)) to_check.push(e_uw);
        if (edge_alive(e_vw)) to_check.push(e_vw);
      }
    }
  }
  // Kill isolated non-query vertices.
  std::vector<int> alive_degree(g.num_vertices(), 0);
  for (int e = 0; e < g.num_edges(); ++e) {
    if (!edge_alive(e)) continue;
    auto [u, v] = g.Edge(e);
    ++alive_degree[u];
    ++alive_degree[v];
  }
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (alive_vertex[v] && alive_degree[v] == 0 && !is_query[v]) alive_vertex[v] = 0;
  }
}

bool QueryConnected(const graph::Graph& g, const std::vector<int>& query,
                    const std::vector<char>& alive_vertex,
                    const std::vector<char>& alive_edge) {
  if (query.size() <= 1) return !query.empty() && alive_vertex[query.front()];
  const std::vector<int> dist =
      BfsAliveEdges(g, query.front(), alive_vertex, alive_edge);
  for (int q : query) {
    if (dist[q] >= kInfDist) return false;
  }
  return true;
}

}  // namespace

ClosestTrussCommunity FindClosestTrussCommunity(const graph::Graph& g,
                                                const std::vector<int>& edge_truss,
                                                const std::vector<int>& query,
                                                const CtcOptions& options) {
  DSSDDI_CHECK(static_cast<int>(edge_truss.size()) == g.num_edges())
      << "truss index must be parallel to the graph's edges";
  ClosestTrussCommunity result;
  if (query.empty()) return result;
  for (int q : query) {
    DSSDDI_CHECK(q >= 0 && q < g.num_vertices()) << "query vertex out of range";
  }
  std::vector<int> unique_query = query;
  std::sort(unique_query.begin(), unique_query.end());
  unique_query.erase(std::unique(unique_query.begin(), unique_query.end()),
                     unique_query.end());

  if (unique_query.size() == 1 && g.Degree(unique_query.front()) == 0) {
    result.found = true;
    result.vertices = unique_query;
    return result;
  }

  // Step 1: truss distance from the global truss index makes high-truss
  // edges cheap so the Steiner tree prefers dense regions.
  const int max_truss =
      edge_truss.empty() ? 2 : *std::max_element(edge_truss.begin(), edge_truss.end());
  std::vector<double> weights(g.num_edges());
  for (int e = 0; e < g.num_edges(); ++e) {
    weights[e] = 1.0 + static_cast<double>(max_truss - edge_truss[e]);
  }

  // Step 2: Steiner tree over the query.
  const SteinerTree steiner = MehlhornSteinerTree(g, unique_query, weights);
  if (!steiner.connected) return result;  // found = false

  // Step 3: expand G'0 by adjacent edges with truss >= p'.
  int p_prime = max_truss;
  for (int e : steiner.edge_ids) p_prime = std::min(p_prime, edge_truss[e]);
  if (steiner.edge_ids.empty()) p_prime = 2;

  std::set<int> vertex_set(steiner.vertices.begin(), steiner.vertices.end());
  const int expansion_limit = options.expansion_limit > 0
      ? options.expansion_limit
      : 4 * static_cast<int>(unique_query.size()) + 16;
  // Greedy frontier of incident edges, highest truss first.
  using Item = std::pair<int, int>;  // (truss, edge)
  std::priority_queue<Item> frontier;
  std::vector<char> edge_seen(g.num_edges(), 0);
  auto push_incident = [&](int v) {
    const auto eids = g.IncidentEdges(v);
    for (int e : eids) {
      if (!edge_seen[e] && edge_truss[e] >= p_prime) {
        edge_seen[e] = 1;
        frontier.emplace(edge_truss[e], e);
      }
    }
  };
  for (int v : vertex_set) push_incident(v);
  while (static_cast<int>(vertex_set.size()) < expansion_limit && !frontier.empty()) {
    auto [t, e] = frontier.top();
    frontier.pop();
    auto [u, v] = g.Edge(e);
    const bool grew_u = vertex_set.insert(u).second;
    const bool grew_v = vertex_set.insert(v).second;
    if (grew_u) push_incident(u);
    if (grew_v) push_incident(v);
  }

  // Step 4: local truss decomposition on the induced candidate.
  std::vector<int> new_to_old;
  std::vector<int> candidate_vertices(vertex_set.begin(), vertex_set.end());
  const graph::Graph sub = g.InducedSubgraph(candidate_vertices, &new_to_old);
  std::vector<int> old_to_new(g.num_vertices(), -1);
  for (size_t i = 0; i < new_to_old.size(); ++i) old_to_new[new_to_old[i]] = static_cast<int>(i);
  std::vector<int> sub_query;
  sub_query.reserve(unique_query.size());
  for (int q : unique_query) sub_query.push_back(old_to_new[q]);

  // An edge lies in the maximal p-truss iff its truss number is >= p.
  const std::vector<int> sub_truss = TrussDecomposition(sub);
  int p = MaxQueryTrussness(sub, sub_truss, sub_query);
  if (p < 2) p = 2;
  std::vector<char> alive_edge(sub.num_edges());
  for (int e = 0; e < sub.num_edges(); ++e) alive_edge[e] = sub_truss[e] >= p;
  std::vector<char> alive_vertex(sub.num_vertices(), 0);
  std::vector<char> is_query(sub.num_vertices(), 0);
  for (int q : sub_query) is_query[q] = 1;
  {
    std::vector<int> alive_degree(sub.num_vertices(), 0);
    for (int e = 0; e < sub.num_edges(); ++e) {
      if (!alive_edge[e]) continue;
      auto [u, v] = sub.Edge(e);
      ++alive_degree[u];
      ++alive_degree[v];
    }
    for (int v = 0; v < sub.num_vertices(); ++v) {
      alive_vertex[v] = alive_degree[v] > 0 || is_query[v];
    }
  }
  // Restrict to the component containing the query.
  if (!QueryConnected(sub, sub_query, alive_vertex, alive_edge)) {
    // Guard: the Steiner tree lies inside the candidate, so the maximal
    // p-truss should connect the query; if not, keep the whole candidate.
    p = 2;
    alive_edge.assign(sub.num_edges(), 1);
    alive_vertex.assign(sub.num_vertices(), 1);
  }
  {
    const std::vector<int> dist0 =
        BfsAliveEdges(sub, sub_query.front(), alive_vertex, alive_edge);
    for (int v = 0; v < sub.num_vertices(); ++v) {
      if (dist0[v] >= kInfDist) alive_vertex[v] = 0;
    }
    for (int e = 0; e < sub.num_edges(); ++e) {
      auto [u, v] = sub.Edge(e);
      if (!alive_vertex[u] || !alive_vertex[v]) alive_edge[e] = 0;
    }
  }

  // Step 5: shrink — delete furthest vertices, maintain p-truss, keep the
  // iterate with the smallest query distance.
  std::vector<char> best_vertex = alive_vertex;
  std::vector<char> best_edge = alive_edge;
  // Query distances of the current alive state, carried from the end of
  // one iteration to the top of the next.
  std::vector<int> qd = QueryDistances(sub, sub_query, alive_vertex, alive_edge);
  int best_distance = 0;
  for (int v = 0; v < sub.num_vertices(); ++v) {
    if (alive_vertex[v] && qd[v] < kInfDist) best_distance = std::max(best_distance, qd[v]);
  }

  for (int iter = 0; iter < options.max_shrink_iterations; ++iter) {
    int community_distance = 0;
    for (int v = 0; v < sub.num_vertices(); ++v) {
      if (alive_vertex[v]) community_distance = std::max(community_distance, qd[v]);
    }
    // Delete all non-query vertices at the current maximum distance.
    bool deleted = false;
    if (community_distance > 0) {
      for (int v = 0; v < sub.num_vertices(); ++v) {
        if (alive_vertex[v] && !is_query[v] && qd[v] >= community_distance) {
          alive_vertex[v] = 0;
          deleted = true;
        }
      }
    }
    if (!deleted) break;
    for (int e = 0; e < sub.num_edges(); ++e) {
      auto [u, v] = sub.Edge(e);
      if (!alive_vertex[u] || !alive_vertex[v]) alive_edge[e] = 0;
    }
    MaintainPTruss(sub, p, alive_vertex, alive_edge, is_query);
    if (!QueryConnected(sub, sub_query, alive_vertex, alive_edge)) break;

    qd = QueryDistances(sub, sub_query, alive_vertex, alive_edge);
    int distance_after = 0;
    for (int v = 0; v < sub.num_vertices(); ++v) {
      if (alive_vertex[v] && qd[v] < kInfDist) distance_after = std::max(distance_after, qd[v]);
    }
    if (distance_after <= best_distance) {
      best_distance = distance_after;
      best_vertex = alive_vertex;
      best_edge = alive_edge;
    }
  }

  // Materialize the result in original ids.
  result.found = true;
  result.trussness = p;
  result.query_distance = best_distance >= kInfDist ? 0 : best_distance;
  for (int v = 0; v < sub.num_vertices(); ++v) {
    if (best_vertex[v]) result.vertices.push_back(new_to_old[v]);
  }
  for (int e = 0; e < sub.num_edges(); ++e) {
    auto [u, v] = sub.Edge(e);
    if (best_edge[e] && best_vertex[u] && best_vertex[v]) {
      result.edge_ids.push_back(g.EdgeId(new_to_old[u], new_to_old[v]));
    }
  }
  // Diameter of the returned community.
  {
    std::vector<char> alive(g.num_vertices(), 0);
    for (int v : result.vertices) alive[v] = 1;
    // Use only community edges for the diameter: build a scratch graph.
    std::vector<std::pair<int, int>> community_edges;
    community_edges.reserve(result.edge_ids.size());
    for (int e : result.edge_ids) community_edges.push_back(g.Edge(e));
    // Remap to compact ids.
    std::vector<int> remap(g.num_vertices(), -1);
    for (size_t i = 0; i < result.vertices.size(); ++i) remap[result.vertices[i]] = static_cast<int>(i);
    for (auto& [u, v] : community_edges) {
      u = remap[u];
      v = remap[v];
    }
    const graph::Graph community = graph::Graph::FromEdges(
        static_cast<int>(result.vertices.size()), community_edges);
    result.diameter = Diameter(community);
  }
  return result;
}

}  // namespace dssddi::algo
