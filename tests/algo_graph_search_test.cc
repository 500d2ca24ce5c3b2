#include <algorithm>
#include <set>

#include "algo/bfs.h"
#include "algo/ctc.h"
#include "algo/steiner.h"
#include "algo/truss.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace dssddi::algo {
namespace {

using graph::Graph;

Graph PathGraph(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph::FromEdges(n, edges);
}

Graph RandomConnectedGraph(int n, double p, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<int, int>> edges;
  for (int v = 1; v < n; ++v) {
    edges.emplace_back(static_cast<int>(rng.NextBelow(v)), v);  // spanning tree
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(p)) edges.emplace_back(u, v);
    }
  }
  return Graph::FromEdges(n, edges);
}

TEST(BfsTest, DistancesOnPath) {
  Graph g = PathGraph(5);
  const auto dist = BfsDistances(g, 0);
  for (int v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(BfsTest, RespectsAliveMask) {
  Graph g = PathGraph(5);
  std::vector<char> alive(5, 1);
  alive[2] = 0;  // break the path
  const auto dist = BfsDistances(g, 0, alive);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[3], kUnreachable);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(ConnectedComponentsTest, CountsComponents) {
  Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}});
  const auto comp = ConnectedComponents(g);
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_NE(comp[5], comp[3]);
}

TEST(AllConnectedTest, DetectsDisconnection) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {2, 3}});
  EXPECT_TRUE(AllConnected(g, {0, 1}));
  EXPECT_FALSE(AllConnected(g, {0, 2}));
  EXPECT_TRUE(AllConnected(g, {}));
}

TEST(DiameterTest, PathAndCompleteGraph) {
  EXPECT_EQ(Diameter(PathGraph(6)), 5);
  Graph k4 = Graph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(Diameter(k4), 1);
}

TEST(DijkstraTest, MatchesBfsOnUnitWeights) {
  Graph g = RandomConnectedGraph(20, 0.15, 5);
  std::vector<double> weights(g.num_edges(), 1.0);
  const auto bfs = BfsDistances(g, 0);
  const auto dij = DijkstraDistances(g, 0, weights);
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(dij[v], static_cast<double>(bfs[v]), 1e-9);
  }
}

TEST(DijkstraTest, PrefersLightPath) {
  // 0-1-2 with cheap edges vs direct heavy 0-2.
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  std::vector<double> weights(3);
  weights[g.EdgeId(0, 1)] = 1.0;
  weights[g.EdgeId(1, 2)] = 1.0;
  weights[g.EdgeId(0, 2)] = 5.0;
  const auto dist = DijkstraDistances(g, 0, weights);
  EXPECT_NEAR(dist[2], 2.0, 1e-9);
}

// ---------- Steiner tree ----------

bool TreeSpansTerminals(const Graph& g, const SteinerTree& tree,
                        const std::vector<int>& terminals) {
  if (!tree.connected) return false;
  std::set<int> vertices(tree.vertices.begin(), tree.vertices.end());
  for (int t : terminals) {
    if (vertices.count(t) == 0) return false;
  }
  // Check connectivity over tree edges.
  if (tree.vertices.size() <= 1) return true;
  std::vector<std::pair<int, int>> edges;
  for (int e : tree.edge_ids) edges.push_back(g.Edge(e));
  std::vector<int> remap(g.num_vertices(), -1);
  int next = 0;
  for (int v : tree.vertices) remap[v] = next++;
  for (auto& [u, v] : edges) {
    u = remap[u];
    v = remap[v];
  }
  Graph tree_graph = Graph::FromEdges(next, edges);
  std::vector<int> all(next);
  for (int i = 0; i < next; ++i) all[i] = i;
  return AllConnected(tree_graph, all);
}

TEST(SteinerTest, SingleTerminalIsTrivial) {
  Graph g = PathGraph(4);
  const auto tree = MehlhornSteinerTree(g, {2});
  EXPECT_TRUE(tree.connected);
  EXPECT_TRUE(tree.edge_ids.empty());
  EXPECT_EQ(tree.vertices, (std::vector<int>{2}));
}

TEST(SteinerTest, PathEndpointsUseWholePath) {
  Graph g = PathGraph(5);
  const auto tree = MehlhornSteinerTree(g, {0, 4});
  EXPECT_TRUE(tree.connected);
  EXPECT_EQ(tree.edge_ids.size(), 4u);
  EXPECT_NEAR(tree.total_weight, 4.0, 1e-9);
}

TEST(SteinerTest, DisconnectedTerminalsReported) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  const auto tree = MehlhornSteinerTree(g, {0, 2});
  EXPECT_FALSE(tree.connected);
}

TEST(SteinerTest, StarCenterJoinsThreeTerminals) {
  // Star: center 0, leaves 1..3. Optimal Steiner tree = the star itself.
  Graph g = Graph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}});
  const auto tree = MehlhornSteinerTree(g, {1, 2, 3});
  EXPECT_TRUE(tree.connected);
  EXPECT_EQ(tree.edge_ids.size(), 3u);
  EXPECT_TRUE(TreeSpansTerminals(g, tree, {1, 2, 3}));
}

class SteinerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SteinerPropertyTest, SpansTerminalsAndIsAcyclicOnRandomGraphs) {
  Graph g = RandomConnectedGraph(24, 0.12, GetParam());
  util::Rng rng(GetParam() + 1000);
  std::vector<int> terminals;
  for (int t : rng.SampleWithoutReplacement(24, 4)) terminals.push_back(t);
  const auto tree = MehlhornSteinerTree(g, terminals);
  EXPECT_TRUE(TreeSpansTerminals(g, tree, terminals));
  // Tree property: |E| = |V| - 1 when it spans its vertex set connectedly.
  EXPECT_EQ(tree.edge_ids.size() + 1, tree.vertices.size());
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SteinerPropertyTest,
                         ::testing::Values(2, 4, 6, 10, 12, 14, 18, 20));

// ---------- Closest truss community ----------

TEST(CtcTest, TriangleQueryReturnsTriangle) {
  Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}});
  const auto ctc = FindClosestTrussCommunity(g, TrussDecomposition(g), {0, 1});
  EXPECT_TRUE(ctc.found);
  EXPECT_GE(ctc.trussness, 3);
  std::set<int> vertices(ctc.vertices.begin(), ctc.vertices.end());
  EXPECT_TRUE(vertices.count(0) == 1 && vertices.count(1) == 1);
  EXPECT_TRUE(vertices.count(2) == 1);  // triangle completion
  EXPECT_EQ(vertices.count(5), 0u);     // far tail pruned
}

TEST(CtcTest, DisconnectedQueryNotFound) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  const auto ctc = FindClosestTrussCommunity(g, TrussDecomposition(g), {0, 2});
  EXPECT_FALSE(ctc.found);
}

TEST(CtcTest, IsolatedSingleQueryVertex) {
  Graph g = Graph::FromEdges(3, {{0, 1}});
  const auto ctc = FindClosestTrussCommunity(g, TrussDecomposition(g), {2});
  EXPECT_TRUE(ctc.found);
  EXPECT_EQ(ctc.vertices, (std::vector<int>{2}));
}

TEST(CtcTest, CommunityContainsQueryAndIsConnected) {
  Graph g = RandomConnectedGraph(40, 0.1, 123);
  const auto truss = TrussDecomposition(g);
  util::Rng rng(321);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> query;
    for (int q : rng.SampleWithoutReplacement(40, 3)) query.push_back(q);
    const auto ctc = FindClosestTrussCommunity(g, truss, query);
    ASSERT_TRUE(ctc.found);
    std::set<int> vertices(ctc.vertices.begin(), ctc.vertices.end());
    for (int q : query) EXPECT_EQ(vertices.count(q), 1u) << "missing query " << q;
    // Connectivity over community edges.
    std::vector<std::pair<int, int>> edges;
    for (int e : ctc.edge_ids) edges.push_back(g.Edge(e));
    std::vector<int> remap(g.num_vertices(), -1);
    int next = 0;
    for (int v : ctc.vertices) remap[v] = next++;
    for (auto& [u, v] : edges) {
      u = remap[u];
      v = remap[v];
    }
    Graph community = Graph::FromEdges(next, edges);
    std::vector<int> remapped_query;
    for (int q : query) remapped_query.push_back(remap[q]);
    EXPECT_TRUE(AllConnected(community, remapped_query));
  }
}

TEST(CtcTest, DenseCoreBeatsLooseAttachment) {
  // K5 core (0..4) + pendant chain 4-5-6. Query inside the core should
  // return (a subset of) the core without the chain.
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < 5; ++u) {
    for (int v = u + 1; v < 5; ++v) edges.emplace_back(u, v);
  }
  edges.emplace_back(4, 5);
  edges.emplace_back(5, 6);
  Graph g = Graph::FromEdges(7, edges);
  const auto ctc = FindClosestTrussCommunity(g, TrussDecomposition(g), {0, 3});
  EXPECT_TRUE(ctc.found);
  EXPECT_EQ(ctc.trussness, 5);
  std::set<int> vertices(ctc.vertices.begin(), ctc.vertices.end());
  EXPECT_EQ(vertices.count(5), 0u);
  EXPECT_EQ(vertices.count(6), 0u);
}

}  // namespace
}  // namespace dssddi::algo
